"""Permutation realization of the fusion action on the minimal biset.

The biset X, written as a disjoint union of transitive pieces, is a free
right S-set; its regular right orbits form the index set J, one label per
left coset of each piece's source subgroup.  Every fusion morphism psi acts
on X through an isomorphism of the two restrictions along psi and along the
inclusion, which restricts to a permutation of J.  The group generated by
these permutations together with the outer-class permutations is checked to
be transitive, and the outer classes alone act regularly on the singleton
labels.  A failed check raises, so every report that is returned reads one
orbit on J and on the singleton labels.

Most of J is copies: a class of multiplicity m owns m blocks of labels, and
a morphism's label maps mostly send copy k of one class to copy k of
another.  The maps are streamed as runs of lockstep copies, and the orbits
are counted on the copy quotient: a run over every copy of two classes is
joined once, over the class-level labels, and only the others are joined
copy by copy, once all generators are read.
"""

from __future__ import annotations

import time
from array import array
from typing import NamedTuple

from .biset import FormalBiset, _restriction_split, _TransporterSearch, check_condition_a
from .errors import PrimeMismatchError, StabilityViolationError, TheoremViolationError
from .fusion import FusionSystem, matrix_of_automorphism
from .group import GroupMorphism, identity_morphism
from .solver import minimal_biset


class BisetIndex:
    """The labelled index set J of a genuine S-S-biset: one label per left
    coset of each summand's source, numbered as in coset_index.  classes maps
    a class to (offset of its first copy, block size, copies)."""

    def __init__(self, system: FusionSystem, biset: FormalBiset):
        if biset.p != system.p:
            raise PrimeMismatchError(f"a biset over p={biset.p} for a system over p={system.p}")
        if not biset.is_genuine():
            raise ValueError("the index set needs nonnegative integer multiplicities")
        check_condition_a(system, biset)
        self.system = system
        self.items = biset.items()  # sorted once: the splits read this order
        self.classes = {}
        offset = 0
        for cls, mult in self.items:
            size, copies = system.group.full.order // cls.source.order, int(mult)
            self.classes[cls] = (offset, size, copies)
            offset += copies * size
        self.size = offset
        self.j0 = tuple(start + k for start, size, copies in self.classes.values()
                        if size == 1 for k in range(copies))
        # (R.id, piece memo, split along the inclusion, witnesses by pairs of
        # pieces, conjugates by A.id) for the last R: the memo key starts with
        # R.id, so no piece serves two R, and the state is replaced when R changes
        self._state = None


# -- label maps from fusion morphisms ---------------------------------------------

def _lockstep(index: BisetIndex, sources, targets):
    """The pairs that zipping the copies of sources and of targets makes, each
    side read class by class, copy by copy and orbit by orbit, gathered into
    runs of lockstep copies: ((class, first copy, orbit, tracked) of the
    source, (class, first copy, orbit) of the target, copies).  Where both
    fronts hold as many orbits a copy, a run spans the copies both have left;
    elsewhere the first copy of each front is split into its orbits."""
    # each front is a stack, its next segment last
    fronts = s_front, t_front = [[(cls, tracked, orbits, 0, index.classes[cls][2])
                                  for cls, tracked, orbits in reversed(side)]
                                 for side in (sources, targets)]
    while s_front:
        (s_cls, s_tracked, s_orbits, s_k, s_left), (t_cls, _, t_orbits, t_k, t_left) = \
            s_front[-1], t_front[-1]
        aligned = len(s_orbits) == len(t_orbits)
        copies = min(s_left, t_left) if aligned else 1
        if aligned:
            for s_orbit, t_orbit in zip(s_orbits, t_orbits):
                yield (s_cls, s_k, s_orbit, s_tracked), (t_cls, t_k, t_orbit), copies
        for front in fronts:
            cls, tracked, orbits, k, left = front.pop()
            if left > copies:
                front.append((cls, tracked, orbits, k + copies, left - copies))
            if not aligned:
                front.extend((cls, tracked, (orbit,), k, 1) for orbit in reversed(orbits))


def _conjugation_witness(conjugates, a_mor, b_mor):
    """The first candidate a, one per coset aZ in R as a^-1 passes or fails
    with all of aZ, with a^-1 A a = A' and kappa' o c_{a^-1}|_A = c_b o kappa
    for some b: the first transporter x = a^-1 among A's conjugates (x, codes)."""
    for x in _TransporterSearch(a_mor).transporters(b_mor, conjugates):
        return x.inv()
    raise StabilityViolationError("matched pieces admit no conjugation witness")


def _label_maps(index: BisetIndex, psi: GroupMorphism):
    """The permutation of J induced by an isomorphism between the restriction
    along the inclusion and the restriction along psi, streamed as one run
    (source block, target block, copies, positions, images) per run of
    lockstep copies, a block being (index.classes entry, copy): for k <
    copies, the label positions[i] of the k-th block after the source block
    goes to images[i] of the k-th block after the target block.  Each check
    runs as its run is read, the label count once all are."""
    grp = index.system.group
    mul = grp.product_table
    n = len(grp.elements)
    r_sub = psi.source
    psi_table, r_pos = psi.table, r_sub.position
    if index._state is None or index._state[0] != r_sub.id:
        index._state = None  # the last R's state goes before the new split
        index._state = (r_sub.id, (pieces := {}), _restriction_split(
            index.items, identity_morphism(r_sub), pieces), {}, {})
    _, pieces, (source, source_pieces), witnesses, conjugates = index._state
    target, target_pieces = _restriction_split(index.items, psi, pieces)
    if source != target:
        cls = next(c for c in sorted(source.coeffs.keys() | target.coeffs.keys())
                   if source.coefficient(c) != target.coefficient(c))
        raise StabilityViolationError(
            f"restrictions along the inclusion and along psi differ on {cls!r}: "
            f"multiplicity {source.coefficient(cls)} against {target.coefficient(cls)}")
    # (source orbit, target orbit, witness) -> the target coset of each source
    # position; orbits live through the call, so their ids key them.  Every
    # orbit of J is the target of one pair, so the map is bijective if each
    # pair is and the pairs cover J
    relative = {}
    covered = 0
    for piece_cls, sources in source_pieces.items():
        for (s_cls, s_k, (s_positions, s_mor), s_tracked), (t_cls, t_k, (t_positions, t_mor)), \
                copies in _lockstep(index, sources, target_pieces[piece_cls]):
            # a piece matched with itself takes a = 1, the first candidate, which passes
            w = 0 if s_mor is t_mor else witnesses.get(pair := (s_mor, t_mor))
            if w is None:  # A's conjugates by the first a of each aZ in R, once per A
                if (found := conjugates.get(s_mor.source.id)) is None:
                    found = conjugates[s_mor.source.id] = tuple(grp.conjugates_by(
                        s_mor.source, [a.inv() for a in r_sub if a.c == 0 or grp.z not in r_sub]))
                w = witnesses[pair] = _conjugation_witness(found, s_mor, t_mor).code()
            key = (id(s_positions), id(t_positions), w)
            images = relative.get(key)
            if images is None:
                t_reps, t_pos = grp.coset_index(t_cls.rep.source)
                t = t_reps[t_positions[0]]
                images = relative[key] = array("l", [
                    t_pos[mul[psi_table[r_pos[mul[s_tracked[k] * n + w]]] * n + t]][0]
                    for k in s_positions])
                if array("l", sorted(images)) != t_positions:
                    raise StabilityViolationError(
                        "induced map on labels is not a permutation")
            covered += copies * len(s_positions)
            yield (index.classes[s_cls], s_k), (index.classes[t_cls], t_k), copies, s_positions, images
    if covered != index.size:
        raise StabilityViolationError("induced map on labels is not a permutation")


def _label_pairs(run):
    """(label, image) for each label of J that a run from _label_maps moves."""
    ((s_offset, s_size, _), s_k), ((t_offset, t_size, _), t_k), copies, positions, images = run
    for k in range(copies):
        s, t = s_offset + (s_k + k) * s_size, t_offset + (t_k + k) * t_size
        for pos, image in zip(positions, images):
            yield s + pos, t + image


def perm_from_morphism(index: BisetIndex, psi: GroupMorphism) -> array:
    """The label maps along psi, read into one permutation of J."""
    perm = array("l", [-1]) * index.size
    for run in _label_maps(index, psi):
        for label, image in _label_pairs(run):
            perm[label] = image
    return perm


# -- orbit computation ------------------------------------------------------------

def _join_orbits(parent, maps, orbits: int) -> int:
    """Join the orbits of each label and its image under the maps
    (offset, positions, target offset, images), label offset + positions[k]
    going to target offset + images[k], in the forest `parent` (paths halve;
    a root holds a negative entry) with `orbits` orbits; returns the count
    left.  Once it is one, nothing more is joined, but maps is still read to
    its end, so every check that reading it makes still runs."""
    for s_offset, positions, t_offset, images in maps:
        if orbits == 1:
            continue
        for i, j in zip(positions, images):
            i += s_offset
            j += t_offset
            while (up := parent[i]) >= 0:
                if (top := parent[up]) < 0:
                    i = up
                    break
                parent[i] = i = top
            while (up := parent[j]) >= 0:
                if (top := parent[up]) < 0:
                    j = up
                    break
                parent[j] = j = top
            if i != j:
                parent[j] = i
                orbits -= 1
                if orbits == 1:
                    break
    return orbits


class _Nodes(dict):
    """A sparse forest for _join_orbits: a node never joined is a root."""

    def __missing__(self, node):
        return -1


def _root(parent, i: int) -> int:
    """The root of i's tree in a forest of _join_orbits."""
    while (up := parent[i]) >= 0:
        i = up
    return i


class _Orbits:
    """The orbits on J of the runs joined so far, counted on the copy quotient.

    T is the class-level label set, the positions of one block of each class.
    A whole-class run, from copy 0 to copy 0 of two classes of equal
    multiplicity m over all m copies, joins copy k to copy k for every k, so
    it is joined once, in a forest over T whose roots each hold minus their
    multiplicity: a T-orbit C is m_C orbits of J.  Every other run is kept
    and joined when the orbits are counted, in a sparse forest over the
    (T-root, copy) nodes.  Joining the whole-class runs first contracts
    edges of the label graph, so the count is its component count."""

    def __init__(self, index: BisetIndex):
        self.t_offset, self.parent, self.deferred = {}, [], []
        for offset, size, copies in index.classes.values():
            self.t_offset[offset] = len(self.parent)
            self.parent += [-copies] * size
        self.t_count = len(self.parent)

    def _whole_class_maps(self, runs):
        """The whole-class runs as maps over T; the others are kept."""
        t_offset = self.t_offset
        for run in runs:
            (s_block, _), (t_block, _), copies, positions, images = run
            if copies == s_block[2] == t_block[2]:  # so both start at copy 0
                yield t_offset[s_block[0]], positions, t_offset[t_block[0]], images
            else:
                self.deferred.append(run)

    def join(self, runs):
        """Join the runs as _label_maps streams them.  They are read to their
        end, even once T is one orbit, so every check that reading them makes
        runs."""
        self.t_count = _join_orbits(self.parent, self._whole_class_maps(runs), self.t_count)

    def count(self) -> int:
        """The orbits of J: m_C for each T-orbit C, less the joins of the kept runs."""
        parent, width, maps = self.parent, len(self.parent), []
        for (s_block, s_k), (t_block, t_k), copies, positions, images in self.deferred:
            s, t = self.t_offset[s_block[0]], self.t_offset[t_block[0]]
            s_roots = [_root(parent, s + pos) for pos in positions]
            t_roots = [_root(parent, t + image) for image in images]
            maps += ((width * (s_k + k), s_roots, width * (t_k + k), t_roots) for k in range(copies))
        return _join_orbits(_Nodes(), maps, -sum(v for v in parent if v < 0))


def _noting_singletons(runs, j0_images: dict):
    """runs as read, with the images of the singleton labels, the labels of
    blocks of size 1, noted in j0_images."""
    for run in runs:
        if run[0][0][1] == 1:
            j0_images.update(_label_pairs(run))
        yield run


def j0_class_action_checks(system: FusionSystem, biset: FormalBiset):
    """Regular action of the outer classes on the singleton labels, or
    TheoremViolationError.

    The singleton classes [S, sigma] must biject with the outer matrices;
    granting that, [S, sigma] -> [S, sigma o alpha] is right multiplication
    in the matrix group, which is free and transitive.  The bijection is the
    substantive check; it fails if the top layer ever collapses classes."""
    top = biset.layer(0)
    mats = {matrix_of_automorphism(cls.rep) for cls in top.support}
    if mats != set(system.sorted_out):
        raise TheoremViolationError("singleton classes do not biject with the outer matrices")
    if len(top.support) != len(system.sorted_out):
        raise TheoremViolationError("top layer collapses outer classes")


class RealizationReport(NamedTuple):
    system_name: str
    j_size: int
    generator_count: int
    j0_size: int
    used_all_out_reps: bool
    wall_time_s: float
    # constants, not fields: check_transitivity raises unless J and the
    # singleton labels are each one orbit, the outer classes acting regularly
    # on the latter; perfbench reads them off the report
    orbit_count = 1
    j0_orbit_count = 1
    j0_regular = True

    def to_json(self) -> dict:
        return {
            "system": self.system_name,
            "J_size": self.j_size,
            "generator_count": self.generator_count,
            "orbit_count": self.orbit_count,
            "J0_size": self.j0_size,
            "J0_orbit_count": self.j0_orbit_count,
            "J0_regular": self.j0_regular,
            # always 0, as no generator beyond the essential and outer ones is
            # tried; the key stays so that the output does not change
            "extra_essential_generators": 0,
            "used_all_out_reps": self.used_all_out_reps,
            "ok": True,  # as the constants above: a failed check raises
            "wall_time_s": round(self.wall_time_s, 3),
        }


def essential_generators(system: FusionSystem):
    """One nonextendable automorphism of V_i per conjugacy class of lines."""
    picks = []
    for cls in system.spec.classes:
        i0 = min(cls.members)
        reps = [r for r in system.v_source_reps(i0)
                if r.extendable is False and r.meta[1] == i0]
        reps.sort(key=lambda r: r.meta)
        picks.append(reps[0])
    return picks


def check_transitivity(system: FusionSystem,
                       biset: FormalBiset | None = None) -> RealizationReport:
    """Certify that the realized fusion generators make J one orbit, and that
    the outer generators make the singleton labels one orbit with no
    nontrivial one fixing a label; TheoremViolationError otherwise.

    At p = 3 every outer class contributes a permutation; otherwise a
    generating subset is used.  The subset generates a subgroup of the full
    realized group, so a single orbit for the subset certifies transitivity
    of the whole.  Every generator's label maps are read to the end, so that
    every check runs for each of them, and the orbits are counted once they
    all are.  Each outer generator's images of the singleton labels are
    checked as soon as its maps are read, and their orbits are counted
    before those of J.
    """
    start = time.perf_counter()
    if biset is None:
        biset = minimal_biset(system, certify=False).biset
    index = BisetIndex(system, biset)
    j0_class_action_checks(system, biset)
    all_out_reps = system.p <= 3
    orbits = _Orbits(index)
    essentials = essential_generators(system)
    for rep in essentials:
        orbits.join(_label_maps(index, rep.morphism))
    out_mats = system.sorted_out if all_out_reps else system.out_generators
    j0_pos = {label: k for k, label in enumerate(index.j0)}
    j0_parent, j0_orbits = [-1] * len(index.j0), len(index.j0)
    for m in out_mats:
        # [S, sigma] -> [S, sigma o alpha]: the maps along alpha^-1
        j0_images = dict.fromkeys(index.j0)
        orbits.join(_noting_singletons(_label_maps(index, system.out_lifts[m].inverse()),
                                       j0_images))
        j0_perm = []
        for label, image in j0_images.items():
            if image not in j0_pos:
                raise TheoremViolationError("outer image leaves the singleton labels")
            if image == label and not m.is_identity():
                raise TheoremViolationError(
                    "a nontrivial outer permutation fixes a singleton label")
            j0_perm.append(j0_pos[image])
        j0_orbits = _join_orbits(j0_parent, ((0, range(len(j0_perm)), 0, j0_perm),), j0_orbits)
    if j0_orbits != 1:
        raise TheoremViolationError(
            f"{j0_orbits} orbits remain on the singleton labels with the outer generators")
    count = orbits.count()
    if count > 1:
        raise TheoremViolationError(
            f"{count} orbits remain on J with the essential and outer generators")
    return RealizationReport(
        system_name=system.spec.name,
        j_size=index.size,
        generator_count=len(essentials) + len(out_mats),
        j0_size=len(index.j0),
        used_all_out_reps=all_out_reps,
        wall_time_s=time.perf_counter() - start,
    )
