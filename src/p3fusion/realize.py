"""Permutation realization of the fusion action on the minimal biset.

The biset X, written as a disjoint union of transitive pieces, is a free
right S-set; its regular right orbits form the index set J, one label per
left coset of each piece's source subgroup.  Every fusion morphism psi acts
on X through an isomorphism of the two restrictions along psi and along the
inclusion, which restricts to a permutation of J.  The group generated by
these permutations together with the outer-class permutations is checked to
be transitive, and the outer classes alone act regularly on the singleton
labels.
"""

from __future__ import annotations

import time
from array import array
from typing import NamedTuple

from .biset import FormalBiset, _restriction_split, _TransporterSearch, check_condition_a
from .errors import PrimeMismatchError, StabilityViolationError, TheoremViolationError
from .fusion import FusionSystem, matrix_closure, matrix_of_automorphism
from .group import GroupMorphism, ambient_group, identity_morphism
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
        # (R.id, piece memo, split along the inclusion, witnesses by the ids of
        # two pieces) for the last R: the memo key starts with R.id, so no piece
        # serves two R, and the state is replaced when R changes
        self._state = None


# -- label maps from fusion morphisms ---------------------------------------------

def _copies(index: BisetIndex, entries):
    """(class, block offset, positions, tracked, piece) in block order, then orbit order."""
    return ((cls, offset + k * size, pos, tr, piece) for cls, tr, orbits in entries
            for offset, size, copies in (index.classes[cls],)
            for k in range(copies) for pos, piece in orbits)


def _conjugation_witness(candidates, a_mor, b_mor):
    """The first a of candidates with a^-1 A a = A' and kappa' o c_{a^-1}|_A =
    c_b o kappa for some b: the transporters x = a^-1 of kappa into kappa',
    from a search prepared for this call (the pieces outlive it)."""
    conjugates = ambient_group(a_mor.p).conjugates_by(a_mor.source, (a.inv() for a in candidates))
    for x in _TransporterSearch(a_mor).transporters(b_mor, conjugates):
        return x.inv()
    raise StabilityViolationError("matched pieces admit no conjugation witness")


def _label_maps(index: BisetIndex, psi: GroupMorphism):
    """The permutation of J induced by an isomorphism between the restriction
    along the inclusion and the restriction along psi, streamed as the
    (source offset, source positions, target offset, images) of each matched
    pair of pieces: the label s_offset + positions[k] goes to t_offset +
    images[k].  Each check runs as its pair is read, the label count once
    all are."""
    grp = index.system.group
    mul = grp.product_table
    n = len(grp.elements)
    r_sub = psi.source
    psi_table, r_pos = psi.table, r_sub.position
    if index._state is None or index._state[0] != r_sub.id:
        index._state = None  # the last R's pieces and witnesses go before the new split
        pieces = {}
        index._state = (r_sub.id, pieces, _restriction_split(
            index.items, identity_morphism(r_sub), pieces), {})
    _, pieces, (source, source_pieces), witnesses = index._state
    target, target_pieces = _restriction_split(index.items, psi, pieces)
    if source != target:
        cls = next(c for c in sorted(source.coeffs.keys() | target.coeffs.keys())
                   if source.coefficient(c) != target.coefficient(c))
        raise StabilityViolationError(
            f"restrictions along the inclusion and along psi differ on {cls!r}: "
            f"multiplicity {source.coefficient(cls)} against {target.coefficient(cls)}")
    # a^-1 passes or fails with all of aZ: try the first a of each coset in R
    candidates = [a for a in r_sub if a.c == 0 or grp.z not in r_sub]
    # (source orbit, target orbit, witness) -> the target coset of each source
    # position; orbits live through the call, so their ids key them.  Every
    # orbit of J is the target of one pair, so the map is bijective if each
    # pair is and the pairs cover J
    relative = {}
    covered = 0
    for piece_cls, sources in source_pieces.items():
        for (_, s_offset, s_positions, s_tracked, s_mor), (t_cls, t_offset, t_positions, _, t_mor) \
                in zip(_copies(index, sources), _copies(index, target_pieces[piece_cls])):
            w = witnesses.get(pair := (id(s_mor), id(t_mor)))
            if w is None:
                w = witnesses[pair] = _conjugation_witness(candidates, s_mor, t_mor).code()
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
            covered += len(s_positions)
            yield s_offset, s_positions, t_offset, images
    if covered != index.size:
        raise StabilityViolationError("induced map on labels is not a permutation")


def perm_from_morphism(index: BisetIndex, psi: GroupMorphism) -> array:
    """The label maps along psi, read into one permutation of J."""
    perm = array("l", [-1]) * index.size
    for s_offset, positions, t_offset, images in _label_maps(index, psi):
        for pos, image in zip(positions, images):
            perm[s_offset + pos] = t_offset + image
    return perm


# -- orbit computation ------------------------------------------------------------

def _forest(n: int) -> list:
    """n one-label orbits: each root holds the shared -1, not an int of its own."""
    return [-1] * n


def _join_orbits(parent, maps, orbits: int) -> int:
    """Join the orbits of each label and its image under the label maps (as
    _label_maps streams them) in the flat forest `parent` from _forest (paths
    halve) with `orbits` orbits; returns the count left.  Once it is one,
    nothing more is joined, but maps is still read to its end, so every check
    that reading it makes still runs."""
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


def _noting_singletons(maps, j0_images: dict):
    """maps as read, with the image of each singleton label (the source offset
    of a singleton block, a key of j0_images) noted in j0_images."""
    for entry in maps:
        if entry[0] in j0_images:
            j0_images[entry[0]] = entry[2] + entry[3][0]
        yield entry


def _out_generator_matrices(system: FusionSystem):
    """A small generating subset of the outer matrix group."""
    mats = system.sorted_out
    gens = []
    generated = {mats[0] * mats[0].inv()}
    for m in mats:
        if m not in generated:
            gens.append(m)
            generated = matrix_closure(system.p, gens)
            if len(generated) == len(mats):
                break
    return gens


def j0_class_action_checks(system: FusionSystem, biset: FormalBiset):
    """Regular action of the outer classes on the singleton labels.

    The singleton classes [S, sigma] must biject with the outer matrices;
    granting that, [S, sigma] -> [S, sigma o alpha] is right multiplication
    in the matrix group, which is free and transitive.  The bijection is the
    substantive check; it fails if the top layer ever collapses classes."""
    top = biset.layer(0)
    mats = {matrix_of_automorphism(cls.rep) for cls in top.support}
    if mats != set(system.sorted_out):
        return False, "singleton classes do not biject with the outer matrices"
    if len(top.support) != len(system.sorted_out):
        return False, "top layer collapses outer classes"
    return True, None


class RealizationReport(NamedTuple):
    system_name: str
    j_size: int
    generator_count: int
    orbit_count: int
    j0_size: int
    j0_orbit_count: int
    j0_regular: bool
    extra_essential_generators: int
    used_all_out_reps: bool
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return self.orbit_count == 1 and self.j0_orbit_count == 1 and self.j0_regular

    def to_json(self) -> dict:
        return {
            "system": self.system_name,
            "J_size": self.j_size,
            "generator_count": self.generator_count,
            "orbit_count": self.orbit_count,
            "J0_size": self.j0_size,
            "J0_orbit_count": self.j0_orbit_count,
            "J0_regular": self.j0_regular,
            "extra_essential_generators": self.extra_essential_generators,
            "used_all_out_reps": self.used_all_out_reps,
            "ok": self.ok,
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
    """Orbit count of the realized fusion generators on J, plus the regular
    action of the outer classes on the singleton labels.

    At p = 3 every outer class contributes a permutation; otherwise a
    generating subset is used.  The subset generates a subgroup of the full
    realized group, so a single orbit for the subset certifies transitivity
    of the whole.  Every generator's label maps are read to the end, even
    once J is one orbit, so that every check runs for each of them, and the
    J0 check reads the outer generators' images of the singleton labels.
    """
    start = time.perf_counter()
    if biset is None:
        biset = minimal_biset(system, certify=False).biset
    index = BisetIndex(system, biset)
    all_out_reps = system.p <= 3
    parent = _forest(index.size)
    orbits = index.size
    essentials = essential_generators(system)
    for rep in essentials:
        orbits = _join_orbits(parent, _label_maps(index, rep.morphism), orbits)
    out_mats = list(system.sorted_out) if all_out_reps else _out_generator_matrices(system)
    out_j0_images = []  # of each outer generator only its images of J0 are kept
    for m in out_mats:
        # [S, sigma] -> [S, sigma o alpha]: the maps along alpha^-1
        j0_images = dict.fromkeys(index.j0)
        maps = _label_maps(index, system.out_lifts[m].inverse())
        orbits = _join_orbits(parent, _noting_singletons(maps, j0_images), orbits)
        out_j0_images.append((m, list(j0_images.values())))
    extra = 0
    for rep in (rep for cls in system.spec.classes for i in sorted(cls.members)
                for rep in system.v_source_reps(i)
                if rep.extendable is False and rep.meta[0] == rep.meta[1] == i):
        if orbits == 1:
            break
        orbits = _join_orbits(parent, _label_maps(index, rep.morphism), orbits)
        extra += 1
    if orbits > 1:
        raise TheoremViolationError(
            f"{orbits} orbits remain on J with the maximal generator set")
    # singleton-label subcheck: classes biject with the outer matrices, so the
    # class action is regular; the outer generators are checked on J0
    j0_regular, reason = j0_class_action_checks(system, biset)
    if not j0_regular:
        raise TheoremViolationError(reason)
    j0_pos = {label: k for k, label in enumerate(index.j0)}
    j0_parent = _forest(len(index.j0))
    j0_orbits = len(index.j0)
    for m, images in out_j0_images:
        j0_perm = []
        for label, image in zip(index.j0, images):
            if image not in j0_pos:
                raise TheoremViolationError("outer image leaves the singleton labels")
            if image == label and not m.is_identity():
                raise TheoremViolationError(
                    "a nontrivial outer permutation fixes a singleton label")
            j0_perm.append(j0_pos[image])
        j0_orbits = _join_orbits(j0_parent, ((0, range(len(j0_perm)), 0, j0_perm),), j0_orbits)
    return RealizationReport(
        system_name=system.spec.name,
        j_size=index.size,
        generator_count=len(essentials) + len(out_j0_images) + extra,
        orbit_count=orbits,
        j0_size=len(index.j0),
        j0_orbit_count=j0_orbits,
        j0_regular=j0_regular,
        extra_essential_generators=extra,
        used_all_out_reps=all_out_reps,
        wall_time_s=time.perf_counter() - start,
    )
