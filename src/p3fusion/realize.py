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
from dataclasses import dataclass

from .biset import FormalBiset, _solvable_2var, biset_class
from .errors import StabilityViolationError, TheoremViolationError
from .fusion import FusionMorphism, FusionSystem
from .group import GroupMorphism, Subgroup, commutator


@dataclass
class Block:
    index: int
    cls: object          # BisetClass of the summand
    copy: int
    offset: int
    size: int


class BisetIndex:
    """The labelled index set J of a genuine S-S-biset."""

    def __init__(self, system: FusionSystem, biset: FormalBiset,
                 paper_transversals: bool = True):
        if not biset.is_genuine():
            raise ValueError("the index set needs nonnegative integer multiplicities")
        self.system = system
        self.biset = biset
        self.p = system.p
        grp = system.group
        self._transversals = {}
        self._rep_index = {}
        self._paper = paper_transversals
        blocks = []
        offset = 0
        for cls, mult in biset.items():
            reps = self.transversal(cls.rep.source)
            for copy in range(int(mult)):
                blocks.append(Block(len(blocks), cls, copy, offset, len(reps)))
                offset += len(reps)
        self.blocks = blocks
        self.size = offset
        if self.size != biset.e():
            raise ValueError("index size disagrees with the biset size")
        self.j0 = tuple(b.offset for b in blocks if b.size == 1)
        self._blocks_by_class = {}
        for b in blocks:
            self._blocks_by_class.setdefault(b.cls.uid, []).append(b.index)
        self._source_pieces = {}
        self._piece_classes = {}

    # -- coset bookkeeping ----------------------------------------------------

    def transversal(self, q: Subgroup) -> tuple:
        key = q.elements
        cached = self._transversals.get(key)
        if cached is not None:
            return cached
        reps = self._choose_transversal(q)
        covered = set()
        for t in reps:
            coset = frozenset(t * h for h in q.elements)
            if coset & covered:
                raise ValueError("transversal candidates overlap")
            covered |= coset
        if len(covered) != self.system.group.full.order:
            raise ValueError("transversal does not cover the group")
        self._transversals[key] = reps
        index = {}
        for pos, t in enumerate(reps):
            for h in q.elements:
                index[t * h] = pos
        self._rep_index[key] = index
        return reps

    def _choose_transversal(self, q: Subgroup) -> tuple:
        grp = self.system.group
        p = self.p
        if q.order == p**3:
            return (grp.identity,)
        if not self._paper:
            return grp.transversal(q)
        u0 = self.system.u[0]
        # v with [v, u0] = z, taken outside V_0
        v = next(g for g in grp.elements
                 if commutator(g, u0) == grp.z)
        if q.order == p * p:
            i = grp.line_of(next(g for g in q.elements if not g.is_central()))
            w = v if i == 0 else u0
            return tuple(w**t for t in range(p))
        if q.order == p:
            gen = q.canonical_gens[0]
            if gen.is_central():
                return grp.transversal(q)
            i = grp.line_of(gen)
            w = v if i == 0 else u0
            return tuple(w**t * grp.z**s for t in range(p) for s in range(p))
        return grp.transversal(q)

    def rep_index(self, q: Subgroup) -> dict:
        self.transversal(q)
        return self._rep_index[q.elements]

    def blocks_of_class(self, cls) -> list:
        return self._blocks_by_class.get(cls.uid, [])


def build_index_set(system: FusionSystem, biset: FormalBiset,
                    paper_transversals: bool = True) -> BisetIndex:
    return BisetIndex(system, biset, paper_transversals=paper_transversals)


# -- permutations from fusion morphisms -----------------------------------------

def _split_block(index: BisetIndex, block: Block, gen_pairs):
    """Split a block's labels into left orbits of the moving maps.

    gen_pairs are (r, m) with r the abstract generator tracked along the
    orbit and m the element actually multiplying the cosets (r itself for the
    plain restriction, psi(r) for the twisted one).
    Returns a list of (pos0, positions, v_of_pos)."""
    q = block.cls.rep.source
    reps = index.transversal(q)
    rep_idx = index.rep_index(q)
    seen = [False] * len(reps)
    pieces = []
    identity = index.system.group.identity
    for start in range(len(reps)):
        if seen[start]:
            continue
        v_of = {start: identity}
        frontier = [start]
        seen[start] = True
        positions = [start]
        while frontier:
            pos = frontier.pop()
            v = v_of[pos]
            t = reps[pos]
            for r, m in gen_pairs:
                pos2 = rep_idx[m * t]
                if not seen[pos2]:
                    seen[pos2] = True
                    v_of[pos2] = r * v
                    positions.append(pos2)
                    frontier.append(pos2)
        pieces.append((start, positions, v_of))
    return pieces


def _piece_class(index: BisetIndex, block: Block, t0, r_sub, psi_pair):
    """Class of the restriction piece at double-coset representative t0.

    The piece source A collects everything of R landing back in Q after
    conjugation by t0 (through psi on the twisted side); A is found by
    scanning the conjugated Q, which is the smaller side.  Piece classes
    repeat heavily across blocks, so they are memoised by content."""
    system = index.system
    p = system.p
    q = block.cls.rep.source
    sigma = block.cls.rep.mapping
    t0i = t0.inv()
    if psi_pair is None:
        a_elems = [x for qq in q.elements
                   if (x := t0 * qq * t0i) in r_sub.elements]
        through = None
    else:
        psi_map, psi_inv = psi_pair
        a_elems = []
        for qq in q.elements:
            x = t0 * qq * t0i
            a = psi_inv.get(x)
            if a is not None:
                a_elems.append(a)
        through = psi_map
    a_sub = Subgroup(p, a_elems, _checked=True)
    gen_images = tuple(
        sigma[t0i * (g if through is None else through[g]) * t0]
        for g in a_sub.canonical_gens)
    memo_key = (r_sub.elements, a_sub.elements,
                tuple(g.code() for g in a_sub.canonical_gens),
                tuple(img.code() for img in gen_images))
    cached = index._piece_classes.get(memo_key)
    if cached is not None:
        return cached
    mapping = {a: sigma[t0i * (a if through is None else through[a]) * t0]
               for a in a_elems}
    gens = dict(zip(a_sub.canonical_gens, gen_images))
    mor = GroupMorphism(a_sub, gens, _mapping=mapping)
    result = (biset_class(mor, left=r_sub), mor)
    index._piece_classes[memo_key] = result
    return result


def _source_side_pieces(index: BisetIndex, r_sub: Subgroup):
    """Plain-restriction pieces of every block, cached per source subgroup
    (they do not depend on the fusion morphism being realized)."""
    cached = index._source_pieces.get(r_sub.elements)
    if cached is not None:
        return cached
    gens = r_sub.canonical_gens
    gen_pairs = [(r, r) for r in gens]
    out = {}
    for block in index.blocks:
        reps = index.transversal(block.cls.rep.source)
        for pos0, positions, v_of in _split_block(index, block, gen_pairs):
            cls, mor = _piece_class(index, block, reps[pos0], r_sub, None)
            out.setdefault(cls.uid, []).append((block, pos0, positions, v_of, mor))
    index._source_pieces[r_sub.elements] = out
    return out


def _conjugation_witness(system, r_sub, a_mor, b_mor):
    """a in R with a^-1 A a = A' and kappa' o c_{a^-1}|_A = c_b o kappa solvable."""
    p = system.p
    a_sub, b_sub = a_mor.source, b_mor.source
    gens = a_sub.canonical_gens
    grp = system.group
    candidates = [grp.identity]
    candidates.extend(g for g in r_sub.sorted_elements if not g.is_identity())
    for cand in candidates:
        ci = cand.inv()
        if any(ci * g * cand not in b_sub.elements for g in gens):
            continue
        rows = []
        ok = True
        for g in gens:
            lhs = a_mor.mapping[g]           # kappa(g)
            rhs = b_mor.mapping[ci * g * cand]  # kappa'(a^-1 g a)
            if lhs.a != rhs.a or lhs.b != rhs.b:
                ok = False
                break
            rows.append((lhs.b, -lhs.a, rhs.c - lhs.c))
        if ok and _solvable_2var(p, rows):
            return cand
    raise StabilityViolationError("matched pieces admit no conjugation witness")


def perm_from_morphism(index: BisetIndex, psi: GroupMorphism) -> list:
    """The permutation of J induced by an isomorphism between the restriction
    along the inclusion and the restriction along psi."""
    system = index.system
    r_sub = psi.source
    gens = r_sub.canonical_gens
    psi_inv = {h: g for g, h in psi.mapping.items()}
    psi_pair = (psi.mapping, psi_inv)
    gen_pairs = [(r, psi.mapping[r]) for r in gens]
    source_pieces = _source_side_pieces(index, r_sub)
    target_pieces = {}
    for block in index.blocks:
        reps = index.transversal(block.cls.rep.source)
        for pos0, positions, v_of in _split_block(index, block, gen_pairs):
            cls, mor = _piece_class(index, block, reps[pos0], r_sub, psi_pair)
            target_pieces.setdefault(cls.uid, []).append(
                (block, pos0, positions, v_of, mor))
    if set(source_pieces) != set(target_pieces):
        raise StabilityViolationError("restriction classes of the two sides differ")
    perm = [None] * index.size
    for uid in sorted(source_pieces):
        sources = source_pieces[uid]
        targets = target_pieces[uid]
        if len(sources) != len(targets):
            raise StabilityViolationError(
                f"restriction multiplicity mismatch on piece class {uid}")
        sources = sorted(sources, key=lambda it: (it[0].index, it[1]))
        targets = sorted(targets, key=lambda it: (it[0].index, it[1]))
        for src, tgt in zip(sources, targets):
            s_block, _s_pos0, s_positions, s_v_of, s_mor = src
            t_block, t_pos0, _t_positions, _t_v, t_mor = tgt
            witness = _conjugation_witness(system, r_sub, s_mor, t_mor)
            t0_elem = index.transversal(t_block.cls.rep.source)[t_pos0]
            t_rep_idx = index.rep_index(t_block.cls.rep.source)
            t_offset = t_block.offset
            psi_map = psi.mapping
            for pos in s_positions:
                image_elem = psi_map[s_v_of[pos] * witness] * t0_elem
                perm[s_block.offset + pos] = t_offset + t_rep_idx[image_elem]
    seen = bytearray(index.size)
    for value in perm:
        if value is None or seen[value]:
            raise StabilityViolationError("induced map on labels is not a permutation")
        seen[value] = 1
    return perm


def perm_image_of_out(index: BisetIndex, alpha: GroupMorphism) -> list:
    """Permutation realizing an automorphism of S; on singleton labels it acts
    by composition, [S, sigma] -> [S, sigma o alpha]."""
    return perm_from_morphism(index, alpha.inverse())


def perm_image_of_essential(index: BisetIndex, phi: FusionMorphism) -> list:
    """Permutation realizing a nonextendable automorphism of some V_i."""
    if phi.extendable is not False:
        raise ValueError("expected a nonextendable morphism")
    return perm_from_morphism(index, phi.morphism)


# -- orbit computation ------------------------------------------------------------

class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.count = n

    def find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[rj] = ri
            self.count -= 1

    def apply_perm(self, perm):
        for i, j in enumerate(perm):
            if i != j:
                self.union(i, j)


def _out_generator_matrices(system: FusionSystem):
    """A small generating subset of the outer matrix group."""
    from .fusion import matrix_closure

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


def j0_class_action_checks(system: FusionSystem, biset: FormalBiset | None = None):
    """Regular action of the outer classes on the singleton labels.

    The singleton classes [S, sigma] must biject with the outer matrices;
    granting that, [S, sigma] -> [S, sigma o alpha] is right multiplication
    in the matrix group, which is free and transitive.  The bijection is the
    substantive check; it fails if the top layer ever collapses classes."""
    if biset is None:
        from .solver import minimal_biset

        biset = minimal_biset(system, certify=False).biset
    top = biset.layer(0)
    mats = set()
    for cls in top.support:
        mor = cls.rep
        grp = system.group
        fx, fy = mor(grp.x), mor(grp.y)
        mats.add((system.p, fx.a, fy.a, fx.b, fy.b))
    expected = {tuple(m) for m in system.sorted_out}
    if mats != expected:
        return False, "singleton classes do not biject with the outer matrices"
    if len(top.support) != len(system.sorted_out):
        return False, "top layer collapses outer classes"
    return True, None


@dataclass
class RealizationReport:
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


def check_transitivity(system: FusionSystem, biset: FormalBiset | None = None,
                       all_out_reps: bool | None = None,
                       paper_transversals: bool = True) -> RealizationReport:
    """Orbit count of the realized fusion generators on J, plus the regular
    action of the outer classes on the singleton labels.

    With all_out_reps (default for p = 3) every outer class contributes a
    permutation; otherwise a generating subset is used.  The subset generates
    a subgroup of the full realized group, so a single orbit for the subset
    certifies transitivity of the whole.
    """
    start = time.perf_counter()
    if biset is None:
        from .solver import minimal_biset

        biset = minimal_biset(system, certify=False).biset
    index = build_index_set(system, biset, paper_transversals=paper_transversals)
    if all_out_reps is None:
        all_out_reps = system.p <= 3
    uf = UnionFind(index.size)
    generator_count = 0
    essentials = essential_generators(system)
    for rep in essentials:
        uf.apply_perm(perm_image_of_essential(index, rep))
        generator_count += 1
    if all_out_reps:
        out_mats = list(system.sorted_out)
    else:
        out_mats = _out_generator_matrices(system)
    from .fusion import lift_matrix_to_aut

    out_perm_info = []
    for m in out_mats:
        perm = perm_image_of_out(index, lift_matrix_to_aut(m))
        out_perm_info.append((m, perm))
        uf.apply_perm(perm)
        generator_count += 1
        if uf.count == 1 and not all_out_reps:
            break
    extra = 0
    if uf.count > 1:
        for cls in system.spec.classes:
            for i in sorted(cls.members):
                for rep in system.v_source_reps(i):
                    if rep.extendable is False and rep.meta[0] == rep.meta[1] == i:
                        uf.apply_perm(perm_image_of_essential(index, rep))
                        generator_count += 1
                        extra += 1
                        if uf.count == 1:
                            break
                if uf.count == 1:
                    break
            if uf.count == 1:
                break
    if uf.count > 1:
        raise TheoremViolationError(
            f"{uf.count} orbits remain on J with the maximal generator set")
    # singleton-label subcheck: classes biject with the outer matrices, so the
    # class action is regular; the constructed permutations are checked on J0
    j0_regular, reason = j0_class_action_checks(system, biset)
    if not j0_regular:
        raise TheoremViolationError(reason)
    j0_pos = {label: k for k, label in enumerate(index.j0)}
    j0_uf = UnionFind(len(index.j0))
    for m, perm in out_perm_info:
        identity_matrix = m.is_identity()
        for label, k in j0_pos.items():
            image = perm[label]
            if image not in j0_pos:
                raise TheoremViolationError("outer image leaves the singleton labels")
            if not identity_matrix and image == label:
                raise TheoremViolationError(
                    "a nontrivial outer permutation fixes a singleton label")
            j0_uf.union(k, j0_pos[image])
    j0_orbits = j0_uf.count
    return RealizationReport(
        system_name=system.spec.name,
        j_size=index.size,
        generator_count=generator_count,
        orbit_count=uf.count,
        j0_size=len(index.j0),
        j0_orbit_count=j0_orbits,
        j0_regular=j0_regular,
        extra_essential_generators=extra,
        used_all_out_reps=all_out_reps,
        wall_time_s=time.perf_counter() - start,
    )
