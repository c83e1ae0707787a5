"""Formal sums of transitive S-S-bisets and their fixed-point calculus.

A transitive S-S-biset is classified by a graph subgroup: a subgroup Q of S
together with an injective homomorphism phi into S, taken up to simultaneous
conjugation on both sides.  Everything here is exact: marks are integers,
idempotent coefficients are fractions, and the two fixed-point routines
(the transporter formula and the explicit coset count) are kept independent
so each can check the other.
"""

from __future__ import annotations

from array import array
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import mul
from typing import NamedTuple

from .errors import (
    ConditionAViolationError,
    P3FusionError,
    PrimeMismatchError,
    TheoremViolationError,
)
from .group import (
    GroupElement,
    GroupMorphism,
    Subgroup,
    ambient_group,
    identity_morphism,
    morphism_from_images,
)

__all__ = [
    "BisetClass",
    "FormalBiset",
    "MarkTable",
    "StabilityResult",
    "biset_class",
    "count_fixed_points",
    "brute_force_fixed_points",
    "opposite",
    "restrict_left",
    "is_left_stable",
    "is_right_stable",
    "stability_witness",
    "check_condition_a",
    "mark_table",
]


# -- conjugacy-class keys ------------------------------------------------------

def _least_central_digits(p: int, codes: list) -> tuple:
    """The least c_t(codes) over t in S, for codes of elements of one proper
    (so abelian) subgroup.  c_t moves only central digits, c to
    c + t.a*b - t.b*a, so the least tuple has digit 0 at the first noncentral
    element, put there by t = (0, c/a), or (-c/b, 0) when a = 0; that t is
    unique modulo the element's centralizer, which centralizes the others."""
    pp = p * p
    for code in codes:
        if code >= p:  # the central codes are 0..p-1
            a, b, c = code // pp, code // p % p, code % p
            ta, tb = (0, c * pow(a, p - 2, p)) if a else (-c * pow(b, p - 2, p), 0)
            return tuple(k - k % p + (k + ta * (k // p % p) - tb * (k // pp)) % p
                         for k in codes)
    return tuple(codes)


def _class_key(mor: GroupMorphism, left: Subgroup) -> tuple:
    """Lexicographic minimum over the left x S conjugation orbit of the
    normal-form encoding (sorted source codes, image codes of the canonical
    generators), read off in O(p^2) without enumerating the orbit.  A proper
    `left` that contains Q centralizes Q, and S centralizes a central Q.  Over
    S the p conjugates of the generators (z, u) of an order-p^2 Q are (z, u z^k):
    all give one tuple when mor(z) is central, and otherwise the least is that
    of the one k with mor(u z^k) central, the only one below p at its second
    entry.  Of the p conjugates of a noncentral Q of order p only the one whose
    generator s g s^-1 has central digit 0 can win, and the twisted map sends
    that generator to mor(g)."""
    p = mor.p
    grp = ambient_group(p)
    q = mor.source
    if q.order == p**3:  # then left = S
        # automorphisms of S are conjugate exactly when they induce the same
        # map on S modulo the center
        fx, fy = mor(grp.x), mor(grp.y)
        return (p, "auts", fx.a, fy.a, fx.b, fy.b)
    source, codes = q, [g.code() for g in q.canonical_gens]
    table, where = mor.table, q.position
    if left.order == p**3 and q.order == p * p:
        u = codes[1]  # u has central digit 0, so u z^k has code u + k
        codes[1] = next((c for c in range(u, u + p) if table[where[c]] < p), u)
    elif left.order == p**3 and not q.is_normal:
        g = q.canonical_gens[0]
        source = grp.cyclic(grp.elements[g.code() - g.c])
    return (p, "gen", left.order,
            (source.codes, _least_central_digits(p, [table[where[c]] for c in codes])))


class BisetClass:
    """A left x S conjugacy class of graph subgroups: a value equal by its key.
    `rep` is the morphism the class was built from; classes order by
    (layer, key)."""

    __slots__ = ("key", "rep", "layer", "_hash")

    def __init__(self, key, rep, layer):
        self.key = key
        self.rep = rep
        self.layer = layer
        self._hash = hash(key)

    def __eq__(self, other):
        return self is other or (isinstance(other, BisetClass) and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (self.layer, self.key) < (other.layer, other.key)

    def __repr__(self):
        gens = {g: self.rep(g) for g in self.rep.source.canonical_gens}
        return f"BisetClass(|Q|={self.rep.source.order}, {gens})"

    @property
    def source(self) -> Subgroup:
        return self.rep.source


def _cached_key(mor: GroupMorphism, left: Subgroup) -> tuple:
    """The class key of mor over left, cached on mor as a (left.id, key) pair."""
    for left_id, key in mor._class_keys:
        if left_id == left.id:
            return key
    if not mor.source <= left:
        raise ValueError("source must lie inside the left-hand group")
    key = _class_key(mor, left)
    mor._class_keys += ((left.id, key),)
    return key


def biset_class(mor: GroupMorphism, left: Subgroup | None = None) -> BisetClass:
    """The class of mor over left (S by default)."""
    if left is None:
        left = ambient_group(mor.p).full
    key = _cached_key(mor, left)
    layer = 0
    while left.order > mor.source.order * mor.p**layer:
        layer += 1
    return BisetClass(key, mor, layer)


# -- transporter sets and fixed points -----------------------------------------

def _central_functionals(p: int, rows) -> tuple:
    """A basis of the functionals lam with sum_i lam_i * rows[i] == 0 over F_p,
    for at most two rows (u, v).  The system u_i*y1 + v_i*y2 == t_i is
    solvable exactly when every such lam vanishes on t."""
    live = [i for i, (u, v) in enumerate(rows) if u % p or v % p]
    if not live:  # no y moves anything: every t_i must vanish
        return tuple(tuple(int(i == j) for j in range(len(rows))) for i in range(len(rows)))
    if len(rows) == 1:
        return ()
    (u1, v1), (u2, v2) = rows
    if (u1 * v2 - v1 * u2) % p:
        return ()
    # rank 1: the other row is mu times the live row i
    i = live[0]
    col = 0 if rows[i][0] % p else 1
    mu = rows[1 - i][col] * pow(rows[i][col], p - 2, p) % p
    lam = [0, 0]
    lam[i], lam[1 - i] = mu, p - 1
    return (tuple(lam),)


class _TransporterSearch:
    """The transporter condition of one test morphism psi: R -> S, prepared
    once and run against many phi: Q -> S.  x passes when xRx^-1 <= Q and
    phi o c_x|_R = c_y o psi for some y; it suffices to check the generators r.

    Conjugation moves only the central coordinate, so the code of x r x^-1 is
    the code of r with a new central digit, phi(x r x^-1) must agree with
    psi(r) off the centre, and y must solve one linear equation over F_p per
    generator for the central difference t_r.  The y-coefficients
    (psi(r).b, -psi(r).a) depend only on psi, so solvability is fixed once as
    the functionals that must vanish on t: none when R is trivial or S, one
    when |R| = p and psi(r) is central, and one when |R| = p^2."""

    __slots__ = ("psi", "p", "_own", "_targets", "_functionals", "_scale")

    def __init__(self, psi: GroupMorphism):
        p = self.p = psi.p
        self.psi = psi
        targets, rows = [], []
        for r in psi.source.canonical_gens:
            a = psi(r)
            targets.append((a.code() // p, a.c))  # psi(r) off the centre, central digit
            rows.append((a.b, -a.a))
        self._own = tuple(r.code() for r in psi.source.canonical_gens)  # the conjugate at x = 1
        self._targets = tuple(targets)
        self._functionals = _central_functionals(p, rows)
        self._scale = None

    def transporters(self, phi: GroupMorphism, conjugates):
        """Each x of the (x, codes) pairs that passes for phi, in order."""
        p = self.p
        table, where = phi.table, phi.source.position
        for x, codes in conjugates:
            diffs = []
            for code, (off, c) in zip(codes, self._targets):
                i = where.get(code)
                if i is None or (b := table[i]) // p != off:  # outside Q, or off the centre
                    break
                diffs.append(b % p - c)
            else:
                if self._solvable(diffs):
                    yield x

    def _solvable(self, diffs) -> bool:
        """Some y solves the central equations for these differences t_r."""
        return not any(sum(map(mul, lam, diffs)) % self.p for lam in self._functionals)

    def marks_filed(self, index, conjugates) -> dict:
        """{column: mark} for a test of order p, from index[(code, b // p)] =
        [(column, b)], b the column's image at the code of x r x^-1: x passes
        where b agrees with psi(r) off the centre and t_r = b - psi(r) is solvable."""
        (off, c), = self._targets
        central = {d for d in range(self.p) if self._solvable((d - c,))}  # b's passing digits
        hits = Counter(cls for _x, (code,) in conjugates
                       for cls, b in index.get((code, off), ()) if b % self.p in central)
        return {cls: self._value(n, cls.source.order) for cls, n in hits.items()}

    def mark(self, phi: GroupMorphism, conjugates) -> int:
        """The transporter formula |N_{psi,phi}| / |Q| * |C_S(psi(R))|, N
        counted over conjugates, which must hold every coset rep of C_S(R)
        that passes for phi.  An automorphism phi has phi o c_x = c_phi(x) o phi,
        so every x passes or none does: x = 1 decides, weighted by the number
        of coset reps, and conjugates is not read."""
        weight = 1
        if phi.source.order == self.p**3:
            conjugates = ((None, self._own),)
            weight = len(ambient_group(self.p).conj_transversal(self.psi.source))
        hits = sum(1 for _ in self.transporters(phi, conjugates))
        return self._value(weight * hits, phi.source.order)

    def _value(self, hits: int, q_order: int) -> int:
        """hits / |Q| * |C_S(R)| * |C_S(psi(R))|, which must be an integer."""
        if self._scale is None:
            grp = ambient_group(self.p)
            self._scale = (grp.centralizer(self.psi.source).order
                           * grp.centralizer(self.psi.image).order)
        num = hits * self._scale
        if num % q_order:
            raise P3FusionError("fixed-point formula returned a non-integer")
        return num // q_order


def _prepared_search(psi: GroupMorphism) -> tuple:
    """(psi's search, kept on psi; the group's conjugates of R = psi.source)."""
    if psi._search is None:
        psi._search = _TransporterSearch(psi)
    return psi._search, ambient_group(psi.p).conjugates(psi.source)


def _may_fix(phi_cls: BisetClass, psi_cls: BisetClass) -> bool:
    """Necessary for a nonzero mark: the source and the image of psi each lie
    in a conjugate of the source and the image of phi, and at equal order the
    two are one S x S class, since a transporter x then has xRx^-1 = Q."""
    phi, psi = phi_cls.rep, psi_cls.rep
    grp = ambient_group(phi.p)
    if phi.source.order == psi.source.order:
        return _cached_key(phi, grp.full) == _cached_key(psi, grp.full)
    fits = grp.subconjugacy
    return fits[psi.source.id][phi.source.id] and fits[psi.image.id][phi.image.id]


def _same_prime(cls: BisetClass, by: BisetClass) -> None:
    if cls.rep.p != by.rep.p:
        raise PrimeMismatchError(
            f"cannot evaluate a p={by.rep.p} class on a p={cls.rep.p} biset")


def count_fixed_points(cls: BisetClass, by: BisetClass) -> int:
    """Fixed points of the graph of `by` on the transitive biset of `cls`:
    |N_{psi,phi}| / |Q| * |C_S(psi(R))|."""
    _same_prime(cls, by)
    if not _may_fix(cls, by):
        return 0
    search, conjugates = _prepared_search(by.rep)
    return search.mark(cls.rep, conjugates)


def brute_force_fixed_points(cls: BisetClass, by: BisetClass) -> int:
    """Independent oracle: build (S x S)/Delta_Q^phi as explicit cosets
    (t, y) and count the ones fixed by every generator pair (r, psi(r)) of
    the graph, i.e. r*t = t*q in tQ and phi(q) * y * psi(r)**-1 == y.

    Elements are integer codes.  The left condition does not involve y, so only
    the cosets tQ that every r fixes are walked, with the positions of their q in
    Q, from the group's fixed_cosets.  The right one says y**-1 * phi(q) * y ==
    psi(r), so the y that pass are one bitmask of the group's conjugation
    masks; a coset tQ adds the popcount of their AND."""
    _same_prime(cls, by)
    phi, psi = cls.rep, by.rep
    grp = ambient_group(phi.p)
    if not (cosets := grp.fixed_cosets(phi.source, psi.source)):
        return 0
    targets = [psi.table[psi.source.position[r.code()]] for r in psi.source.canonical_gens]
    count = 0
    for qs in cosets:
        fixed = (1 << len(grp.elements)) - 1
        for i, target in zip(qs, targets):
            fixed &= grp.conjugation_masks(phi.table[i]).get(target, 0)
            if not fixed:
                break
        else:
            count += fixed.bit_count()
    return count


# -- formal bisets ---------------------------------------------------------------

class FormalBiset:
    """Finite formal sum of transitive biset classes with exact coefficients."""

    __slots__ = ("p", "left", "coeffs")

    def __init__(self, p: int, coeffs: dict, left: Subgroup | None = None):
        self.p = p
        self.left = left if left is not None else ambient_group(p).full
        self.coeffs = {cls: c for cls, c in coeffs.items() if c}

    def items(self):
        return [(cls, self.coeffs[cls]) for cls in sorted(self.coeffs)]

    @property
    def support(self):
        return [cls for cls, _ in self.items()]

    def coefficient(self, cls) -> int:
        return self.coeffs.get(cls, 0)

    def layer(self, r: int) -> "FormalBiset":
        return FormalBiset(self.p, {c: v for c, v in self.coeffs.items() if c.layer == r},
                           left=self.left)

    def transitive_count(self) -> int:
        return sum(self.coeffs.values())

    def e(self):
        """Size divided by |S|: each layer-r class contributes p**r per copy."""
        return sum(c * self.p**cls.layer for cls, c in self.coeffs.items())

    def size(self):
        return self.e() * self.p**3

    def is_genuine(self) -> bool:
        return all(isinstance(c, int) and c >= 0 or
                   (isinstance(c, Fraction) and c.denominator == 1 and c >= 0)
                   for c in self.coeffs.values())

    def denominators_coprime_to_p(self) -> bool:
        return all(Fraction(c).denominator % self.p != 0 for c in self.coeffs.values())

    def __add__(self, other):
        if self.p != other.p or self.left != other.left:
            raise ValueError("cannot add bisets over different contexts")
        out = dict(self.coeffs)
        for cls, c in other.coeffs.items():
            out[cls] = out.get(cls, 0) + c
        return FormalBiset(self.p, out, left=self.left)

    def __rmul__(self, scalar):
        return FormalBiset(self.p, {cls: scalar * c for cls, c in self.coeffs.items()},
                           left=self.left)

    def __eq__(self, other):
        return (isinstance(other, FormalBiset) and self.p == other.p
                and self.left == other.left and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.p, self.left, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"FormalBiset(p={self.p}, {self.transitive_count()} transitive pieces)"

    def to_json(self, system_name: str) -> dict:
        classes = []
        for cls, c in self.items():
            gens = cls.rep.source.canonical_gens
            classes.append({
                "source_generators": [[g.a, g.b, g.c] for g in gens],
                "image_generators": [[h.a, h.b, h.c] for h in map(cls.rep, gens)],
                "multiplicity": str(Fraction(c)),
            })
        return {"prime": self.p, "classes": classes, "system": system_name}

    @staticmethod
    def from_json(data: dict) -> "FormalBiset":
        p = int(data["prime"])
        grp = ambient_group(p)
        coeffs = {}
        for entry in data["classes"]:
            srcs, imgs = ([GroupElement(p, *(v % p for v in triple)) for triple in entry[k]]
                          for k in ("source_generators", "image_generators"))
            source = grp.generated(srcs) if srcs else grp.trivial
            mor = (identity_morphism(grp.trivial) if not srcs
                   else morphism_from_images(source, dict(zip(srcs, imgs))))
            cls = biset_class(mor)
            mult = Fraction(entry["multiplicity"])
            if mult.denominator == 1:
                mult = int(mult)
            coeffs[cls] = coeffs.get(cls, 0) + mult
        return FormalBiset(p, coeffs)


def opposite(b: FormalBiset) -> FormalBiset:
    """Class map [Q, phi] -> [phi(Q), phi^-1], coefficients preserved."""
    grp = ambient_group(b.p)
    if b.left != grp.full:
        raise ValueError("opposite is defined for S-S bisets")
    # reuse b's class objects where they match, so the result keeps no inverses
    own = {cls: cls for cls in b.coeffs}
    out = {}
    for cls, c in b.coeffs.items():
        opp = biset_class(cls.rep.inverse())
        opp = own.get(opp, opp)
        out[opp] = out.get(opp, 0) + c
    return FormalBiset(b.p, out)


# -- restriction -------------------------------------------------------------------

def _coset_orbits(q_sub: Subgroup, psi: GroupMorphism, preimage: dict) -> tuple:
    """(tracked, orbits) for the psi(R)-orbits on S/Q, which depend only on Q
    and psi.  tracked[k] codes some v in R with psi(v) t in coset k, t the
    first coset of k's orbit; an orbit is (positions, A = {a in R : t^-1 psi(a)
    t in Q}, the positions in Q.codes of those t^-1 psi(a) t along A.codes and
    at A's canonical generators), A read off Q through psi's inverse `preimage`."""
    grp = ambient_group(q_sub.p)
    mul = grp.product_table
    n = len(grp.elements)
    gens = [(r.code(), psi(r).code()) for r in psi.source.canonical_gens]
    reps, pos = grp.coset_index(q_sub)
    tracked = array("l", [-1]) * len(reps)
    orbits = []
    for start, t in enumerate(reps):
        if tracked[start] >= 0:
            continue
        tracked[start] = 0
        positions = [start]
        for here in positions:
            v, h = tracked[here], reps[here]
            for r, m in gens:
                nxt = pos[mul[m * n + h]][0]
                if tracked[nxt] < 0:
                    tracked[nxt] = mul[r * n + v]
                    positions.append(nxt)
        positions.sort()
        ti = grp.inverse_codes[t]
        a_codes, q_at = zip(*sorted(  # the a with t q t^-1 = psi(a), q at q_sub.codes[i]
            (a, i) for i, q in enumerate(q_sub.codes)
            if (a := preimage.get(mul[mul[t * n + q] * n + ti])) is not None))
        orbits.append((array("l", positions), (a_sub := grp.by_codes(a_codes)), q_at,
                       tuple([q_at[a_sub.position[g.code()]] for g in a_sub.canonical_gens])))
    return tracked, orbits


def _restriction_split(items, psi: GroupMorphism, memo: dict) -> tuple:
    """The double-coset split of the S-S-biset with the ordered (class,
    multiplicity) items along psi: R -> S (Bouc, Biset Functors for Finite
    Groups, §2.3): (the restriction as an R-S FormalBiset, {piece class:
    [(class, tracked, [(positions, piece)])]} in class-then-orbit order).

    The left cosets S/Q of each source Q are split into psi(R)-orbits once,
    see _coset_orbits, and their |R:A| must count |S:Q|.  Orbits come in
    order of their first coset t, the least element of psi(R) t Q, with
    sorted positions; the piece is [A, a -> phi(t^-1 psi(a) t)], phi the
    class's rep, with its class over R, memoised in memo by (R.id, A.id,
    images of A's generators), which fix it, so a memo may be shared across
    calls.  Only a new piece gets its table, read off phi's; over R = S a
    piece with phi's table is phi, so along id_S each class is its own piece."""
    r_sub = psi.source
    s_order = ambient_group(psi.p).full.order
    preimage = dict(zip(psi.table, r_sub.codes))
    by_source, coeffs, grouped = {}, {}, {}
    for cls, mult in items:
        phi = cls.rep
        q_sub = phi.source
        split = by_source.get(q_sub.id)
        if split is None:
            split = by_source[q_sub.id] = _coset_orbits(q_sub, psi, preimage)
            right_orbits = sum(r_sub.order // orbit[1].order for orbit in split[1])
            if right_orbits != s_order // q_sub.order:
                raise TheoremViolationError(
                    f"restriction lost cosets: {right_orbits} right orbits, "
                    f"expected |S:Q| = {s_order // q_sub.order}")
        tracked, orbits = split
        mine = {}
        for positions, a_sub, q_at, gens_at in orbits:
            key = (r_sub.id, a_sub.id, tuple(map(phi.table.__getitem__, gens_at)))
            piece = memo.get(key)
            if piece is None:
                table = tuple(map(phi.table.__getitem__, q_at))
                mor = (phi if r_sub.order == s_order and a_sub.id == q_sub.id and table == phi.table
                       else GroupMorphism(a_sub, table))
                piece = memo[key] = (biset_class(mor, left=r_sub), mor)
            mine.setdefault(piece[0], []).append((positions, piece[1]))
        for piece_cls, found in mine.items():
            coeffs[piece_cls] = coeffs.get(piece_cls, 0) + mult * len(found)
            grouped.setdefault(piece_cls, []).append((cls, tracked, found))
    return FormalBiset(psi.p, coeffs, left=r_sub), grouped


def restrict_left(b: FormalBiset, psi: GroupMorphism) -> FormalBiset:
    """b as an R-S-biset, the left R-action arriving through psi: R -> S."""
    if b.left != ambient_group(b.p).full:
        raise ValueError("restrict_left is defined for S-S bisets")
    return _restriction_split(b.items(), psi, {})[0]


# -- stability ----------------------------------------------------------------------

class StabilityResult(NamedTuple):
    ok: bool
    witness: object  # None, or (FusionMorphism, lhs, rhs)

    def __bool__(self):
        return self.ok


class MarkTable:
    """Sparse marks of one fusion system: the Burnside ghost map restricted to
    the system's classes (Bouc, Biset Functors for Finite Groups).

    The columns are the trivial class and every enumerated F-morphism class.
    A row, built on first request, holds the nonzero marks of the columns at
    one test class psi: R -> S, and visits only the columns that can have one.
    A test of order p reads its proper columns from a file of them under their
    images at the codes of x r x^-1, made by rows() once per R and dropped
    with the call, so it adds nothing to the table's memory.  Other tests
    have a normal R and run the search on the proper columns larger than R
    (there are some only when R is trivial), and at |Q| = |R| on the column
    of the test's own S x S class alone, which then has Q = R.  An
    automorphism column passes for every x or for none, so it is decided at
    x = 1; the automorphism columns are indexed per R by the off-centre digits
    of their images at R's generators, and a row reads its candidates there.
    """

    def __init__(self, system):
        cols = [biset_class(identity_morphism(system.group.trivial))]
        cols.extend(rep.cls for rep in system.all_class_reps())
        self.columns = tuple(cols)
        self._column_of = {cls: cls for cls in cols}
        full = system.group.full
        groups = {}  # source id -> the proper columns on that source
        for cls in cols:
            if cls.source is not full:
                groups.setdefault(cls.source.id, []).append(cls)
        self._groups = tuple(map(tuple, groups.values()))
        self._automorphisms = tuple(cls for cls in cols if cls.source is full)
        self._automorphism_index = {}  # R.id -> {off-centre images of R's generators: columns}
        self._rows = {}

    def _automorphisms_for(self, search: _TransporterSearch):
        """The automorphism columns whose images at R's generators agree with
        the test's off the centre: the only ones that can pass at x = 1."""
        r_sub = search.psi.source
        index = self._automorphism_index.get(r_sub.id)
        if index is None:
            index = self._automorphism_index[r_sub.id] = {}
            p = search.p
            for cls in self._automorphisms:  # on S a code is its own position
                key = tuple(cls.rep.table[code] // p for code in search._own)
                index.setdefault(key, []).append(cls)
        return index.get(tuple(off for off, _ in search._targets), ())

    def row(self, test: BisetClass) -> dict:
        """{column class: mark at test} over the columns with a nonzero mark."""
        row = self._rows.get(test)
        if row is None and test.source.order == test.rep.p:
            row, = self.rows((test,))
        elif row is None:  # R is normal, so every conjugate lies in each candidate's Q
            psi = test.rep
            search, conjugates = _prepared_search(psi)
            candidates = [cls for members in self._groups
                          if members[0].source.order > psi.source.order for cls in members]
            # the test's S x S class: the test itself when it is a column
            own = self._column_of.get(test) or self._column_of.get(biset_class(psi))
            if own is not None:
                candidates.append(own)
            if psi.source.order < psi.p**3:
                candidates.extend(self._automorphisms_for(search))
            row = self._rows[test] = {cls: value for cls in candidates
                                      if (value := search.mark(cls.rep, conjugates))}
        return row

    def rows(self, tests) -> list:
        """[row(test) for test in tests]; the missing rows of order p are built
        per R from a file of the proper columns made here, (code, b // p) ->
        [(column, b)], b the image at each code of x r x^-1 that Q holds."""
        tests, by_source = tuple(tests), {}
        for test in tests:
            if test not in self._rows and test.source.order == test.rep.p:
                by_source.setdefault(test.source, {})[test] = None
        for r_sub, batch in by_source.items():
            conjugates, index = ambient_group(r_sub.p).conjugates(r_sub), {}
            for members in self._groups:
                where = members[0].source.position
                held = [(c, i) for _x, (c,) in conjugates if (i := where.get(c)) is not None]
                for cls, (c, i) in product(members, held):
                    b = cls.rep.table[i]
                    index.setdefault((c, b // r_sub.p), []).append((cls, b))
            for test in batch:
                search, _ = _prepared_search(test.rep)
                row = self._rows[test] = search.marks_filed(index, conjugates)
                row.update((cls, v) for cls in self._automorphisms_for(search)
                           if (v := search.mark(cls.rep, ())))
        return [self.row(test) for test in tests]

    def mark(self, b: FormalBiset, test: BisetClass):
        """The mark of b at test, for b supported on the columns: the sum over
        b's classes of coefficient times fixed points."""
        coeffs = b.coeffs
        total = 0
        for cls, value in self.row(test).items():
            c = coeffs.get(cls)
            if c:
                total += c * value
        return total


def mark_table(system) -> MarkTable:
    """The system's mark table, created on first use."""
    if system._mark_table is None:
        system._mark_table = MarkTable(system)
    return system._mark_table


def check_condition_a(system, b: FormalBiset):
    """Support must lie inside the system's morphism classes."""
    allowed = mark_table(system)._column_of
    outside = [cls for cls in b.coeffs if cls not in allowed]
    if outside:
        raise ConditionAViolationError(min(outside))


def _stability_sweep(system, b: FormalBiset, side: str) -> StabilityResult:
    check_condition_a(system, b)
    table = mark_table(system)
    id_marks = {}
    for rep in system.all_class_reps():
        lhs = table.mark(b, rep.cls)
        anchor = rep.morphism.image if side == "left" else rep.morphism.source
        try:
            rhs = id_marks[anchor.id]
        except KeyError:
            rhs = table.mark(b, biset_class(identity_morphism(anchor)))
            id_marks[anchor.id] = rhs
        if lhs != rhs:
            return StabilityResult(False, (rep, lhs, rhs))
    return StabilityResult(True, None)


def is_left_stable(system, b: FormalBiset) -> StabilityResult:
    """Marks at [Q, phi] equal marks at [phi(Q), id] for every enumerated class."""
    return _stability_sweep(system, b, "left")


def is_right_stable(system, b: FormalBiset) -> StabilityResult:
    """Marks at [Q, phi] equal marks at [Q, id] for every enumerated class."""
    return _stability_sweep(system, b, "right")


def stability_witness(left: StabilityResult, right: StabilityResult):
    """(side, FusionMorphism, lhs, rhs) of the first failing sweep, or None."""
    for side, res in (("left", left), ("right", right)):
        if not res.ok:
            return (side, *res.witness)
    return None
