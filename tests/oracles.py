"""References that only the tests read: explicit S-S-sets with free actions
on both sides, their product with a formal biset, composition and
decomposition by marks over every graph class, the pointwise actions of an
ExplicitBiset and the orbit decomposition of its restriction along a
morphism, which restrict_left is checked against; the mark vector of a
formal biset, which mark-table rows are checked against; the class key as
the least over every conjugate of the source's generators, which the
closed-form key is checked against; the conjugation witness of a pair of
pieces from a fresh search per call, which realization's witnesses are
checked against; and one system per spec for the session, with the built-in
system by name."""

from functools import lru_cache
from itertools import product
from operator import and_, eq

from p3fusion.biset import (BisetClass, FormalBiset, _least_central_digits, _TransporterSearch,
                            biset_class, count_fixed_points)
from p3fusion.errors import MorphismError, P3FusionError, StabilityViolationError
from p3fusion.fusion import FusionSystem, fusion_system, resolve_system
from p3fusion.group import GroupElement, GroupMorphism, ambient_group, morphism_from_images

POINT_LIMIT = 2_000_000  # the most points an explicit biset or composite may have


class ResourceLimitError(P3FusionError):
    """An explicit-set computation would exceed its fixed size limit."""


@lru_cache(maxsize=None)
def cached_system(spec) -> FusionSystem:
    """One system per spec for the whole session: the package builds a new
    one on every call, and the tests would rebuild its mark table each time."""
    return fusion_system(spec)


def builtin_fusion_system(name: str) -> FusionSystem:
    """The built-in system of this name or alias, as the command line resolves it."""
    return cached_system(resolve_system(name))


class ExplicitBiset:
    """An explicit finite S-S-set with free actions on both sides.

    Elements are opaque indices; the two actions are stored as permutations
    for each of the three generators and composed on demand for arbitrary
    group elements via the normal form g = x**a y**b z**(c - a*b).
    """

    def __init__(self, p: int, size: int, left_gen, right_gen):
        self.p = p
        self.size = size
        grp = ambient_group(p)
        self._gens = (grp.x, grp.y, grp.z)
        self.left_gen = left_gen    # {gen: perm list}
        self.right_gen = right_gen

    def _word(self, g: GroupElement):
        # g = x**a * y**b * z**(c - a*b)
        return (g.a, g.b, (g.c - g.a * g.b) % self.p)

    def _perm(self, gen_perms, steps):
        """The permutation applying each (generator, power) step in turn, as a
        read-only sequence (it may be a stored generator list or a range)."""
        perm = None
        for gen, times in steps:
            step = gen_perms[gen]
            for _ in range(times):
                perm = step if perm is None else [step[i] for i in perm]
        return range(self.size) if perm is None else perm

    def _left_perm(self, g: GroupElement):
        """g's left action on every point, composed from whole permutations."""
        a, b, k = self._word(g)
        x, y, z = self._gens
        return self._perm(self.left_gen, ((z, k), (y, b), (x, a)))

    def _right_perm(self, g: GroupElement):
        """g's right action on every point, composed from whole permutations."""
        a, b, k = self._word(g)
        x, y, z = self._gens
        return self._perm(self.right_gen, ((x, a), (y, b), (z, k)))

    def verify_free(self):
        """Raise unless no g != 1 fixes a point on either side.  A point fixed
        by g is fixed by <g>, so one generator per order-p subgroup suffices."""
        grp = ambient_group(self.p)
        points = range(self.size)
        for q in grp.all_subgroups:
            if q.order != self.p:
                continue
            g, = q.canonical_gens
            if any(map(eq, self._left_perm(g), points)):
                raise ValueError("left action is not free")
            if any(map(eq, self._right_perm(g), points)):
                raise ValueError("right action is not free")

    def fixed_point_count(self, psi: GroupMorphism) -> int:
        """|X^{Delta_R^psi}|: elements with r.e = e.psi(r) for all generators."""
        fixed = None
        for r in psi.source.canonical_gens:
            here = map(eq, self._left_perm(r), self._right_perm(psi(r)))
            fixed = list(here) if fixed is None else list(map(and_, fixed, here))
        return self.size if fixed is None else sum(fixed)


def _regular_biset(p: int) -> ExplicitBiset:
    """S as an explicit S-S-set under left and right multiplication."""
    grp = ambient_group(p)  # elements are listed by code
    gens = (grp.x, grp.y, grp.z)
    left_gen = {g: [(g * y).code() for y in grp.elements] for g in gens}
    right_gen = {g: [(y * g).code() for y in grp.elements] for g in gens}
    return ExplicitBiset(p, len(grp.elements), left_gen, right_gen)


def explicit_from_formal(b: FormalBiset) -> ExplicitBiset:
    """Materialise a genuine S-S formal biset as explicit points (t, y)."""
    if not b.is_genuine():
        raise ValueError("only genuine bisets (nonnegative integers) can be realised")
    n = b.size()
    if n > POINT_LIMIT:
        raise ResourceLimitError(f"explicit biset would have {n} > {POINT_LIMIT} points")
    return _product_explicit(b, _regular_biset(b.p))


def _product_explicit(a: FormalBiset, x_b: ExplicitBiset) -> ExplicitBiset:
    """X x_S Y for X the formal biset `a` and Y explicit.  The points are
    (t, copy, j) for t in a transversal of each class's source Q and j in Y;
    g moves (t, j) to (t', phi(q) j) where g t = t' q."""
    p = a.p
    grp = ambient_group(p)
    elements = grp.elements
    labels = []  # (phi, transversal codes, coset positions), one per copy of each class
    for cls, mult in a.items():
        reps, pos = grp.coset_index(cls.rep.source)
        labels.extend([(cls.rep, reps, pos)] * int(mult))
    m = x_b.size
    size = sum(len(reps) for _, reps, _ in labels) * m
    if size > POINT_LIMIT:
        raise ResourceLimitError(f"composite would have {size} > {POINT_LIMIT} points")
    gens = (grp.x, grp.y, grp.z)
    left_gen = {g: [0] * size for g in gens}
    right_gen = {g: [0] * size for g in gens}
    y_right = {g: x_b._right_perm(g) for g in gens}
    base = 0
    for phi, reps, pos in labels:
        for ti, t in enumerate(reps):
            row = (base + ti) * m
            for g in gens:
                ti2, q = pos[(g * elements[t]).code()]
                shift = elements[phi.table[phi.source.position[q]]]  # acts on Y from the left
                row2 = (base + ti2) * m
                left_gen[g][row:row + m] = [row2 + j for j in x_b._left_perm(shift)]
                right_gen[g][row:row + m] = [row + j for j in y_right[g]]
        base += len(reps)
    return ExplicitBiset(p, size, left_gen, right_gen)


def compose(a: FormalBiset, b: FormalBiset) -> FormalBiset:
    """Double Burnside product via the explicit-set construction, decomposed
    back into classes by marks.  [S, id] is a two-sided identity."""
    if a.p != b.p:
        raise ValueError("bisets over different primes")
    if not (a.is_genuine() and b.is_genuine()):
        raise ValueError("compose needs genuine bisets")
    return decompose_by_marks(_product_explicit(a, explicit_from_formal(b)))


@lru_cache(maxsize=None)
def all_graph_classes(p: int) -> tuple:
    """Every S x S class of graph subgroups (not only fusion-respecting ones),
    ordered by layer.  Feasible for p <= 5."""
    if p > 5:
        raise ResourceLimitError("full graph-class enumeration is limited to p <= 5")
    grp = ambient_group(p)
    found = set()
    automorphisms = set()  # the images mod Z of the automorphisms found so far
    for r_sub in grp.all_subgroups:
        gens = r_sub.canonical_gens
        abelian = r_sub.order < p**3
        for images in product(grp.elements[1:], repeat=len(gens)):
            # [u, v] = z^(u.a*v.b - u.b*v.a) is 1 on an abelian source and a
            # nontrivial image of z = [x, y] on S
            if len(images) == 2 and abelian == bool(
                    (images[0].a * images[1].b - images[0].b * images[1].a) % p):
                continue
            if not abelian:  # an automorphism's class is its images modulo Z
                key = (images[0].a, images[1].a, images[0].b, images[1].b)
                if key in automorphisms:
                    continue
            try:
                mor = morphism_from_images(r_sub, dict(zip(gens, images)))
            except MorphismError:
                continue
            if not abelian:
                automorphisms.add(key)
            found.add(biset_class(mor))
    return tuple(sorted(found))


def conjugate_minimum_class_key(mor: GroupMorphism, left) -> tuple:
    """biset._class_key with the p conjugates of a normal source read in full:
    the least _least_central_digits over every (x, codes) of grp.conjugates(Q)
    when left = S, the canonical generators alone below S."""
    p = mor.p
    grp = ambient_group(p)
    q = mor.source
    if q.order == p**3:
        fx, fy = mor(grp.x), mor(grp.y)
        return (p, "auts", fx.a, fy.a, fx.b, fy.b)
    source, conjugates = q, [(grp.identity, [g.code() for g in q.canonical_gens])]
    if left.order == p**3 and q.is_normal:
        conjugates = grp.conjugates(q)
    elif left.order == p**3:
        g = q.canonical_gens[0]
        source = grp.cyclic(grp.elements[g.code() - g.c])
    table, where = mor.table, q.position
    best = min(_least_central_digits(p, [table[where[c]] for c in codes])
               for _x, codes in conjugates)
    return (p, "gen", left.order, (source.codes, best))


def decompose_by_marks(x: ExplicitBiset) -> FormalBiset:
    """Unique class decomposition of an explicit biset from its mark vector,
    solved layer by layer down the triangular table of marks."""
    x.verify_free()
    p = x.p
    coeffs = {}
    for cls in all_graph_classes(p):
        mark = x.fixed_point_count(cls.rep)
        for prev, c in coeffs.items():
            if prev.layer <= cls.layer:
                mark -= c * count_fixed_points(prev, cls)
        diag = count_fixed_points(cls, cls)
        if mark % diag:
            raise P3FusionError("marks are not an integral combination of classes")
        c = mark // diag
        if c < 0:
            raise P3FusionError("negative multiplicity: not a genuine biset")
        if c:
            coeffs[cls] = c
    out = FormalBiset(p, coeffs)
    if out.size() != x.size:
        raise P3FusionError("decomposition does not account for every point")
    return out


def _word(x: ExplicitBiset, g: GroupElement) -> tuple:
    # g = x**a * y**b * z**(c - a*b)
    return g.a, g.b, (g.c - g.a * g.b) % x.p


def left(x: ExplicitBiset, g: GroupElement, i: int) -> int:
    """The point g.i, one generator step at a time."""
    a, b, k = _word(x, g)
    grp = ambient_group(x.p)
    for gen, times in ((grp.z, k), (grp.y, b), (grp.x, a)):
        for _ in range(times):
            i = x.left_gen[gen][i]
    return i


def right(x: ExplicitBiset, i: int, g: GroupElement) -> int:
    """The point i.g, one generator step at a time."""
    a, b, k = _word(x, g)
    grp = ambient_group(x.p)
    for gen, times in ((grp.x, a), (grp.y, b), (grp.z, k)):
        for _ in range(times):
            i = x.right_gen[gen][i]
    return i


def restricted_orbit_decomposition(x: ExplicitBiset, psi: GroupMorphism) -> FormalBiset:
    """Orbit split of x with the left action pulled back along psi: R -> S.

    Each biorbit of (psi(R), S) is a transitive R-S-piece whose graph is read
    off the right-regular coordinates of a seed point.  Along the identity of
    S it is the orbit decomposition of the S-S-set, independent of marks."""
    grp = ambient_group(x.p)
    r_sub = psi.source
    psi_gen_elems = [psi(r) for r in r_sub.canonical_gens]
    unassigned = set(range(x.size))
    coeffs = {}
    while unassigned:
        seed = min(unassigned)
        orbit = {seed}
        frontier = [seed]
        while frontier:
            i = frontier.pop()
            moved = [left(x, m, i) for m in psi_gen_elems]
            moved.extend(x.right_gen[g][i] for g in (grp.x, grp.y, grp.z))
            for j in moved:
                if j not in orbit:
                    orbit.add(j)
                    frontier.append(j)
        unassigned -= orbit
        right_orbit = {right(x, seed, g): g.code() for g in grp.elements}
        held = [(r.code(), right_orbit.get(left(x, psi(r), seed))) for r in r_sub]
        codes, table = zip(*[(r, y) for r, y in held if y is not None])
        mor = GroupMorphism(grp.by_codes(codes), table)
        cls = biset_class(mor, left=r_sub)
        coeffs[cls] = coeffs.get(cls, 0) + 1
    return FormalBiset(x.p, coeffs, left=r_sub)


# -- marks of formal bisets ----------------------------------------------------

def subconjugate_closure(b: FormalBiset) -> tuple:
    """Every class [R, phi|_R] under a support class, i.e. everything that can
    have a nonzero mark on b."""
    grp = ambient_group(b.p)
    seen = set()
    for cls in b.support:
        phi = cls.rep
        for r_sub in grp.all_subgroups:
            if r_sub <= phi.source:
                seen.add(biset_class(phi.restrict(r_sub)))
    return tuple(sorted(seen))


def mark_vector(b: FormalBiset, classes=None) -> dict:
    """{test class: mark of b}, over the subconjugate closure by default."""
    if classes is None:
        classes = subconjugate_closure(b)
    return {test: biset_mark(b, test) for test in classes}


def biset_mark(b: FormalBiset, test: BisetClass) -> int:
    """The mark of b at test, one fixed-point count per class of b."""
    total = 0
    for cls, c in b.coeffs.items():
        if cls.source.order >= test.source.order:
            total += c * count_fixed_points(cls, test)
    return total


def reference_candidates(r_sub) -> list:
    """The a of R that realization tries as witnesses, in R's order: a^-1
    passes or fails with all of aZ, so the first a of each coset of Z in R."""
    z = ambient_group(r_sub.p).z
    return [a for a in r_sub if a.c == 0 or z not in r_sub]


def reference_conjugation_witness(candidates, a_mor, b_mor) -> GroupElement:
    """The first a of candidates with a^-1 A a = A' and kappa' o c_{a^-1}|_A =
    c_b o kappa for some b: the transporters x = a^-1 of kappa into kappa',
    from conjugates and a search built afresh for this call."""
    conjugates = ambient_group(a_mor.p).conjugates_by(a_mor.source, (a.inv() for a in candidates))
    for x in _TransporterSearch(a_mor).transporters(b_mor, conjugates):
        return x.inv()
    raise StabilityViolationError("matched pieces admit no conjugation witness")
