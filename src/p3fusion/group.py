"""Arithmetic in the extraspecial group S of order p**3 and exponent p.

Elements are triples (a, b, c) of residues mod p multiplying by

    (a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a*b')

so that x = (1,0,0), y = (0,1,0) generate S, z = (0,0,1) = [x, y] spans the
center, and every element has order dividing p (p odd).  The group builds its
whole subgroup lattice once, keyed by the sorted element codes that are each
subgroup's one stored content: each subgroup is one interned object with an
id, its position in all_subgroups, and every path that yields a subgroup
returns that object.  A morphism is its source plus a tuple of image codes
along the source's codes; morphism_from_images is the one checked way to build one.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import MorphismError, PrimeMismatchError


def require_odd_prime(p: int) -> int:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p!r}")
    for q in range(3, int(p**0.5) + 1, 2):
        if p % q == 0:
            raise ValueError(f"p must be an odd prime, got {p!r}")
    return p


def line_index(p: int, a: int, b: int) -> int:
    """Index of the line of F_p^2 that (a, b) spans: i < p for the line
    through (1, i), p for the line through (0, 1)."""
    a, b = a % p, b % p
    if not (a or b):
        raise ValueError("zero vector spans no line")
    return b * pow(a, p - 2, p) % p if a else p


class GroupElement(NamedTuple):
    """A point (a, b, c) of the mod-p Heisenberg group, tagged with its prime."""

    p: int
    a: int
    b: int
    c: int

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        p = self.p
        if other.p != p:
            raise PrimeMismatchError(f"cannot multiply elements over p={p} and p={other.p}")
        return GroupElement(
            p, (self.a + other.a) % p, (self.b + other.b) % p,
            (self.c + other.c + self.a * other.b) % p,
        )

    def inv(self) -> "GroupElement":
        p = self.p
        return GroupElement(p, -self.a % p, -self.b % p, (self.a * self.b - self.c) % p)

    def __pow__(self, n: int) -> "GroupElement":
        # closed form: g^n = (na, nb, nc + C(n,2) ab)
        p = self.p
        if n < 0:
            return self.inv() ** (-n)
        return GroupElement(
            p, n * self.a % p, n * self.b % p,
            (n * self.c + (n * (n - 1) // 2) * self.a * self.b) % p,
        )

    def conj_by(self, x: "GroupElement") -> "GroupElement":
        """x * self * x**-1; only the central coordinate moves."""
        p = self.p
        return GroupElement(p, self.a, self.b, (self.c + x.a * self.b - x.b * self.a) % p)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0

    def is_central(self) -> bool:
        return self.a == 0 and self.b == 0

    def order(self) -> int:
        return 1 if self.is_identity() else self.p

    def code(self) -> int:
        """Dense integer encoding, used for deterministic sorting and keys."""
        return (self.a * self.p + self.b) * self.p + self.c


class Subgroup:
    """One subgroup of S.  Only ExtraspecialGroup builds these, once each, so
    identity is equality; `id` is the position in all_subgroups."""

    __slots__ = ("p", "id", "codes", "position", "order", "canonical_gens", "is_normal")

    def __init__(self, p: int, id: int, codes: tuple, elements: tuple):
        self.p = p
        self.id = id
        self.codes = codes  # the sorted element codes: the one stored content
        self.position = {c: i for i, c in enumerate(codes)}  # code -> its index in codes
        self.order = n = len(codes)
        # generators read off the content (elements is S by code): the identity
        # sorts first, and in an order-p^2 subgroup the p central elements
        # come before the rest
        if n == 1:
            self.canonical_gens = ()
        elif n == p:
            self.canonical_gens = (elements[codes[1]],)
        elif n == p * p:
            self.canonical_gens = (elements[codes[1]], elements[codes[p]])
        else:
            self.canonical_gens = (elements[p * p], elements[p])
        # every subgroup of S is normal except the noncentral order-p ones,
        # which are conjugate exactly to the others on their line
        self.is_normal = n != p or self.canonical_gens[0].is_central()

    def __contains__(self, g) -> bool:
        # codes collide across primes, so the prime is checked first
        return isinstance(g, GroupElement) and g.p == self.p and g.code() in self.position

    def __iter__(self):
        elements = ambient_group(self.p).elements
        return (elements[c] for c in self.codes)

    def __len__(self) -> int:
        return self.order

    def __hash__(self) -> int:
        return self.id

    def __le__(self, other) -> bool:
        return self.p == other.p and all(g.code() in other.position for g in self.canonical_gens)

    def __repr__(self) -> str:
        return f"Subgroup(p={self.p}, order={self.order}, id={self.id})"


class ExtraspecialGroup:
    """Ambient context for one prime: the full group and its subgroup lattice.

    The lattice is built with the group: the trivial group, the centre, one
    cyclic subgroup per noncentral element not yet covered, the p+1 maximal
    subgroups and S, ordered by (order, element codes)."""

    def __init__(self, p: int):
        self.p = require_odd_prime(p)
        self.identity = GroupElement(p, 0, 0, 0)
        self.x = GroupElement(p, 1, 0, 0)
        self.y = GroupElement(p, 0, 1, 0)
        self.z = GroupElement(p, 0, 0, 1)
        self.elements = tuple(
            GroupElement(p, a, b, c)
            for a in range(p) for b in range(p) for c in range(p)
        )
        n = len(self.elements)
        # u_i = x*y**i for i < p and u_p = y; one per order-p^2 subgroup
        self.pinned_line_generators = tuple(self.x * self.y**i for i in range(p)) + (self.y,)
        lines = [sorted((u**i * self.z**j).code() for i in range(p) for j in range(p))
                 for u in self.pinned_line_generators]
        sets = [[0], list(range(p)), list(range(n))] + lines  # central codes are 0..p-1
        covered = [False] * n
        for code in range(p, n):
            if not covered[code]:
                powers = sorted((self.elements[code] ** k).code() for k in range(p))
                for c in powers:
                    covered[c] = True
                sets.append(powers)
        sets.sort(key=lambda s: (len(s), s))
        self.all_subgroups = tuple(Subgroup(p, i, tuple(s), self.elements)
                                   for i, s in enumerate(sets))
        self._by_codes = {q.codes: q for q in self.all_subgroups}
        self._cyclic = [None] * n  # code of g -> the subgroup g generates
        for q in self.all_subgroups:
            if q.order <= p:
                for c in q.codes:
                    self._cyclic[c] = q
        self.trivial = self._cyclic[0] = self.all_subgroups[0]
        self.full = self.all_subgroups[-1]
        self.center = self.cyclic(self.z)
        self.maximal_subgroups = tuple(self._by_codes[tuple(s)] for s in lines)
        self._subconjugacy = None
        self._conj_transversals = {}
        self._conjugates = {}
        self._product_table = None
        self._inverse_codes = None
        self._conjugation_masks = [None] * n
        self._fixed_cosets = {}
        self._coset_indices = {}
        self._closure_walks = {}

    # -- subgroup lookup ------------------------------------------------------

    def subgroup(self, elements: Iterable[GroupElement]) -> Subgroup:
        """The lattice's object with exactly these elements; ValueError when
        they are not a subgroup of S (elements over another prime included)."""
        codes = set()
        for g in elements:
            if not isinstance(g, GroupElement) or g.p != self.p:
                raise ValueError(f"{g!r} is not an element of S for p={self.p}")
            codes.add(g.code())
        return self.by_codes(tuple(sorted(codes)))

    def by_codes(self, codes: tuple) -> Subgroup:
        """The lattice's object whose sorted element codes are `codes`."""
        try:
            return self._by_codes[codes]
        except KeyError:
            raise ValueError(f"not a subgroup of S for p={self.p}") from None

    def generated(self, gens: Iterable[GroupElement]) -> Subgroup:
        """The least subgroup holding every generator: the lattice is ordered
        by order, and the subgroups holding them are closed under meets."""
        gens = list(gens)
        for g in gens:
            if g.p != self.p:
                raise PrimeMismatchError(f"element over p={g.p} in the group over p={self.p}")
        return next(q for q in self.all_subgroups if all(g in q for g in gens))

    def cyclic(self, g: GroupElement) -> Subgroup:
        if g.p != self.p:
            raise PrimeMismatchError(f"element over p={g.p} in the group over p={self.p}")
        return self._cyclic[g.code()]

    @property
    def product_table(self) -> tuple:
        """mul[i*n + j] == (elements[i] * elements[j]).code() with n = p**3,
        read off the group law on first use (elements[g.code()] == g)."""
        if self._product_table is None:
            els, p = self.elements, self.p
            self._product_table = tuple(
                ((g.a + h.a) % p * p + (g.b + h.b) % p) * p + (g.c + h.c + g.a * h.b) % p
                for g in els for h in els)
        return self._product_table

    @property
    def inverse_codes(self) -> tuple:
        """inv[g] is the code of elements[g]**-1, found in the product table."""
        if self._inverse_codes is None:
            mul, n = self.product_table, len(self.elements)
            self._inverse_codes = tuple(mul.index(0, g * n, g * n + n) - g * n for g in range(n))
        return self._inverse_codes

    def conjugation_masks(self, g: int) -> dict:
        """{h: mask} for the element code g: bit y of mask is set exactly when
        y**-1 * g * y == h.  Read off the product table on first use and kept
        per code, beside product_table and coset_index."""
        masks = self._conjugation_masks[g]
        if masks is None:
            mul, n, inv = self.product_table, len(self.elements), self.inverse_codes
            masks = self._conjugation_masks[g] = {}
            for y, gy in enumerate(mul[g * n:g * n + n]):
                h = mul[inv[y] * n + gy]
                masks[h] = masks.get(h, 0) | 1 << y
        return masks

    def fixed_cosets(self, q: Subgroup, r: Subgroup) -> tuple:
        """The cosets tQ (in order) that each canonical generator g of r fixes, as the
        positions in q.codes of t^-1 g t; read off coset_index(q) and the product table."""
        key = (q.id, r.id)
        if key not in self._fixed_cosets:
            mul, n, where = self.product_table, len(self.elements), q.position
            reps, pos = self.coset_index(q)
            moved = ([pos[mul[g.code() * n + t]] for g in r.canonical_gens] for t in reps)
            self._fixed_cosets[key] = tuple(tuple(where[h] for _, h in m) for i, m in
                                            enumerate(moved) if all(j == i for j, _ in m))
        return self._fixed_cosets[key]

    def line_of(self, g: GroupElement) -> int:
        """Index i of the order-p^2 subgroup containing a noncentral g."""
        if g.is_central():
            raise ValueError("central elements lie on every line")
        return line_index(self.p, g.a, g.b)

    def centralizer(self, q: Subgroup) -> Subgroup:
        """C_S(q): S centralizes the central subgroups, a noncentral element
        the maximal subgroup through it, and each maximal subgroup itself
        (they are abelian and S is not); C_S(S) is the centre."""
        p = self.p
        if q.order == p**3:
            return self.center
        if q.order == p * p:
            return q
        if not q.is_normal:
            return self.maximal_subgroups[self.line_of(q.canonical_gens[0])]
        return self.full

    def class_representative(self, q: Subgroup) -> Subgroup:
        """One fixed member of q's conjugacy class: q itself when normal,
        otherwise the subgroup its line's pinned generator generates."""
        if q.is_normal:
            return q
        return self.cyclic(self.pinned_line_generators[self.line_of(q.canonical_gens[0])])

    @property
    def subconjugacy(self) -> tuple:
        """fits[i][j]: some conjugate of all_subgroups[i] lies inside
        all_subgroups[j].  The conjugates of a subgroup that is not normal
        sweep the central coset of its generator."""
        if self._subconjugacy is None:
            subs = self.all_subgroups
            rows = []
            for r in subs:
                if not r.is_normal:
                    base = r.codes[1] - r.codes[1] % self.p  # the generator's central coset
                    rows.append(tuple(any(c in q.codes for c in range(base, base + self.p))
                                      for q in subs))
                else:
                    rows.append(tuple(r <= q for q in subs))
            self._subconjugacy = tuple(rows)
        return self._subconjugacy

    def transversal(self, q: Subgroup) -> tuple:
        """Lexicographic left-coset representatives of q in S."""
        return tuple(self.elements[t] for t in self.coset_index(q)[0])

    def coset_index(self, q: Subgroup) -> tuple:
        """(reps, pos) for the left cosets of q, built on first use: reps are
        the codes of the least element of each coset, and pos[g.code()] ==
        (i, h.code()) where g = elements[reps[i]] * h with h in q."""
        index = self._coset_indices.get(q.id)
        if index is None:
            p, reps, pos = self.p, [], [None] * len(self.elements)
            digits = [(h // (p * p), h // p % p, h % p, h) for h in q.codes]
            for code, (_, ta, tb, tc) in enumerate(self.elements):
                if pos[code] is None:
                    i = len(reps)
                    reps.append(code)
                    for a, b, c, h in digits:  # t * h by the group law, t = elements[code]
                        pos[((ta + a) % p * p + (tb + b) % p) * p + (tc + c + ta * b) % p] = i, h
            index = self._coset_indices[q.id] = (tuple(reps), tuple(pos))
        return index

    def closure_walk(self, gen_codes: tuple) -> tuple:
        """(order, tree, checks) of the closure from 1 under these generators, walked
        once per tuple with codes numbered as reached: tree step (k, s) reaches a new
        code as code k * gen s, check (k, s, t) lands on code t, order sorts them."""
        walk = self._closure_walks.get(gen_codes)
        if walk is None:
            codes, slot_of, tree, checks, frontier = [0], {0: 0}, [], [], [0]
            while frontier:
                k = frontier.pop()
                for s, g in enumerate(gen_codes):
                    code = (self.elements[codes[k]] * self.elements[g]).code()
                    t = slot_of.setdefault(code, len(codes))
                    if t < len(codes):
                        checks.append((k, s, t))
                    else:
                        codes.append(code)
                        tree.append((k, s))
                        frontier.append(t)
            order = tuple(sorted(range(len(codes)), key=codes.__getitem__))
            walk = self._closure_walks[gen_codes] = (order, tuple(tree), tuple(checks))
        return walk

    def conj_transversal(self, q: Subgroup) -> tuple:
        """Coset reps of C_S(q): enough conjugators to reach every c_x|_q."""
        reps = self._conj_transversals.get(q.id)
        if reps is None:
            reps = self._conj_transversals[q.id] = self.transversal(self.centralizer(q))
        return reps

    def conjugates_by(self, q: Subgroup, xs: Iterable[GroupElement]):
        """(x, codes of x g x**-1 over the canonical generators g of q) for each
        x in xs, lazily; conjugation moves only the central digit of a code."""
        p = self.p
        gens = [(g.code() - g.c, g.c, g.a, g.b) for g in q.canonical_gens]
        for x in xs:
            yield x, tuple(base + (c + x.a * b - x.b * a) % p for base, c, a, b in gens)

    def conjugates(self, q: Subgroup) -> tuple:
        """conjugates_by(q, conj_transversal(q)), built on first use and kept
        per q.id: the conjugates on which a transporter condition depends."""
        found = self._conjugates.get(q.id)
        if found is None:
            found = self._conjugates[q.id] = tuple(self.conjugates_by(q, self.conj_transversal(q)))
        return found


@lru_cache(maxsize=None)
def ambient_group(p: int) -> ExtraspecialGroup:
    return ExtraspecialGroup(p)


class GroupMorphism:
    """An injective homomorphism from a subgroup of S into S.

    Stored as its source and `table`, whose entry i is the image code of
    source.codes[i] (source.position finds i).  The constructor trusts a table
    of the right length; morphism_from_images is the checked entry."""

    __slots__ = ("p", "source", "table", "_image", "_hash", "_class_keys", "_search")

    def __init__(self, source: Subgroup, table: tuple):
        if len(table) != source.order:
            raise MorphismError(f"{len(table)} images for a source of order {source.order}")
        self.p = source.p
        self.source = source
        self.table = table
        self._image = None
        self._hash = None
        self._class_keys = ()  # biset's (left.id, class key) pairs computed so far
        self._search = None  # biset's transporter search with this as the test

    def __call__(self, g: GroupElement) -> GroupElement:
        if g.p != self.p:
            raise PrimeMismatchError(f"element over p={g.p} for a morphism over p={self.p}")
        try:
            return ambient_group(self.p).elements[self.table[self.source.position[g.code()]]]
        except KeyError:
            raise MorphismError(f"{g} lies outside the source") from None

    @property
    def image(self) -> Subgroup:
        if self._image is None:
            self._image = ambient_group(self.p).by_codes(tuple(sorted(self.table)))
        return self._image

    def inverse(self) -> "GroupMorphism":
        table, where = [0] * self.source.order, self.image.position
        for g, h in zip(self.source.codes, self.table):
            table[where[h]] = g
        return GroupMorphism(self.image, tuple(table))

    def restrict(self, q: Subgroup) -> "GroupMorphism":
        if not q <= self.source:
            raise MorphismError("restriction outside the source")
        return GroupMorphism(q, tuple([self.table[self.source.position[c]] for c in q.codes]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupMorphism) and self.source is other.source
                and self.table == other.table)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.source.id, self.table))
        return self._hash

    def __repr__(self) -> str:
        ims = {g: self(g) for g in self.source.canonical_gens}
        return f"GroupMorphism({ims})"


def identity_morphism(q: Subgroup) -> GroupMorphism:
    return GroupMorphism(q, q.codes)


def morphism_from_images(source: Subgroup, generator_images: dict) -> GroupMorphism:
    """The morphism with these generator images, checked in one closure: the
    generators lie in the source, the images fit the group law, the generators
    generate the source, and the map is injective.  Generators as few as the
    source's rank (1 for order p, 2 for order p^2 or S) that generate it meet
    one relation at most, as S is free of rank 2 among the groups of exponent
    p and class 2 and an order-p^2 subgroup is elementary abelian: the images
    of an order-p^2 source must commute.  Other generators have f(g*s) ==
    f(g)*f(s) checked for every reached g and generator s.  The source side is
    the group's closure_walk, so only the images are computed here, and its
    order puts them in the order of source.codes."""
    p = source.p
    gen_codes, targets = [], []
    for g, img in generator_images.items():
        if g not in source:
            raise MorphismError(f"generator {g} outside the source subgroup")
        if img.p != p:
            raise PrimeMismatchError("generator image over a different prime")
        gen_codes.append(g.code())
        targets.append((img.a, img.b, img.c))
    order, tree, checks = ambient_group(p).closure_walk(tuple(gen_codes))
    images = [(0, 0, 0)]
    for k, s in tree:
        fa, fb, fc = images[k]
        ta, tb, tc = targets[s]
        images.append(((fa + ta) % p, (fb + tb) % p, (fc + tc + fa * tb) % p))
    if len(order) == source.order and len(targets) == (source.order > 1) + (source.order > p):
        if source.order == p * p and (targets[0][0] * targets[1][1]
                                      - targets[1][0] * targets[0][1]) % p:
            raise MorphismError("generator images are inconsistent with the group law")
    else:
        for k, s, t in checks:
            fa, fb, fc = images[k]
            ta, tb, tc = targets[s]
            if images[t] != ((fa + ta) % p, (fb + tb) % p, (fc + tc + fa * tb) % p):
                raise MorphismError("generator images are inconsistent with the group law")
    if len(order) != source.order:
        raise MorphismError("generators do not generate the source subgroup")
    image_codes = [(a * p + b) * p + c for a, b, c in images]
    if len(set(image_codes)) != len(image_codes):
        raise MorphismError("generator images do not define an injective map")
    return GroupMorphism(source, tuple([image_codes[k] for k in order]))
