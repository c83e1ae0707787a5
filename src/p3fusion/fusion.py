"""Fusion-system data on the extraspecial group of order p**3.

A system is described by a partition of the p+1 order-p^2 subgroups into
conjugacy classes together with an integer r dividing p-1 for each class
(the index of the automorphism group of a class member over SL_2(p)).  The
outer automorphism group of S realising such a description is the matrix
group inside GL_2(p) of the built-in row that some element of GL_2(p)
relabels onto it, conjugated by that element and checked against every
counting constraint the description implies.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from .biset import BisetClass, biset_class
from .errors import InconsistentSpecError, UnknownSystemError
from .group import (
    GroupElement,
    GroupMorphism,
    Subgroup,
    ambient_group,
    line_index,
    morphism_from_images,
    require_odd_prime,
)


# -- GL_2(p) helpers ----------------------------------------------------------

class MatrixGL2(NamedTuple):
    """An invertible 2x2 matrix ((a, b), (c, d)) over F_p."""

    p: int
    a: int
    b: int
    c: int
    d: int

    def __mul__(self, other):
        if not isinstance(other, MatrixGL2):
            return NotImplemented
        p = self.p
        return MatrixGL2(
            p,
            (self.a * other.a + self.b * other.c) % p,
            (self.a * other.b + self.b * other.d) % p,
            (self.c * other.a + self.d * other.c) % p,
            (self.c * other.b + self.d * other.d) % p,
        )

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.p

    def inv(self) -> "MatrixGL2":
        p = self.p
        di = pow(self.det(), p - 2, p)
        return MatrixGL2(p, self.d * di % p, -self.b * di % p, -self.c * di % p, self.a * di % p)

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)


def gl2_elements(p: int):
    for a, b, c, d in product(range(p), repeat=4):
        if (a * d - b * c) % p:
            yield MatrixGL2(p, a, b, c, d)


def identity_matrix(p: int) -> MatrixGL2:
    return MatrixGL2(p, 1, 0, 0, 1)


def power_subgroup(p: int, r: int) -> frozenset:
    """The order-r subgroup of F_p^*: as F_p^* is cyclic, the x with x**r == 1."""
    if (p - 1) % r:
        raise ValueError(f"r={r} does not divide p-1={p - 1}")
    return frozenset(x for x in range(1, p) if pow(x, r, p) == 1)


def act_on_line(m: MatrixGL2, i: int) -> int:
    """The index of the line m(i); line i < p is spanned by (1, i), line p by (0, 1)."""
    x, y = (1, i) if i < m.p else (0, 1)
    return line_index(m.p, m.a * x + m.b * y, m.c * x + m.d * y)


def line_scaling(m: MatrixGL2, i: int) -> int:
    """lambda with m . u_i = lambda * u_j in the pinned basis, j = m(i)."""
    p = m.p
    x, y = (1, i) if i < p else (0, 1)
    j = act_on_line(m, i)
    # u_j is (1, j), read off its first coordinate, or (0, 1), off its second
    return (m.a * x + m.b * y) % p if j < p else (m.c * x + m.d * y) % p


def matrix_closure(p: int, gens) -> frozenset:
    """The subgroup of GL_2(p) that gens generate: as the group is finite, the
    products reached from 1 by right multiplication with the generators."""
    seen = {identity_matrix(p)}
    frontier = list(seen)
    while frontier:
        m = frontier.pop()
        for g in gens:
            if (prod_ := m * g) not in seen:
                seen.add(prod_)
                frontier.append(prod_)
    return frozenset(seen)


# -- system descriptions ------------------------------------------------------

class FusionClass(NamedTuple):
    members: frozenset
    r: int


# Functions of a description enumerate GL_2(p), about p**4 matrices, and a
# system lists all p**3 elements of S, so descriptions above this prime are
# refused up front.
_MAX_SPEC_PRIME = 23


class FusionSystemSpec(NamedTuple("FusionSystemSpec",
                                  [("p", int), ("name", str), ("classes", tuple)])):
    """p plus the partition of the p+1 lines into classes with their r values,
    validated whenever one is made: directly, by _replace or by unpickling."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, p: int, name: str, classes: tuple):
        self = super().__new__(cls, p, name, classes)
        self._validate()
        return self

    def _validate(self):
        # the limit comes first: primality testing a huge prime is unbounded work
        if isinstance(self.p, int) and self.p > _MAX_SPEC_PRIME:
            raise ValueError(f"{self.p} is above the supported maximum {_MAX_SPEC_PRIME}")
        require_odd_prime(self.p)
        seen = set()
        total = 0
        f_values = set()
        for cls in self.classes:
            if not cls.members:
                raise InconsistentSpecError("empty conjugacy class")
            if not _is_int(cls.r) or cls.r < 1:
                raise InconsistentSpecError(f"r={cls.r!r} is not a positive integer")
            if (self.p - 1) % cls.r:
                raise InconsistentSpecError(f"r={cls.r} does not divide p-1={self.p - 1}")
            if seen & cls.members:
                raise InconsistentSpecError("classes overlap")
            if not cls.members <= set(range(self.p + 1)):
                raise InconsistentSpecError("line index out of range")
            seen |= cls.members
            total += len(cls.members)
            f_values.add(len(cls.members) * cls.r)
        if total != self.p + 1:
            raise InconsistentSpecError("classes do not cover all p+1 lines")
        if len(f_values) != 1:
            raise InconsistentSpecError(
                f"|class|*r must agree across classes, got {sorted(f_values)}")

    @property
    def f(self) -> int:
        cls = self.classes[0]
        return len(cls.members) * cls.r

    @property
    def out_order(self) -> int:
        return (self.p - 1) * self.f

    def class_of_line(self, i: int) -> FusionClass:
        for cls in self.classes:
            if i in cls.members:
                return cls
        raise ValueError(f"line {i} not covered")

    def r_of_line(self, i: int) -> int:
        return self.class_of_line(i).r

    def to_json(self) -> dict:
        return {
            "prime": self.p,
            "name": self.name,
            "classes": [
                {"lines": sorted(cls.members), "r": cls.r} for cls in self.classes
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "FusionSystemSpec":
        """The spec a JSON system description names.  A missing or mistyped
        field raises UnknownSystemError naming it, as for a file."""
        problem = _spec_field_error(data)
        if problem is not None:
            raise UnknownSystemError(problem)
        classes = tuple(FusionClass(frozenset(entry["lines"]), entry["r"])
                        for entry in data["classes"])
        return FusionSystemSpec(data["prime"], data.get("name", "custom"), classes)


def _is_int(value) -> bool:
    """A JSON integer: bool is a subclass of int, but true is not 1 here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _spec_field_error(data) -> str | None:
    """The first missing or malformed field of a JSON system description."""
    if not isinstance(data, dict):
        return "expected a JSON object with fields 'prime' and 'classes'"
    if "prime" not in data:
        return "missing field 'prime'"
    if not _is_int(data["prime"]):
        return "field 'prime' must be an integer"
    if not isinstance(data.get("name", ""), str):
        return "field 'name' must be a string"
    if "classes" not in data:
        return "missing field 'classes'"
    if not isinstance(data["classes"], list):
        return "field 'classes' must be a list"
    for k, entry in enumerate(data["classes"]):
        if not isinstance(entry, dict):
            return f"field 'classes[{k}]' must be an object"
        for name in ("lines", "r"):
            if name not in entry:
                return f"missing field 'classes[{k}].{name}'"
        lines = entry["lines"]
        if not isinstance(lines, list) or not all(map(_is_int, lines)):
            return f"field 'classes[{k}].lines' must be a list of integers"
        seen = set()
        for line in lines:
            if line in seen:
                return f"field 'classes[{k}].lines' repeats line {line}"
            seen.add(line)
        if not _is_int(entry["r"]) or entry["r"] < 1:
            return f"field 'classes[{k}].r' must be a positive integer"
    return None


def load_spec_file(path: str) -> FusionSystemSpec:
    """Read a JSON system description.  A file that is not JSON, lacks or
    mistypes a field, has a prime above _MAX_SPEC_PRIME or fails a consistency
    check raises UnknownSystemError naming the file and field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or a number too long to convert
            raise UnknownSystemError(f"{path}: not valid JSON: {exc}") from None
    try:
        return FusionSystemSpec.from_json(data)
    except UnknownSystemError as exc:  # a missing or mistyped field
        raise UnknownSystemError(f"{path}: {exc}") from None
    except ValueError as exc:  # the prime is not an odd prime or is too large
        raise UnknownSystemError(f"{path}: field 'prime': {exc}") from None
    except InconsistentSpecError as exc:
        raise UnknownSystemError(f"{path}: field 'classes': {exc}") from None


# -- the built-in rows: outer automorphism groups ----------------------------

def _split_torus_normalizer(p: int) -> frozenset:
    mats = set()
    for a in range(1, p):
        for d in range(1, p):
            mats.add(MatrixGL2(p, a, 0, 0, d))
            mats.add(MatrixGL2(p, 0, a, d, 0))
    return frozenset(mats)


def _nonsquare(p: int) -> int:
    """The least nonsquare mod p: by Euler's criterion, v**((p-1)/2) == -1."""
    return next(v for v in range(2, p) if pow(v, (p - 1) // 2, p) == p - 1)


def _nonsplit_torus(p: int) -> frozenset:
    nu = _nonsquare(p)
    return frozenset(
        MatrixGL2(p, a, nu * b % p, b, a)
        for a in range(p) for b in range(p) if (a, b) != (0, 0)
    )


def _nonsplit_torus_normalizer(p: int) -> frozenset:
    torus = _nonsplit_torus(p)
    sigma = MatrixGL2(p, 1, 0, 0, p - 1)
    return frozenset(torus | {sigma * t for t in torus})


def _nonsplit_half_normalizer(p: int) -> frozenset:
    """Index-2 subgroup of the nonsplit normalizer: torus squares plus the flip.
    The torus is abelian, so its squares are a group."""
    half = {t * t for t in _nonsplit_torus(p)}
    sigma = MatrixGL2(p, 1, 0, 0, p - 1)
    return frozenset(half | {sigma * t for t in half})


def _quaternion_normalizer(p: int) -> frozenset:
    i = MatrixGL2(p, 0, p - 1, 1, 0)
    j = MatrixGL2(p, 0, 2, 2, 0)
    q8 = matrix_closure(p, [i, j])
    if len(q8) != 8:
        raise InconsistentSpecError("quaternion seed did not close to 8 matrices")
    # conjugation by m is an automorphism: it keeps q8 if it keeps i and j there
    return frozenset(m for m in gl2_elements(p)
                     if m * i * (mi := m.inv()) in q8 and m * j * mi in q8)


_BUILTIN_ROWS = (
    # (p, name, builder, realizing group or None when exotic)
    (3, "D8", _split_torus_normalizer, "2F4(2)'"),
    (3, "SD16", _nonsplit_torus_normalizer, "J4"),
    (5, "4S4", _quaternion_normalizer, "Th"),
    (7, "D16x3", _nonsplit_half_normalizer, None),
    (7, "6sq:2", _split_torus_normalizer, None),
    (7, "SD32x3", _nonsplit_torus_normalizer, None),
)

# names besides the row names, which match in any case
SYSTEM_ALIASES = {
    "2f4": "D8",
    "j4": "SD16",
    "th4s4": "4S4",
    "th": "4S4",
    "rv48": "D16x3",
    "rv72": "6sq:2",
    "rv96": "SD32x3",
}


def _line_orbits(p: int, mats: frozenset) -> list:
    orbits, seen = [], set()
    for i in range(p + 1):
        if i in seen:
            continue
        orb = {i}
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for m in mats:
                k = act_on_line(m, j)
                if k not in orb:
                    orb.add(k)
                    frontier.append(k)
        seen |= orb
        orbits.append(frozenset(orb))
    return orbits


def _spec_from_matrices(p: int, name: str, mats: frozenset) -> FusionSystemSpec:
    classes = []
    for orb in _line_orbits(p, mats):
        i = min(orb)
        stab = sum(1 for m in mats if act_on_line(m, i) == i)
        if stab % (p - 1):
            raise InconsistentSpecError("line stabilizer order not divisible by p-1")
        classes.append(FusionClass(orb, stab // (p - 1)))
    classes.sort(key=lambda cls: min(cls.members))
    return FusionSystemSpec(p, name, tuple(classes))


@lru_cache(maxsize=None)
def _builtin_rows(p: int) -> tuple:
    """(description, matrices, realizing group or None) of each built-in row
    at p, in table order; no row at another prime is built."""
    rows = []
    for q, name, builder, group_name in _BUILTIN_ROWS:
        if q == p:
            mats = builder(p)
            rows.append((_spec_from_matrices(p, name, mats), mats, group_name))
    return tuple(rows)


def builtin_systems() -> tuple:
    """The six built-in system descriptions, in table order."""
    return tuple(resolve_system(row[1]) for row in _BUILTIN_ROWS)


def _matching_row(spec: FusionSystemSpec):
    """(row, g) for the first built-in row at spec's prime whose classes g in
    GL_2(p) carries onto spec's, or None; the name plays no part."""
    for row in _builtin_rows(spec.p):
        g = _line_relabelling(row[0], spec)
        if g is not None:
            return row, g
    return None


def matching_builtin(spec: FusionSystemSpec):
    """(built-in description, realizing group or None) of the row that
    matches spec up to relabelling, or None when no row matches."""
    match = _matching_row(spec)
    return (match[0][0], match[0][2]) if match else None


def realizing_group_name(spec: FusionSystemSpec):
    """ATLAS-style name of a finite group realizing the system: that of its
    built-in row, None for an exotic row or a spec that matches no row."""
    match = _matching_row(spec)
    return match[0][2] if match else None


def resolve_system(name: str) -> FusionSystemSpec:
    canonical = SYSTEM_ALIASES.get(name.lower(), name).lower()
    for p, row_name, _, _ in _BUILTIN_ROWS:
        if row_name.lower() == canonical:
            return next(row[0] for row in _builtin_rows(p) if row[0].name == row_name)
    raise UnknownSystemError(f"unknown system {name!r}; known: "
                             + ", ".join(row[1] for row in _BUILTIN_ROWS))


# -- consistency checks and construction of Out_F(S) --------------------------

def aut_F_V(spec: FusionSystemSpec, i: int) -> frozenset:
    """All of the automorphism group of V_i as matrices: det in <mu**((p-1)/r_i)>."""
    p = spec.p
    allowed = power_subgroup(p, spec.r_of_line(i))
    return frozenset(m for m in gl2_elements(p) if m.det() in allowed)


class LambdaSets(NamedTuple):
    extendable: frozenset
    nonextendable: frozenset


def lambda_sets(spec: FusionSystemSpec, i: int) -> LambdaSets:
    """Index pairs (k, l): k*l in the allowed determinant group (extendable side),
    -k*l in it (nonextendable side)."""
    p = spec.p
    allowed = power_subgroup(p, spec.r_of_line(i))
    ext = frozenset((k, l) for k in range(1, p) for l in range(1, p) if k * l % p in allowed)
    non = frozenset((k, l) for k in range(1, p) for l in range(1, p) if -k * l % p in allowed)
    return LambdaSets(ext, non)


def _verify_out_group(spec: FusionSystemSpec, mats: frozenset) -> tuple:
    """Check mats against every counting constraint, or raise
    InconsistentSpecError; returns the generators the product check picked."""
    p = spec.p
    if len(mats) != spec.out_order:
        raise InconsistentSpecError(
            f"outer group has order {len(mats)}, expected (p-1)f = {spec.out_order}")
    for m in mats:
        if m.inv() not in mats:
            raise InconsistentSpecError("outer group not closed under inverse")
    # a finite set is a group iff the group some subset of it generates is the
    # set itself: scanning in order, a matrix not yet generated is a generator,
    # and the closure must stay inside mats; it covers mats once the scan ends
    gens, generated = [], {identity_matrix(p)}
    for m in sorted(mats):
        if m not in generated:
            gens.append(m)
            generated = matrix_closure(p, gens)
            if not generated <= mats:
                raise InconsistentSpecError("outer group not closed under product")
    # determinant fibers all have size f
    fibers = {}
    for m in mats:
        fibers[m.det()] = fibers.get(m.det(), 0) + 1
    if set(fibers) != set(range(1, p)) or set(fibers.values()) != {spec.f}:
        raise InconsistentSpecError(f"determinant fibers are not uniform of size f: {fibers}")
    # orbits match the class partition; stabilizer (det, lambda) pairs match Lambda^e
    orbits = {frozenset(o) for o in _line_orbits(p, mats)}
    if orbits != {cls.members for cls in spec.classes}:
        raise InconsistentSpecError(
            f"line orbits {sorted(map(sorted, orbits))} do not match the class partition")
    for cls in spec.classes:
        lam_e = lambda_sets(spec, min(cls.members)).extendable
        for i in cls.members:
            stab_pairs = [(m.det(), line_scaling(m, i)) for m in mats if act_on_line(m, i) == i]
            if len(stab_pairs) != (p - 1) * cls.r:
                raise InconsistentSpecError(
                    f"stabilizer of line {i} has size {len(stab_pairs)}, "
                    f"expected (p-1)r = {(p - 1) * cls.r}")
            if len(set(stab_pairs)) != len(stab_pairs) or set(stab_pairs) != lam_e:
                raise InconsistentSpecError(
                    f"stabilizer action pairs at line {i} do not realise the extendable set")
    return tuple(gens)


def _line_relabelling(have: FusionSystemSpec, want: FusionSystemSpec):
    """Some g in GL_2(p) carrying have's (members, r) classes onto want's, or
    None; both are at one prime.  The identity is tried first; the class
    shapes are compared before any search."""
    shape = sorted((len(cls.members), cls.r) for cls in have.classes)
    if shape != sorted((len(cls.members), cls.r) for cls in want.classes):
        return None
    target = {(cls.members, cls.r) for cls in want.classes}
    if {(cls.members, cls.r) for cls in have.classes} == target:
        return identity_matrix(have.p)
    for g in gl2_elements(have.p):
        mapped = {
            (frozenset(act_on_line(g, i) for i in cls.members), cls.r)
            for cls in have.classes
        }
        if mapped == target:
            return g
    return None


class OutF(frozenset):
    """Out_F(S) as matrices in GL_2(p), with `generators`: those of a scan in
    sorted order not generated by the ones before, which generate the set."""

    __slots__ = ("generators",)


def build_out_F(spec: FusionSystemSpec) -> OutF:
    """The outer automorphism group of S for this system, as matrices in GL_2(p):
    the matching built-in row's matrices conjugated by its relabelling g, then
    verified against every counting constraint (order (p-1)f, closure under
    inverses and products, uniform determinant fibers, line orbits equal to
    the class partition, line stabilizers acting exactly by the extendable
    index pairs).  A spec that matches no row raises InconsistentSpecError."""
    match = _matching_row(spec)
    if match is None:
        raise InconsistentSpecError(
            f"no built-in system at p = {spec.p} matches {spec.name!r} up to relabelling")
    (_, mats, _), g = match
    gi = g.inv()
    mats = OutF(g * m * gi for m in mats)
    mats.generators = _verify_out_group(spec, mats)
    return mats


# -- lifting matrices to automorphisms of S -----------------------------------

def lift_matrix_to_aut(m: MatrixGL2) -> GroupMorphism:
    """The automorphism of S acting by m on exponent vectors and by det(m) on z:
    x -> X = (m.a, m.c, 0) and y -> Y = (m.b, m.d, 0).  Its table is read off
    (a, b, c) = x**a y**b z**(c - ab), whose image X**a Y**b z**(k(c - ab)),
    k = det(m), is one base per (a, b) with p central digits."""
    p, k = m.p, m.det()
    if k == 0:
        raise ValueError("matrix is not invertible")
    table, steps = [], [k * t for t in range(p)]
    for a in range(p):
        # X**a = (a m.a, a m.c, C(a,2) m.a m.c) by the power closed form
        xa, xc, xz = a * m.a, a * m.c, a * (a - 1) // 2 * m.a * m.c
        for b in range(p):
            # X**a Y**b by the group law, less the k ab that z**(c - ab) takes off
            base = ((xa + b * m.b) % p * p + (xc + b * m.d) % p) * p
            c = xz + b * (b - 1) // 2 * m.b * m.d + (xa * m.d - k * a) * b
            table += [base + (c + step) % p for step in steps]
    return GroupMorphism(ambient_group(p).full, tuple(table))


def matrix_of_automorphism(alpha: GroupMorphism) -> MatrixGL2:
    """Inverse of the lift on outer classes: read the induced map on S/Z."""
    p = alpha.p
    grp = ambient_group(p)
    fx, fy = alpha(grp.x), alpha(grp.y)
    return MatrixGL2(p, fx.a, fy.a, fx.b, fy.b)


# -- morphism representatives -------------------------------------------------

class FusionMorphism(NamedTuple):
    """A representative F-morphism together with its classification data.

    kind is one of "aut_s", "extendable", "nonextendable", "order_p".
    For V-to-V representatives (i, j, k, l) carry the source line, target line
    and the index pair; order-p representatives carry (xi, zeta) instead.
    cls is its S x S biset class, built once with it: the mark table's
    columns, the symbolic biset, the sweeps and the idempotent share it.
    """

    morphism: GroupMorphism
    kind: str
    meta: tuple
    cls: BisetClass

    @property
    def extendable(self):
        """True or False for a V-source representative, None otherwise."""
        return {"extendable": True, "nonextendable": False}.get(self.kind)

    @property
    def source(self) -> Subgroup:
        return self.morphism.source


class FusionSystem:
    """A builtin or custom system together with all derived structure."""

    def __init__(self, spec: FusionSystemSpec):
        self.spec = spec
        self.p = spec.p
        self.out_matrices = build_out_F(spec)  # before S: a spec with no row is refused at once
        self.group = ambient_group(spec.p)
        self.sorted_out = tuple(sorted(self.out_matrices))
        self.out_generators = self.out_matrices.generators
        self.out_lifts = {m: lift_matrix_to_aut(m) for m in self.sorted_out}
        self.f = spec.f
        self.maximals = self.group.maximal_subgroups
        self._normalize_generators()
        self._aut_s_reps = None
        self._v_reps = {}
        self._order_p_reps = None
        self._class_reps_all = None
        # per-system caches, filled on first use: biset.mark_table, the solver's
        # symbolic biset, the class of each order-p pair and e(X), and the
        # agreed idempotent coefficients
        self._mark_table = None
        self._symbolic_biset = None
        self._layer2_classes = None
        self._size_expr = None
        self._coefficient_forms = None

    # -- normalization of line generators -------------------------------------

    def _normalize_generators(self):
        """Scale each line generator u_j so that a determinant-1 outer element,
        adjusted by an inner map, takes u_{i0} of j's class exactly to u_j and
        fixes z."""
        p = self.p
        grp = self.group
        pinned = grp.pinned_line_generators
        u = list(pinned)
        sl_mats = [m for m in self.sorted_out if m.det() == 1]
        for cls in self.spec.classes:
            members = sorted(cls.members)
            i0 = members[0]
            for j in members[1:]:
                m = next((mm for mm in sl_mats if act_on_line(mm, i0) == j), None)
                if m is None:
                    raise InconsistentSpecError(
                        f"no determinant-1 outer element moves line {i0} to line {j}")
                lam = line_scaling(m, i0)
                u[j] = pinned[j] ** lam
                alpha = self.out_lifts[m]
                # adjust by an inner map c_s so u_{i0} goes exactly to the new u_j
                img = alpha(u[i0])
                defect = (img.c - u[j].c) % p  # img = u_j * z**defect
                s = self._solve_commuting_conjugator(u[j], -defect % p)
                if alpha(grp.z).conj_by(s) != grp.z or img.conj_by(s) != u[j]:
                    raise InconsistentSpecError("generator normalization failed")
        self.u = tuple(u)
        self._verify_restrictions()

    def _verify_restrictions(self):
        """Elementwise filter in the normalized bases: the restriction of every
        outer representative to every V_i lands in the automorphism group of
        the target line (its determinant is an allowed power)."""
        p = self.p
        allowed = [power_subgroup(p, self.spec.r_of_line(j)) for j in range(p + 1)]
        for m, alpha in self.out_lifts.items():
            k = alpha(self.group.z).c  # z -> z**k with k = det(m)
            for i in range(p + 1):
                img = alpha(self.u[i])
                j = self.group.line_of(img)
                if j != act_on_line(m, i):
                    raise InconsistentSpecError("lift does not follow the line action")
                lam = self._power_along_line(img, j)
                if k * lam % p not in allowed[j]:
                    raise InconsistentSpecError(
                        f"restriction of {m} to line {i} leaves the target automorphism group")

    def _power_along_line(self, g: GroupElement, j: int) -> int:
        """lam with g = u_j**lam modulo the center."""
        p = self.p
        u = self.u[j]
        if u.a % p:
            return g.a * pow(u.a, p - 2, p) % p
        return g.b * pow(u.b, p - 2, p) % p

    def _solve_commuting_conjugator(self, target: GroupElement, t: int) -> GroupElement:
        """Some s with s*target*s**-1 = target * z**t (target noncentral)."""
        p = self.p
        for s in self.group.elements:
            if (s.a * target.b - s.b * target.a) % p == t:
                return s
        raise InconsistentSpecError("no conjugator found")  # unreachable for noncentral targets

    # -- representative morphism classes --------------------------------------

    def aut_s_reps(self) -> tuple:
        """One automorphism of S per outer class, tagged with its matrix."""
        if self._aut_s_reps is None:
            self._aut_s_reps = tuple(FusionMorphism(alpha, "aut_s", (m,), biset_class(alpha))
                                     for m, alpha in self.out_lifts.items())
        return self._aut_s_reps

    def v_source_reps(self, i: int) -> tuple:
        """S-S-class representatives of F-morphisms out of V_i.

        Extendable: z -> z**k, u_i -> u_j**l over conjugate targets j and
        (k, l) in the extendable index set.  Nonextendable: z -> u_j**k,
        u_i -> z**l over the nonextendable index set.
        """
        if i not in self._v_reps:
            grp = self.group
            lam = lambda_sets(self.spec, i)
            v_i = self.maximals[i]
            u_i = self.u[i]
            reps = []
            members = sorted(self.spec.class_of_line(i).members)
            for j in members:
                u_j = self.u[j]
                for (k, l) in sorted(lam.extendable):
                    mor = morphism_from_images(v_i, {grp.z: grp.z ** k, u_i: u_j ** l})
                    reps.append(FusionMorphism(mor, "extendable", (i, j, k, l), biset_class(mor)))
                for (k, l) in sorted(lam.nonextendable):
                    mor = morphism_from_images(v_i, {grp.z: u_j ** k, u_i: grp.z ** l})
                    reps.append(FusionMorphism(mor, "nonextendable", (i, j, k, l),
                                               biset_class(mor)))
            self._v_reps[i] = tuple(reps)
        return self._v_reps[i]

    def order_p_reps(self) -> tuple:
        """Class representatives of F-maps between order-p subgroups: one per
        pair (xi, zeta) with xi in {z, u_0..u_p} and zeta in {z**m, u_j**m}."""
        if self._order_p_reps is None:
            grp = self.group
            p = self.p
            sources = [grp.z] + list(self.u)
            targets = [grp.z ** m for m in range(1, p)]
            for j in range(p + 1):
                targets.extend(self.u[j] ** m for m in range(1, p))
            reps = []
            for xi in sources:
                src = grp.cyclic(xi)
                for zeta in targets:
                    mor = morphism_from_images(src, {xi: zeta})
                    reps.append(FusionMorphism(mor, "order_p", (xi, zeta), biset_class(mor)))
            self._order_p_reps = tuple(reps)
        return self._order_p_reps

    def all_class_reps(self) -> tuple:
        """Every enumerated F-morphism class of source order >= p."""
        if self._class_reps_all is None:
            reps = list(self.aut_s_reps())
            for i in range(self.p + 1):
                reps.extend(self.v_source_reps(i))
            reps.extend(self.order_p_reps())
            self._class_reps_all = tuple(reps)
        return self._class_reps_all


def fusion_system(spec: FusionSystemSpec) -> FusionSystem:
    """A new system for spec; nothing keeps it once its caller lets it go."""
    return FusionSystem(spec)
