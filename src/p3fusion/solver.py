"""Minimal characteristic bisets: layer coefficients, the linear system for
the bottom layer, uniqueness certification, and the summary table.

One symbolic biset holds every multiplicity of layers 0-2 as an affine
expression in the free coefficients: the top two layers from the
classification, the bottom layer derived from the stability equations, with
marks of the top two layers read off the system's sparse mark table.  The
assembled biset, e(X) and the idempotent's solve all read it.  The closed
forms serve as a cross-check, not as the source of truth.
"""

from __future__ import annotations

import time
from fractions import Fraction
from typing import NamedTuple

from .biset import (
    FormalBiset,
    is_left_stable,
    is_right_stable,
    mark_table,
    opposite,
    stability_witness,
)
from .errors import (
    InconsistentSpecError,
    InfeasibleCoefficientsError,
    TheoremViolationError,
)
from .fusion import FusionSystem, FusionMorphism, matching_builtin, realizing_group_name


# -- affine expressions in the free coefficients -------------------------------

class LinExpr:
    """Affine combination of named coefficients with exact scalars."""

    __slots__ = ("terms", "const")

    def __init__(self, terms=None, const=0):
        self.terms = dict(terms or {})
        self.const = const

    @staticmethod
    def var(name):
        return LinExpr({name: 1})

    @staticmethod
    def of(value):
        return LinExpr({}, value)

    def __add__(self, other):
        if not isinstance(other, LinExpr):
            other = LinExpr.of(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return LinExpr({k: v for k, v in terms.items() if v}, self.const + other.const)

    def __sub__(self, other):
        if not isinstance(other, LinExpr):
            other = LinExpr.of(other)
        return self + (-1) * other

    def __rmul__(self, scalar):
        return LinExpr({k: scalar * v for k, v in self.terms.items()}, scalar * self.const)

    def add_scaled(self, other: "LinExpr", k) -> None:
        """self += k * other, in place."""
        terms = self.terms
        for name, v in other.terms.items():
            terms[name] = terms.get(name, 0) + k * v
        self.const += k * other.const

    def evaluate(self, assignment):
        total = self.const
        for k, v in self.terms.items():
            total += v * assignment[k]
        return total

    def substitute(self, partial) -> "LinExpr":
        """Replace named coefficients by numbers or by affine expressions."""
        out = LinExpr({k: v for k, v in self.terms.items() if k not in partial}, self.const)
        for k, v in self.terms.items():
            if k in partial:
                out = out + v * partial[k]
        return out

    def __eq__(self, other):
        return (isinstance(other, LinExpr) and self.const == other.const
                and {k: Fraction(v) for k, v in self.terms.items() if v}
                == {k: Fraction(v) for k, v in other.terms.items() if v})

    def __repr__(self):
        parts = [f"{v}*{k}" for k, v in sorted(self.terms.items(), key=lambda kv: str(kv[0]))]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


C0 = ("c0",)


def c1_var(i):
    return ("c1", i)


def c2z_var():
    return ("c2z",)


def c2u_var(i):
    return ("c2u", i)


# -- pair bookkeeping for the bottom layer --------------------------------------

def pair_key_of_rep(system: FusionSystem, rep: FusionMorphism):
    """(xi index, zeta index, m) with -1 meaning the central generator z."""
    xi, zeta = rep.meta
    grp = system.group
    p = system.p
    xi_idx = -1 if xi.is_central() else grp.line_of(xi)
    if zeta.is_central():
        return (xi_idx, -1, zeta.c % p)
    j = grp.line_of(zeta)
    return (xi_idx, j, system._power_along_line(zeta, j))


def _marks_upto1(sym: dict, row: dict) -> LinExpr:
    """The top-two-layer mark at one test class, from its mark-table row."""
    total = LinExpr()
    for cls, fp in row.items():
        mult = sym.get(cls)
        if mult is not None and cls.layer < 2:
            total.add_scaled(mult, fp)
    return total


def _divided(expr: LinExpr, d: int) -> LinExpr:
    """expr / d for integer coefficients: a Fraction only where d does not divide."""
    def div(v):
        q, r = divmod(v, d)
        return Fraction(v, d) if r else q
    return LinExpr({k: div(v) for k, v in expr.terms.items()}, div(expr.const))


def symbolic_biset(system: FusionSystem) -> dict:
    """Every class of layers 0-2 with its multiplicity as an affine expression
    in c0, c1(i), c2z and c2u(i), built once per system.  The top two layers
    come from the classification: c0 on every [S, alpha], c1(i) on the
    extendable and c0 + p*c1(i) on the nonextendable classes out of V_i.  Each
    order-p pair (xi, zeta) is then read off the stability equations, with
    marks from the mark table: its multiplicity in terms of c0, c1(i) and the
    diagonal variables c2z, c2u(i)."""
    sym = system._symbolic_biset
    if sym is not None:
        return sym
    sym = {}
    p = system.p
    for rep in system.aut_s_reps():
        sym[rep.cls] = LinExpr.var(C0)
    for i in range(p + 1):
        for rep in system.v_source_reps(i):
            c1 = LinExpr.var(c1_var(i))
            sym[rep.cls] = c1 if rep.extendable else LinExpr.var(C0) + p * c1
    table = mark_table(system)
    classes = {pair_key_of_rep(system, rep): rep.cls for rep in system.order_p_reps()}
    marks_upto1 = {}
    diag = {}
    for (key, test), row in zip(classes.items(), table.rows(classes.values())):
        marks_upto1[key] = _marks_upto1(sym, row)
        diag[key] = row[test]
    for key, cls in classes.items():
        xi_idx = key[0]
        diag_key = (xi_idx, -1, 1) if xi_idx == -1 else (xi_idx, xi_idx, 1)
        diag_var = LinExpr.var(c2z_var()) if xi_idx == -1 else LinExpr.var(c2u_var(xi_idx))
        numer = (diag[diag_key] * diag_var + marks_upto1[diag_key] - marks_upto1[key])
        sym[cls] = _divided(numer, diag[key])
    system._symbolic_biset = sym
    system._layer2_classes = classes
    return sym


def derive_layer2_relations(system: FusionSystem):
    """For every order-p pair (xi, zeta): its multiplicity in the symbolic
    biset, and its class, both keyed by the pair."""
    sym = symbolic_biset(system)
    classes = system._layer2_classes
    return {key: sym[cls] for key, cls in classes.items()}, classes


def layer2_closed_forms(system: FusionSystem) -> dict:
    """{pair key: (relation, identity, mark)} for every order-p pair: the
    closed form of its bottom-layer relation, and the named identity its
    top-two-layer mark obeys, with that mark in closed form."""
    p, f, spec = system.p, system.f, system.spec
    c0, c2z = LinExpr.var(C0), LinExpr.var(c2z_var())
    c1 = [LinExpr.var(c1_var(i)) for i in range(p + 1)]
    forms = {}
    for rep in system.order_p_reps():
        key = pair_key_of_rep(system, rep)
        i, j, _m = key  # -1 stands for the central generator z
        if i == -1 and j == -1:
            forms[key] = (c2z, "mark(z,z^m)=p^3·f·c0+p^4·f·Σc1",
                          p**3 * f * c0 + p**4 * f * sum(c1, LinExpr()))
        elif i == -1:
            members, r_j = spec.class_of_line(j).members, spec.r_of_line(j)
            relation = p * c2z + sum((((f - r_j) if k in members else f) * c1[k]
                                      for k in range(p + 1)), LinExpr())
            forms[key] = (relation, "mark(z,u^m)=p^3·f·c0+p^4·r·Σ_class c1",
                          p**3 * f * c0 + p**4 * r_j * sum((c1[k] for k in members), LinExpr()))
        else:
            r_i, c2u = spec.r_of_line(i), LinExpr.var(c2u_var(i))
            if j == -1:
                forms[key] = (Fraction(1, p) * (c2u - (f - r_i) * c0 - p * (f - r_i) * c1[i]),
                              "mark(u,z^m)=p^3·f·c0+p^4·f·c1", p**3 * f * c0 + p**4 * f * c1[i])
            elif j in spec.class_of_line(i).members:
                forms[key] = (c2u, "mark(u_i,u_j^m)=p^3·r·c0+p^4·r·c1 (conjugate lines)",
                              p**3 * r_i * c0 + p**4 * r_i * c1[i])
            else:
                forms[key] = (c2u + r_i * c0 + p * r_i * c1[i],
                              "mark(u_i,u_j^m)=0 (non-conjugate lines)", LinExpr.of(0))
    return forms


def certify_layer2(system: FusionSystem) -> None:
    """Check the symbolic biset against layer2_closed_forms at every order-p
    pair: the derived bottom-layer relation, and the top-two-layer mark read
    off the mark table.  Raise TheoremViolationError naming the first check
    that fails and its pair key."""
    derived, classes = derive_layer2_relations(system)
    sym, table = symbolic_biset(system), mark_table(system)
    for key, (relation, identity, mark) in layer2_closed_forms(system).items():
        if derived.get(key) != relation:
            raise TheoremViolationError(f"layer-2 relation at pair {key}: derived "
                                        f"{derived.get(key)}, closed form {relation}")
        got = _marks_upto1(sym, table.row(classes[key]))
        if got != mark:
            raise TheoremViolationError(f"mark identity {identity} at pair {key}: "
                                        f"mark {got}, closed form {mark}")


# -- coefficient assignments -----------------------------------------------------

class LayerCoefficients(NamedTuple):
    """A full coefficient assignment for a right characteristic biset."""

    c0: int
    c1: tuple          # per line index
    c2z: object
    c2u: tuple         # per line index

    def assignment(self):
        out = {C0: self.c0, c2z_var(): self.c2z}
        for i, v in enumerate(self.c1):
            out[c1_var(i)] = v
        for i, v in enumerate(self.c2u):
            out[c2u_var(i)] = v
        return out


def solve_layer2(system: FusionSystem, c0, c1, c2z, c2u) -> LayerCoefficients:
    """Evaluate the bottom-layer relations at the given free coefficients.

    The result must be a genuine biset layer: every multiplicity a
    nonnegative integer; the violated bound is reported otherwise.
    """
    p = system.p
    if c0 < 1 or c0 % p == 0:
        raise InfeasibleCoefficientsError(f"c0={c0} must be positive and prime to p")
    if any(v < 0 for v in c1):
        raise InfeasibleCoefficientsError(f"c1={c1} must be nonnegative")
    if c2z < 0:
        raise InfeasibleCoefficientsError(f"c2z={c2z} must be nonnegative")
    relations, _classes = derive_layer2_relations(system)
    coeffs = LayerCoefficients(c0, tuple(c1), c2z, tuple(c2u))
    assignment = coeffs.assignment()
    for key, expr in relations.items():
        value = expr.evaluate(assignment)
        if value.denominator != 1:
            raise InfeasibleCoefficientsError(
                f"multiplicity of pair {key} is {value}, not an integer "
                f"(divisibility of c2u by p fails)")
        if value < 0:
            raise InfeasibleCoefficientsError(
                f"multiplicity of pair {key} is {value} < 0; "
                f"c2u must dominate (f-r_i)*c0 + p*(f-r_i)*c1_i")
    return coeffs


def assemble(system: FusionSystem, coeffs: LayerCoefficients) -> FormalBiset:
    """The symbolic biset evaluated at a coefficient assignment."""
    at = coeffs.assignment()
    mults = {}
    for cls, expr in symbolic_biset(system).items():
        value = expr.evaluate(at)
        mults[cls] = value.numerator if value.denominator == 1 else value
    return FormalBiset(system.p, mults)


# -- the minimal biset ----------------------------------------------------------------

class SolverResult(NamedTuple):
    system_name: str
    p: int
    f: int
    out_order: int
    d0: int
    d1: int
    d2: int
    e: int
    coefficients: LayerCoefficients
    biset: FormalBiset
    minimal: bool | None  # each certificate is None when not checked
    unique: bool | None
    stable_left: bool | None
    stable_right: bool | None
    self_opposite: bool | None
    exotic: bool
    exoticity_bound_value: object  # int when exotic, else None
    wall_time_s: float
    witness: tuple | None  # (side, FusionMorphism, lhs, rhs) of a failing sweep

    def certificates_ok(self) -> bool:
        """All five certificates checked and true."""
        return all((self.minimal, self.unique, self.stable_left, self.stable_right,
                    self.self_opposite))

    def to_json(self) -> dict:
        return {
            "system": self.system_name,
            "prime": self.p,
            "f": self.f,
            "out_order": self.out_order,
            "d0": self.d0,
            "d1": self.d1,
            "d2": self.d2,
            "e": self.e,
            "coefficients": {
                "c0": self.coefficients.c0,
                "c1": list(self.coefficients.c1),
                "c2_z": self.coefficients.c2z,
                "c2_u": list(self.coefficients.c2u),
            },
            "certificates": {
                "minimal": self.minimal,
                "unique": self.unique,
                "stable_left": self.stable_left,
                "stable_right": self.stable_right,
                "self_opposite": self.self_opposite,
            },
            "exotic": self.exotic,
            "exoticity_bound": self.exoticity_bound_value,
            "wall_time_s": round(self.wall_time_s, 3),
            "biset": self.biset.to_json(self.system_name),
        }


def minimal_coefficients(system: FusionSystem) -> LayerCoefficients:
    """c0 = 1, c1 = 0, c2z = 0, c2u(i) = f - r_i: the feasibility corner."""
    p = system.p
    f = system.f
    c2u = tuple(f - system.spec.r_of_line(i) for i in range(p + 1))
    return solve_layer2(system, 1, (0,) * (p + 1), 0, c2u)


def _size_expr(system: FusionSystem) -> LinExpr:
    """e(X) as one affine expression in c0, c1(i), c2z and c2u(i): every class
    of the symbolic biset counts p**layer per copy.  Built on first use and
    kept on the system."""
    total = system._size_expr
    if total is None:
        total = system._size_expr = LinExpr()
        for cls, mult in symbolic_biset(system).items():
            total.add_scaled(mult, system.p**cls.layer)
    return total


def size_of(system: FusionSystem, coeffs: LayerCoefficients) -> int:
    """e(X) for a coefficient assignment, without materialising the biset."""
    return int(_size_expr(system).evaluate(coeffs.assignment()))


def _lattice_walk(weights, room, p, point=()):
    """Nonnegative integer points with weighted sum at most room, in
    lexicographic order; the first coordinate is c0, at least 1 and prime to p."""
    if len(point) == len(weights):
        yield point
        return
    weight = weights[len(point)]
    v = 0 if point else 1
    while v * weight <= room:
        if point or v % p:
            yield from _lattice_walk(weights, room - v * weight, p, point + (v,))
        v += 1


def enumerate_feasible_upto(system: FusionSystem, e_max: int):
    """All feasible coefficient tuples with size at most e_max, in
    lexicographic order of (c0, c1, c2z, k).

    A feasible c2u(i) is its least value (f - r_i)*(c0 + p*c1(i)) plus p*k_i
    with k_i >= 0.  On the coordinates c0, c1(i), c2z and k_i every pair
    multiplicity must be a nonnegative combination and e(X) must have a
    positive weight on each coordinate; either failure is a defect in the
    relations and raises.  The walk then visits the finitely many points with
    e(X) <= e_max and solves the bottom layer once per point, keeping every
    integrality and sign check of solve_layer2.
    """
    p, f = system.p, system.f
    lines = range(p + 1)
    coords = [C0, *map(c1_var, lines), c2z_var(), *(("k", i) for i in lines)]
    lift = {c2u_var(i): (f - system.spec.r_of_line(i))
            * (LinExpr.var(C0) + p * LinExpr.var(c1_var(i))) + p * LinExpr.var(("k", i))
            for i in lines}
    relations, _classes = derive_layer2_relations(system)
    for key, expr in relations.items():
        lifted = expr.substitute(lift)
        if lifted.const < 0 or min(lifted.terms.values(), default=0) < 0:
            raise InconsistentSpecError(f"multiplicity of pair {key} is {lifted}, "
                                        f"negative somewhere on the walk")
    size = _size_expr(system).substitute(lift)
    weights = [size.terms.get(v, 0) for v in coords]
    if min(weights) <= 0:
        raise InconsistentSpecError(f"e(X) = {size} does not grow with every coordinate")
    found = []
    for point in _lattice_walk(weights, e_max - size.const, p):
        at = dict(zip(coords, point))
        c2u = [lift[c2u_var(i)].evaluate(at) for i in lines]
        found.append(solve_layer2(system, point[0], point[1:p + 2], point[p + 2], c2u))
    return found


def exoticity_bound(e: int, p: int) -> int:
    """(e-1) * log_p|S| + sum over i >= 1 of floor(e / p**i), with |S| = p^3."""
    if e < 1:
        raise ValueError("e must be at least 1")
    total = (e - 1) * 3
    q = p
    while q <= e:
        total += e // q
        q *= p
    return total


def minimal_biset(system: FusionSystem, certify: bool = True) -> SolverResult:
    """The unique minimal right (also left) characteristic biset.

    With certify on, the layer-2 relations and mark identities are checked
    against their closed forms (certify_layer2 raises on a failure), the full
    stability sweep runs on both sides, uniqueness is established by
    exhausting the coefficient tuples of size at most the minimum, and
    self-oppositeness is checked classwise.  With it off, the five
    certificates are None.
    """
    start = time.perf_counter()
    p = system.p
    coeffs = minimal_coefficients(system)
    x = assemble(system, coeffs)
    d0 = x.layer(0).transitive_count()
    d1 = x.layer(1).transitive_count()
    d2 = x.layer(2).transitive_count()
    e = x.e()
    if e != d0 + p * d1 + p * p * d2:
        raise InconsistentSpecError("layer sizes disagree with the total")
    out_order = len(system.out_matrices)
    if e % p == 0:
        raise InconsistentSpecError("e(X) is divisible by p")
    if e != (p**5 - 1) // (p - 1) * out_order:
        raise InconsistentSpecError(
            f"e = {e} does not match (p^5-1)/(p-1)*|Out| = {(p**5 - 1) // (p - 1) * out_order}")
    minimal_ok = unique_ok = stable_left = stable_right = self_opp = witness = None
    if certify:
        certify_layer2(system)
        left, right = is_left_stable(system, x), is_right_stable(system, x)
        stable_left, stable_right = left.ok, right.ok
        witness = stability_witness(left, right)
        self_opp = opposite(x) == x
        feasible = enumerate_feasible_upto(system, e)
        minimal_ok = all(size_of(system, c) >= e for c in feasible)
        unique_ok = len(feasible) == 1 and size_of(system, feasible[0]) == e
    group = realizing_group_name(system.spec)
    bound = exoticity_bound(e, p) if group is None else None
    return SolverResult(
        system_name=system.spec.name, p=p, f=system.f,
        out_order=out_order, d0=d0, d1=d1, d2=d2, e=e,
        coefficients=coeffs, biset=x,
        minimal=minimal_ok, unique=unique_ok,
        stable_left=stable_left, stable_right=stable_right,
        self_opposite=self_opp,
        exotic=group is None, exoticity_bound_value=bound,
        wall_time_s=time.perf_counter() - start,
        witness=witness,
    )


# -- the summary table -----------------------------------------------------------------

# expected rows: name -> (p, f, d0, d1, d2, e, group or exoticity bound)
EXPECTED_TABLE = {
    "D8": (3, 4, 8, 32, 96, 968, "2F4(2)'"),
    "SD16": (3, 8, 16, 64, 192, 1936, "J4"),
    "4S4": (5, 24, 96, 576, 2880, 74976, "Th"),
    "D16x3": (7, 8, 48, 384, 2688, 134448, 425744),
    "6sq:2": (7, 12, 72, 576, 4032, 201672, 638620),
    "SD32x3": (7, 16, 96, 768, 5376, 268896, 851496),
}


class TableReport(NamedTuple):
    rows: list
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {"ok": self.ok, "rows": self.rows, "mismatches": self.mismatches}


def verify_table(systems) -> TableReport:
    """Recompute (f, d0, d1, d2, e) plus the bound or realizing group for each
    system and diff against the expected row of the built-in system it
    matches up to relabelling (every system has one: build_out_F reads it)."""
    rows = []
    mismatches = []
    for system in systems:
        res = minimal_biset(system, certify=False)
        built, group = matching_builtin(system.spec)
        last = res.exoticity_bound_value if res.exotic else group
        row = {
            "system": res.system_name, "p": res.p, "f": res.f,
            "d0": res.d0, "d1": res.d1, "d2": res.d2, "e": res.e,
            "group_or_bound": last,
        }
        rows.append(row)
        expected = EXPECTED_TABLE[built.name]
        got = (res.p, res.f, res.d0, res.d1, res.d2, res.e, last)
        if got != expected:
            mismatches.append({"system": res.system_name,
                               "expected": expected, "got": got})
    return TableReport(rows, mismatches)
