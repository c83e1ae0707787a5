"""Exact rational coefficients of the characteristic idempotent, layers 0-2.

The minimal biset and the idempotent are one affine family, the solver's
symbolic biset, evaluated at two points.  Every coefficient is computed
twice: from the closed forms, and by one loop over the symbolic biset that
imposes the layerwise sum conditions in place of nonnegativity and reads
each family's value back.  The two routes must agree, all denominators must
be prime to p, and the resulting virtual biset must pass the same stability
sweep as the minimal biset.  Stability is linear and homogeneous, so the sweep
runs on the integer multiple D*omega, D the lcm of the denominators.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .biset import FormalBiset, is_left_stable, is_right_stable, stability_witness
from .errors import InconsistentSpecError
from .fusion import FusionSystem
from .solver import LinExpr, derive_layer2_relations, symbolic_biset


def closed_forms(system: FusionSystem) -> dict:
    """The published coefficient values keyed by family."""
    p = system.p
    c0 = Fraction(1, system.spec.out_order)
    forms = {
        "c0": c0,
        "c1_extendable": -c0 / (1 + p),
        "c1_nonextendable": c0 / (1 + p),
        "c2_z": Fraction(p, p**3 - 1),
        "c2_u_to_z": Fraction(-p, (p + 1) * (p**3 - 1)),
        "c2_z_to_u": Fraction(-p, (p + 1) * (p**3 - 1)),
    }
    if len(system.spec.classes) > 1:
        # pairs between non-conjugate lines exist only with several classes
        forms["c2_cross"] = Fraction(1, p**3 - 1)
    for i in range(p + 1):
        r_i = system.spec.r_of_line(i)
        forms[("c2_same", i)] = Fraction(1, p**3 - 1) - Fraction(r_i, p + 1) * c0
    return forms


def _families(system: FusionSystem) -> dict:
    """The family of closed_forms that each class of layers 0-2 belongs to."""
    spec = system.spec
    families = {rep.cls: "c0" for rep in system.aut_s_reps()}
    for i in range(system.p + 1):
        for rep in system.v_source_reps(i):
            families[rep.cls] = "c1_extendable" if rep.extendable else "c1_nonextendable"
    _relations, classes = derive_layer2_relations(system)
    for (xi, zj, _m), cls in classes.items():
        if xi == -1:
            families[cls] = "c2_z" if zj == -1 else "c2_z_to_u"
        elif zj == -1:
            families[cls] = "c2_u_to_z"
        elif zj in spec.class_of_line(xi).members:
            families[cls] = ("c2_same", xi)
        else:
            families[cls] = "c2_cross"
    return families


def rational_solve(system: FusionSystem) -> dict:
    """Re-derive every coefficient from the symbolic biset alone; returns the
    same keys as closed_forms.  Its sum per conjugacy class of sources is 1
    at the top layer and 0 below.  Solved in sorted order, each sum must leave
    exactly one unknown; then every class is evaluated once, and each family
    must be constant."""
    grp = system.group
    sym = symbolic_biset(system)
    sums = {}
    for cls, expr in sym.items():
        key = (cls.layer, grp.class_representative(cls.source).id)
        sums.setdefault(key, LinExpr()).add_scaled(expr, 1)
    at = {}
    for key in sorted(sums):
        eq = sums[key]
        rest = eq.const - (1 if key[0] == 0 else 0)
        unknowns = []
        for name, v in eq.terms.items():
            if name in at:
                rest += v * at[name]
            elif v:
                unknowns.append((name, v))
        if len(unknowns) != 1:
            raise InconsistentSpecError(
                f"sum condition {key} is not a single-variable equation: {eq}")
        (name, v), = unknowns
        at[name] = Fraction(-rest) / v
    values, memo = {}, {}  # (const, terms) -> value: few entries are distinct
    for cls, family in _families(system).items():
        key = (sym[cls].const, tuple(sym[cls].terms.items()))
        if key not in memo:
            memo[key] = sym[cls].evaluate(at)
        values.setdefault(family, set()).add(memo[key])
    out = {}
    for family, bag in values.items():
        if len(bag) != 1:
            raise InconsistentSpecError(f"{family} family is not constant: {sorted(bag)}")
        out[family] = bag.pop()
    return out


def _check_routes_agree(system: FusionSystem) -> dict:
    """The closed forms, checked against rational_solve once per system."""
    if system._coefficient_forms is None:
        a, b = closed_forms(system), rational_solve(system)
        if set(a) != set(b):
            raise InconsistentSpecError("coefficient families differ between routes")
        for key in a:
            if a[key] != b[key]:
                raise InconsistentSpecError(
                    f"coefficient {key!r} disagrees: closed {a[key]} vs solved {b[key]}")
        system._coefficient_forms = a
    return dict(system._coefficient_forms)


def omega_upto2(system: FusionSystem) -> FormalBiset:
    """Every class of layers 0-2 at the agreed value of its family.  Its
    layer(0) is 1/|Out_F(S)| on every [S, alpha]; its layer(1) is -c0/(1+p)
    on the extendable classes and +c0/(1+p) on the nonextendable ones."""
    forms = _check_routes_agree(system)
    return FormalBiset(system.p, {cls: forms[family]
                                  for cls, family in _families(system).items()})


def layer_sums(system: FusionSystem, om: FormalBiset) -> dict:
    """Sum of coefficients per conjugacy class of sources, keyed by (layer, id)
    with the id of the class's fixed representative, since a biset class may
    be represented with any conjugate source."""
    grp = system.group
    sums = {}
    for cls, c in om.coeffs.items():
        key = (cls.layer, grp.class_representative(cls.rep.source).id)
        sums[key] = sums.get(key, Fraction(0)) + c
    return sums


class IdempotentReport(NamedTuple):
    system_name: str
    coefficients: dict
    layer_sum_by_layer: dict
    sum_conditions_ok: bool
    stable_left: bool
    stable_right: bool
    z_local: bool
    wall_time_s: float
    witness: tuple | None  # (side, FusionMorphism, lhs, rhs) of a failing sweep

    @property
    def ok(self) -> bool:
        return (self.sum_conditions_ok and self.stable_left and self.stable_right
                and self.z_local)

    def to_json(self) -> dict:
        def fmt(v):
            return str(Fraction(v))

        coeff_json = {}
        for key, value in self.coefficients.items():
            name = key if isinstance(key, str) else f"{key[0]}[{key[1]}]"
            coeff_json[name] = fmt(value)
        return {
            "system": self.system_name,
            "coefficients": coeff_json,
            "layer_sums": {str(k): fmt(v) for k, v in self.layer_sum_by_layer.items()},
            "sum_conditions_ok": self.sum_conditions_ok,
            "stable_left": self.stable_left,
            "stable_right": self.stable_right,
            "denominators_prime_to_p": self.z_local,
            "ok": self.ok,
            "wall_time_s": round(self.wall_time_s, 3),
        }


def verify_idempotent_stability(system: FusionSystem) -> IdempotentReport:
    """Layer sums (1 at the top, 0 below) plus the full two-sided stability
    sweep of omega_0 + omega_1 + omega_2 over every class of order >= p."""
    start = time.perf_counter()
    forms = _check_routes_agree(system)
    om = omega_upto2(system)
    per_source = layer_sums(system, om)
    by_layer = {}
    for (layer, _src), value in per_source.items():
        by_layer[layer] = by_layer.get(layer, Fraction(0)) + value
    ok = all(value == (1 if layer == 0 else 0) for (layer, _src), value in per_source.items())
    d = lcm(*(c.denominator for c in om.coeffs.values()))
    scaled = FormalBiset(system.p, {cls: c.numerator * (d // c.denominator)
                                    for cls, c in om.coeffs.items()})
    left = is_left_stable(system, scaled)
    right = is_right_stable(system, scaled)
    witness = stability_witness(left, right)
    if witness:  # its marks divided back by D
        side, rep, lhs, rhs = witness
        witness = (side, rep, Fraction(lhs, d), Fraction(rhs, d))
    return IdempotentReport(
        system_name=system.spec.name,
        coefficients=forms,
        layer_sum_by_layer=by_layer,
        sum_conditions_ok=ok,
        stable_left=left.ok,
        stable_right=right.ok,
        z_local=om.denominators_coprime_to_p(),
        wall_time_s=time.perf_counter() - start,
        witness=witness,
    )
