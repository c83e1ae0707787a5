"""Exact rational coefficients of the characteristic idempotent, layers 0-2.

Every coefficient is computed twice: from the closed forms and by solving
the same linear relations the integer solver derives, with the layerwise
sum conditions replacing nonnegativity.  The two routes must agree, all
denominators must be prime to p, and the resulting virtual biset must pass
the same stability sweep as the minimal biset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from .biset import FormalBiset, biset_class, is_left_stable, is_right_stable
from .errors import InconsistentSpecError, NotComputedError
from .fusion import FusionSystem
from .solver import (
    C0,
    LinExpr,
    c1_var,
    c2u_var,
    c2z_var,
    derive_layer2_relations,
    pair_key_of_rep,
)


def _c0(system: FusionSystem) -> Fraction:
    return Fraction(1, system.spec.out_order)


def closed_forms(system: FusionSystem) -> dict:
    """The published coefficient values keyed by family."""
    p = system.p
    c0 = _c0(system)
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


def layer1_degree_counts(system: FusionSystem, i: int):
    """(extendable, nonextendable) class counts out of V_i."""
    reps = system.v_source_reps(i)
    d_e = sum(1 for r in reps if r.extendable)
    d_n = sum(1 for r in reps if r.extendable is False)
    return d_e, d_n


def rational_solve(system: FusionSystem) -> dict:
    """Re-derive every coefficient from the linear relations plus the
    layerwise sum conditions; returns the same keys as closed_forms."""
    p = system.p
    c0 = _c0(system)
    out = {"c0": c0}
    # layer 1: d_e * c_e + d_n * c_n = 0 with c_n = c0 + p * c_e
    c1e = {}
    for i in range(p + 1):
        d_e, d_n = layer1_degree_counts(system, i)
        c_e = Fraction(-d_n, d_e + p * d_n) * c0
        c1e[i] = c_e
    values_e = set(c1e.values())
    values_n = {c0 + p * v for v in values_e}
    if len(values_e) != 1 or len(values_n) != 1:
        raise InconsistentSpecError("layer-1 coefficients unexpectedly vary by line")
    out["c1_extendable"] = values_e.pop()
    out["c1_nonextendable"] = values_n.pop()
    # layer 2: substitute c0 and c1 into the derived relations, then impose
    # the sum conditions per source class
    relations, _reps = derive_layer2_relations(system)
    partial = {C0: c0}
    for i in range(p + 1):
        partial[c1_var(i)] = c1e[i]
    reduced = {key: expr.substitute(partial) for key, expr in relations.items()}
    # source <z>: all keys with xi == -1, unknown c2z only
    eq = LinExpr.of(0)
    for key, expr in reduced.items():
        if key[0] == -1:
            eq = eq + expr
    coef = eq.terms.get(c2z_var(), 0)
    if not coef or set(eq.terms) != {c2z_var()}:
        raise InconsistentSpecError("central sum condition is not a single-variable equation")
    c2z = Fraction(-eq.const, 1) / coef
    out["c2_z"] = c2z
    # per source <u_i>: unknown c2u(i)
    c2u = {}
    for i in range(p + 1):
        eq = LinExpr.of(0)
        for key, expr in reduced.items():
            if key[0] == i:
                eq = eq + expr
        coef = eq.terms.get(c2u_var(i), 0)
        if not coef or set(eq.terms) != {c2u_var(i)}:
            raise InconsistentSpecError("line sum condition is not a single-variable equation")
        c2u[i] = Fraction(-eq.const, 1) / coef
        out[("c2_same", i)] = c2u[i]
    # derived off-diagonal families, read back from the relations
    assignment = dict(partial)
    assignment[c2z_var()] = c2z
    for i in range(p + 1):
        assignment[c2u_var(i)] = c2u[i]
    u_to_z = set()
    z_to_u = set()
    cross = set()
    for key, expr in relations.items():
        xi, zj, _m = key
        value = expr.evaluate(assignment)
        if xi == -1 and zj == -1:
            if value != c2z:
                raise InconsistentSpecError("central diagonal family is not constant")
        elif xi == -1:
            z_to_u.add(value)
        elif zj == -1:
            u_to_z.add(value)
        elif zj not in system.spec.class_of_line(xi).members:
            cross.add(value)
        else:
            if value != c2u[xi]:
                raise InconsistentSpecError("same-class family does not match its diagonal")
    for name, bag in (("c2_u_to_z", u_to_z), ("c2_z_to_u", z_to_u), ("c2_cross", cross)):
        if len(bag) > 1:
            raise InconsistentSpecError(f"{name} family is not constant: {sorted(bag)}")
        if bag:
            out[name] = bag.pop()
        elif name != "c2_cross":
            raise InconsistentSpecError(f"{name} family is unexpectedly empty")
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


def omega0(system: FusionSystem) -> FormalBiset:
    """1/|Out_F(S)| on every [S, alpha]."""
    c0 = _c0(system)
    return FormalBiset(system.p,
                       {biset_class(rep.morphism): c0 for rep in system.aut_s_reps()})


def omega1(system: FusionSystem) -> FormalBiset:
    """-c0/(1+p) on extendable classes, +c0/(1+p) on nonextendable ones."""
    forms = _check_routes_agree(system)
    coeffs = {}
    for i in range(system.p + 1):
        for rep in system.v_source_reps(i):
            value = forms["c1_extendable"] if rep.extendable else forms["c1_nonextendable"]
            coeffs[biset_class(rep.morphism)] = value
    return FormalBiset(system.p, coeffs)


def omega2(system: FusionSystem) -> FormalBiset:
    forms = _check_routes_agree(system)
    coeffs = {}
    for rep in system.order_p_reps():
        xi, zj, _m = pair_key_of_rep(system, rep)
        if xi == -1 and zj == -1:
            value = forms["c2_z"]
        elif xi == -1:
            value = forms["c2_z_to_u"]
        elif zj == -1:
            value = forms["c2_u_to_z"]
        elif zj in system.spec.class_of_line(xi).members:
            value = forms[("c2_same", xi)]
        else:
            value = forms["c2_cross"]
        coeffs[biset_class(rep.morphism)] = value
    return FormalBiset(system.p, coeffs)


def omega_upto2(system: FusionSystem) -> FormalBiset:
    return omega0(system) + omega1(system) + omega2(system)


def omega3(system: FusionSystem):
    """The trivial-subgroup layer is representable but never derived here."""
    raise NotComputedError(
        "the trivial-subgroup layer of the idempotent is not computed; "
        "only layers 0 through 2 are available")


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


@dataclass
class IdempotentReport:
    system_name: str
    coefficients: dict
    layer_sum_by_layer: dict
    sum_conditions_ok: bool
    stable_left: bool
    stable_right: bool
    z_local: bool
    wall_time_s: float

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
    ok = True
    for (layer, _src), value in per_source.items():
        by_layer[layer] = by_layer.get(layer, Fraction(0)) + value
        want = Fraction(1) if layer == 0 else Fraction(0)
        if value != want:
            ok = False
    left = is_left_stable(system, om)
    right = is_right_stable(system, om)
    z_local = om.denominators_coprime_to_p()
    return IdempotentReport(
        system_name=system.spec.name,
        coefficients=forms,
        layer_sum_by_layer=by_layer,
        sum_conditions_ok=ok,
        stable_left=left.ok,
        stable_right=right.ok,
        z_local=z_local,
        wall_time_s=time.perf_counter() - start,
    )
