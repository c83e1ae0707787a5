from fractions import Fraction
from math import lcm

import pytest

from oracles import biset_mark, builtin_fusion_system, compose_morphisms, conjugation_morphism
from p3fusion import idempotent
from p3fusion.biset import (
    FormalBiset,
    MarkTable,
    biset_class,
    is_left_stable,
    is_right_stable,
    mark_table,
)
from p3fusion.errors import InconsistentSpecError
from p3fusion.fusion import FusionSystem, resolve_system
from p3fusion.group import morphism_from_images
from p3fusion.idempotent import (
    closed_forms,
    layer_sums,
    omega_upto2,
    rational_solve,
    verify_idempotent_stability,
)
from p3fusion.solver import LinExpr, c2u_var, derive_layer2_relations, symbolic_biset


def test_omega0_values():
    sys_ = builtin_fusion_system("d8")
    om0 = omega_upto2(sys_).layer(0)
    assert len(om0.coeffs) == 8
    assert all(c == Fraction(1, 8) for c in om0.coeffs.values())
    assert sum(om0.coeffs.values()) == 1
    assert om0.denominators_coprime_to_p()


def test_closed_form_spot_values():
    d8 = closed_forms(builtin_fusion_system("d8"))
    assert d8["c0"] == Fraction(1, 8)
    assert d8["c1_extendable"] == Fraction(-1, 32)
    assert d8["c1_nonextendable"] == Fraction(1, 32)
    assert d8["c2_z"] == Fraction(3, 26)
    rv96 = closed_forms(builtin_fusion_system("rv96"))
    assert rv96["c2_u_to_z"] == Fraction(-7, 2736)
    assert rv96["c2_z_to_u"] == Fraction(-7, 2736)
    assert rv96["c2_z"] == Fraction(7, 342)


def test_layer1_degree_counts_match_inverse_c0():
    for name in ("d8", "sd16", "th4s4", "rv48", "rv72", "rv96"):
        sys_ = builtin_fusion_system(name)
        for i in range(sys_.p + 1):
            reps = sys_.v_source_reps(i)
            d_e = sum(1 for r in reps if r.extendable)
            d_n = sum(1 for r in reps if r.extendable is False)
            assert d_e == d_n == sys_.spec.out_order


def test_rational_solve_agrees_with_closed_forms():
    for name in ("d8", "sd16", "th4s4"):
        sys_ = builtin_fusion_system(name)
        assert rational_solve(sys_) == closed_forms(sys_)


def _broken_d8(key, change):
    # a fresh system, so the cached symbolic biset of the shared one stays intact
    system = FusionSystem(resolve_system("d8"))
    sym = symbolic_biset(system)
    cls = derive_layer2_relations(system)[1][key]
    sym[cls] = change(sym[cls])
    return system


def test_scaled_layer2_entry_breaks_route_agreement():
    system = _broken_d8((0, 0, 1), lambda expr: 2 * expr)
    with pytest.raises(InconsistentSpecError, match="not constant"):
        verify_idempotent_stability(system)


def test_second_unknown_in_a_sum_is_refused():
    system = _broken_d8((-1, 0, 1), lambda expr: expr + LinExpr.var(c2u_var(0)))
    with pytest.raises(InconsistentSpecError, match="not a single-variable equation"):
        rational_solve(system)


def test_coefficient_routes_solved_once_per_system(monkeypatch):
    calls = []

    def counting(system):
        calls.append(system)
        return rational_solve(system)

    monkeypatch.setattr(idempotent, "rational_solve", counting)
    system = FusionSystem(builtin_fusion_system("d16x3").spec)
    report = verify_idempotent_stability(system)
    before = omega_upto2(system)
    report.coefficients.clear()  # the report's copy, not the system's
    assert omega_upto2(system) == before
    assert verify_idempotent_stability(system).coefficients == closed_forms(system)
    assert report.ok and calls == [system]


def test_omega1_relation():
    sys_ = builtin_fusion_system("sd16")
    forms = closed_forms(sys_)
    p = sys_.p
    assert forms["c1_nonextendable"] == forms["c0"] + p * forms["c1_extendable"]
    om1 = omega_upto2(sys_).layer(1)
    assert sum(om1.coeffs.values()) == 0


def test_omega2_layer_sums_vanish():
    sys_ = builtin_fusion_system("d8")
    om2 = omega_upto2(sys_).layer(2)
    sums = layer_sums(sys_, om2)
    assert all(v == 0 for v in sums.values())
    # and per-source sums of omega1 vanish too
    om1 = omega_upto2(sys_).layer(1)
    assert all(v == 0 for v in layer_sums(sys_, om1).values())


def test_omega_layer_sums():
    sys_ = builtin_fusion_system("d8")
    om = omega_upto2(sys_)
    by_layer = {}
    for (layer, _src), v in layer_sums(sys_, om).items():
        by_layer[layer] = by_layer.get(layer, 0) + v
    assert by_layer[0] == 1
    assert by_layer[1] == 0
    assert by_layer[2] == 0


def test_stability_report_small():
    for name in ("d8", "sd16"):
        report = verify_idempotent_stability(builtin_fusion_system(name))
        assert report.ok
        data = report.to_json()
        assert data["coefficients"]["c0"] in ("1/8", "1/16")
        assert data["stable_left"] and data["stable_right"]


def test_perturbation_breaks_stability():
    sys_ = builtin_fusion_system("d8")
    om = omega_upto2(sys_)
    # bump the central diagonal family by 1/p
    grp = sys_.group
    from p3fusion.group import morphism_from_images

    zz = biset_class(morphism_from_images(grp.cyclic(grp.z), {grp.z: grp.z}))
    bad = om + FormalBisetLike(zz)
    res = is_left_stable(sys_, bad)
    assert not res.ok
    rep, lhs, rhs = res.witness
    assert lhs != rhs


def FormalBisetLike(cls):
    from p3fusion.biset import FormalBiset

    return FormalBiset(cls.rep.p, {cls: Fraction(1, 3)})


def test_rational_marks_match_integer_machinery():
    sys_ = builtin_fusion_system("d8")
    om0 = omega_upto2(sys_).layer(0)
    grp = sys_.group
    from p3fusion.group import identity_morphism

    ident = biset_class(identity_morphism(grp.full))
    assert biset_mark(om0, ident) == Fraction(3, 8)


def test_layer_sums_independent_of_class_representatives():
    # a class may be built from any conjugate source: swapping one order-p
    # class of omega for its conjugate-source twin leaves every sum alone
    system = builtin_fusion_system("d8")
    grp = system.group
    om = omega_upto2(system)
    phi = next(r.morphism for r in system.order_p_reps()
               if not r.meta[0].is_central() and not r.meta[1].is_central())
    q = conjugation_morphism(grp.y, phi.source).image
    twin = biset_class(compose_morphisms(phi, conjugation_morphism(grp.y.inv(), q)))
    assert q is not phi.source and twin.rep.source is q
    coeffs = dict(om.coeffs)
    coeffs[twin] = coeffs.pop(biset_class(phi))
    swapped = FormalBiset(system.p, coeffs)
    assert swapped == om
    assert any(cls.rep.source is q for cls in swapped.coeffs)
    assert layer_sums(system, swapped) == layer_sums(system, om)


def _scaled(om):
    """D*om with D the lcm of om's denominators, as integers."""
    d = lcm(*(c.denominator for c in om.coeffs.values()))
    return d, FormalBiset(om.p, {cls: int(d * c) for cls, c in om.coeffs.items()})


@pytest.mark.parametrize("name", ["d8", "sd16", "th4s4"])
def test_scaled_sweep_agrees_with_fraction_sweep(name):
    sys_ = builtin_fusion_system(name)
    om = omega_upto2(sys_)
    d, scaled = _scaled(om)
    assert all(type(c) is int for c in scaled.coeffs.values())
    for sweep in (is_left_stable, is_right_stable):
        assert sweep(sys_, om) == sweep(sys_, scaled) == (True, None)
    table = mark_table(sys_)
    for rep in sys_.all_class_reps():
        test = biset_class(rep.morphism)
        assert table.mark(scaled, test) == d * table.mark(om, test)


def test_perturbed_scaled_sweep_keeps_the_rational_witness(monkeypatch):
    # omega_upto2 plus 1/3 of the central diagonal class is not stable
    sys_ = builtin_fusion_system("d8")
    grp = sys_.group
    zz = biset_class(morphism_from_images(grp.cyclic(grp.z), {grp.z: grp.z}))
    bad = omega_upto2(sys_) + FormalBisetLike(zz)
    d, scaled = _scaled(bad)
    rep, lhs, rhs = is_left_stable(sys_, bad).witness
    s_rep, s_lhs, s_rhs = is_left_stable(sys_, scaled).witness
    assert s_rep is rep and (s_lhs, s_rhs) == (d * lhs, d * rhs)
    monkeypatch.setattr(idempotent, "omega_upto2", lambda system: bad)
    report = verify_idempotent_stability(sys_)
    assert not report.ok and not report.stable_left
    assert report.witness == ("left", rep, lhs, rhs)


def test_passing_report_has_no_witness():
    report = verify_idempotent_stability(builtin_fusion_system("sd16"))
    assert report.ok and report.witness is None


def test_idempotent_sweep_marks_integer_coefficients(monkeypatch):
    seen = []
    real = MarkTable.mark

    def recording(self, b, test):
        seen.extend(type(c) for c in b.coeffs.values())
        return real(self, b, test)

    monkeypatch.setattr(MarkTable, "mark", recording)
    system = FusionSystem(resolve_system("d8"))
    assert verify_idempotent_stability(system).ok
    assert seen and set(seen) == {int}


@pytest.mark.parametrize("name", ["D8", "SD16", "4S4", "D16x3", "6sq:2", "SD32x3"])
def test_one_class_object_per_f_class(name):
    """The class each representative carries is the mark table's column, and
    the key of the symbolic biset, the minimal biset and omega: every dict
    hit between them is an identity hit."""
    from p3fusion.solver import minimal_biset

    system = builtin_fusion_system(name)
    classes = [rep.cls for rep in system.all_class_reps()]
    columns = mark_table(system).columns[1:]
    assert len(columns) == len(classes)
    assert all(col is cls for col, cls in zip(columns, classes))
    ids = {id(cls) for cls in classes}
    assert {id(cls) for cls in symbolic_biset(system)} == ids
    assert {id(cls) for cls in minimal_biset(system, certify=False).biset.coeffs} <= ids
    assert {id(cls) for cls in omega_upto2(system).coeffs} == ids
