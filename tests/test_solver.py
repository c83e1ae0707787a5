from itertools import product

import pytest

from oracles import biset_mark, builtin_fusion_system
from p3fusion import solver
from p3fusion.biset import biset_class, count_fixed_points, opposite
from p3fusion.errors import InconsistentSpecError, InfeasibleCoefficientsError
from p3fusion.fusion import FusionSystem, resolve_system
from p3fusion.solver import (
    EXPECTED_TABLE,
    _lattice_walk,
    assemble,
    certify_layer2,
    derive_layer2_relations,
    enumerate_feasible_upto,
    exoticity_bound,
    layer2_closed_forms,
    minimal_biset,
    minimal_coefficients,
    size_of,
    solve_layer2,
    symbolic_biset,
    verify_table,
)

SMALL = ("d8", "sd16")
ALL = ("d8", "sd16", "4s4", "d16x3", "6sq:2", "sd32x3")


def test_layer0_structure():
    sys_ = builtin_fusion_system("d8")
    x0 = assemble(sys_, solve_layer2(sys_, 1, (0,) * 4, 0, (2,) * 4)).layer(0)
    assert x0.transitive_count() == 8
    assert len(x0.coeffs) == 8
    assert x0.e() == 8
    # marks at each own class equal c0 * |Z(S)|
    for cls in x0.support:
        assert biset_mark(x0, cls) == 3
    for c0 in (3, 0):
        with pytest.raises(InfeasibleCoefficientsError, match="prime to p"):
            solve_layer2(sys_, c0, (0,) * 4, 0, (2 * c0,) * 4)


def test_layer1_structure():
    sys_ = builtin_fusion_system("d8")
    x1 = assemble(sys_, solve_layer2(sys_, 1, (0, 0, 0, 0), 0, (2,) * 4)).layer(1)
    # only nonextendable classes, multiplicity 1 each
    assert x1.transitive_count() == 32
    assert all(mult == 1 for _, mult in x1.items())
    assert all(not cls.rep(sys_.group.z).is_central() for cls in x1.support)
    x1b = assemble(sys_, solve_layer2(sys_, 1, (1, 0, 0, 0), 0, (8, 2, 2, 2))).layer(1)
    ext = [cls for cls in x1b.support if cls.rep(sys_.group.z).is_central()]
    assert len(ext) == 8  # extendable classes out of V_0 appear with c1(0) = 1
    for cls in ext:
        assert x1b.coefficient(cls) == 1


def test_relation_derivation_matches_closed_forms():
    for name in ALL:
        system = builtin_fusion_system(name)
        derived, _classes = derive_layer2_relations(system)
        closed = {key: relation for key, (relation, _, _) in layer2_closed_forms(system).items()}
        assert derived == closed


def test_mark_identities():
    # certify_layer2 raises at the first pair whose mark misses its identity
    for name in ALL:
        certify_layer2(builtin_fusion_system(name))


def test_solve_layer2_minimal_case():
    sys_ = builtin_fusion_system("d8")
    f = sys_.f
    c2u = tuple(f - sys_.spec.r_of_line(i) for i in range(4))
    assert c2u == (2, 2, 2, 2)
    coeffs = solve_layer2(sys_, 1, (0,) * 4, 0, c2u)
    relations, _classes = derive_layer2_relations(sys_)
    at = coeffs.assignment()
    # cross-class pairs get multiplicity f, central pairs vanish
    for (xi, zj, _m), expr in relations.items():
        mult = expr.evaluate(at)
        if xi == -1 and zj == -1:
            assert mult == 0
        elif xi == -1 or zj == -1:
            assert mult == 0
        elif zj in sys_.spec.class_of_line(xi).members:
            assert mult == 2
        else:
            assert mult == 4


def test_solve_layer2_infeasible_witness():
    sys_ = builtin_fusion_system("d8")
    with pytest.raises(InfeasibleCoefficientsError) as err:
        solve_layer2(sys_, 1, (0,) * 4, 0, (1, 2, 2, 2))
    assert "pair" in str(err.value)


def test_minimal_biset_small_systems():
    for name in SMALL:
        sys_ = builtin_fusion_system(name)
        res = minimal_biset(sys_, certify=True)
        p, f, d0, d1, d2, e, _last = EXPECTED_TABLE[res.system_name]
        assert (res.p, res.f, res.d0, res.d1, res.d2, res.e) == (p, f, d0, d1, d2, e)
        assert res.certificates_ok()
        assert res.e == (p**5 - 1) // (p - 1) * res.out_order
        assert res.e % p != 0
        # d-values recomputed from the class counts, not the formulas
        assert res.d0 == res.biset.layer(0).transitive_count()
        assert res.d1 == res.biset.layer(1).transitive_count()
        assert res.d2 == res.biset.layer(2).transitive_count()


def test_minimal_biset_is_self_opposite():
    for name in SMALL:
        sys_ = builtin_fusion_system(name)
        x = minimal_biset(sys_, certify=False).biset
        assert opposite(x) == x


def test_uniqueness_frontier():
    sys_ = builtin_fusion_system("d8")
    e_min = 968
    feasible = enumerate_feasible_upto(sys_, e_min)
    assert len(feasible) == 1
    assert size_of(sys_, feasible[0]) == e_min
    # a larger budget reveals more feasible assignments (one c2z or c2u bump
    # adds 26 bottom pieces, i.e. 9 * 26 = 234 points over |S|)
    wider = enumerate_feasible_upto(sys_, e_min + 234)
    assert len(wider) > 1
    assert min(size_of(sys_, c) for c in wider) == e_min
    # tuple counts a budget 10% over the minimum admits
    assert len(enumerate_feasible_upto(builtin_fusion_system("sd16"), 2323)) == 6
    assert len(enumerate_feasible_upto(builtin_fusion_system("th4s4"), 82473)) == 36


def test_feasible_tuples_match_brute_force(monkeypatch):
    sys_ = builtin_fusion_system("d8")
    p, f, budget = 3, 4, 968 + 234

    def floor(c0, c1):
        return tuple((f - sys_.spec.r_of_line(i)) * (c0 + p * c1[i]) for i in range(4))

    def least_size(c0, c1):
        return size_of(sys_, solve_layer2(sys_, c0, c1, 0, floor(c0, c1)))

    # only c0 = 1, c1 = 0 fits: the next c0 prime to p, or any one c1, is over
    zero = (0,) * 4
    assert least_size(2, zero) > budget
    for i in range(4):
        assert least_size(1, tuple(int(j == i) for j in range(4))) > budget
    want = []
    for c2z, c2u in product(range(2), product(range(6), repeat=4)):
        try:
            coeffs = solve_layer2(sys_, 1, zero, c2z, c2u)
        except InfeasibleCoefficientsError:
            continue
        if size_of(sys_, coeffs) <= budget:
            want.append(coeffs)
    calls = []
    real_solve = solver.solve_layer2
    monkeypatch.setattr(solver, "solve_layer2",
                        lambda *args: calls.append(args) or real_solve(*args))
    got = enumerate_feasible_upto(sys_, budget)
    assert len(got) == len(want) == 6
    assert got == want
    assert [assemble(sys_, c) for c in got] == [assemble(sys_, c) for c in want]
    assert len(calls) == len(got)  # one bottom-layer solve per tuple


def test_lattice_walk_skips_c0_divisible_by_p():
    assert list(_lattice_walk((1, 1), 4, 3)) == [
        (1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (4, 0)]


@pytest.mark.parametrize("scale, keys, problem", [
    (-1, [(0, 0, 1)], r"pair \(0, 0, 1\)"),
    (0, None, "does not grow with every coordinate"),
], ids=["one-relation-negated", "all-relations-zero"])
def test_walk_refuses_broken_relations(scale, keys, problem):
    # a fresh system, so the cached symbolic biset of the shared one stays intact
    sys_ = FusionSystem(resolve_system("d8"))
    sym = symbolic_biset(sys_)
    _relations, classes = derive_layer2_relations(sys_)
    for key in keys or list(classes):
        sym[classes[key]] = scale * sym[classes[key]]
    with pytest.raises(InconsistentSpecError, match=problem):
        enumerate_feasible_upto(sys_, 968)


def test_monotonicity_of_size():
    sys_ = builtin_fusion_system("d8")
    base = minimal_coefficients(sys_)
    e0 = size_of(sys_, base)
    bump_c0 = solve_layer2(sys_, 2, (0,) * 4, 0, tuple(2 * v for v in base.c2u))
    assert size_of(sys_, bump_c0) > e0
    bump_c1 = solve_layer2(sys_, 1, (1, 0, 0, 0), 0,
                           tuple(v + (3 * 2 if i == 0 else 0) for i, v in enumerate(base.c2u)))
    assert size_of(sys_, bump_c1) > e0
    bump_c2z = solve_layer2(sys_, 1, (0,) * 4, 1, base.c2u)
    assert size_of(sys_, bump_c2z) > e0
    bump_c2u = solve_layer2(sys_, 1, (0,) * 4, 0,
                            tuple(v + (3 if i == 0 else 0) for i, v in enumerate(base.c2u)))
    assert size_of(sys_, bump_c2u) > e0
    # every feasible assignment keeps e prime to p
    for coeffs in (base, bump_c0, bump_c1, bump_c2z, bump_c2u):
        assert size_of(sys_, coeffs) % 3 != 0


def test_marks_at_own_classes():
    # spot values from the fixed-point table used in the solve
    sys_ = builtin_fusion_system("d8")
    x = assemble(sys_, minimal_coefficients(sys_))
    grp = sys_.group
    from p3fusion.group import identity_morphism, morphism_from_images

    # mark at the central self-pair: p^3 * f * c0 (layers 0+1 only)
    zz = biset_class(morphism_from_images(grp.cyclic(grp.z), {grp.z: grp.z}))
    assert biset_mark(x.layer(0) + x.layer(1), zz) == 27 * 4
    # diagonal fixed points
    assert count_fixed_points(zz, zz) == 3**5
    ident = biset_class(identity_morphism(grp.full))
    assert count_fixed_points(ident, ident) == 3


def test_exoticity_bound_values():
    assert exoticity_bound(134448, 7) == 425744
    assert exoticity_bound(201672, 7) == 638620
    assert exoticity_bound(268896, 7) == 851496
    assert exoticity_bound(1, 7) == 0
    assert exoticity_bound(1, 3) == 0
    with pytest.raises(ValueError):
        exoticity_bound(0, 3)


def test_verify_table_small():
    systems = [builtin_fusion_system(n) for n in SMALL]
    report = verify_table(systems)
    assert report.ok
    assert [row["e"] for row in report.rows] == [968, 1936]
    # the table certifies nothing, so it reports no certificate
    assert all(set(row) == {"system", "p", "f", "d0", "d1", "d2", "e", "group_or_bound"}
               for row in report.rows)


def test_solver_result_json():
    res = minimal_biset(builtin_fusion_system("d8"), certify=False)
    data = res.to_json()
    assert data["e"] == 968
    assert data["coefficients"]["c0"] == 1
    assert data["biset"]["prime"] == 3
    # unchecked certificates read None, never True
    assert data["certificates"] == dict.fromkeys(
        ["minimal", "unique", "stable_left", "stable_right", "self_opposite"])
    assert res.witness is None and not res.certificates_ok()


def test_biset_json_independent_of_earlier_classes():
    # two fresh interpreters: one first builds the class of a conjugated
    # order-p representative, which must not change how X prints
    import os
    import subprocess
    import sys
    from pathlib import Path

    prelude = (
        "from p3fusion.biset import biset_class\n"
        "from oracles import compose_morphisms, conjugation_morphism\n"
        "phi = next(r.morphism for r in system.order_p_reps()\n"
        "           if not r.meta[0].is_central() and not r.meta[1].is_central())\n"
        "q = conjugation_morphism(grp.y, phi.source).image\n"
        "biset_class(compose_morphisms(phi, conjugation_morphism(grp.y.inv(), q)))\n"
    )
    here = Path(__file__).resolve()
    src = str(here.parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(  # tests/ for the oracles
        [src, str(here.parent)] + [v for v in [os.environ.get("PYTHONPATH")] if v]))

    def run(extra):
        code = (
            "import json\n"
            "from p3fusion.fusion import fusion_system, resolve_system\n"
            "from p3fusion.solver import minimal_biset\n"
            "system = fusion_system(resolve_system('d8'))\n"
            "grp = system.group\n"
            + extra +
            "print(json.dumps(minimal_biset(system, certify=False).biset.to_json('d8')))\n"
        )
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True).stdout

    assert run(prelude) == run("")


def test_size_expression_built_once_per_system(monkeypatch):
    sys_ = FusionSystem(resolve_system("d8"))
    base = minimal_coefficients(sys_)  # builds the symbolic biset, not e(X)
    calls = []
    real = solver.symbolic_biset
    monkeypatch.setattr(solver, "symbolic_biset",
                        lambda system: calls.append(system) or real(system))
    sizes = [size_of(sys_, base) for _ in range(20)]
    assert calls == [sys_]
    assert sizes == [assemble(sys_, base).e()] * 20 == [968] * 20
