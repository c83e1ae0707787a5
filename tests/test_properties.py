"""Property tests over random p = 3 formal bisets and relabelled systems
(needs `hypothesis`)."""

from functools import lru_cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    all_graph_classes,
    cached_system,
    compose_morphisms,
    conjugation_morphism,
)
from p3fusion.biset import FormalBiset, biset_class, opposite  # noqa: E402
from p3fusion.fusion import (  # noqa: E402
    FusionClass,
    FusionSystemSpec,
    MatrixGL2,
    act_on_line,
    gl2_elements,
    realizing_group_name,
    resolve_system,
)
from p3fusion.group import (  # noqa: E402
    ambient_group,
    identity_morphism,
    morphism_from_images,
)
from p3fusion.idempotent import closed_forms, verify_idempotent_stability  # noqa: E402
from p3fusion.realize import check_transitivity  # noqa: E402
from p3fusion.solver import minimal_biset  # noqa: E402


@st.composite
def formal_bisets_p3(draw):
    classes = all_graph_classes(3)
    support = draw(st.lists(st.sampled_from(classes), max_size=5, unique_by=lambda c: c.key))
    coeffs = {cls: draw(st.fractions(min_value=-6, max_value=6, max_denominator=12))
              for cls in support}
    return FormalBiset(3, coeffs)


@settings(max_examples=60, deadline=None)
@given(formal_bisets_p3())
def test_opposite_is_an_involution(b):
    assert opposite(opposite(b)) == b


@settings(max_examples=60, deadline=None)
@given(formal_bisets_p3())
def test_formal_biset_json_roundtrip(b):
    assert FormalBiset.from_json(b.to_json("custom")) == b


@lru_cache(maxsize=None)
def _class_reps(p):
    """Every graph class rep at p = 3; the 4S4 system's class reps at p = 5."""
    if p == 3:
        return tuple(cls.rep for cls in all_graph_classes(3))
    return tuple(rep.morphism for rep in cached_system(resolve_system("4s4")).all_class_reps())


@pytest.mark.parametrize("p", [3, 5])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_class_key_is_invariant_under_conjugation(p, data):
    """[sQs^-1, c_t o mor o c_s^-1] over left is the class of [Q, mor] for any
    s in left and t in S, mor first restricted to a random subgroup."""
    grp = ambient_group(p)
    mor = data.draw(st.sampled_from(_class_reps(p)))
    q = data.draw(st.sampled_from([r for r in grp.all_subgroups if r <= mor.source]))
    mor = mor.restrict(q)
    left = data.draw(st.sampled_from([g for g in grp.all_subgroups if q <= g]))
    s = data.draw(st.sampled_from(tuple(left)))
    t = data.draw(st.sampled_from(grp.elements))
    twisted = compose_morphisms(conjugation_morphism(t, mor.image), compose_morphisms(
        mor, conjugation_morphism(s.inv(), conjugation_morphism(s, q).image)))
    assert biset_class(twisted, left).key == biset_class(mor, left).key


def _check_table(f, source, ref):
    """f is a compact morphism on source: a tuple aligned with source.codes
    whose entries, calls and image agree with ref in element arithmetic."""
    grp = ambient_group(source.p)
    assert f.source is source
    assert type(f.table) is tuple and len(f.table) == source.order
    for code, image in zip(source.codes, f.table):
        a = grp.elements[code]
        assert image == ref(a).code()
        assert f(a) == ref(a)
    assert f.image is grp.subgroup(ref(a) for a in source)


@pytest.mark.parametrize("p", [3, 5])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_morphism_tables_agree_with_element_arithmetic(p, data):
    """Every constructor gives a table aligned with its source's codes that
    agrees elementwise with GroupElement products, and == and hash agree
    with elementwise equality."""
    grp = ambient_group(p)
    mor = data.draw(st.sampled_from(_class_reps(p)))
    q = data.draw(st.sampled_from([r for r in grp.all_subgroups if r <= mor.source]))
    x, s = (data.draw(st.sampled_from(grp.elements)) for _ in range(2))
    built = {
        "from_images": (morphism_from_images(q, {g: mor(g) for g in q.canonical_gens}), q, mor),
        "restrict": (mor.restrict(q), q, mor),
        "identity": (identity_morphism(q), q, lambda a: a),
        "conjugation": (conjugation_morphism(x, q), q, lambda a: x * a * x.inv()),
        "compose_after": (compose_morphisms(conjugation_morphism(x, grp.full), mor.restrict(q)),
                          q, lambda a: x * mor(a) * x.inv()),
    }
    back = conjugation_morphism(s.inv(), q).image  # s^-1 q s, which c_s carries onto q
    built["compose_before"] = (compose_morphisms(mor.restrict(q), conjugation_morphism(s, back)),
                               back, lambda a: mor(s * a * s.inv()))
    preimage = {mor(a): a for a in q}
    built["inverse"] = (mor.restrict(q).inverse(), mor.restrict(q).image, preimage.__getitem__)
    for f, source, ref in built.values():
        _check_table(f, source, ref)
    assert built["identity"][0].table is q.codes
    fs = [f for f, _, _ in built.values()]
    for f in fs:
        for g in fs:
            same = f.source is g.source and all(f(a) == g(a) for a in f.source)
            assert (f == g) == same
            if same:
                assert hash(f) == hash(g)


def _summary(system):
    result = minimal_biset(system)
    return {
        "invariants": (result.f, result.d0, result.d1, result.d2, result.e),
        "group": realizing_group_name(system.spec),
        "closed_forms": closed_forms(system),
        # check_transitivity raises unless J is one orbit
        "J_size": check_transitivity(system, result.biset).j_size,
        "idempotent_stable": verify_idempotent_stability(system).ok,
    }


@lru_cache(maxsize=None)
def _builtin_summary(name):
    return _summary(cached_system(resolve_system(name)))


def _relabelled_summary(name, g):
    """The summary of the system with its lines moved by g, with each
    coefficient keyed by a line keyed back by the line g moved there."""
    spec = resolve_system(name)
    moved = tuple(FusionClass(frozenset(act_on_line(g, i) for i in cls.members), cls.r)
                  for cls in spec.classes)
    summary = _summary(cached_system(FusionSystemSpec(spec.p, "relabelled", moved)))
    back = {act_on_line(g, i): i for i in range(spec.p + 1)}
    summary["closed_forms"] = {
        ("c2_same", back[key[1]]) if isinstance(key, tuple) else key: value
        for key, value in summary["closed_forms"].items()}
    return summary


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(tuple(gl2_elements(3))))
def test_d8_invariants_survive_gl2_relabelling(g):
    want = _builtin_summary("d8")
    assert want["idempotent_stable"]
    assert _relabelled_summary("d8", g) == want


# a relabelling whose outer generators reach one orbit on J before the last
# one: the singleton-label check still needs all of them
@example(MatrixGL2(7, 0, 1, 1, 5))
@settings(max_examples=1, deadline=None)
@given(st.sampled_from(tuple(gl2_elements(7))))
def test_d16x3_invariants_survive_gl2_relabelling(g):
    want = _builtin_summary("d16x3")
    assert want["idempotent_stable"]
    assert _relabelled_summary("d16x3", g) == want


# the lines of 6sq:2 carry different r, so this relabelling swaps the
# coefficients of lines 0 and 5
@example(MatrixGL2(7, 0, 1, 1, 5))
@settings(max_examples=1, deadline=None)
@given(st.sampled_from(tuple(gl2_elements(7))))
def test_6sq2_invariants_survive_gl2_relabelling(g):
    want = _builtin_summary("6sq:2")
    assert want["idempotent_stable"]
    assert _relabelled_summary("6sq:2", g) == want
