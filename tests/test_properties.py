"""Property tests over random p = 3 formal bisets (needs `hypothesis`)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from p3fusion.biset import FormalBiset, all_graph_classes, opposite  # noqa: E402


@st.composite
def formal_bisets_p3(draw):
    classes = all_graph_classes(3)
    support = draw(st.lists(st.sampled_from(classes), max_size=5, unique_by=lambda c: c.uid))
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
    assert FormalBiset.from_json(b.to_json()) == b
