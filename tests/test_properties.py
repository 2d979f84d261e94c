"""Property tests of the closed-form evaluators; skipped without hypothesis.

Below 10**5 the recurrence table is the oracle; up to 10**18 the tree's
label arithmetic is (``trees`` shares no code with ``sequences``).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from metafib import sequences as sq
from metafib import trees

TABLE_TOP = 10**5
HUGE = 10**18

# the same examples on every run, so the suite stays deterministic
examples = settings(max_examples=300, deadline=None, derandomize=True)


@examples
@given(s=st.integers(0, 6), n=st.integers(1, TABLE_TOP))
def test_evaluators_match_the_table(s, n):
    want = sq.table(s).a(n)
    assert sq.as_via_a0(s, n) == want
    assert sq.as_descent(s, n) == want


@examples
@given(n=st.integers(0, TABLE_TOP))
def test_a0_fast_matches_the_table(n):
    assert sq.a0_fast(n) == sq.table(0).a(n)


@examples
@given(s=st.integers(0, 6), n=st.integers(2, HUGE - 1))
def test_evaluators_match_the_tree_at_huge_n(s, n):
    want = trees.leaves_in_prefix(s, n)
    assert sq.as_via_a0(s, n) == want
    assert sq.as_descent(s, n) == want
    # one more leaf exactly when label n is one
    assert want - sq.as_via_a0(s, n - 1) == trees.locate(s, n).is_leaf


@examples
@given(n=st.integers(2, HUGE - 1))
def test_a0_fast_matches_the_tree_at_huge_n(n):
    assert sq.a0_fast(n) == trees.leaves_in_prefix(0, n)
    assert sq.a0_fast(n) - sq.a0_fast(n - 1) == trees.locate(0, n).is_leaf
