import pytest

from metafib import sequences as sq
from metafib import trees


def test_locate_examples():
    root = trees.locate(2, 7)
    assert root.kind == trees.SUBTREE_NODE
    assert root.subtree == 2
    assert root.offset == 1
    assert root.depth_in_subtree == 0
    assert not root.is_leaf

    path = trees.locate(2, 5)
    assert path.kind == trees.SUPER_NODE
    assert path.subtree == 2
    assert not path.is_leaf

    first = trees.locate(0, 1)
    assert first.kind == trees.SUBTREE_NODE
    assert first.subtree == 0
    assert first.offset == 1
    assert first.is_leaf


def test_is_leaf_examples():
    assert trees.is_leaf_oracle(1, 6) == 1
    assert trees.is_leaf_oracle(2, 5) == 0
    assert trees.is_leaf_oracle(0, 3) == 0


def test_leaves_in_prefix_examples():
    assert trees.leaves_in_prefix(0, 5) == 4
    assert trees.leaves_in_prefix(2, 20) == 8
    assert trees.leaves_in_prefix(3, 1) == 1


def test_label_ranges_partition():
    # every label belongs to exactly one block, and blocks tile upward
    for s in range(5):
        for n in range(2, 4000):
            locus = trees.locate(s, n)
            h = locus.subtree
            base = 2**h + (s - 1) * h
            if locus.kind == trees.SUPER_NODE:
                assert base - s + 1 <= n <= base
            else:
                assert base + 1 <= n <= base + 2**h - 1
                assert locus.offset == n - base


def test_oracle_matches_sequences_midrange():
    for s in range(5):
        t = sq.table(s)
        running = 0
        for n in range(1, 4001):
            flag = trees.is_leaf_oracle(s, n)
            assert flag == t.d(n)
            running += flag
            if flag:
                assert sq.p(s, running) == n
            assert running == t.a(n)


def test_scan_matches_prefix_function():
    scan = trees.leaf_count_scan(2, 300)
    for n in (1, 7, 63, 300):
        assert scan[n] == trees.leaves_in_prefix(2, n)


def test_adjacent_leaves_are_siblings():
    # past the base range, two leaf flags in a row mean a left/right pair
    for s in range(4):
        t = sq.table(s)
        for n in range(s + 3, 5001):
            if t.d(n) == 1 and t.d(n - 1) == 1:
                right = trees.locate(s, n)
                left = trees.locate(s, n - 1)
                assert left.subtree == right.subtree
                assert right.offset == left.offset + 1
                assert left.parent_offset is not None
                assert left.parent_offset == right.parent_offset


def test_depth_marks_leaves():
    for s in range(3):
        for n in range(1, 2000):
            locus = trees.locate(s, n)
            if locus.kind == trees.SUBTREE_NODE and locus.subtree >= 1:
                assert locus.is_leaf == (
                    locus.depth_in_subtree == locus.subtree - 1
                )


def test_render_smoke():
    single = trees.render(0, 1)
    assert "1" in single

    joined = trees.render(1, 3)
    assert "(path)" in joined

    drawn = trees.render(2, 9)
    for label in range(1, 10):
        assert str(label) in drawn
    assert len(drawn.splitlines()) >= 10


def test_render_cap_and_width():
    with pytest.raises(ValueError):
        trees.render(0, 128)
    trees.render(0, 128, cap=200)
    narrow = trees.render(2, 9, max_width=5)
    assert all(len(line) <= 5 for line in narrow.splitlines())
