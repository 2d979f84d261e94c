import ast
import inspect
import random
import tracemalloc

import pytest

from metafib import sequences as sq
from metafib import trees

from _rows import recurrence


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


def test_render_and_leaf_oracle_reject_bad_input_by_name():
    for s, n in ((-1, 5), (0, 0)):
        with pytest.raises(ValueError, match="render"):
            trees.render(s, n)
        with pytest.raises(ValueError, match="is_leaf_oracle"):
            trees.is_leaf_oracle(s, n)


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
        vals = recurrence(s).values(0, 4000)
        running = 0
        for n in range(1, 4001):
            flag = trees.is_leaf_oracle(s, n)
            running += flag
            if flag:
                assert sq.p(s, running) == n
            assert running == vals[n]


def test_scan_matches_prefix_function():
    for s in range(7):
        scan = trees.leaf_count_scan(s, 5000)
        assert [trees.leaves_in_prefix(s, n) for n in range(1, 5001)] == scan[1:]


def test_scan_sweep_matches_locate():
    for s in range(7):
        running = [0]
        for n in range(1, 5001):
            running.append(running[-1] + trees.is_leaf_oracle(s, n))
        assert trees.leaf_count_scan(s, 5000) == running
    assert trees.leaf_count_scan(3, 0) == [0]
    assert trees.leaf_count_scan(10**18, 5) == [0, 1, 1, 1, 1, 1]  # zeros stop at n_max
    with pytest.raises(ValueError):
        trees.leaf_count_scan(-1, 5)
    with pytest.raises(ValueError, match=r"<= 4194304 \(limits.OUTPUT\)"):
        trees.leaf_count_scan(0, 10**18)


@pytest.mark.parametrize("s", [0, 3, 6])
def test_scan_peak_memory_is_its_result(s):
    # the flags stop at n_max and take a byte each, so the scan peaks at
    # little more than the counts it returns
    tracemalloc.start()
    try:
        scan = trees.leaf_count_scan(s, 20000)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan) == 20001
    assert peak <= 1.2 * size, (size, peak)


def test_adjacent_leaves_are_siblings():
    # past the base range, two leaf flags in a row (a rises by 2 over two
    # labels) mean a left/right pair
    for s in range(4):
        vals = recurrence(s).values(0, 5000)
        for n in range(s + 3, 5001):
            if vals[n] - vals[n - 2] == 2:
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
    with pytest.raises(ValueError, match=r"<= 127 \(limits.RENDER\), asked for 128"):
        trees.render(0, 128)
    narrow = trees.render(2, 9, max_width=5)
    assert all(len(line) <= 5 for line in narrow.splitlines())


def test_leaves_in_prefix_at_huge_n():
    rng = random.Random(17)
    for _ in range(2000):
        s, n = rng.randrange(7), rng.randint(1, 10**18)
        assert trees.leaves_in_prefix(s, n) == sq.as_descent(s, n), (s, n)
    with pytest.raises(ValueError):
        trees.leaves_in_prefix(-1, 5)


def _block_reaches(s, h, n):
    return (1 << h) + (s - 1) * h + (1 << h) - 1 >= n


def _locus_in_block(s, n, h):
    base = (1 << h) + (s - 1) * h
    if n <= base:
        return trees.NodeLocus(n, trees.SUPER_NODE, h, None, None, False, None)
    offset = n - base
    depth, leaf, parent, _ = trees._descend(h, offset)
    return trees.NodeLocus(n, trees.SUBTREE_NODE, h, offset, depth, leaf, parent)


def _locate_linear_h(s, n):
    """locate as it was: h scanned upward from 1 to the first block that
    reaches n; the reference for the bit-length start."""
    if n == 1:
        return trees.NodeLocus(n, trees.SUBTREE_NODE, 0, 1, 0, True, None)
    h = 1
    while not _block_reaches(s, h, n):
        h += 1
    return _locus_in_block(s, n, h)


def test_locate_and_leaf_flag_match_the_linear_h_scan():
    for s in range(7):
        # every label up to 2**16: the same upward scan, resumed from the
        # previous label's h since h never decreases along the labels; the
        # remaining fields come from (h, offset) through the same _descend
        assert trees.locate(s, 1) == _locate_linear_h(s, 1)
        h = 1
        for n in range(2, (1 << 16) + 1):
            while not _block_reaches(s, h, n):
                h += 1
            base = (1 << h) + (s - 1) * h
            locus = trees.locate(s, n)
            assert (locus.subtree, locus.kind, locus.offset) == (
                (h, trees.SUPER_NODE, None) if n <= base
                else (h, trees.SUBTREE_NODE, n - base)), (s, n)
            assert trees.is_leaf_oracle(s, n) == locus.is_leaf, (s, n)
    rng = random.Random(2026)
    cases = [(rng.randrange(7), rng.randint(1, 10**18)) for _ in range(50000)]
    cases += [(s, rng.randint(1, 10**6)) for s in (50, 1000, 10**6) for _ in range(2000)]
    for s, n in cases:
        locus = trees.locate(s, n)
        assert locus == _locate_linear_h(s, n), (s, n)
        assert trees.is_leaf_oracle(s, n) == locus.is_leaf, (s, n)


def test_trees_stays_independent_of_sequences():
    tree = ast.parse(inspect.getsource(trees))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("sequences" in name for name in imported)
