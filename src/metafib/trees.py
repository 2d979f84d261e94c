"""Structural model of the delayed binary forest; oracle for the sequences.

Labels are assigned in preorder: the one-node tree, then alternately a run
of ``s`` path labels and the next complete subtree (sizes 1, 3, 7, ...).
Everything here is derived from label arithmetic alone, with no reference
to the recurrence module, so it can serve as an independent cross-check.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from . import limits

SUBTREE_NODE = "subtree-node"
SUPER_NODE = "super-node"


class NodeLocus(namedtuple("NodeLocus", "index kind subtree offset depth_in_subtree "
                                        "is_leaf parent_offset")):
    """Where one preorder label lives.

    ``subtree`` is the block index h (for a path node: the subtree it
    precedes).  ``offset`` is the 1-based preorder position inside the
    subtree; it and the depth/parent fields are None for path nodes.
    """

    __slots__ = ()


def _descend(height: int, offset: int):
    """(depth, is_leaf, parent_offset, leaves) for a preorder offset in a
    complete tree; leaves counts the leaves at offsets 1..offset.

    The tree has 2**height - 1 nodes; offset 1 is the root, followed by the
    left then the right subtree, each of size 2**(height-1) - 1.  Each step
    goes one level down to a subtree of height g, so the depth is height - g
    at the end.  A step right passes the whole left subtree and its
    2**(g-1) leaves; the parent is 1 label before a left child and 2**g
    labels before a right one.
    """
    g = height
    pos = offset
    step = leaves = 0
    while pos != 1:
        g -= 1
        step = 1 << g  # the right subtree starts 2**g labels after the root
        if pos <= step:
            step = 1
        else:
            leaves += step >> 1
        pos -= step
    leaf = g == 1
    return height - g, leaf, offset - step if step else None, leaves + leaf


def _subtree_of(s: int, n: int) -> tuple:
    """(h, offset): block h >= 1 holding label n, and n's offset in subtree h.

    Block h is the s path labels before subtree h and the subtree itself;
    it ends at label 2**(h+1) + (s-1)h - 1, and h is the first index whose
    block ends at or after n.  Start from h = bitlen(n) - 1: the block
    ends grow with h, so step down while the previous block still reaches
    n (only for s >= 2; a second step needs 2**(h-1) < (s-1)h, so there
    are O(log s) steps), then up while this one falls short (only for
    s = 0, and at most once).  The offset n - 2**h - (s-1)h is 1-based,
    and at most 0 for a path label or for n = 1, which precede subtree h.
    """
    h = max(1, n.bit_length() - 1)
    while h > 1 and (1 << h) + (s - 1) * (h - 1) - 1 >= n:
        h -= 1
    while (1 << (h + 1)) + (s - 1) * h - 1 < n:
        h += 1
    return h, n - (1 << h) - (s - 1) * h


def locate(s: int, n: int) -> NodeLocus:
    """Classify label n inside the shift-s forest."""
    if s < 0 or n < 1:
        raise ValueError("locate needs s >= 0, n >= 1")
    if n == 1:
        return NodeLocus(n, SUBTREE_NODE, 0, 1, 0, True, None)
    h, offset = _subtree_of(s, n)
    if offset <= 0:
        return NodeLocus(n, SUPER_NODE, h, None, None, False, None)
    depth, leaf, parent, _ = _descend(h, offset)
    return NodeLocus(n, SUBTREE_NODE, h, offset, depth, leaf, parent)


def is_leaf_oracle(s: int, n: int) -> int:
    """1 if label n is a leaf, else 0: ``locate(s, n).is_leaf`` as an int,
    from the same block and descent without building the NodeLocus."""
    if s < 0 or n < 1:
        raise ValueError("is_leaf_oracle needs s >= 0, n >= 1")
    if n == 1:
        return 1
    h, offset = _subtree_of(s, n)
    return 1 if offset > 0 and _descend(h, offset)[1] else 0


def leaves_in_prefix(s: int, n: int) -> int:
    """Leaves among labels 1..n, counted structurally in O(log n).

    The one-node tree and the complete subtrees 1..h-1 before block h hold
    2**(h-1) leaves; the descent to n adds those among its first labels of
    subtree h.
    """
    if s < 0 or n < 1:
        raise ValueError("leaves_in_prefix needs s >= 0, n >= 1")
    h, offset = _subtree_of(s, n)
    return (1 << (h - 1)) + (_descend(h, offset)[3] if offset > 0 else 0)


def leaf_count_scan(s: int, n_max: int) -> list:
    """Running leaf counts for prefixes 1..n_max (index 0 unused, set to 0).

    One preorder sweep of the forest's structure: the one-node tree, then
    for h = 1, 2, ... the s path labels and the complete subtree of height
    h, whose preorder leaf flags are [0] + F(h-1) + F(h-1) with F(1) = [1].
    The flags are bytes and stop at label n_max, so the counts are nearly
    all the memory the scan takes.
    """
    if s < 0 or n_max < 0:
        raise ValueError("leaf_count_scan needs s >= 0, n_max >= 0")
    limits.check("leaf_count_scan n_max", n_max, "OUTPUT")
    flags = bytearray(b"\1"[:n_max])  # label 1, the one-node tree, is a leaf
    subtree = b"\1"  # preorder leaf flags of the complete subtree of height h
    while len(flags) < n_max:
        flags += bytes(min(s, n_max - len(flags)))  # s may dwarf the prefix
        flags += subtree[: n_max - len(flags)]
        if len(flags) < n_max:
            subtree = b"\0" + subtree + subtree
    return [0, *accumulate(flags)]


def _draw_subtree(lines, prefix, child_prefix, label, height, n_cap):
    if label > n_cap:
        return
    tag = " leaf" if height == 1 else ""
    lines.append(f"{prefix}{label}{tag}")
    if height > 1:
        left = label + 1
        right = label + (1 << (height - 1))
        _draw_subtree(lines, child_prefix + "+- ", child_prefix + "|  ",
                      left, height - 1, n_cap)
        _draw_subtree(lines, child_prefix + "+- ", child_prefix + "   ",
                      right, height - 1, n_cap)


def render(s: int, n: int, max_width: int = 100) -> str:
    """ASCII sketch of the first n labels: path nodes marked, leaves tagged.

    Cosmetic only; nothing should depend on the exact glyphs.
    """
    if max_width < 1:
        raise ValueError("max_width must be >= 1")
    limits.check("render labels n", n, "RENDER")
    if s < 0 or n < 1:
        raise ValueError("render needs s >= 0, n >= 1")
    lines = [f"first {n} labels of the shift-{s} forest"]
    lines.append("1 leaf")
    label = 2
    h = 1
    while label <= n:
        for _ in range(s):
            if label > n:
                break
            lines.append(f"{label} (path)")
            label += 1
        if label > n:
            break
        _draw_subtree(lines, "", "", label, h, n)
        label += (1 << h) - 1
        h += 1
    return "\n".join(line[:max_width] for line in lines)
