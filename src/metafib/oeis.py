"""OEIS b-file reading/writing and cross-checks against local sequences.

A b-file is plain text: optional '#' comment lines, then data lines
"n value" with a single space, indices strictly increasing.  The role map
below is the one declarative table reconciling each catalogued sequence's
indexing with the 1-based sequences computed here.
"""

from __future__ import annotations

import re
from collections import namedtuple

from . import sequences


_INTEGER = re.compile(r"-?[0-9]+")  # int() alone also takes "+1" and "1_0"


class BFileError(ValueError):
    """Raised for files that do not follow the b-file format."""


def read_bfile(path) -> list:
    """Parse a b-file into (index, value) pairs.

    The file is UTF-8: a comment line may hold any text, while a data line
    is two ASCII integers.  Bytes that are not UTF-8 are refused with their
    line, like every other format fault.
    """
    records = []
    last = None
    # surrogateescape carries undecodable bytes through to their own line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not raw.isascii():
                try:
                    raw.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise BFileError(f"{path}:{lineno}: not UTF-8 text") from exc
                if not line.startswith("#"):  # str.split would split at non-ASCII spaces
                    raise BFileError(f"{path}:{lineno}: non-ASCII text outside a comment")
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise BFileError(f"{path}:{lineno}: expected 'n value'")
            try:
                if not all(map(_INTEGER.fullmatch, fields)):
                    raise ValueError(fields)
                n, value = int(fields[0]), int(fields[1])  # may pass int's digit limit
            except ValueError as exc:
                raise BFileError(f"{path}:{lineno}: non-integer field") from exc
            if last is not None and n <= last:
                raise BFileError(f"{path}:{lineno}: indices must increase")
            last = n
            records.append((n, value))
    return records


def write_bfile(stream, records) -> None:
    """Write (index, value) pairs as data lines with LF endings."""
    for n, value in records:
        stream.write(f"{n} {value}\n")


class SequenceRole(namedtuple("SequenceRole", "kind shift index_delta value_delta")):
    """How a catalogued sequence maps onto a local one.

    catalogued(n) = local(kind, shift, n + index_delta) + value_delta,
    valid for n >= min_index; kind is "a", "d", "p" or "ruler".
    """

    __slots__ = ()

    @property
    def min_index(self) -> int:
        """Local indices start at 0 for kind a and at 1 for the others."""
        return (0 if self.kind == "a" else 1) - self.index_delta


ROLE_MAP = {
    "A046699": SequenceRole("a", 0, -1, 0),
    "A006949": SequenceRole("a", 1, 0, 0),
    "A079559": SequenceRole("d", 0, 1, 0),
    "A101925": SequenceRole("p", 0, 1, 0),
    "A005187": SequenceRole("p", 0, 1, -1),
    "A001511": SequenceRole("ruler", 0, 0, 0),
}


def local_value(role: SequenceRole, n: int) -> int:
    i = n + role.index_delta
    if role.kind == "a":
        base = sequences.a(role.shift, i)
    elif role.kind == "d":
        base = sequences.d(role.shift, i)
    elif role.kind == "p":
        base = sequences.p(role.shift, i)
    elif role.kind == "ruler":
        base = sequences.ruler(i)
    else:
        raise ValueError(f"unknown sequence kind {role.kind!r}")
    return base + role.value_delta


def compare_records(records, role: SequenceRole):
    """Compare b-file records against the local sequence under a role.

    Returns (compared, mismatch) where mismatch is None or a tuple
    (index, file_value, local) for the first differing index.
    """
    compared = 0
    for n, value in records:
        if n < role.min_index:
            continue
        mine = local_value(role, n)
        if mine != value:
            return compared, (n, value, mine)
        compared += 1
    return compared, None
