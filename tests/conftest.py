import difflib
import reprlib
import time

import pytest

_acceptance_report = []


def record_criterion(tag, started):
    _acceptance_report.append((tag, time.monotonic() - started))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_report:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for tag, elapsed in _acceptance_report:
        terminalreporter.write_line(f"PASS  {tag} ({elapsed:.2f}s)")


def _items(side):
    """What pytest's own report diffs one per line: a list's or tuple's
    items, a string's lines; None for anything else."""
    if isinstance(side, str):
        return side.splitlines(keepends=True)
    return side if isinstance(side, (list, tuple)) else None


@pytest.hookimpl(wrapper=True)
def pytest_assertrepr_compare(op, left, right):
    """Report `==` on two lists or tuples, or two strings, one of them over
    100 items (lines) long, by their lengths and their first difference.

    pytest calls every implementation of this hook, and its own one diffs
    such sides item by item with difflib.ndiff: always for strings, and for
    lists on CI (CI or BUILD_NUMBER set) or under -v.  For a list of 2000
    repeated values shifted by one, that diff did not finish in 120 s.  It
    runs here with ndiff returning nothing, and only this report is kept.
    """
    items = _items(left), _items(right)
    if (op != "==" or None in items or isinstance(left, str) != isinstance(right, str)
            or max(map(len, items)) <= 100):
        return (yield)
    ndiff, difflib.ndiff = difflib.ndiff, lambda *args, **kwargs: iter(())
    try:
        yield
    finally:
        difflib.ndiff = ndiff
    unit = "lines" if isinstance(left, str) else "items"
    i = next((i for i, (x, y) in enumerate(zip(*items)) if x != y), min(map(len, items)))
    at = [reprlib.repr(side[i]) if i < len(side) else "(none)" for side in items]
    return [[f"{type(left).__name__} of {len(items[0])} {unit} == "
             f"{type(right).__name__} of {len(items[1])} {unit}",
             f"first difference at index {i}: {at[0]} != {at[1]}"]]
