"""Hand-checked reference values for n = 1..20, shifts 0..2, and the
shift-s recurrence that tests read as their oracle."""

from functools import cache

from metafib.sequences import SequenceTable

# One recurrence table per shift for the test session, kept apart from the
# shared tables behind the public a; only tests of table() and a read those.
recurrence = cache(SequenceTable)

ROWS_A = {
    0: [1, 2, 2, 3, 4, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 9, 10, 10, 11, 12],
    1: [1, 1, 2, 2, 2, 3, 4, 4, 4, 4, 5, 6, 6, 7, 8, 8, 8, 8, 8, 9],
    2: [1, 1, 1, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6, 6, 7, 8, 8, 8],
}

ROWS_D = {
    0: [1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1],
    1: [1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1],
    2: [1, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0],
}

ROWS_P = {
    0: [1, 2, 4, 5, 8, 9, 11, 12, 16, 17, 19, 20, 23, 24, 26, 27, 32, 33, 35, 36],
    1: [1, 3, 6, 7, 11, 12, 14, 15, 20, 21, 23, 24, 27, 28, 30, 31, 37, 38, 40, 41],
    2: [1, 4, 8, 9, 14, 15, 17, 18, 24, 25, 27, 28, 31, 32, 34, 35, 42, 43, 45, 46],
}

RULER_PREFIX = [1, 2, 1, 3, 1, 2, 1, 4, 1, 2, 1, 3, 1, 2, 1]
