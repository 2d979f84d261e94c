"""Every size limit of the package, each with its cost at the limit as
``tools/limit_costs.py`` measures it: the call's seconds and the peak RSS
of a fresh process, ~16.6 MB of it the interpreter and the import (2-core
host, Python 3.11.7).  A library function that builds N values refuses
N > OUTPUT itself; ``cli`` checks only its windows, ``mtable`` cells and
``gf --order``.  This module imports nothing.
"""

# Most values one call builds or prints: a range dump or `mtable` cells, a
# word or leaf stream, a greedy code, a series' order (order + 1
# coefficients), a shift table's s + 3 seed values, a first part's s
# choices or a part's position i (2**i + s - 1).  At the limit a
# `seq a --s 1` dump takes ~1.0 s and 33 MB peak RSS: its shift table at
# 4 bytes a value, and one chunk of 2**12 values formatted at a time.
# `seq p --s 1` reads the closed form a bit-length run at a time, and
# `codes amax --to 2**22 + 1` and `codes bseq --to 2**22` one leaf-label
# walk a chunk: ~0.43 s and 17 MB each; `codes mtable --nmax 2049` reads
# one walk over a(0, 1..2048) backwards per row: 0.02 s and 17 MB.
# `word runs --terms 2097151` (2**22 - 23 characters) takes ~0.2 s and
# 52 MB.  D_n and E_n (2**(n+1) - 1 characters) stop at n = 21.
OUTPUT = 1 << 22
GF_ORDER = 1 << 16  # largest `gf --order`: under 0.05 s and 17-20 MB, any series
# Largest target counts_up_to builds its O(limit) lists for: s = 1 takes
# 1.9-2.5 s and 129-136 MB peak RSS; 2**22 took 9.6 s and 400 MB.
COUNT = 1 << 20
# Most leaves enumerate_codes (and so M_oracle) searches: its 1639 codes in
# 0.02-0.03 s, and M_oracle(16, h) for every h in 0.03-0.05 s.
ENUM_CODES = 16
# Largest n enumerate_compositions lists: at most n compositions, every
# s <= 64 together in 0.01 s.
ENUM_COMPOSITIONS = 64
PARTITION = 64  # largest 2**h the partition brute force takes: 0.02 s at h = 6
RENDER = 127  # most labels `tree` draws; a sketch, not a dump: 2009 characters


def check(what: str, value: int, name: str, asked=None) -> None:
    """Refuse value > the limit called name, read now so a test may patch it;
    ``asked`` is shown instead of value when value is a stand-in."""
    limit = globals()[name]
    if value > limit:
        raise ValueError(f"{what} <= {limit} (limits.{name}), "
                         f"asked for {value if asked is None else asked}")
