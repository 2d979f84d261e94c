"""Every size limit of the package, each with its cost at the limit (2-core
host, Python 3.11.7).  A library function that builds N values refuses
N > OUTPUT itself; ``cli`` checks only its windows, ``mtable`` cells and
``gf --order``.  This module imports nothing.
"""

# Most values one call builds or prints: a range dump or `mtable` cells, a
# word or leaf stream, a greedy code, a series' order (order + 1
# coefficients), a shift table's s + 3 seed values, a first part's s
# choices or a part's position i (2**i + s - 1).  At the limit a
# `seq a --s 1` dump takes 2.3 s and 51 MB peak RSS, written in chunks of
# 2**16 values, and `word runs --terms 2097151` (2**22 - 23 characters)
# 0.6 s and 52 MB.  M, a_max and b_seq are closed forms that build
# nothing, so `codes mtable --nmax 2049`, `codes amax --to 2**22 + 1` and
# `codes bseq --to 2**22` take 2.5-2.8 s and 16-19 MB each; D_n and E_n
# (2**(n+1) - 1 characters) stop at n = 21.
OUTPUT = 1 << 22
GF_ORDER = 1 << 16  # largest `gf --order`: 0.3 s and 24 MB for any series
# Largest target counts_up_to builds its O(limit) lists for: s = 1 takes
# about 1.5 s and 120 MB peak RSS; 2**22 took 9.6 s and 400 MB.
COUNT = 1 << 20
# Most leaves enumerate_codes (and so M_oracle) searches: its 1639 codes in
# 0.02 s, and M_oracle(16, h) for every h in 0.04 s.
ENUM_CODES = 16
# Largest n enumerate_compositions lists: at most n compositions, every
# s <= 64 together in 0.03 s.
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
