"""Every size limit of the package, each with its cost at the limit as
``tools/limit_costs.py`` measures it: the call's seconds and the peak RSS
of a fresh process, ~16.6 MB of it the interpreter and the import (2-core
host, Python 3.11.7).  A library function that builds N values refuses
N > OUTPUT itself; ``cli`` checks only its windows, ``mtable`` cells and
``gf --order``.  This module imports nothing.
"""

# Most values one call builds or prints: a range dump or `mtable` cells, a word
# or leaf stream, a greedy code or one built from level counts, a series' order
# (order + 1 coefficients), a shift table's s + 3 seed values, a first part's s
# choices or a part's position i (2**i + s - 1).  At the limit, all in one run
# (`seq a|d` in a later one): `seq a --s 1` takes 0.76 s and 33 MB peak RSS
# (its shift table at 4 bytes a value, one 2**12-value chunk formatted at a
# time); `seq p --s 1` reads the closed form a bit-length run at a time
# (0.87 s), `seq d --s 1` (0.01 s, or 0.02 s as bfile, written as bytes) and
# `codes amax|bseq` at 2**22 values (1.01-1.05 s) one leaf-label walk a chunk,
# 17 MB each, and `codes mtable --nmax 2049` one walk over a(0, 1..2048) read
# backwards per row (0.05 s).  `word runs --terms 2097151` (2**22 - 23
# characters) takes 0.02 s and 28 MB (a later run), `word stream|morphism
# --length 2**22` 0.03|0.12 s and 28-29 MB, and `counts_to_code` at 2**22 leaves
# 0.07 s and 81 MB.  The series at order 2**22 take 0.09-0.48 s and 65-79 MB in
# packed ints (`gf_ruler`, `gf_D0`, `gf_Ds_sum`, `gf_Ds_nested`), `gf_As(1, .)`
# 1.55 s and 296 MB, `gf_A_from_D|gf_Ps(1, .)` 0.44|0.80 s and 216-217 MB, most
# of it the 2**22 + 1 ints returned.  D_n and E_n stop at n = 21.
OUTPUT = 1 << 22
GF_ORDER = 1 << 16  # largest `gf --order`: 0.02-0.03 s and 18-20 MB, any series
# Largest target counts_up_to packs into one int of 32-bit fields and returns
# as a list: s = 1 takes 0.25 s and 87 MB peak RSS; 2**22 took 0.89 s, 283 MB.
COUNT = 1 << 20
# Most leaves enumerate_codes (and so M_oracle) walks: its 1639 codes in
# 0.012 s, and M_oracle(16, h) for every h in 0.028 s.
ENUM_CODES = 16
# Largest n enumerate_compositions lists: at most n compositions, every
# s <= 64 together in 0.007 s.
ENUM_COMPOSITIONS = 64
PARTITION = 64  # largest 2**h the partition brute force takes: 0.017 s at h = 6
RENDER = 127  # most labels `tree` draws; a sketch, not a dump: 2009 characters


def check(what: str, value: int, name: str, asked=None) -> None:
    """Refuse value > the limit called name, read now so a test may patch it;
    ``asked`` is shown instead of value when value is a stand-in."""
    limit = globals()[name]
    if value > limit:
        raise ValueError(f"{what} <= {limit} (limits.{name}), "
                         f"asked for {value if asked is None else asked}")
