import pytest

from metafib import sequences as sq
from metafib import trees, words

from _rows import ROWS_D


def row_string(s):
    return "".join(str(b) for b in ROWS_D[s])


def test_word_d_values():
    assert words.word_D(0) == "1"
    assert words.word_D(1) == "011"
    assert words.word_D(2) == "0011011"
    assert len(words.word_D(10)) == 2**11 - 1


def test_word_e_values():
    assert words.word_E(0) == "1"
    assert words.word_E(1) == "110"
    assert words.word_E(2) == "1101100"
    assert words.word_E(2) == row_string(0)[:7]


def test_word_guards():
    with pytest.raises(ValueError):
        words.word_D(26)
    with pytest.raises(ValueError):
        words.word_E(26)
    with pytest.raises(ValueError):
        words.dword_prefix(0, 2**22 + 1)


def test_dword_prefix_values():
    assert words.dword_prefix(0, 8) == "11011001"
    assert words.dword_prefix(2, 12) == "100100011000"
    assert words.dword_prefix(1, 1) == "1"
    for s in range(3):
        assert words.dword_prefix(s, 20) == row_string(s)


def test_ruler_factorization_values():
    assert words.ruler_factorization(0, 1) == "1"
    assert words.ruler_factorization(0, 4) == "1101100"
    # runs for s=2: lengths 3, 4, 1
    assert words.ruler_factorization(2, 3) == "10010001"


def test_ruler_factorization_length_and_guard():
    for s in range(4):
        for terms in range(1, 300):
            built = words.ruler_factorization(s, terms)
            assert len(built) == sq.p(s, terms + 1) - 1
    # 2**21 + 1 terms of shift 0 fill exactly 2**22 characters
    assert sq.p(0, 2**21 + 2) - 1 == words.LENGTH_GUARD
    for s, terms in ((0, 2**21 + 2), (3, 10**8)):
        with pytest.raises(ValueError, match="ruler_factorization guard"):
            words.ruler_factorization(s, terms)


def test_morphism_values():
    assert words.morphism_fixed_point(3) == "110"
    assert words.morphism_fixed_point(7) == "1101100" == words.word_E(2)
    assert words.morphism_fixed_point(20) == row_string(0)


def test_reverse_e_is_d():
    for n in range(17):
        assert words.word_E(n)[::-1] == words.word_D(n)


def test_e_prefix_chain():
    for n in range(16):
        assert words.word_E(n + 1).startswith(words.word_E(n))


def test_e_ones_count():
    # the length-(2**h - 1) prefix of the stream is word_E(h-1) and holds
    # 2**(h-1) ones; word_E(h) itself is twice as long with twice the ones
    for h in range(1, 17):
        assert words.word_E(h - 1).count("1") == 2 ** (h - 1)
        assert words.word_E(h).count("1") == 2 ** h
        assert words.dword_prefix(0, 2 ** h - 1).count("1") == 2 ** (h - 1)


def test_stream_block_and_morphism_agree():
    length = 2**16
    assert words.dword_prefix(0, length) == words.morphism_fixed_point(length)


def test_stream_matches_leaf_oracle():
    for s in range(5):
        w = words.dword_prefix(s, 2**12)
        for i in range(1, 2**12 + 1):
            assert int(w[i - 1]) == trees.is_leaf_oracle(s, i)


def test_stream_matches_d_sequence():
    for s in range(5):
        t = sq.table(s)
        w = words.dword_prefix(s, 5000)
        assert all(int(w[n - 1]) == t.d(n) for n in range(1, 5001))


def test_factorization_rebuilds_stream():
    for s in range(5):
        target = words.dword_prefix(s, 4096)
        built = words.ruler_factorization(s, sq.a(s, 4096))
        assert built[:4096] == target


def test_one_positions_enumerate_p():
    for s in range(4):
        w = words.dword_prefix(s, 3000)
        ones = [i + 1 for i, c in enumerate(w) if c == "1"]
        for rank, pos in enumerate(ones, 1):
            assert sq.p(s, rank) == pos


def test_ruler_self_similarity():
    # dropping the alternating zeros from (ruler - 1) gives ruler back
    shifted = [sq.ruler(n) - 1 for n in range(1, 2**13 + 1)]
    assert shifted[0::2] == [0] * len(shifted[0::2])
    assert shifted[1::2] == [sq.ruler(n) for n in range(1, 2**12 + 1)]
