import io

import pytest

from metafib import compositions, sequences, series, verify


def run_quick():
    out = io.StringIO()
    ok = verify.run_all("quick", stream=out)
    lines = out.getvalue().splitlines()
    assert len(lines) == len(verify.IDENTITIES)
    return ok, lines


def test_evaluator_mismatch_names_the_first_bad_label(monkeypatch):
    real = sequences.as_descent
    monkeypatch.setattr(sequences, "as_descent",
                        lambda s, n: real(s, n) + (s == 2 and n == 3001))
    ok, lines = run_quick()
    assert not ok
    bad = "FAIL  closed-form evaluators match the recurrence: as_descent(2,3001)"
    assert lines == [bad if line.endswith(" match the recurrence") else line
                     for line in (f"PASS  {name}" for name, _ in verify.IDENTITIES)]


def test_flipped_leaf_flag_fails_only_the_ones_count(monkeypatch):
    # the public d is checked nowhere else, so only this identity may notice
    real = sequences.d
    monkeypatch.setattr(sequences, "d", lambda s, n: real(s, n) ^ (s == 2 and n == 77))
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == ["FAIL  a equals the count of leaf flags: ones count s=2 n=77"]


def test_d0_product_off_by_one_fails_only_the_leaf_stream_gf(monkeypatch):
    real = series.gf_D0

    def off_at_100(order):
        gf = real(order)
        gf._c[100] += 1
        return gf

    monkeypatch.setattr(series, "gf_D0", off_at_100)
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == ["FAIL  leaf-stream generating functions (sum and nested): "
                      "product form D0 at z^100"]


def test_dn_product_missing_a_term_fails_only_the_leaf_stream_gf(monkeypatch):
    real = series.gf_Dn

    def last_term_dropped_at_5(n, order):
        gf = real(n, order)
        if n == 5:
            gf._c[gf.support()[-1]] = 0
        return gf

    monkeypatch.setattr(series, "gf_Dn", last_term_dropped_at_5)
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    # D_5 has 2**5 ones, so the support comes up one short at rank 32
    assert failed == ["FAIL  leaf-stream generating functions (sum and nested): "
                      "D_5 gf support rank=32"]


def test_composition_count_mismatch_fails_only_its_identity(monkeypatch):
    real = compositions.counts_up_to

    def off_at_150(s, limit):
        counted = real(s, limit)
        if limit >= 150:
            counted[150] += 1
        return counted

    monkeypatch.setattr(compositions, "counts_up_to", off_at_150)
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == ["FAIL  composition counts equal the leaf counts: "
                      "composition counts s=1 n=150"]


def test_agree_reports_the_first_mismatch_and_a_length_mismatch():
    verify._agree([1, 2], iter([1, 2]), str)
    with pytest.raises(verify.IdentityFailure, match="^missing index 2$"):
        verify._agree([1, 2], [1, 2, 3], lambda i: f"missing index {i}")
    with pytest.raises(verify.IdentityFailure, match="^bad index 1$"):
        verify._agree([1, 2], [1, 3], lambda i: f"bad index {i}")
