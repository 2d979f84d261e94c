import io
import tracemalloc
from types import SimpleNamespace

import pytest

from metafib import compositions, sequences, series, trees, verify, words


def run_quick():
    out = io.StringIO()
    ok = verify.run_all("quick", stream=out)
    lines = out.getvalue().splitlines()
    assert len(lines) == len(verify.IDENTITIES)
    return ok, lines


def test_a_run_builds_its_own_tables_and_drops_them(monkeypatch):
    # the recurrence oracle is the run's own, so the shared tables behind
    # the public a are neither read nor grown
    monkeypatch.setattr(sequences, "_tables", {})
    ok, lines = run_quick()
    assert ok and lines == [f"PASS  {name}" for name, _ in verify.IDENTITIES]
    assert sequences._tables == {}


def test_evaluator_mismatch_names_the_first_bad_label(monkeypatch):
    real = sequences.as_descent
    monkeypatch.setattr(sequences, "as_descent",
                        lambda s, n: real(s, n) + (s == 2 and n == 3001))
    ok, lines = run_quick()
    assert not ok
    bad = "FAIL  closed-form evaluators match the recurrence: as_descent(2,3001)"
    assert lines == [bad if line.endswith(" match the recurrence") else line
                     for line in (f"PASS  {name}" for name, _ in verify.IDENTITIES)]


# Quick depth sweeps labels up to n_eval = 5000 at shifts 0..3, in windows
# of 2^12 labels: 1..4096 and 4097..5000 (0..4095 and 4096..5000 for a0).
@pytest.mark.parametrize("name, bad, text", [
    ("as_via_a0", (2, 4097), "as_via_a0(2,4097)"),  # first label of window two
    ("as_descent", (3, 5000), "as_descent(3,5000)"),  # last label of the sweep
    ("a0_fast", (0,), "a0_fast(0)"),
    ("a1_fast", (5000,), "a1_fast(5000)"),
])
def test_evaluator_window_edges_name_the_bad_label(monkeypatch, name, bad, text):
    real = getattr(sequences, name)
    monkeypatch.setattr(sequences, name, lambda *args: real(*args) + (args == bad))
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == [f"FAIL  closed-form evaluators match the recurrence: {text}"]


@pytest.mark.parametrize("delta", [1, -1])
def test_walk_start_off_by_one_fails_the_evaluators(monkeypatch, delta):
    # plant the error in the walk's count before one window, a(2, 4096), read
    # only by the a_window call for the window 4097..5000; label 4097 is no
    # leaf, so even a count one too high shows from there on
    real_walk, real_count = sequences.a_window, sequences.as_via_a0
    assert sequences.d(2, 4097) == 0

    def planted(s, lo, hi):
        if (s, lo) != (2, 4097):
            return real_walk(s, lo, hi)
        with pytest.MonkeyPatch.context() as inner:
            inner.setattr(sequences, "as_via_a0",
                          lambda t, n: real_count(t, n) + delta * (n == lo - 1))
            return real_walk(s, lo, hi)

    monkeypatch.setattr(sequences, "a_window", planted)
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == ["FAIL  closed-form evaluators match the recurrence: a_window(2,4097)"]


def test_p_window_error_at_a_bit_length_boundary_fails_the_p_gf(monkeypatch):
    # p(1, 129) is the first value whose k = 128 has 8 bits; the walk marks
    # the leaf labels p_window gives, so it fails at that label as well
    real = sequences.p_window

    def planted(s, lo, hi):
        return [v + (s == 1 and n == 129) for n, v in zip(range(lo, hi + 1), real(s, lo, hi))]

    monkeypatch.setattr(sequences, "p_window", planted)
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == [
        "FAIL  closed-form evaluators match the recurrence: "
        f"a_window(1,{sequences.p(1, 129)})",
        "FAIL  leaf-position generating function: p gf s=1 n=129",
    ]


def test_evaluator_sweep_memory_does_not_grow_with_the_sweep(monkeypatch):
    # Both sides read lists built beforehand, so all that is traced is what
    # the comparison itself holds; traced, the routes' and the table's own
    # int allocations would take ~10 s.
    window = 1 << 12
    vals = [sequences.SequenceTable(s).values(0, 16 * window) for s in (0, 1)]
    tables = [SimpleNamespace(values=lambda lo, hi, v=v: v[lo : hi + 1]) for v in vals]
    monkeypatch.setattr(sequences, "as_via_a0", lambda s, n: vals[s][n])
    monkeypatch.setattr(sequences, "as_descent", lambda s, n: vals[s][n])
    monkeypatch.setattr(sequences, "a0_fast", vals[0].__getitem__)
    monkeypatch.setattr(sequences, "a1_fast", vals[1].__getitem__)

    def peak(windows):
        tracemalloc.start()
        try:
            verify._check_evaluators({"shift_max": 1, "n_eval": windows * window,
                                      "table": tables.__getitem__})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2), peak(16)
    assert large <= 1.5 * small, (small, large)


def test_flipped_leaf_flag_fails_only_the_ones_count(monkeypatch):
    # the public d is checked nowhere else, so only this identity may notice
    real = sequences.d
    monkeypatch.setattr(sequences, "d", lambda s, n: real(s, n) ^ (s == 2 and n == 77))
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == ["FAIL  a equals the count of leaf flags: ones count s=2 n=77"]


def _flip_stream_bit(real):
    def planted(s, length):
        w = real(s, length)
        return w[:76] + "10"[int(w[76])] + w[77:] if s == 2 and length >= 77 else w
    return planted


def _flip_d_coefficient(real):
    def planted(s, order):
        gf = real(s, order)
        if s == 2 and order >= 77:
            gf._c[77] ^= 1
        return gf
    return planted


# One wrong leaf flag at s = 2, n = 77 in each route the running-sum
# identities read.  The stream is also the run-length identity's target, and
# the quotient form of the leaf-count series sums the planted d series, so
# those identities fail with it; no other does.
@pytest.mark.parametrize("module, name, plant, failed", [
    (trees, "is_leaf_oracle", lambda real: lambda s, n: real(s, n) ^ (s == 2 and n == 77),
     ["tree oracle leaf flags equal d: leaf flag s=2 n=77"]),
    (words, "dword_prefix", _flip_stream_bit,
     ["word blocks rebuild the leaf stream: stream bit s=2 n=77",
      "run-length factorization rebuilds the leaf stream: ruler factorization s=2"]),
    (series, "gf_Ds_sum", _flip_d_coefficient,
     ["leaf-stream generating functions (sum and nested): d gf s=2 n=77",
      "leaf-count generating functions (quotient and product): a gf s=2 n=77"]),
], ids=["tree-oracle", "word-stream", "d-series"])
def test_wrong_leaf_flag_fails_its_running_sum_identity(monkeypatch, module, name, plant,
                                                         failed):
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    ok, lines = run_quick()
    assert not ok
    assert [line for line in lines if not line.startswith("PASS")] == \
        [f"FAIL  {text}" for text in failed]


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


def test_a_crashed_check_fails_only_its_identity(monkeypatch):
    # an exception other than IdentityFailure is reported, not raised
    def boom(s, n):
        raise ZeroDivisionError("boom")

    monkeypatch.setattr(sequences, "as_descent", boom)
    ok, lines = run_quick()
    assert not ok
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == ["FAIL  closed-form evaluators match the recurrence: "
                      "crashed: ZeroDivisionError('boom')"]


def test_agree_reports_the_first_mismatch_and_a_length_mismatch():
    verify._agree([1, 2], iter([1, 2]), str)
    with pytest.raises(verify.IdentityFailure, match="^missing index 2$"):
        verify._agree([1, 2], [1, 2, 3], lambda i: f"missing index {i}")
    with pytest.raises(verify.IdentityFailure, match="^bad index 1$"):
        verify._agree([1, 2], [1, 3], lambda i: f"bad index {i}")
