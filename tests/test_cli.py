import os

import pytest

from metafib import cli, limits
from metafib import sequences as sq
from metafib import series, verify
from metafib.cli import main

from _rows import ROWS_A, ROWS_D
from _run import cap_child_memory, run_metafib, run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_a_table_row(capsys):
    code, out, _ = run_cli(capsys, "seq", "a", "--s", "0", "--to", "20")
    assert code == 0
    assert [int(x) for x in out.split()] == ROWS_A[0]


def test_seq_p_example(capsys):
    code, out, _ = run_cli(capsys, "seq", "p", "--s", "2", "--to", "5")
    assert code == 0
    assert [int(x) for x in out.split()] == [1, 4, 8, 9, 14]


def test_seq_single_value(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "d", "--s", "1", "--from", "1", "--to", "1"
    )
    assert code == 0
    assert out == "1\n"


def test_seq_formats(capsys):
    code, out, _ = run_cli(
        capsys, "seq", "a", "--s", "0", "--to", "3", "--format", "tsv"
    )
    assert code == 0
    assert out == "1\t1\n2\t2\n3\t2\n"
    code, out, _ = run_cli(
        capsys, "seq", "a", "--s", "0", "--to", "3", "--format", "bfile"
    )
    assert out == "1 1\n2 2\n3 2\n"


def test_seq_bad_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "seq", "a", "--s", "0", "--to", "0")
    assert code == 2
    assert "error" in err


def test_seq_deterministic(capsys):
    argv = ["seq", "p", "--s", "1", "--to", "30"]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_gf_d_row(capsys):
    code, out, _ = run_cli(capsys, "gf", "D", "--s", "2", "--order", "12")
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [0] + ROWS_D[2][:12]


def test_gf_ruler(capsys):
    code, out, _ = run_cli(capsys, "gf", "ruler", "--order", "8")
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [0, 1, 2, 1, 3, 1, 2, 1, 4]


def test_gf_p_constant(capsys):
    code, out, _ = run_cli(capsys, "gf", "P", "--s", "0", "--order", "0")
    assert code == 0
    assert out == "0 1\n"


def test_gf_a_with_s0_falls_back(capsys):
    code, out, err = run_cli(capsys, "gf", "A", "--s", "0", "--order", "10")
    assert code == 0
    assert err == ""
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [0] + ROWS_A[0][:10]


def test_gf_a_serves_the_quotient_form_for_every_shift(capsys):
    for s in range(7):
        for order in (0, 1, 17, 4096):
            quo = series.gf_A_from_D(s, order)
            if s >= 1:
                assert series.gf_As(s, order) == quo, (s, order)
            for fmt, sep in (("tsv", "\t"), ("bfile", " ")):
                code, out, err = run_cli(capsys, "gf", "A", "--s", str(s),
                                         "--order", str(order), "--format", fmt)
                assert (code, err) == (0, ""), (s, order, fmt)
                assert out == "".join(f"{n}{sep}{c}\n" for n, c in enumerate(quo.coeffs))
    code, _, err = _run_main(["gf", "A", "--s", "1", "--order", "10",
                              "--method", "product"], capsys)
    assert code == 2 and "--method" in err


def test_gf_formats_are_bfile_by_default_and_tsv(capsys):
    for which in ("ruler", "D", "A", "P"):
        shift = [] if which == "ruler" else ["--s", "2"]  # the ruler takes none
        argv = ["gf", which, *shift, "--order", "40"]
        default = run_cli(capsys, *argv)
        assert default == run_cli(capsys, *argv, "--format", "bfile"), which
        assert default[0] == 0 and default[1].startswith("0 "), which
    code, out, err = _run_main(["gf", "ruler", "--order", "8", "--format", "plain"], capsys)
    assert (code, out) == (2, "") and "--format" in err


def test_gf_ruler_refuses_a_shift(capsys):
    code, out, err = run_cli(capsys, "gf", "ruler", "--s", "-3", "--order", "6")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--s" in err


def test_gf_order_guard(capsys):
    code, _, err = run_cli(capsys, "gf", "ruler", "--order", str(2**16 + 1))
    assert code == 2
    assert "order" in err


def test_codes_enumerate(capsys):
    code, out, _ = run_cli(capsys, "codes", "enumerate", "--n", "5")
    assert code == 0
    assert out.splitlines() == ["3,3,2,2,2", "3,3,3,3,1", "4,4,3,2,1"]


def test_codes_greedy(capsys):
    code, out, _ = run_cli(
        capsys, "codes", "greedy", "--n", "4", "--height", "3"
    )
    assert code == 0
    assert out == "3,3,2,1\n"


def test_codes_greedy_guard_names_range(capsys):
    code, _, err = run_cli(
        capsys, "codes", "greedy", "--n", "9", "--height", "3"
    )
    assert code == 2
    assert "2**h" in err


def test_codes_mtable_single_cell(capsys):
    code, out, _ = run_cli(capsys, "codes", "mtable", "--nmax", "2")
    assert code == 0
    assert out == "2\t1\n"


def test_codes_mtable_zeros_where_undefined(capsys):
    code, out, _ = run_cli(capsys, "codes", "mtable", "--nmax", "5")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert rows[0][0] == "2"
    table = {int(r[0]): [int(x) for x in r[1:]] for r in rows}
    assert table[5] == [0, 0, 2, 1]  # h = 1..4


def test_codes_amax_bridge(capsys):
    code, out, _ = run_cli(capsys, "codes", "amax", "--to", "20")
    assert code == 0
    values = [int(x) for x in out.split()]
    assert values == [sq.a(1, n - 1) for n in range(2, 21)]


def test_codes_bseq_bridge(capsys):
    code, out, _ = run_cli(capsys, "codes", "bseq", "--to", "20")
    assert code == 0
    values = [int(x) for x in out.split()]
    assert values == [sq.a(0, n) for n in range(1, 21)]


def test_codes_amax_bseq_at_huge_n():
    top = 10**12
    for sub, expect in (("amax", lambda n: sq.as_via_a0(1, n - 1)),
                        ("bseq", sq.a0_fast)):
        result = run_metafib("codes", sub, "--from", str(top), "--to", str(top + 5),
                             timeout=30)
        assert result.returncode == 0
        values = [int(x) for x in result.stdout.split()]
        assert values == [expect(n) for n in range(top, top + 6)]


def test_seq_p_at_huge_n():
    top = 10**17
    result = run_metafib("seq", "p", "--s", "3", "--from", str(top), "--to", str(top + 15),
                         timeout=30)
    assert result.returncode == 0
    values = [int(x) for x in result.stdout.split()]
    assert len(values) == 16
    # each value is the first label where a(3, .) reaches n
    for n, pos in zip(range(top, top + 16), values):
        assert sq.as_via_a0(3, pos) == n and sq.as_via_a0(3, pos - 1) == n - 1


def test_codes_greedy_output_guard_exits_2():
    # without the guard this dies of MemoryError under a 1 GiB cap
    result = run_metafib("codes", "greedy", "--n", str(10**9), "--height", "40",
                         timeout=30, preexec_fn=cap_child_memory)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"<= {limits.OUTPUT} (limits.OUTPUT), asked for {10**9}" in result.stderr


def test_word_runs_guard_exits_2(capsys):
    code, out, err = run_cli(capsys, "word", "runs", "--terms", str(10**8))
    assert code == 2
    assert out == ""
    assert "ruler_factorization length <= 4194304 (limits.OUTPUT)" in err


@pytest.mark.parametrize("argv", [
    ["seq", "a", "--from", "5", "--to", str(2**22 + 5)],
    ["codes", "amax", "--to", str(2**22 + 2)],
    ["codes", "bseq", "--from", "10", "--to", str(2**22 + 10)],
    ["codes", "mtable", "--nmax", "100000"],
])
def test_range_dump_guard_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"<= {2**22} (limits.OUTPUT)" in err


@pytest.mark.parametrize("argv, message", [
    (["seq", "a", "--from", "0", "--to", "3"], "need 1 <= from <= to"),
    (["seq", "p", "--from", "5", "--to", "2"], "need 1 <= from <= to"),
    (["codes", "amax", "--from", "0", "--to", "3"], "need 2 <= from <= to"),
    (["codes", "amax", "--from", "1", "--to", "3"], "need 2 <= from <= to"),
    (["codes", "amax", "--from", "5", "--to", "2"], "need 2 <= from <= to"),
    (["codes", "bseq", "--from", "0", "--to", "3"], "need 1 <= from <= to"),
    (["codes", "bseq", "--from", "5", "--to", "2"], "need 1 <= from <= to"),
    (["tree", "--s", "-1", "--n", "5"], "render needs s >= 0"),
], ids=["seq-from-0", "seq-reversed", "amax-from-0", "amax-from-1", "amax-reversed",
        "bseq-from-0", "bseq-reversed", "tree-negative-shift"])
def test_bad_window_or_shift_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_range_dump_at_the_guard_is_allowed(capsys, monkeypatch):
    monkeypatch.setattr(limits, "OUTPUT", 9)
    code, out, _ = run_cli(capsys, "codes", "mtable", "--nmax", "4")
    assert code == 0 and len(out.splitlines()) == 3
    code, _, err = run_cli(capsys, "codes", "mtable", "--nmax", "5")
    assert code == 2 and "<= 9 (limits.OUTPUT), asked for 16" in err
    code, out, _ = run_cli(capsys, "seq", "a", "--from", "3", "--to", "11")
    assert code == 0 and len(out.splitlines()) == 9
    code, _, err = run_cli(capsys, "seq", "a", "--from", "3", "--to", "12")
    assert code == 2 and "asked for 10" in err


@pytest.mark.parametrize("argv", [
    ["seq", "a", "--s", str(10**18), "--to", "5"],
    ["seq", "d", "--s", str(10**18), "--to", "5"],
    ["compositions", "--s", str(10**18), "--n", "5"],
], ids=["seq-a", "seq-d", "compositions"])
def test_huge_shift_is_refused_by_name(capsys, argv):
    # each would first list s values: the shift table's seed or the first parts
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"<= {2**22} (limits.OUTPUT)" in err


def test_oeis_huge_shift_compares_the_base_values(capsys, tmp_path):
    # a(s, n) = 1 for n <= s + 1, answered without the shift table's seed
    path = tmp_path / "b.txt"
    path.write_text("".join(f"{n} 1\n" for n in range(6)))
    code, out, _ = run_cli(capsys, "oeis", "--bfile", str(path), "--seq", "a",
                           "--s", str(10**18))
    assert (code, out) == (0, "OK: compared 6 values\n")


def test_huge_shift_stream_prints_the_prefix(capsys):
    code, out, _ = run_cli(capsys, "word", "stream", "--s", str(10**18), "--length", "5")
    assert (code, out) == (0, "10000\n")


def test_word_and_tree_smoke(capsys):
    code, out, _ = run_cli(capsys, "word", "stream", "--s", "2", "--length", "12")
    assert code == 0
    assert out == "100100011000\n"
    code, out, _ = run_cli(capsys, "word", "morphism", "--length", "7")
    assert out == "1101100\n"
    code, out, _ = run_cli(capsys, "word", "runs", "--s", "2", "--terms", "3")
    assert out == "10010001\n"
    code, out, _ = run_cli(capsys, "word", "d", "--n", "2")
    assert out == "0011011\n"
    code, out, _ = run_cli(capsys, "word", "e", "--n", "2")
    assert (code, out) == (0, "1101100\n")
    code, out, _ = run_cli(capsys, "tree", "--s", "2", "--n", "9")
    assert code == 0
    assert "(path)" in out


def test_gf_tsv_format(capsys):
    code, out, _ = run_cli(
        capsys, "gf", "ruler", "--order", "3", "--format", "tsv"
    )
    assert code == 0
    assert out == "0\t0\n1\t1\n2\t2\n3\t1\n"


def test_compositions_listing(capsys):
    code, out, _ = run_cli(capsys, "compositions", "--s", "2", "--n", "8")
    assert code == 0
    assert out.splitlines() == [
        "8 = 1+2+5",
        "8 = 1+3+2+2",
        "8 = 2+2+2+2",
    ]


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--depth", "quick")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 27
    assert all(line.startswith("PASS") for line in lines)


def test_verify_timings_go_to_stderr_only(capsys):
    code, plain, err = run_cli(capsys, "verify", "--depth", "quick")
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, "verify", "--depth", "quick", "--timings")
    assert code == 0
    assert out == plain
    rows = [line.split("\t") for line in err.splitlines()]
    assert len(rows) == 27
    assert [name for name, _ in rows] == [name for name, _ in verify.IDENTITIES]
    assert all(float(seconds) >= 0 for _, seconds in rows)


def test_verify_names_broken_identity(capsys, monkeypatch):
    real = sq.ruler
    monkeypatch.setattr(sq, "ruler", lambda n: real(n) + 1)
    code, out, _ = run_cli(capsys, "verify", "--depth", "quick")
    assert code == 1
    report = {
        line.split("  ", 1)[1].split(":")[0]: line.startswith("PASS")
        for line in out.splitlines()
    }
    assert report["ruler generating function coefficients"] is False
    assert report["tree oracle leaf flags equal d"] is True


def test_oeis_round_trip(capsys, tmp_path):
    path = tmp_path / "b.txt"
    code, out, _ = run_cli(
        capsys, "seq", "a", "--s", "0", "--to", "500", "--format", "bfile"
    )
    assert code == 0
    path.write_text(out)
    code, out, _ = run_cli(
        capsys, "oeis", "--bfile", str(path), "--seq", "a", "--s", "0"
    )
    assert code == 0
    assert "OK: compared 500 values" in out


def test_oeis_fixture_by_id(capsys):
    import os

    fixture = os.path.join(os.path.dirname(__file__), "data", "bA001511.txt")
    code, out, _ = run_cli(capsys, "oeis", "--bfile", fixture, "--id", "A001511")
    assert code == 0
    assert out.startswith("OK")


def test_oeis_mismatch_exits_1(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1 1\n2 999\n")
    code, out, _ = run_cli(
        capsys, "oeis", "--bfile", str(path), "--seq", "a", "--s", "0"
    )
    assert code == 1
    assert "MISMATCH at n=2" in out


def test_oeis_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("not a bfile\n")
    code, _, err = run_cli(capsys, "oeis", "--bfile", str(path), "--seq", "a")
    assert code == 2
    assert "error" in err


def test_oeis_empty_warns(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# nothing here\n")
    code, out, err = run_cli(
        capsys, "oeis", "--bfile", str(path), "--seq", "a", "--s", "0"
    )
    assert code == 0
    assert "warning" in err
    assert "compared 0" in out


def test_oeis_unknown_id(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1 1\n")
    code, _, err = run_cli(capsys, "oeis", "--bfile", str(path), "--id", "A0")
    assert code == 2
    assert "unknown sequence id" in err


@pytest.mark.parametrize("role_args", [
    ["--id", "A046699", "--seq", "p", "--s", "3"],  # both: --seq was ignored before
    [],  # neither
])
def test_oeis_needs_exactly_one_of_id_and_seq(capsys, role_args):
    fixture = os.path.join(os.path.dirname(__file__), "data", "bA046699.txt")
    with pytest.raises(SystemExit) as exc:
        main(["oeis", "--bfile", fixture, *role_args])
    assert exc.value.code == 2
    assert "--id" in capsys.readouterr().err


def test_oeis_id_refuses_the_seq_offsets(capsys):
    # --id fixes the shift and both deltas; they used to be ignored silently
    fixture = os.path.join(os.path.dirname(__file__), "data", "bA046699.txt")
    code, out, err = run_cli(capsys, "oeis", "--bfile", fixture, "--id", "A046699",
                             "--s", "3", "--index-delta", "5", "--value-delta", "0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--s, --index-delta, --value-delta" in err
    code, _, err = run_cli(capsys, "oeis", "--bfile", fixture, "--id", "A046699",
                           "--value-delta", "7")
    assert code == 2 and "--value-delta" in err and "--s" not in err


def test_oeis_seq_ruler_refuses_a_shift(capsys):
    fixture = os.path.join(os.path.dirname(__file__), "data", "bA001511.txt")
    code, out, err = run_cli(capsys, "oeis", "--bfile", fixture, "--seq", "ruler",
                             "--s", "-3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "--s" in err


def test_oeis_seq_offsets_default_to_zero(capsys, tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("0 1\n1 1\n2 1\n3 2\n")  # a(1, 0..3); a(0, 2) is 2
    code, out, _ = run_cli(capsys, "oeis", "--bfile", str(path), "--seq", "a", "--s", "1")
    assert (code, out) == (0, "OK: compared 4 values\n")
    code, out, _ = run_cli(capsys, "oeis", "--bfile", str(path), "--seq", "a")
    assert code == 1 and out.startswith("MISMATCH at n=2")


def test_cli_import_leaves_dataclasses_out():
    # the two records are namedtuples, so a CLI start-up never pays for
    # importing dataclasses (and inspect with it)
    result = run_python("-c", "import sys, metafib.cli; "
                        "print('dataclasses' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_module_entry_point():
    result = run_metafib("seq", "a", "--s", "0", "--to", "5")
    assert result.returncode == 0
    assert result.stdout == "1\n2\n2\n3\n4\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["seq", "q", "--to", "5"])
    assert exc.value.code == 2


# Windows for the bulk seq path: the d(1) = 1 edge, single values, and
# ranges across the powers of two where a new block of the forest starts.
SEQ_WINDOWS = [(1, 1), (1, 40), (2, 2), (7, 9), (15, 17), (60, 70), (127, 129),
               (250, 260), (1000, 1100)]


def reference_dump(which, s, lo, hi, fmt):
    fn = {"a": sq.a, "d": sq.d, "p": sq.p}[which]
    lines = []
    for n in range(lo, hi + 1):
        value = fn(s, n)
        lines.append({"plain": f"{value}", "tsv": f"{n}\t{value}",
                      "bfile": f"{n} {value}"}[fmt])
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["plain", "tsv", "bfile"])
@pytest.mark.parametrize("which", ["a", "d", "p"])
def test_bulk_seq_matches_per_value(capsys, which, fmt):
    for s in range(7):
        for lo, hi in SEQ_WINDOWS:
            code, out, _ = run_cli(capsys, "seq", which, "--s", str(s), "--from", str(lo),
                                   "--to", str(hi), "--format", fmt)
            assert code == 0
            assert out == reference_dump(which, s, lo, hi, fmt), (which, s, lo, hi)


def test_bulk_seq_rejects_negative_shift(capsys):
    for which in "adp":
        code, _, err = run_cli(capsys, "seq", which, "--s", "-1", "--to", "5")
        assert code == 2 and "error" in err


def _run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cached_parser_carries_no_state(capsys, monkeypatch):
    sequence = [
        ["seq", "a", "--s", "2", "--to", "12", "--format", "tsv"],
        ["seq", "a", "--s", "2", "--to", "12"],
        ["seq", "a", "--from", "3"],  # usage error: --to is required
        ["gf", "D", "--s", "1", "--order", "20"],
        ["codes", "amax", "--to", "20"],
    ]
    assert cli._parser() is cli._parser()
    cached = [_run_main(argv, capsys) for argv in sequence]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser per call
    fresh = [_run_main(argv, capsys) for argv in sequence]
    assert cached == fresh
    assert cached[2][0] == 2 and "--to" in cached[2][2]
