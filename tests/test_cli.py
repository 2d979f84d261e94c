import subprocess
import sys

import pytest

from metafib import sequences as sq
from metafib.cli import main

from _rows import ROWS_A, ROWS_D


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
    assert "quotient" in err
    values = [int(line.split()[1]) for line in out.splitlines()]
    assert values == [0] + ROWS_A[0][:10]


def test_gf_a_product_form_rejects_s0(capsys):
    code, _, err = run_cli(
        capsys, "gf", "A", "--s", "0", "--order", "10", "--method", "product"
    )
    assert code == 2
    assert "s >= 1" in err


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
        result = subprocess.run(
            [sys.executable, "-m", "metafib", "codes", sub,
             "--from", str(top), "--to", str(top + 5)],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert result.returncode == 0
        values = [int(x) for x in result.stdout.split()]
        assert values == [expect(n) for n in range(top, top + 6)]


def test_seq_p_at_huge_n():
    top = 10**17
    result = subprocess.run(
        [sys.executable, "-m", "metafib", "seq", "p", "--s", "3",
         "--from", str(top), "--to", str(top + 15)],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0
    values = [int(x) for x in result.stdout.split()]
    assert len(values) == 16
    # each value is the first label where a(3, .) reaches n
    for n, pos in zip(range(top, top + 16), values):
        assert sq.as_via_a0(3, pos) == n and sq.as_via_a0(3, pos - 1) == n - 1


def test_word_runs_guard_exits_2(capsys):
    code, out, err = run_cli(capsys, "word", "runs", "--terms", str(10**8))
    assert code == 2
    assert out == ""
    assert "ruler_factorization guard" in err and str(2**22) in err


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


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "metafib", "seq", "a", "--s", "0", "--to", "5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == "1\n2\n2\n3\n4\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["seq", "q", "--to", "5"])
    assert exc.value.code == 2
