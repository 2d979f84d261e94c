import io
import os

import pytest

from metafib import oeis
from metafib import sequences as sq

DATA = os.path.join(os.path.dirname(__file__), "data")


def fixture(seq_id):
    return os.path.join(DATA, f"b{seq_id}.txt")


def test_read_bfile_skips_comments(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("# header\n\n1 5\n2 7\n")
    assert oeis.read_bfile(path) == [(1, 5), (2, 7)]


def test_read_bfile_rejects_garbage(tmp_path):
    bad_field = tmp_path / "bad1.txt"
    bad_field.write_text("1 two\n")
    with pytest.raises(oeis.BFileError):
        oeis.read_bfile(bad_field)

    bad_cols = tmp_path / "bad2.txt"
    bad_cols.write_text("1 2 3\n")
    with pytest.raises(oeis.BFileError):
        oeis.read_bfile(bad_cols)

    bad_order = tmp_path / "bad3.txt"
    bad_order.write_text("2 1\n1 1\n")
    with pytest.raises(oeis.BFileError):
        oeis.read_bfile(bad_order)


def test_write_then_read_round_trip():
    records = [(n, sq.a(0, n)) for n in range(1, 50)]
    buf = io.StringIO()
    oeis.write_bfile(buf, records)
    path_free = buf.getvalue()
    assert path_free.endswith("\n")
    parsed = [
        tuple(map(int, line.split())) for line in path_free.splitlines()
    ]
    assert parsed == records


@pytest.mark.parametrize("seq_id", sorted(oeis.ROLE_MAP))
def test_fixture_matches_local_sequence(seq_id):
    records = oeis.read_bfile(fixture(seq_id))
    assert len(records) >= 1000
    compared, mismatch = oeis.compare_records(records, oeis.ROLE_MAP[seq_id])
    assert mismatch is None
    assert compared >= 1000


def test_shift_identity_between_fixtures():
    plus_one = dict(oeis.read_bfile(fixture("A101925")))
    base = dict(oeis.read_bfile(fixture("A005187")))
    overlap = sorted(set(plus_one) & set(base))
    assert len(overlap) >= 1000
    for n in overlap:
        assert plus_one[n] == base[n] + 1


def test_compare_reports_first_mismatch():
    # true values are 1, 1, 2; the file disagrees at n = 3
    records = [(1, 1), (2, 1), (3, 99)]
    role = oeis.ROLE_MAP["A046699"]
    compared, mismatch = oeis.compare_records(records, role)
    assert compared == 2
    assert mismatch == (3, 99, 2)


def test_compare_empty_overlap():
    role = oeis.ROLE_MAP["A079559"]
    compared, mismatch = oeis.compare_records([], role)
    assert compared == 0 and mismatch is None


def test_fixture_generator_reproduces_the_fixtures(tmp_path, monkeypatch):
    import importlib.util

    script = os.path.join(os.path.dirname(__file__), "..", "tools", "make_fixtures.py")
    spec = importlib.util.spec_from_file_location("make_fixtures", script)
    make_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixtures)
    monkeypatch.setattr(make_fixtures, "OUT_DIR", str(tmp_path))
    make_fixtures.main()
    names = sorted(os.listdir(DATA))
    assert names == sorted(os.listdir(tmp_path))
    assert len(names) == 6
    for name in names:
        with open(os.path.join(DATA, name), "rb") as want, \
                open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name
