import fcntl
import hashlib
import json

import pytest

import naive_passes
from quadlat import all_valid_k, classify, quadratical_over_zm, scan_k_table
from quadlat.cli import main
from quadlat.errors import CheckpointBusy, SearchCapExceeded
from quadlat.sweep import (
    ClassificationRow,
    Discrepancy,
    InvariantViolation,
    SCAN_COLUMNS,
    CLASSIFY_COLUMNS,
    MAX_SWEEP_M,
    _compare,
    classify_discrepancies,
    emit_text,
    scan_discrepancies,
    scan_with_checkpoint,
)


def test_rows_for_modulus():
    rows_for_modulus = naive_passes.rows_for_modulus
    assert rows_for_modulus(4) == []
    assert rows_for_modulus(9) == []
    got = rows_for_modulus(5)
    assert [(r.m, r.a, r.b, r.k) for r in got] == [(5, 2, 4, 2), (5, 4, 2, 3)]


def test_row_validation():
    ClassificationRow(5, 2, 4, 2).validate()
    with pytest.raises(InvariantViolation):
        ClassificationRow(5, 2, 4, 3).validate()
    with pytest.raises(InvariantViolation):
        ClassificationRow(5, 2, 3, 2).validate()
    with pytest.raises(InvariantViolation, match="a or b not reduced mod m"):
        ClassificationRow(5, 7, 4, 2).validate()
    with pytest.raises(InvariantViolation, match="a or b not reduced mod m"):
        ClassificationRow(5, 2, -1, 2).validate()
    # 2a^2 - 2a + 1 = 1 (mod 5) at a = 1
    with pytest.raises(InvariantViolation, match="a fails the quadratic congruence"):
        ClassificationRow(5, 1, 0, 2).validate()
    # k = 7 solves (a-1)k = a (mod 5) as k = 2 does, but the dual's shift
    # 3 pairs only with the reduced 2
    with pytest.raises(InvariantViolation, match="dual shift 3 does not pair"):
        ClassificationRow(5, 2, 4, 7).validate()


def test_compare_reports_rows_on_one_side_only():
    rows = [ClassificationRow(5, 2, 4, 2), ClassificationRow(13, 3, 11, 8)]
    reference = {(5, 2): {"b": 4, "k": 2}, (13, 4): {"b": 10, "k": 5}}
    assert _compare(rows, reference) == [
        Discrepancy(13, 3, "row", None, 1, "computed row missing from the transcription"),
        Discrepancy(13, 4, "row", 1, None, "transcribed row not produced by the formulas"),
    ]


def test_scan_bounds_and_anchors():
    rows = scan_k_table(1200, 40)
    tuples = [(r.k, r.m, r.a, r.b) for r in rows]
    assert tuples == sorted(tuples)
    assert (2, 5, 2, 4) in tuples
    assert (6, 37, 16, 22) in tuples
    assert (8, 13, 3, 11) in tuples
    assert (8, 65, 29, 37) in tuples
    assert (16, 257, 121, 137) in tuples
    assert all(m <= 1200 and k < 40 for k, m, a, b in tuples)
    assert not any(m == 1297 for _, m, _, _ in tuples)


def test_scan_empty_below_five():
    assert scan_k_table(4, 2) == []


def test_non_positive_bounds_refused():
    for max_m, max_k in ((0, 5), (5, 0), (-1, -1)):
        with pytest.raises(ValueError, match="bounds must be positive"):
            scan_k_table(max_m, max_k)
    for max_m in (0, -5):
        with pytest.raises(ValueError, match="bound must be positive"):
            classify(max_m)


def test_bounds_that_are_not_ints_refused():
    # a float bound once walked as its int part and a bool as 0 or 1
    for max_m, max_k in ((10.5, 3), (True, 3), (1200, 40.0), (1200, True)):
        with pytest.raises(ValueError, match="bounds must be ints"):
            scan_k_table(max_m, max_k)
    for max_m in (True, 500.0):
        with pytest.raises(ValueError, match="bound must be an int"):
            classify(max_m)


def test_sweep_cap():
    # the walk reads every modulus up to its bound; past MAX_SWEEP_M it is
    # refused before it starts, while scan's bound still follows max_k
    over = MAX_SWEEP_M + 1
    for sweep in (lambda: classify(over), lambda: scan_k_table(over, 10 ** 5),
                  lambda: scan_k_table(10 ** 20, 10 ** 10)):
        with pytest.raises(SearchCapExceeded, match=f"above the cap of {MAX_SWEEP_M}"):
            sweep()
    assert scan_k_table(10 ** 20, 40) == scan_k_table(1522, 40)


def test_scan_discrepancies_known_typos():
    rows = scan_k_table(1200, 40)
    ds = scan_discrepancies(rows, 1200, 40)
    keyed = {(d.m, d.a): d for d in ds}
    assert set(keyed) == {(13, 11), (685, 667)}
    assert keyed[(13, 11)].field == "b"
    assert keyed[(13, 11)].reference_value == 7
    assert keyed[(13, 11)].computed_value == 3
    assert keyed[(685, 667)].reference_value == 198
    assert keyed[(685, 667)].computed_value == 19


def test_classify_matches_reference():
    rows = classify(500)
    assert classify_discrepancies(rows, 500) == []
    tuples = [(r.m, r.a, r.b, r.k) for r in rows]
    assert tuples[0] == (5, 2, 4, 2)
    assert (65, 24, 42, 18) in tuples
    assert (65, 29, 37, 8) in tuples
    assert (493, 96, 398, 302) in tuples
    assert all(a < b for _, a, b, _ in tuples)


def test_classify_small():
    rows = classify(6)
    assert [(r.m, r.a, r.b, r.k) for r in rows] == [(5, 2, 4, 2)]


def test_scan_classify_agree():
    scan_rows = scan_k_table(500, 500)
    filtered = sorted(
        (r for r in scan_rows if r.a < r.b), key=lambda r: (r.m, r.a))
    assert filtered == classify(500)


def test_parallel_determinism():
    # the sweeps run on one thread; a repeated run emits identical bytes
    scan = [emit_text(scan_k_table(2000, 100), "csv") for _ in range(2)]
    assert scan[0] == scan[1]
    cls = [emit_text(classify(2000), "csv", CLASSIFY_COLUMNS) for _ in range(2)]
    assert cls[0] == cls[1]


def _scan_closed_form(max_m, max_k):
    """Scan rows from the closed form: a = k/(k-1) solves the quadratic mod
    m iff m | k^2 + 1, for odd m with k + 2 <= m.  No m above k^2 + 1
    divides it, so the walk over m stops there."""
    rows = []
    for k in range(2, max_k):
        first = k + 3 if k % 2 == 0 else k + 2
        for m in range(first, min(max_m, k * k + 1) + 1, 2):
            if (k * k + 1) % m == 0:
                a = k * pow(k - 1, -1, m) % m
                rows.append((k, m, a, (1 - a) % m))
    return rows


def test_scan_matches_closed_form():
    for max_m, max_k in ((1200, 40), (3000, 200), (5000, 5000), (10**12, 40), (10**9, 200)):
        got = [(r.k, r.m, r.a, r.b) for r in scan_k_table(max_m, max_k)]
        assert got == _scan_closed_form(max_m, max_k)


def test_classify_rows_per_modulus():
    # 2^w roots for admissible m with w distinct primes, half of them kept
    per_m = {}
    for r in classify(10 ** 5):
        per_m[r.m] = per_m.get(r.m, 0) + 1
    for m in range(2, 10 ** 5 + 1):
        primes, rest, p = [], m, 2
        while p * p <= rest:
            if rest % p == 0:
                primes.append(p)
                while rest % p == 0:
                    rest //= p
            p += 1
        if rest > 1:
            primes.append(rest)
        admissible = m >= 5 and all(p % 4 == 1 for p in primes)
        assert per_m.get(m, 0) == (2 ** (len(primes) - 1) if admissible else 0), m


def test_rows_check_against_tables():
    for r in scan_k_table(101, 101):
        t = quadratical_over_zm(r.m, r.a)
        assert all_valid_k(t) == {r.k}


def test_emit_csv_json(tmp_path):
    rows = scan_k_table(40, 40)
    path = tmp_path / "rows.csv"
    path.write_text(emit_text(rows, "csv"), encoding="utf-8")
    text = path.read_text()
    assert text.splitlines()[0] == "k,m,a,b"
    assert text.splitlines()[1] == "2,5,2,4"
    (tmp_path / "rows.json").write_text(emit_text(rows, "json", SCAN_COLUMNS), encoding="utf-8")
    data = json.loads((tmp_path / "rows.json").read_text())
    assert data[0] == {"k": 2, "m": 5, "a": 2, "b": 4}
    crows = classify(40)
    ctext = emit_text(crows, "csv", CLASSIFY_COLUMNS)
    assert ctext.splitlines()[0] == "m,a,b,k"
    cj = json.loads(emit_text(crows, "json", CLASSIFY_COLUMNS))
    assert cj[0]["m"] == 5
    with pytest.raises(ValueError):
        emit_text(rows, "xml")


def test_emit_deterministic():
    rows = scan_k_table(200, 40)
    assert emit_text(rows, "csv") == emit_text(scan_k_table(200, 40), "csv")


def test_emit_golden_bytes():
    import hashlib

    scan_csv = emit_text(scan_k_table(1200, 40), "csv", SCAN_COLUMNS)
    assert hashlib.sha256(scan_csv.encode()).hexdigest() == (
        "d690c2213fb141d5af83d83fa12ee93756021ad2efc4cfdacde8ff950f0b0754")
    classify_csv = emit_text(classify(500), "csv", CLASSIFY_COLUMNS)
    assert hashlib.sha256(classify_csv.encode()).hexdigest() == (
        "cd0e5de0dc6acf2219a07b3ca2efd0f2a1d8d7c92243411d42ca9a81a9a8cb7b")


def test_emit_empty(tmp_path):
    (tmp_path / "empty.csv").write_text(emit_text([], "csv"), encoding="utf-8")
    assert (tmp_path / "empty.csv").read_text() == "k,m,a,b\n"


def test_checkpoint_resume_equals_one_shot(tmp_path):
    ck = tmp_path / "scan.ck"
    full = scan_k_table(400, 40)
    # simulate an interrupt: run to 150 first
    part = scan_with_checkpoint(150, 40, ck)
    assert part == scan_k_table(150, 40)
    assert ck.read_text() == "last_m=150\n"
    resumed = scan_with_checkpoint(400, 40, ck)
    assert resumed == full


def test_checkpoint_absent_is_full_run(tmp_path):
    ck = tmp_path / "fresh.ck"
    assert scan_with_checkpoint(120, 40, ck) == scan_k_table(120, 40)


def test_checkpoint_beyond_bound(tmp_path):
    ck = tmp_path / "scan.ck"
    scan_with_checkpoint(200, 40, ck)
    assert scan_with_checkpoint(100, 40, ck) == scan_k_table(100, 40)
    assert ck.read_text() == "last_m=200\n"


def test_checkpoint_single_writer(tmp_path, capsys):
    # a second open file description of PATH.lock holds the lock, as a
    # second process would
    ck = tmp_path / "scan.ck"
    with open(str(ck) + ".lock", "a") as other:
        fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(CheckpointBusy, match="in use"):
            scan_with_checkpoint(100, 40, ck)
        assert not ck.exists()
        assert main(["scan", "--max-m", "100", "--max-k", "40", "--checkpoint", str(ck)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"usage error: checkpoint {ck} is in use: another writer "
                       f"holds {ck}.lock\n")
    # released: the same scan runs, and leaves the lock free behind it
    assert scan_with_checkpoint(100, 40, ck) == scan_k_table(100, 40)
    with open(str(ck) + ".lock", "a") as other:
        fcntl.flock(other, fcntl.LOCK_EX | fcntl.LOCK_NB)


def test_corrupt_checkpoint_refused(tmp_path):
    ck = tmp_path / "scan.ck"
    ck.write_text("resume-from 77\n")
    with pytest.raises(ValueError, match="corrupt"):
        scan_with_checkpoint(100, 40, ck)


def _archive_resume(path, capsys, edit):
    # a finished checkpointed scan to m = 100 in the new directory path,
    # whose checkpoint edit() alters; returns the resumed scan's outcome
    path.mkdir()
    ck = path / "scan.ck"
    assert main(["scan", "--max-m", "100", "--max-k", "40", "--checkpoint", str(ck)]) == 0
    edit(ck)
    capsys.readouterr()
    code = main(["scan", "--max-m", "100", "--max-k", "40", "--checkpoint", str(ck)])
    out, err = capsys.readouterr()
    return code, out, err


def test_checkpoint_last_m_ascii_digits_only(tmp_path, capsys):
    # superscript two and Arabic-Indic digits pass str.isdigit()
    for i, text in enumerate(("last_m=\u00b2", "last_m=\u0661\u0660", "last_m=-5")):
        def edit(ck):
            ck.write_text(text + "\n")
        code, out, err = _archive_resume(tmp_path / str(i), capsys, edit)
        assert (code, out) == (2, ""), text
        assert err == f"error: corrupt checkpoint {tmp_path / str(i) / 'scan.ck'}: {text!r}\n"


def test_classify_million_digest():
    # every dual pair for m <= 10**6 (159,139 rows), pinned byte for byte
    text = emit_text(classify(10 ** 6), "csv", CLASSIFY_COLUMNS)
    assert (hashlib.sha256(text.encode()).hexdigest()
            == "b5deccd4bd1842f06252afa22e8cfc69c32273447bed388619226d56ebe193ea")


def test_sweeps_match_every_modulus_walk():
    # the sweeps visit only moduli with roots; the walk over every m is
    # the oracle, for bounds below the first admissible m and up to 20000
    every = naive_passes.sweep_rows(2, 20000)
    reps = naive_passes.sweep_rows(2, 20000, representatives=True)
    for max_m in (*range(1, 70), 1000, 1001, 4097, 20000):
        assert classify(max_m) == [r for r in reps if r.m <= max_m], max_m
        for max_k in (40, max_m):
            want = sorted((r for r in every if r.m <= max_m and r.k < max_k),
                          key=lambda r: (r.k, r.m, r.a))
            assert scan_k_table(max_m, max_k) == want, (max_m, max_k)


@pytest.mark.parametrize("bounds", [(2000, 3000), (1234, 3001), (999, 1000)])
def test_checkpoint_ignores_row_archive(tmp_path, bounds):
    # a fresh scan writes no PATH.rows, and one left beside the checkpoint
    # by an earlier version, stale or corrupt, is neither read nor changed
    ck = tmp_path / "scan.ck"
    archive = tmp_path / "scan.ck.rows"
    first, last = bounds
    assert scan_with_checkpoint(first, 40, ck) == scan_k_table(first, 40)
    assert ck.read_text() == f"last_m={first}\n"
    assert not archive.exists()
    for stale in (b"3,5,2,9\n#2,50,1\n", b"not a row\n"):
        archive.write_bytes(stale)
        assert scan_with_checkpoint(last, 40, ck) == scan_k_table(last, 40)
        assert ck.read_text() == f"last_m={last}\n"
        assert archive.read_bytes() == stale
