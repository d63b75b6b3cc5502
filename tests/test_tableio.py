import random
import string

import pytest

from quadlat import CayleyTable, format_table, parse_table, read_table, write_table


def test_round_trip(tmp_path):
    t = CayleyTable.from_rows([[0, 1], [1, 0]], labels=["e", "g"])
    path = tmp_path / "t.txt"
    write_table(t, path)
    back = read_table(path)
    assert back == t


def test_format_shape():
    t = CayleyTable.from_rows([[0, 1], [1, 0]])
    assert format_table(t) == "2\n0 1\n1 0\n"


def test_labels_line():
    text = "2\n0 1\n1 0\n# labels: e g\n"
    t = parse_table(text)
    assert t.labels == ("e", "g")
    assert format_table(t) == text


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_table("")
    with pytest.raises(ValueError):
        parse_table("x\n")
    with pytest.raises(ValueError):
        parse_table("2\n0 1\n")
    with pytest.raises(ValueError):
        parse_table("2\n0 1\n1 0\nstray\n")
    with pytest.raises(ValueError):
        parse_table("2\n0 7\n1 0\n")
    # a first line below 1 is refused as an order, not read as rows
    for order in ("0", "-3"):
        with pytest.raises(ValueError, match=f"order must be at least 1, got {order}$"):
            parse_table(f"{order}\n0 1\n1 0\n")


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_table(tmp_path / "absent.txt")


def test_unreadable_labels_are_not_written():
    # the reader splits the labels line on whitespace, so a label that is
    # empty or holds whitespace would not read back
    for labels in (["a b", "c"], ["", "c"], ["a\tb", "c"], ["c", "d\n"]):
        t = CayleyTable.from_rows([[0, 1], [1, 0]], labels)
        with pytest.raises(ValueError, match="is empty or holds whitespace"):
            format_table(t)


def test_row_length_refused_by_the_table():
    with pytest.raises(ValueError, match="row 0 has 3 entries, expected 2$"):
        parse_table("2\n0 1 1\n1 0\n")
    with pytest.raises(ValueError, match="row 1 contains a non-integer entry$"):
        parse_table("2\n0 1\n1 0.0\n")


def test_only_the_formats_integers_are_read():
    # int alone reads each of these as 1: a plus sign, an underscore
    # between digits, and an Arabic-Indic or a fullwidth digit
    for token in ("+1", "0_1", "\u0661", "\uff11"):
        with pytest.raises(ValueError, match="row 1 contains a non-integer entry$"):
            parse_table(f"2\n0 1\n{token} 0\n")
        with pytest.raises(ValueError, match="first line must be the order, got"):
            parse_table(f"{token}\n0\n")
    # negative entries and orders still reach their own messages
    with pytest.raises(ValueError, match=r"entry \[1\]\[0\] = -1 out of range 0..1$"):
        parse_table("2\n0 1\n-1 0\n")
    # any whitespace still separates entries
    assert parse_table("2\n0\t1\n1\u00a00\n") == CayleyTable.from_rows([[0, 1], [1, 0]])


def test_round_trip_property():
    # random tables of orders 1-40, with and without labels drawn from
    # letters, digits, punctuation and non-ASCII letters
    rng = random.Random(2017)
    alphabet = string.ascii_letters + string.digits + string.punctuation + "éλж"
    for n in range(1, 41):
        rows = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        labels = ["".join(rng.choices(alphabet, k=rng.randint(1, 4))) + str(i)
                  for i in range(n)]
        for t in (CayleyTable.from_rows(rows), CayleyTable.from_rows(rows, labels)):
            assert parse_table(format_table(t)) == t
