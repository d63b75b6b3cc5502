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
