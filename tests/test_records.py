import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fullerene_readout import records
from fullerene_readout.errors import NumericFailure
from fullerene_readout.records import RecordWriter, write_records


def template_csv(path, columns):
    """The row-template writer the block encoder replaced, kept as its
    oracle: one `%.12g`/`%s` line template filled per row."""
    def spec(column):
        if isinstance(column, np.ndarray):
            floats = column.dtype.kind == "f"
        else:
            floats = all(isinstance(v, float) for v in column)
        return "%.12g" if floats else "%s"

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        line = ",".join(spec(c) for c in columns.values()) + "\n"
        block = [c.tolist() if isinstance(c, np.ndarray) else c
                 for c in columns.values()]
        fh.writelines(map(line.__mod__, zip(*block)))


def assert_same_bytes(columns):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        write_records(got, columns)
        template_csv(want, columns)
        assert got.read_bytes() == want.read_bytes()


# Where `%.12g` changes shape, rounds to a tie, or leaves the exact powers.
EDGES = [0.0, -0.0, 5e-324, 1e-5, 9.99999999999e-5, 1e-4, 1e11,
         999999999999.5, 1e12, 1e16, 1e22, 1e23, 1e308, -1e-300]
# Values a hair off a decimal tie, where x * 10^(11 - X) rounds onto .5.
NEAR_TIES = [54.37207168585, 70902041.66475, 1.438819396545e-07,
             728660.7912865]
# Around powers of ten (log10 may round across them), and the ends of the
# exact-power range: X = -11 and 33 are encoded, -12 and 34 are not.
BOUNDS = [float(np.nextafter(10.0**k, d)) for k in (-5, 0, 15, 33)
          for d in (0, np.inf)] + [1e-11, 9.99999999999e-12, 1e33,
                                   9.9999999999995e33, 1e34]


def test_float_edges_match_template():
    values = EDGES + NEAR_TIES + BOUNDS
    values = np.array(values + [-v for v in values])
    assert_same_bytes({"x": values, "y": values.tolist()})
    text = [("%.12g" % v) for v in values.tolist()]
    assert text[:3] == ["0", "-0", "4.94065645841e-324"]
    assert text[6:10] == ["100000000000", "1e+12", "1e+12", "1e+16"]


def test_integer_edges_match_template():
    signed = np.array([-2**63, -1000, -999, -1, 0, 1, 999, 1000, 2**63 - 1])
    unsigned = np.array([0, 2**64 - 1] * 4 + [1], np.uint64)
    assert_same_bytes({"k": signed, "u": unsigned, "r": range(-4, 5)})


@st.composite
def column_sets(draw):
    n = draw(st.integers(0, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False,
                       allow_subnormal=True)
    ascii_text = st.text(st.characters(min_codepoint=1, max_codepoint=127),
                         max_size=5)
    any_text = st.text(st.characters(exclude_categories=("Cs",),
                                     exclude_characters="\0"), max_size=5)
    start = draw(st.integers(-2**63, 2**63 - 1 - n))
    return {
        "i": range(start, start + n),
        "x": draw(arrays(np.float64, n, elements=finite)),
        "y": draw(st.lists(finite, min_size=n, max_size=n)),
        "k": draw(arrays(np.int64, n,
                         elements=st.integers(-2**63, 2**63 - 1))),
        "seed": draw(st.lists(st.integers(2**63, 2**64 - 1), min_size=n,
                              max_size=n)),
        "a": np.array(draw(st.lists(ascii_text, min_size=n, max_size=n)),
                      dtype=str),
        "u": np.array(draw(st.lists(any_text, min_size=n, max_size=n)),
                      dtype=str),
        "w": draw(st.lists(any_text, min_size=n, max_size=n)),
        "b": draw(arrays(np.bool_, n)),
        "p": draw(arrays(np.uint8, n)),
    }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(columns=column_sets(), rows=st.integers(1, 5))
def test_blocks_match_template(columns, rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(records, "_ROWS", rows)
        assert_same_bytes(columns)


def test_csv_fields_by_column_type(tmp_path):
    path = tmp_path / "r.csv"
    write_records(path, {
        "i": range(2), "x": np.array([1 / 3, 1e-20]),
        "y": [2.0, -0.5], "s": np.where([True, False], "up", "down"),
        "seed": [12345678901234, 0]})
    assert path.read_text() == ("i,x,y,s,seed\n"
                                "0,0.333333333333,2,up,12345678901234\n"
                                "1,1e-20,-0.5,down,0\n")


def test_csv_written_in_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(records, "_ROWS", 2)
    path = tmp_path / "r.csv"
    write_records(path, {"i": range(5), "x": np.arange(5) / 4})
    assert path.read_text() == "i,x\n0,0\n1,0.25\n2,0.5\n3,0.75\n4,1\n"


def test_jsonl_rows(tmp_path):
    path = tmp_path / "r.jsonl"
    write_records(path, {"x": [0.1 + 0.2, 1.5], "n": [3, 4]})
    assert path.read_text() == ('{"x": 0.30000000000000004, "n": 3}\n'
                                '{"x": 1.5, "n": 4}\n')


@pytest.mark.parametrize("name", ["r.csv", "r.jsonl"])
@pytest.mark.parametrize("column", [[1.0, math.inf], np.array([math.nan])])
def test_non_finite_float_column_refused(tmp_path, name, column):
    path = tmp_path / name
    with pytest.raises(NumericFailure, match=f"{name}: x is not finite"):
        write_records(path, {"i": range(len(column)), "x": column})
    assert not path.exists()


@pytest.mark.parametrize("name", ["r.csv", "r.jsonl"])
def test_blocks_write_as_one(tmp_path, name):
    one, blocks = tmp_path / "one" / name, tmp_path / "blocks" / name
    one.parent.mkdir()
    blocks.parent.mkdir()
    digest = write_records(one, {"i": [1, 2, 3], "x": [0.5, 1e-20, 3.0]})
    with RecordWriter(blocks, ["i", "x"]) as out:
        out.write([[1], [0.5]])
        out.write([[2, 3], [1e-20, 3.0]])
    assert out.rows == 3
    assert out.sha256 == digest
    assert blocks.read_bytes() == one.read_bytes()


def _write_nan(out):
    out.write([np.array([math.nan])])


def _interrupt(out):
    raise KeyboardInterrupt


def _disk_full(out):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("fail, error", [
    (_write_nan, NumericFailure), (_interrupt, KeyboardInterrupt),
    (_disk_full, OSError)])
def test_failed_write_removes_file(tmp_path, fail, error):
    path = tmp_path / "r.csv"
    with pytest.raises(error):
        with RecordWriter(path, ["x"]) as out:
            out.write([np.array([1.0])])
            fail(out)
    assert not path.exists() and out.sha256 is None
