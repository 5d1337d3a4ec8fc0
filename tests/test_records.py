import math

import numpy as np
import pytest

from fullerene_readout import records
from fullerene_readout.errors import NumericFailure
from fullerene_readout.records import write_records


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
