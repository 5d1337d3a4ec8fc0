"""The one writer of every CSV and JSONL output file.

Records arrive as named columns of equal length (lists, ranges or numpy
arrays). CSV rows are filled from one line template built per file: `%.12g`
for a float column, `str()` for any other. JSONL rows are `json.dumps` of
Python values. A float column with a NaN or an infinity is refused before
the file is opened.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NumericFailure

# CSV rows formatted per write: bounds the text held in memory whatever the
# number of rows.
_ROWS = 65536


def _csv_spec(column) -> str:
    if isinstance(column, np.ndarray):
        floats = column.dtype.kind == "f"
    else:
        floats = all(isinstance(v, float) for v in column)
    return "%.12g" if floats else "%s"


def write_records(path: str | Path, columns: dict) -> None:
    """Write the columns as CSV, with a header row of their names, or, when
    `path` ends in `.jsonl`, as one JSON object per row."""
    specs = [_csv_spec(c) for c in columns.values()]
    for name, column, spec in zip(columns, columns.values(), specs):
        if spec == "%.12g" and not np.isfinite(column).all():
            raise NumericFailure(f"{Path(path).name}: {name} is not finite")
    with open(path, "w") as fh:
        if Path(path).suffix == ".jsonl":
            for row in zip(*columns.values()):
                fh.write(json.dumps(dict(zip(columns, row))) + "\n")
            return
        fh.write(",".join(columns) + "\n")
        line = ",".join(specs) + "\n"
        n_rows = len(next(iter(columns.values())))
        for start in range(0, n_rows, _ROWS):
            block = [c[start:start + _ROWS] for c in columns.values()]
            block = [b.tolist() if isinstance(b, np.ndarray) else b
                     for b in block]
            fh.writelines(map(line.__mod__, zip(*block)))
