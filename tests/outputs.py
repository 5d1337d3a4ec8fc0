"""The rules every `sim` output directory keeps: `check_run(directory)`
checks one `--out` directory and returns a line per file, which `python
tests/outputs.py DIR...` prints. A violation raises AssertionError naming
the file, the 1-based row and the field."""

import hashlib
import json
import math
import sys
from pathlib import Path

from fullerene_readout.cli import _parse_grid, build_parser

CONFIG = "system constants rates pulse tunneling mechanics seed".split()
INTEGERS = {"cycle", "passed", "row", "trials", "misclassified", "base_seed",
            "n_cycles", "counts_on", "seed"}
TEXTS = {"kind", "formula", "encoding"}
ROWS = {"levels.csv": 8, "transitions.csv": 10, "readout.csv": 1}


def text(value) -> str:
    """A value's CSV field: '%.12g' of a float, str of anything else."""
    return "%.12g" % value if isinstance(value, float) else str(value)


def _json(line: str, where: str):
    """Strict JSON: no NaN or Infinity, and every number finite."""
    def finite(token):
        assert math.isfinite(float(token)), f"{where}: {token} is not finite"
        return float(token)
    return json.loads(line, parse_float=finite, parse_constant=finite)


def _check_csv(path: Path, rows: int | None) -> str:
    with open(path, encoding="utf-8", newline="") as fh:
        header, n = fh.readline().rstrip("\n").split(","), 0
        for n, line in enumerate(fh, 1):
            fields = line.rstrip("\n").split(",")
            assert len(fields) == len(header), f"{path.name}: row {n}"
            for name, field in zip(header, fields):
                try:    # an integer, a spin, free text or a finite float
                    exact = (str(int(field)) == field if name in INTEGERS
                             else field in ("up", "down") if name == "spin_in"
                             else name in TEXTS or text(float(field)) == field
                             and math.isfinite(float(field)))
                except ValueError:
                    exact = False
                assert exact, f"{path.name}: row {n}, {name}: {field!r}"
    assert rows in (None, n), f"{path.name}: {n} rows, not {rows}"
    return f"{path}: {n} rows, every field exact"


def _check_jsonl(path: Path) -> str:
    header, *lines = path.with_suffix(".csv").read_text().splitlines()
    rows = path.read_text().splitlines()
    assert len(rows) == len(lines), f"{path.name}: {len(rows)} rows"
    for n, (row, line) in enumerate(zip(rows, lines), 1):
        row = _json(row, f"{path.name}: row {n}")
        assert ",".join(row) == header, f"{path.name}: row {n}: {list(row)}"
        for (name, value), field in zip(row.items(), line.split(",")):
            assert text(value) == field, f"{path.name}: row {n}, {name}"
    return f"{path}: {len(rows)} rows, equal to its CSV"


def check_run(directory) -> list[str]:
    """Empty (a refused or failed run), or a manifest and what it lists."""
    directory = Path(directory)
    files = sorted(p.name for p in directory.iterdir())
    if not files:
        return [f"{directory}: empty, a refused or failed run"]
    manifest = directory / "manifest.json"
    assert manifest.name in files, f"{directory}: {files}, no manifest.json"
    doc = _json(manifest.read_text(), str(manifest))
    assert list(doc["config"]) == CONFIG, f"{manifest}: {list(doc['config'])}"
    listed = [(e["path"], e["sha256"]) for e in doc["outputs"]]
    found = {(f, hashlib.sha256((directory / f).read_bytes()).hexdigest())
             for f in files if f != manifest.name}
    wrong = sorted({f for f, _ in found.symmetric_difference(listed)})
    assert not wrong, f"{', '.join(wrong)}: not as {manifest} lists"
    rows = dict(ROWS, **{f: 1001 for f, _ in listed if f.startswith("fig2")})
    if "events.csv" in files:   # the readout's n_cycles
        rows["events.csv"] = json.loads(
            (directory / "readout.jsonl").read_text())["n_cycles"]
    if "sweep.csv" in files:    # a row per cell of the grid, per state
        args = build_parser().parse_args(doc["argv"])
        rows["sweep.csv"] = (4 if args.encoding == "both" else 2) * len(
            _parse_grid(args.alphas, "")) * len(_parse_grid(args.leaks, ""))
    return [f"{manifest}: {len(listed)} outputs, listed and intact"] + [
        _check_jsonl(directory / f) if f.endswith(".jsonl")
        else _check_csv(directory / f, rows.get(f)) for f, _ in listed]


if __name__ == "__main__":
    for directory in sys.argv[1:] or sys.exit("usage: outputs.py DIR..."):
        print("\n".join(check_run(directory)))
