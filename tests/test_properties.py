"""Property test over generated config documents and command lines.

Whatever the document and argv, `sim` returns 0, 1, 2 or 3 and raises
nothing, not even argparse's SystemExit; on exit 0 every number it wrote
(CSV, JSONL, manifest) is finite, and on any other code its output directory
is absent or empty. Windows are kept to at most 2,000 cycles so each run is
short.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fullerene_readout.cli import main
from fullerene_readout.config import _SECTIONS, _defaults

MAX_WINDOW_CYCLES = 2000

# Any JSON number, scaled defaults, and values of the wrong type.
VALUES = st.one_of(
    st.floats(),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=-10, max_value=10**6),
    st.sampled_from([0, 0.0, -0.0, 1e-300, 5e-324, 1e308, -1e308]),
    st.none(), st.booleans(), st.text(max_size=3))


@st.composite
def documents(draw):
    """Up to four keys, most set to a multiple of their default, the rest to
    any value at all; now and then an unknown key."""
    keys = [(name, key, default) for name, cls in _SECTIONS.items()
            for key, default in _defaults(cls).items()]
    doc = {}
    for name, key, default in draw(st.lists(st.sampled_from(keys),
                                            unique=True, max_size=4)):
        if isinstance(default, float) and draw(st.integers(0, 4)) < 4:
            value = default * draw(st.floats(0.0, 3.0))
        else:
            value = draw(VALUES)
        doc.setdefault(name, {})[key] = value
    if draw(st.integers(0, 9)) == 9:
        section = doc.setdefault(draw(st.sampled_from(list(_SECTIONS))), {})
        section[draw(st.sampled_from(["frequency", "period", "x"]))] = 1.0
    # Keep every window short, whatever cycle_period was drawn.
    tunneling = doc.setdefault("tunneling", {})
    period = tunneling.get("cycle_period", 150.0)
    if type(period) in (int, float) and math.isfinite(period) and period > 0:
        tunneling["window"] = period * draw(
            st.integers(1, MAX_WINDOW_CYCLES))
    else:
        tunneling.pop("window", None)
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(0, 2**64) if draw(st.integers(0, 4)) < 4
                           else VALUES)
    return doc


GRID_VALUES = st.one_of(st.floats(0.0, 0.3), st.floats(0.0, 0.3),
                        st.floats(0.0, 0.3), st.floats())
GRIDS = st.one_of(
    st.lists(GRID_VALUES, min_size=1, max_size=3).map(
        lambda vs: ",".join(map(repr, vs))),
    st.sampled_from(["", ","]))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(
        ["table", "fig2", "readout", "sweep", "mechanics"]))
    argv = [command]
    if command == "fig2":
        argv += ["--alphas", draw(GRIDS)]
    elif command == "readout":
        argv += ["--true-state=" + draw(st.sampled_from(
            ["+3/2", "-3/2", "+1/2", "-1/2"]))]
        argv += draw(st.sampled_from([[], ["--events"]]))
    elif command == "sweep":
        argv += ["--alphas", draw(GRIDS), "--leaks", draw(GRIDS),
                 "--trials", str(draw(st.integers(-1, 2))),
                 "--encoding", draw(st.sampled_from(
                     ["outer", "inner", "both"]))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-2, 2**64)))]
    return argv


def _numbers(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _numbers(v)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)
    elif isinstance(value, float):
        yield value


def _reject_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def assert_outputs_finite(out: Path) -> None:
    for path in out.iterdir():
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                for row in csv.reader(fh):
                    for cell in row:
                        try:
                            value = float(cell)
                        except ValueError:
                            continue
                        assert math.isfinite(value), (path.name, row)
        else:
            lines = (path.read_text().splitlines()
                     if path.suffix == ".jsonl" else [path.read_text()])
            for line in lines:
                doc = json.loads(line, parse_constant=_reject_constant)
                assert all(map(math.isfinite, _numbers(doc))), path.name


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), argv=command_lines())
def test_any_input_exits_cleanly_with_finite_outputs(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = Path(tmp) / "out"
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert_outputs_finite(out)
        else:   # a refused run leaves nothing behind
            assert not out.exists() or not any(out.iterdir())
