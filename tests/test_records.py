import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fullerene_readout import records
from fullerene_readout.errors import NumericFailure
from fullerene_readout.records import RecordWriter
from reference import template_csv


def assert_same_bytes(columns, rows=None):
    """`columns` give the template's bytes, written in one write or, given
    `rows`, in successive writes of `rows` rows."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp, "got.csv"), Path(tmp, "want.csv")
        with RecordWriter(got, columns) as out:
            if rows is None:
                out.write(columns.values())
            else:
                n = len(next(iter(columns.values())))
                for start in range(0, n, rows):
                    out.write(c[start:start + rows]
                              for c in columns.values())
        template_csv(want, columns)
        assert got.read_bytes() == want.read_bytes()


# Where `%.12g` changes shape, rounds to a tie, or leaves the exact powers.
EDGES = [0.0, -0.0, 5e-324, 1e-5, 9.99999999999e-5, 1e-4, 1e11,
         999999999999.5, 1e12, 1e16, 1e22, 1e23, 1e308, -1e-300]
# Values a hair off a decimal tie, where x * 10^(11 - X) rounds onto .5,
# then one in each decade band that the inexact powers 10^23..10^110 scale.
NEAR_TIES = [54.37207168585, 70902041.66475, 1.438819396545e-07,
             728660.7912865] + [float(f"4.830172951665e-{x}")
                                for x in range(15, 100, 10)]
# Around powers of ten (log10 may round across them), and the ends of the
# scaled range: X = -99 is encoded and -100 (a three-digit exponent) is
# not, nor is a value that rounds up to 1e-99 from below it; from X = 12
# (1e12) up, Python formats every value.
BOUNDS = [float(np.nextafter(10.0**k, d)) for k in (-5, 0, 15, 33)
          for d in (0, np.inf)] + [1e-11, 9.99999999999e-12, 1e33,
                                   9.9999999999995e33, 1e34] + [
    1e-99, float(np.nextafter(1e-99, 0)), 9.999999999995e-100, 1e-100]


def test_float_edges_match_template():
    # the top of X = 11, its carry to 1e+12, and a value past it
    top = [999999999999.4, 999999999999.6, 1.5e12]
    values = EDGES + NEAR_TIES + BOUNDS + top
    values = np.array(values + [-v for v in values])
    # a list that mixes ints and floats, in one write and row by row
    mixed = [k if k % 2 else v for k, v in enumerate(values.tolist())]
    for rows in (None, 1):
        assert_same_bytes({"x": values, "y": values.tolist(), "m": mixed},
                          rows)
    text = [("%.12g" % v) for v in values.tolist()]
    assert text[:3] == ["0", "-0", "4.94065645841e-324"]
    assert text[6:10] == ["100000000000", "1e+12", "1e+12", "1e+16"]
    n = len(values) // 2
    assert text[n - 3:n] == ["999999999999", "1e+12", "1.5e+12"]


def test_integer_edges_match_template():
    signed = np.array([-2**63, -1000, -999, -1, 0, 1, 999, 1000, 2**63 - 1])
    unsigned = np.array([0, 2**64 - 1] * 4 + [1], np.uint64)
    # 0..10^8 - 1 is written as words; one value outside it sends the
    # block through str()
    words = np.array([9, 10, 0, 99999999, 7, 1000, 10000, 1, 12345678])
    assert_same_bytes({
        "k": signed, "u": unsigned, "r": range(-4, 5),
        "w": words, "w32": words.astype(np.uint32),
        "w64": words.astype(np.uint64),
        "b8": np.array([0, 9, 10, 99, 100, 255, 1, 0, 5], np.uint8),
        "d": np.arange(9), "d8": np.arange(9, dtype=np.uint8),
        "top": np.r_[words[:-1], 10**8], "neg": np.r_[words[:-1], -1],
        "u64": np.r_[words[:-1].astype(np.uint64), np.uint64(2**64 - 1)],
        "cross": range(10**8 - 4, 10**8 + 5)})


def block_scale_columns(rows):
    """Columns of 2 * rows + 1 rows, so that writes of `rows` rows are two
    full blocks and a one-row block, each with its own field widths and sign
    decisions."""
    n = 2 * rows + 1
    rng = np.random.default_rng(15)
    specials = [m * 10.0**k for k in range(-101, 36)
                for m in (1.0, 1.5, 9.99999999999, 1.23456789012)]
    specials += [0.5, 150.0, 1e5, 123.4, 1.2e-5, 7e20]  # end in zeros
    specials += EDGES + NEAR_TIES + BOUNDS
    # one value on each layout row that a value below 1e12 reaches: X in
    # -99..11 and n = 1..12 digits up to the last nonzero one, each 0.03
    # above its twelve digits so that it is no power's neighbour
    shapes = [(x, n) for x in range(-99, 12) for n in range(1, 13)]
    layouts = [float(f"{'123456789123'[:n]:0<12}03e{x - 13}")
               for x, n in shapes]
    assert records._float_rows(np.array(layouts))[2].tolist() == [
        (x - records._X_MIN) * 13 + n for x, n in shapes]
    specials += layouts
    specials += [-v for v in specials]
    wide = rng.standard_normal(n) * 10.0 ** rng.integers(-15, 36, n)
    x = np.r_[np.resize(specials, rows), wide[rows:]]
    # one negative value in block 0; one exponent-form value in block 1
    one_negative = rng.uniform(100.0, 150.0, n)
    one_negative[777] = -123.456
    one_exponent = rng.choice([0.5, 0.25, 150.0, 12.5, 3.0, 0.0], n)
    one_exponent[rows + 5] = 1e-20
    wide_ints = np.array([2**32 - 1, 2**32, -1, -2**32, 0, 9, 10, 99999999,
                          100000000, 2**63 - 1, -2**63])
    digits = rng.integers(0, 10, n)
    digits[rows:] += rng.integers(0, 2, n - rows) * 123456  # block 1 wider
    digits[-1] = -7
    return {
        "x": x, "y": x[::-1].tolist(), "one_negative": one_negative,
        "one_exponent": one_exponent,
        "bit": rng.integers(0, 2, n).astype(np.uint8),
        "digit": digits,
        "wide": np.r_[np.resize(wide_ints, rows),
                      rng.integers(-2**40, 2**40, n - rows)],
        "u": np.resize(np.array([0, 2**32 - 1, 2**32, 2**64 - 1, 10**19, 7],
                                np.uint64), n),
        "i": range(-5, n - 5)}


def test_blocks_at_scale_match_template():
    rows = 16384
    columns = block_scale_columns(rows)
    blocks = [slice(0, rows), slice(rows, 2 * rows), slice(2 * rows, None)]
    assert [int((columns["one_negative"][b] < 0).sum()) for b in blocks] \
        == [1, 0, 0]
    assert ["e" in "%.12g" % v for v in columns["one_exponent"][blocks[1]]
            ].count(True) == 1
    assert ["e" in "%.12g" % v for v in columns["one_exponent"][blocks[0]]
            ].count(True) == 0
    assert_same_bytes(columns, rows)


def test_powers_are_correctly_rounded():
    """Each power 10^k is the double nearest it: within half an ulp, so
    within a relative 2^-53. Up to 10^22 each is exact."""
    assert len(records._POW10) == 12 - records._X_MIN
    for k, power in enumerate(records._POW10.tolist()):
        error = abs(Fraction(power) - 10**k)
        assert error <= Fraction(math.ulp(power)) / 2
        assert error <= Fraction(10**k, 2**53)
        assert (error == 0) == (k <= 22)


def test_two_roundings_stay_inside_the_tie_margin():
    """m = |x| * 10^k rounds twice, in 10^k and in the product, so it lies
    within m * (2^-53 + 2^-53 + 2^-106) / (1 - 2^-53)^2 of its exact value:
    for every m < 1e12 + 0.5 that is less than the 1e-3 by which a fraction
    must miss .5 for m to be rounded here."""
    u = Fraction(1, 2**53)
    bound = Fraction(1e12 + 0.5) * ((1 + u) ** 2 - 1) / (1 - u) ** 2
    assert bound < Fraction(0.5) - Fraction(records._M_TIE)
    assert bound < Fraction(23, 10**5)


def test_tie_rule_matches_the_fraction_rule():
    """`_floats` tests |m - rint(m)| > 0.5 - 1e-3 for the exactness note's
    |m - floor(m) - 0.5| < 1e-3. They agree at every fraction that m can
    have in [1e11, 1e12 + 0.5): all multiples of its ulp, 2^-16 to
    2^-13."""
    for e in range(36, 40):     # binades [2^e, 2^(e+1)) around 1e11..1e12
        ulp = 2.0 ** (e - 52)
        m = 2.0**e + np.arange(2 ** (52 - e)) * ulp
        rule = np.abs(m - np.floor(m) - 0.5) < 1e-3
        assert rule.any()
        assert ((np.abs(m - np.rint(m)) > records._M_TIE) == rule).all()


def test_range_rule_on_bits():
    """m's bits order as m does, so one unsigned compare of the bits is
    m outside [1e11, 1e12 + 0.5)."""
    ends = [0.0, 5e-324, 1e11, 1e12 + 0.5, 1e300]
    m = np.array(ends + [np.nextafter(v, d) for v in ends[1:]
                         for d in (0, np.inf)])
    bits = (m.view(np.int64) - records._M_LOW).view(np.uint64)
    assert ((bits >= records._M_SPAN) == ((m < 1e11) | (m >= 1e12 + 0.5))
            ).all()


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
    assert_same_bytes(columns, rows)


def test_csv_fields_by_column_type(tmp_path):
    path = tmp_path / "r.csv"
    with RecordWriter(path, ["i", "x", "y", "s", "seed"]) as out:
        out.write([range(2), np.array([1 / 3, 1e-20]), [2.0, -0.5],
                   np.where([True, False], "up", "down"),
                   [12345678901234, 0]])
    assert path.read_text() == ("i,x,y,s,seed\n"
                                "0,0.333333333333,2,up,12345678901234\n"
                                "1,1e-20,-0.5,down,0\n")


def test_jsonl_rows(tmp_path):
    path = tmp_path / "r.jsonl"
    with RecordWriter(path, ["x", "n"]) as out:
        out.write([[0.1 + 0.2, 1.5], [3, 4]])
    assert path.read_text() == ('{"x": 0.30000000000000004, "n": 3}\n'
                                '{"x": 1.5, "n": 4}\n')


@pytest.mark.parametrize("name", ["r.csv", "r.jsonl"])
@pytest.mark.parametrize("column", [[1.0, math.inf], np.array([math.nan])])
def test_non_finite_float_column_refused(tmp_path, name, column):
    path = tmp_path / name
    with pytest.raises(NumericFailure, match=f"{name}: x is not finite"):
        with RecordWriter(path, ["i", "x"]) as out:
            out.write([range(len(column)), column])
    assert not path.exists()


@pytest.mark.parametrize("name", ["r.csv", "r.jsonl"])
def test_blocks_write_as_one(tmp_path, name):
    one, blocks = tmp_path / "one" / name, tmp_path / "blocks" / name
    one.parent.mkdir()
    blocks.parent.mkdir()
    with RecordWriter(one, ["i", "x"]) as whole:
        whole.write([[1, 2, 3], [0.5, 1e-20, 3.0]])
    with RecordWriter(blocks, ["i", "x"]) as out:
        out.write([[1], [0.5]])
        out.write([[], []])
        out.write([[2, 3], [1e-20, 3.0]])
    assert out.sha256 == whole.sha256
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


def test_failed_close_removes_file(tmp_path, monkeypatch):
    class FlushFails:
        """A file whose buffered bytes fail to reach the disk on close."""

        def __init__(self, path, mode):
            self.file = open(path, mode)

        def write(self, chunk):
            return self.file.write(chunk)

        def close(self):
            self.file.close()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(records, "open", FlushFails, raising=False)
    path = tmp_path / "r.csv"
    with pytest.raises(OSError):
        with RecordWriter(path, ["x"]) as out:
            out.write([np.array([1.0])])
    assert not path.exists() and out.sha256 is None
