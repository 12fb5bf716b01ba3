import configparser
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import components, loop_predict, read_results, spiked_white_data
from eblp import (
    ParseError,
    RankError,
    ShapeError,
    TransformedObservation,
    dataset_from_arrays,
    fit_in_sample,
    predict_out_of_sample,
)
from eblp import benchmark, cli, matio, spectral
from eblp.cli import main
from eblp.simulate import rmse

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")

TINY_CONFIG = """
[tiny]
p = 40
gamma = 0.8
ell = 8,4
rank = 2
sampling = uniform:0.7
noise = white
sigma_grid = 1,2
replicates = 2
seed = 11
methods = eblp,unwhitened,nnrls
random_mean = true
"""

# Desk-sized: at p = 300 OpenBLAS splits the products and eigensolves over
# threads, which can change the last bits of a result.  Linear sampling
# makes NNRLS calibrate its weight by Monte Carlo.
DESK_CONFIG = """
[desk]
p = 300
gamma = 0.8
ell = 10,5
rank = 2
sampling = linear:0.1
noise = white
sigma_grid = 2
replicates = 2
seed = 7
methods = eblp,unwhitened,nnrls
nnrls_max_iters = 40
weight_replicates = 4
"""

# One experiment per NNRLS weight rule: the closed form (uniform sampling,
# white noise), Monte Carlo unweighted (colored noise) and Monte Carlo
# weighted by C (linear sampling).
WEIGHT_RULES_CONFIG = """
[DEFAULT]
p = 40
gamma = 0.8
ell = 8,4
rank = 2
sigma_grid = 1,2.5
replicates = 2
methods = eblp,unwhitened,nnrls
random_mean = true
nnrls_max_iters = 60
weight_replicates = 3

[closed]
sampling = uniform:0.7
seed = 21

[colored]
sampling = uniform:0.7
noise = colored:5
seed = 22

[linear]
sampling = linear:0.3
seed = 23
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def per_cell_text(matrix, observed=None, na_token="NA"):
    """Reference writer: one ``%.17g`` per cell, the format's definition."""
    lines = []
    for i in range(matrix.shape[0]):
        fields = []
        for j in range(matrix.shape[1]):
            if observed is not None and not observed[i, j]:
                fields.append(na_token)
            else:
                fields.append("%.17g" % matrix[i, j])
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


@st.composite
def masked_matrices(draw, elements, min_side=1):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=min_side, max_side=6))
    matrix = draw(hnp.arrays(np.float64, shape, elements=elements))
    observed = draw(hnp.arrays(np.bool_, shape))
    return matrix, observed


def float64_bits():
    """Bit patterns of float64 values, with every exponent field equally likely."""
    return st.builds(lambda sign, exponent, fraction: (sign << 63) | (exponent << 52) | fraction,
                     st.integers(0, 1), st.integers(0, 2047), st.integers(0, 2**52 - 1))


@st.composite
def number_tokens(draw):
    """Spellings of numbers, most of them ones float() accepts: digit
    strings with signs, points and exponents, formatted doubles, and
    neighbours of powers of two and ten."""
    kind = draw(st.sampled_from(["digits", "format", "near", "junk"]))
    if kind == "digits":
        whole = draw(st.text("0123456789", max_size=25))
        frac = draw(st.none() | st.text("0123456789", max_size=25))
        if not whole and not frac:
            whole = "0"
        body = whole if frac is None else f"{whole}.{frac}"
        exponent = draw(st.none() | st.integers(-340, 340))
        if exponent is not None:
            body += draw(st.sampled_from(["e", "E"])) + (
                f"{exponent:+d}" if draw(st.booleans()) else str(exponent))
        return draw(st.sampled_from(["", "-", "+"])) + body
    if kind == "junk":
        return draw(st.sampled_from([
            "1.2.3", "--1", "-+1", "1-", "1e", "e5", ".", "-", "+", "-.", "0x10",
            "1,5", "1__0", "_1", "1d5", "\u0661", "nan", "inf", "-Infinity", "1e400",
            "5.e", "1.5e+", "--",
        ]))
    if kind == "near":
        base = 2.0 ** draw(st.integers(-1074, 1023)) if draw(st.booleans()) else \
            10.0 ** draw(st.integers(-307, 308))
        x = base
        for _ in range(draw(st.integers(0, 3))):
            x = np.nextafter(x, draw(st.sampled_from([0.0, np.inf])))
        x = float(x)
    else:
        x = draw(st.floats(allow_nan=False, allow_infinity=False))
    digits = draw(st.integers(1, 25))
    return draw(st.sampled_from([
        "%.17g" % x, repr(x), f"%.{digits}g" % x, f"%.{digits}e" % x,
        f"%.{digits}f" % x if abs(x) < 1e25 else repr(x),
    ]))


def finite_token(token):
    """Whether float() reads ``token``'s bytes as a finite number."""
    try:
        return math.isfinite(float(token.encode()))
    except ValueError:
        return False


def read_reference(tokens, width, path):
    """What read_matrix must give for a file of ``tokens``, ``width`` to a
    row: values equal to float(token), or the error text of the first bad
    cell in reading order."""
    for k, token in enumerate(tokens):
        try:
            value = float(token.encode())
        except ValueError:
            problem = "not a number"
        else:
            if np.isfinite(value):
                continue
            problem = "not a finite number"
        i, j = divmod(k, width)
        return f"{path}: row {i + 1}, field {j + 1}: {problem}: {token!r}"
    return np.array([float(t) for t in tokens]).reshape(-1, width)


def on_cpus(patch, cpus):
    """Make matio see ``cpus`` usable CPUs, whatever the machine has: with
    1 every block runs inline, with 2 an input of more than two blocks
    runs on two threads."""
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


EXTREMES = np.array([[-0.0, 5e-324, -2.2250738585072009e-308,
                      1.7976931348623157e308, -1.7976931348623157e308]])


class TestMatrixIO:
    def test_roundtrip_precision(self, tmp_path, rng):
        path = tmp_path / "m.txt"
        m = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        matio.write_matrix(path, m)
        back, observed = matio.read_matrix(path)
        assert np.array_equal(back, m)      # %.17g round-trips float64
        assert np.all(observed == 1)

    def test_na_tokens(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment line\n1.5 NA\nNA 2.5\n")
        values, observed = matio.read_matrix(path)
        assert np.array_equal(values, [[1.5, 0.0], [0.0, 2.5]])
        assert np.array_equal(observed, [[1, 0], [0, 1]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3\n# comment\n4 5\n")
        with pytest.raises(ParseError, match="row 2 has 2 fields, expected 3"):
            matio.read_matrix(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 oops\n")
        with pytest.raises(ParseError, match="row 2, field 2: not a number: 'oops'"):
            matio.read_matrix(path)

    @pytest.mark.parametrize("text, where", [
        ("1 2 # note\n3 4\n", "row 1, field 3: not a number: '#'"),
        ("1 2\n3 4#\n", "row 2, field 2: not a number: '4#'"),
        ("1 2\n3 1e400\n", "row 2, field 2: not a finite number: '1e400'"),
        ("1 nan\n3 x\n", "row 1, field 2: not a finite number: 'nan'"),
        ("1 2\n3 4\x00\n", "row 2, field 2: not a number: '4\\x00'"),
    ])
    def test_bad_cell_named(self, tmp_path, text, where):
        # '#' starts a comment only at the start of a line; the first bad
        # cell in reading order is named.
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            matio.read_matrix(path)
        assert str(info.value) == f"{path}: {where}"

    @pytest.mark.parametrize("text, where", [
        ("1 2\n3 4\n5 6 7\n8 9 10\n", "row 3 has 3 fields, expected 2"),
        ("1 2\n3 4\n5 6\n# note\n7 x\n", "row 4, field 2: not a number: 'x'"),
        ("1 2\n3 4\n5 nan\n7 8\n9 x\n", "row 3, field 2: not a finite number: 'nan'"),
        ("1 2\n3 4\n5 6\n7 8\n9\n", "row 5 has 1 fields, expected 2"),
    ])
    def test_bad_cell_named_across_parse_blocks(self, tmp_path, monkeypatch, text, where):
        # Two rows per parsed block: rows are still counted from the top.
        monkeypatch.setattr(matio, "_PARSE_CELLS", 4)
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            matio.read_matrix(path)
        assert str(info.value) == f"{path}: {where}"

    def test_parse_blocks_match_one_block(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(24)
        y = rng.standard_normal((9, 5))
        observed = rng.random(y.shape) < 0.7
        text = per_cell_text(y, observed).splitlines()
        text[4] = "0." + "0" * 60 + "15 " + text[4].split(" ", 1)[1]  # a long token
        path = tmp_path / "m.txt"
        path.write_text("\n".join(text) + "\n")
        whole = matio.read_matrix(path)
        monkeypatch.setattr(matio, "_PARSE_CELLS", 7)
        for cpus in (1, 2):
            on_cpus(monkeypatch, cpus)
            blocks = matio.read_matrix(path)
            assert np.array_equal(blocks[0], whole[0]) and np.array_equal(blocks[1], whole[1])
        assert whole[0][4, 0] == 1.5e-61

    def test_rows_shorter_than_the_first_block_grow_the_arrays(self, tmp_path):
        # The first block's bytes per row size the arrays; 20000 short rows
        # after it need more rows than that estimate holds.
        long = np.random.default_rng(25).random(matio._PARSE_CELLS)
        text = "".join("%.17f\n" % value for value in long) + "0\n" * 20000
        path = tmp_path / "m.txt"
        path.write_text(text)
        values, observed = matio.read_matrix(path)
        want = np.array([float(token) for token in text.split()])[:, None]
        assert values.shape == observed.shape == (matio._PARSE_CELLS + 20000, 1)
        assert observed.all()
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64))

    @staticmethod
    def reserved_shapes(monkeypatch) -> list:
        """The shapes ``read_matrix`` reserves with ``np.empty``, in order."""
        reserved = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(shape, *args, **kwargs):
                if sys._getframe(1).f_code.co_name == "read_matrix":
                    reserved.append(shape)
                return np.empty(shape, *args, **kwargs)

        monkeypatch.setattr(matio, "np", Numpy())
        return reserved

    def test_uniform_rows_never_grow_the_arrays(self, tmp_path, monkeypatch):
        # Every line read keeps its end, so the first block's bytes per row
        # size the arrays for exactly the 40000 rows and a sixteenth more.
        path = tmp_path / "m.txt"
        path.write_text("1 2\n" * 40000)
        reserved = self.reserved_shapes(monkeypatch)
        values, observed = matio.read_matrix(path)
        assert reserved == [(40000 + 40000 // 16, 2)] * 2
        assert np.array_equal(values, np.tile([1.0, 2.0], (40000, 1))) and observed.all()

    def test_long_comment_before_short_rows(self, tmp_path, monkeypatch):
        # A 10 MB comment counts in the file size but holds no rows, so it
        # reserves none.
        rows = np.arange(6000.0).reshape(3000, 2)
        path = tmp_path / "m.txt"
        with open(path, "w") as handle:
            handle.write("# " + "x" * 10_000_000 + "\n")
            handle.writelines("%d %d\n" % tuple(row) for row in rows)
        reserved = self.reserved_shapes(monkeypatch)
        values, observed = matio.read_matrix(path)
        assert reserved == [(3000 + 3000 // 16, 2)] * 2
        assert np.array_equal(values, rows) and observed.all()

    def test_first_bad_cell_named_when_a_later_block_fails_first(self, tmp_path, monkeypatch):
        # Rows 1-2 and 3-4 are parsed on two threads; the first block is
        # held back until the second has failed.
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 x\n5 6\ny 8\n9 10\n")
        on_cpus(monkeypatch, 2)
        monkeypatch.setattr(matio, "_PARSE_CELLS", 4)
        parse, failed = matio._parse_block, threading.Event()

        def parse_slowly(lines, na, width):
            if lines[0].startswith(b"1 "):
                assert failed.wait(timeout=30)
            try:
                return parse(lines, na, width)
            except ValueError:
                failed.set()
                raise

        monkeypatch.setattr(matio, "_parse_block", parse_slowly)
        with pytest.raises(ParseError) as info:
            matio.read_matrix(path)
        assert str(info.value) == f"{path}: row 2, field 2: not a number: 'x'"

    @pytest.mark.parametrize("byte", [b"\x1c", b"\x1f", b"\x85", b"\xa0"])
    def test_only_ascii_whitespace_separates_cells(self, tmp_path, byte):
        # Cells are split where bytes.split() splits; other separators of
        # str.split() are part of a cell, which is then not a number.
        path = tmp_path / "m.txt"
        path.write_bytes(b"1 2\n3" + byte + b" 4\n")
        with pytest.raises(ParseError) as info:
            matio.read_matrix(path)
        shown = (b"3" + byte).decode(errors="backslashreplace")
        assert str(info.value) == f"{path}: row 2, field 1: not a number: {shown!r}"

    @pytest.mark.parametrize("text", [
        "1.5 NA\r\nNA 2.5\r\n",
        "  # indented comment\n1.5 NA\n\t#tabbed\n\nNA 2.5",
        "\t1.5   NA \n NA\t2.5\n   \n",
        "1.5\x0bNA\x0c\nNA\x0b\x0c2.5\n",
        "15e-1 NA\n NA +2_5e-1\n",
    ])
    def test_line_layouts(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        values, observed = matio.read_matrix(path)
        assert np.array_equal(values, [[1.5, 0.0], [0.0, 2.5]])
        assert np.array_equal(observed, [[1, 0], [0, 1]])

    def test_long_tokens_kept_whole(self, tmp_path):
        # Longer than the first fixed-width slot, including the NA token.
        long_value = "0." + "0" * 60 + "15"
        na = "MISSING_" + "x" * 70
        path = tmp_path / "m.txt"
        path.write_text(f"{long_value} 2\n{na} 1{'0' * 40}\n")
        values, observed = matio.read_matrix(path, na_token=na)
        assert np.array_equal(values, [[float(long_value), 2.0], [0.0, 1e40]])
        assert np.array_equal(observed, [[1, 1], [0, 1]])

    @pytest.mark.parametrize("length", [8190, 8191, 8192])
    def test_line_layouts_across_read_chunks(self, tmp_path, length):
        # Text is read in chunks of 8192 bytes: a '\r\n' split between two
        # is one line end, and rows are counted from the top.
        first = b"1 " + b"0" * (length - 3) + b"2"
        text = first + b"\r\n\r\n# c\r3 4\r5 6\n\n7 8\r\n9 x\r\n"
        path = tmp_path / "m.txt"
        path.write_bytes(text)
        with pytest.raises(ParseError) as info:
            matio.read_matrix(path)
        assert str(info.value) == f"{path}: row 5, field 2: not a number: 'x'"
        path.write_bytes(text.replace(b"x", b"10"))
        values, observed = matio.read_matrix(path)
        assert np.array_equal(values, np.arange(1.0, 11.0).reshape(5, 2))
        assert observed.all()

    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_read_matches_float_of_each_token(self, tmp_path_factory, width, rows, data):
        tokens = data.draw(st.lists(number_tokens(), min_size=width * rows,
                                    max_size=width * rows))
        path = tmp_path_factory.mktemp("tokens") / "m.txt"
        path.write_text("\n".join(" ".join(tokens[i : i + width])
                                  for i in range(0, len(tokens), width)) + "\n")
        want = read_reference(tokens, width, path)
        if isinstance(want, str):
            with pytest.raises(ParseError) as info:
                matio.read_matrix(path)
            assert str(info.value) == want
        else:
            values, observed = matio.read_matrix(path)
            assert observed.all()
            assert np.array_equal(values.view(np.uint64), want.view(np.uint64))

    HARD_TOKENS = [
        # 2**53 and its neighbours; 2**53 + 1 is a tie that rounds to even.
        "9007199254740991", "9007199254740992", "9007199254740993",
        "9007199254740994", "9007199254740995", "-9007199254740993",
        "9007199254740993.0", "9007199254740992.5", "900719925474099.35",
        # Exact midpoints between neighbouring doubles (ties) and one off
        # them, with 17 to 19 significant digits.
        "4503599627370496.5", "4503599627370497.5", "18014398509481986",
        "1152921504606847104", "1152921504606847103", "1152921504606847105",
        "1152921504606847232", "115292150460684710.4", "0.1152921504606847104",
        "9223372036854775808", "9223372036854776832", "9999999999999999999",
        # The smallest normal, the largest double, subnormals, signed zeros.
        "2.2250738585072011e-308", "2.2250738585072012e-308", "1.7976931348623157e308",
        "4.9406564584124654e-324", "5e-324", "1e-400", "-0", "-0.0", "0.000",
        # Leading zeros, bare points, and digit counts around the limits.
        ".5", "5.", "-.5", "+.5", "007", "-00.50", "0.0000000000000000000001",
        ".00000000000000000000001", "1234567890123456789", "12345678901234567890",
        "123456789012345678.9", "1234567890123456789.0", "0.00012345678901234567",
        "0.000000012345678901234567", "1.0000000000000000000000", "0.1", "0.3",
    ]

    def test_read_matches_float_on_hard_tokens(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text(" ".join(self.HARD_TOKENS) + "\n")
        values, observed = matio.read_matrix(path)
        want = np.array([[float(t) for t in self.HARD_TOKENS]])
        assert observed.all()
        assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
        assert np.signbit(values[0, self.HARD_TOKENS.index("-0")])

    def test_read_matches_float_next_to_powers_of_two_and_ten(self, tmp_path):
        centres = [2.0**k for k in range(-30, 64)] + [10.0**k for k in range(-22, 20)]
        values = []
        for centre in centres:
            below = above = centre
            for _ in range(3):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                values += [below, above]
            values.append(centre)
        tokens = ["%.17g" % v for v in values] + ["%.19g" % v for v in values]
        tokens += ["%.20f" % v for v in values if v < 1e3]
        path = tmp_path / "m.txt"
        path.write_text(" ".join(tokens) + "\n")
        back, _ = matio.read_matrix(path)
        want = np.array([[float(t) for t in tokens]])
        assert np.array_equal(back.view(np.uint64), want.view(np.uint64))

    def test_read_matches_float_on_a_million_random_doubles(self, tmp_path):
        rng = np.random.default_rng(22)
        bits = rng.integers(0, 2**64, size=(1000, 1000), dtype=np.uint64, endpoint=False)
        # Half the rows uniform over bit patterns, half over fixed notation.
        bits[::2] = (rng.standard_normal((500, 1000))
                     * 10.0 ** rng.uniform(-6, 18, (500, 1000))).view(np.uint64)
        matrix = bits.view(np.float64)
        observed = (rng.random(matrix.shape) < 0.9) & np.isfinite(matrix)
        path = tmp_path / "m.txt"
        matio.write_matrix(path, matrix, observed=observed)
        values, back = matio.read_matrix(path)
        assert np.array_equal(back, observed)
        # '%.17g' round-trips, so float(token) is the written value.
        expected = np.where(observed, matrix, 0.0)
        assert np.array_equal(values.view(np.uint64), expected.view(np.uint64))

    @given(masked_matrices(st.floats(allow_nan=False, allow_infinity=False)),
           st.sampled_from(["NA", "?", "-"]))
    @example((EXTREMES, np.ones(EXTREMES.shape, bool)), "NA")
    def test_roundtrip_finite_doubles(self, tmp_path_factory, case, na_token):
        matrix, observed = case
        path = tmp_path_factory.mktemp("roundtrip") / "m.txt"
        matio.write_matrix(path, matrix, observed=observed, na_token=na_token)
        back, back_observed = matio.read_matrix(path, na_token=na_token)
        assert np.array_equal(back_observed, observed)
        expected = np.where(observed, matrix, 0.0)
        assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))

    @given(masked_matrices(st.floats(), min_side=0), st.sampled_from(["NA", "?", "-"]),
           st.booleans())
    @example((EXTREMES, np.ones(EXTREMES.shape, bool)), "NA", True)
    def test_write_matches_per_cell_format(self, tmp_path_factory, case, na_token, masked):
        matrix, observed = case
        observed = observed if masked else None
        path = tmp_path_factory.mktemp("format") / "m.txt"
        matio.write_matrix(path, matrix, observed=observed, na_token=na_token)
        assert path.read_text() == per_cell_text(matrix, observed, na_token)

    @given(hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=float64_bits()),
           st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    @example(np.array([[0, 1 << 63, 1, 0x7FF0000000000000, 0xFFF8000000000001,
                        0x7FF0000000000001, 0x000FFFFFFFFFFFFF]], dtype=np.uint64), 7)
    def test_write_matches_per_cell_format_on_bit_patterns(self, tmp_path_factory, bits, mask_seed):
        # Every exponent field, from zero and subnormals to inf and NaN
        # payloads, with and without an observed mask.
        matrix = bits.view(np.float64)
        observed = None
        if mask_seed is not None:
            observed = np.random.default_rng(mask_seed).random(bits.shape) < 0.7
        path = tmp_path_factory.mktemp("bits") / "m.txt"
        matio.write_matrix(path, matrix, observed=observed, na_token="?")
        assert path.read_text() == per_cell_text(matrix, observed, "?")

    SEAM_NA_TOKENS = ["NA", "?", "MISSING_" + "x" * 40]  # the last is wider than a slot

    @given(st.integers(2, 7), st.integers(1, 5), st.integers(2, 9), st.sampled_from([1, 2]),
           st.data())
    def test_write_matches_per_cell_format_across_block_seams(
            self, tmp_path_factory, width, rows, block, cpus, data):
        # Blocks of a few cells that do not divide the row width, so that
        # rows, NA cells and '%.17g' fallbacks (0, subnormals, 1e20) meet
        # block boundaries at every offset, with blocks formatted inline
        # or on two threads.
        assume(width % block)
        cells = st.one_of(st.floats(min_value=-1e3, max_value=1e3),
                          st.sampled_from([0.0, -0.0, 5e-324, -2e-310, 1e20, -1e-5, 0.5]))
        values = data.draw(st.lists(cells, min_size=width * rows, max_size=width * rows))
        matrix = np.array(values).reshape(rows, width)
        observed = data.draw(st.none() | hnp.arrays(np.bool_, matrix.shape))
        na_token = data.draw(st.sampled_from(self.SEAM_NA_TOKENS))
        path = tmp_path_factory.mktemp("seams") / "m.txt"
        with pytest.MonkeyPatch.context() as patch:
            on_cpus(patch, cpus)
            patch.setattr(matio, "_BLOCK", block)
            matio.write_matrix(path, matrix, observed=observed, na_token=na_token)
        assert path.read_text() == per_cell_text(matrix, observed, na_token)

    @given(st.integers(2, 7), st.integers(1, 5), st.integers(2, 9), st.integers(1, 12),
           st.sampled_from([1, 2]), st.data())
    def test_read_matches_float_across_parse_block_seams(
            self, tmp_path_factory, width, rows, block, lines, cpus, data):
        # A few observed cells converted at a time and a few rows parsed at
        # a time: NA cells and float() fallbacks (exponents, long tokens)
        # meet both kinds of boundary at every offset, with blocks parsed
        # inline or on two threads.
        assume(width % block)
        na_token = data.draw(st.sampled_from(self.SEAM_NA_TOKENS))
        fallback = st.sampled_from(["1e20", "5e-324", "-0", "+7", "0." + "0" * 40 + "15",
                                    "1" + "0" * 30, "2.5E-3"])
        cells = st.one_of(number_tokens().filter(finite_token), fallback, st.just(na_token))
        tokens = data.draw(st.lists(cells, min_size=width * rows, max_size=width * rows))
        path = tmp_path_factory.mktemp("seams") / "m.txt"
        path.write_text("\n".join(" ".join(tokens[i : i + width])
                                  for i in range(0, len(tokens), width)) + "\n")
        with pytest.MonkeyPatch.context() as patch:
            on_cpus(patch, cpus)
            patch.setattr(matio, "_PARSE_BLOCK", block)
            patch.setattr(matio, "_PARSE_CELLS", lines * width)
            values, observed = matio.read_matrix(path, na_token=na_token)
        seen = np.array([t != na_token for t in tokens]).reshape(rows, width)
        want = np.array([float(t) if t != na_token else 0.0 for t in tokens])
        assert np.array_equal(observed, seen)
        assert np.array_equal(values.view(np.uint64), want.reshape(rows, width).view(np.uint64))

    def test_write_matches_per_cell_format_next_to_fast_range_edges(self, tmp_path):
        # log10 may miss the exponent by one next to a power of ten, where
        # the fast range also ends; above 2**53 doubles are even integers.
        centres = [10.0**k for k in range(-5, 18)] + [2.0**53]
        values = []
        for centre in centres:
            below = above = centre
            for _ in range(8):
                below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
                values += [below, above]
            values.append(centre)
        matrix = np.array(values).reshape(len(centres), -1)
        matrix = np.vstack([matrix, -matrix])
        path = tmp_path / "m.txt"
        matio.write_matrix(path, matrix)
        assert path.read_text() == per_cell_text(matrix)

    def test_write_matches_per_cell_format_on_exact_ties(self, tmp_path):
        # j / 2**m with odd j has exactly m decimals, the last a 5; with 18
        # significant digits it lies halfway between two 17-digit values.
        ties = []
        for k in range(-4, 16):   # 10**k <= x < 10**(k + 1)
            m = 17 - k
            j = int(10.0**k * 2**m) + 1 | 1
            for step in range(0, 40, 2):
                x = (j + step) / 2**m
                exact = Decimal(x).normalize().as_tuple()
                if len(exact.digits) == 18 and exact.digits[-1] == 5:
                    ties += [x, -x]
        assert len(ties) >= 400
        matrix = np.array(ties).reshape(-1, 4)
        path = tmp_path / "m.txt"
        matio.write_matrix(path, matrix)
        assert path.read_text() == per_cell_text(matrix)

    def test_write_matches_per_cell_format_on_a_million_random_doubles(self, tmp_path):
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2**64, size=(1000, 1000), dtype=np.uint64, endpoint=False)
        # Half the rows uniform over bit patterns, half over the fast range.
        bits[::2] = (rng.standard_normal((500, 1000))
                     * 10.0 ** rng.uniform(-6, 18, (500, 1000))).view(np.uint64)
        matrix = bits.view(np.float64)
        observed = rng.random(matrix.shape) < 0.9
        path = tmp_path / "m.txt"
        matio.write_matrix(path, matrix, observed=observed)
        assert path.read_text() == per_cell_text(matrix, observed)

    @pytest.mark.filterwarnings("error")
    def test_write_raises_no_floating_point_warnings(self, tmp_path):
        # The exact product would overflow or underflow outside the fast
        # range; those cells must not reach it.
        tiny = np.finfo(float).smallest_subnormal
        matrix = np.array([[1.7976931348623157e308, -1e300, 1e17, tiny, -1e-300, 0.0],
                           [np.nan, np.inf, -np.inf, 1e-5, 0.5, -3.0]])
        path = tmp_path / "m.txt"
        with np.errstate(all="raise"):
            matio.write_matrix(path, matrix)
        assert path.read_text() == per_cell_text(matrix)

    def test_write_memory_does_not_grow_with_the_matrix(self, tmp_path):
        matrix = np.random.default_rng(21).standard_normal((4000, 1000))  # 32 MB
        tracemalloc.start()
        try:
            matio.write_matrix(tmp_path / "m.txt", matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_read_memory_is_the_result_and_a_block(self, tmp_path):
        path = tmp_path / "m.txt"
        matio.write_matrix(path, np.random.default_rng(21).standard_normal((4000, 1000)))
        tracemalloc.start()
        try:
            values, observed = matio.read_matrix(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.nbytes + observed.nbytes == 64e6
        assert peak < 96e6

    def test_write_rejects_observed_of_another_shape(self, tmp_path):
        path = tmp_path / "m.txt"
        with pytest.raises(ShapeError, match=r"observed shape \(2, 3\)"):
            matio.write_matrix(path, np.ones((3, 2)), observed=np.ones((2, 3)))
        assert not path.exists()

    def test_mask_validation(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("1 0\n0 2\n")
        with pytest.raises(ParseError):
            matio.read_mask(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        values, observed = matio.read_matrix(path)
        assert values.shape == (0, 0)


def fitted_model(rng):
    n, p = 80, 50
    x = 4 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
    masks = (rng.random((n, p)) < 0.8).astype(float)
    y = masks * (x + rng.standard_normal((n, p)))
    model, _ = fit_in_sample(dataset_from_arrays(y, masks), 1)
    return model


class TestModelIO:
    def test_roundtrip(self, tmp_path, rng):
        model = fitted_model(rng)
        path = tmp_path / "model.json"
        matio.write_model(path, model)
        back = matio.read_model(path)
        assert np.array_equal(back.u_hat, model.u_hat)
        assert np.array_equal(back.m_hat_diag, model.m_hat_diag)
        assert back.whitened == model.whitened
        assert components(back.estimates) == components(model.estimates)
        model.mean[0] = np.nan
        with pytest.raises(ValueError, match="JSON compliant"):
            matio.write_model(tmp_path / "nan.json", model)

    @pytest.mark.parametrize("whiten", [True, False])
    def test_read_model_predicts_bit_for_bit(self, tmp_path, rng, whiten):
        n, p = 80, 30
        y = 4 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y += rng.standard_normal((n, p)) + rng.standard_normal(p)
        observed = (rng.random((n, p)) < 0.7) * 1.0
        model, _ = fit_in_sample(dataset_from_arrays(y * observed, observed), 2,
                                 whiten=whiten)
        path = tmp_path / "model.json"
        matio.write_model(path, model)
        back = matio.read_model(path)
        fresh = TransformedObservation(y=y[:9] * observed[:9], d=observed[:9])
        want = predict_out_of_sample(model, fresh)
        assert want.tobytes() == predict_out_of_sample(back, fresh).tobytes()
        row = TransformedObservation(y=fresh.y[0], d=fresh.d[0])
        assert predict_out_of_sample(model, row).tobytes() == \
            predict_out_of_sample(back, row).tobytes()

    @pytest.mark.parametrize("mode", ["plugin", "white"])
    @pytest.mark.parametrize("whiten", [True, False])
    def test_read_model_equals_the_fit_field_for_field(self, tmp_path, rng, whiten, mode):
        # The file holds the whole model: nothing is dropped on the way
        # out or made up on the way in, the prediction maps included.
        n, p = 80, 30
        y = 4 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y += rng.standard_normal((n, p)) + rng.standard_normal(p)
        observed = (rng.random((n, p)) < 0.7) * 1.0
        model, _ = fit_in_sample(dataset_from_arrays(y * observed, observed), 2,
                                 whiten=whiten, mode=mode)
        path = tmp_path / "model.json"
        matio.write_model(path, model)
        back = matio.read_model(path)

        def fields(model):
            out = {f.name: getattr(model, f.name) for f in dataclasses.fields(model)}
            est = out.pop("estimates")
            return {**out, **{f"estimates.{f.name}": getattr(est, f.name)
                              for f in dataclasses.fields(est)}}

        got_fields, want_fields = fields(back), fields(model)
        assert got_fields.keys() == want_fields.keys()
        for name, want in want_fields.items():
            got = got_fields[name]
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
            else:
                assert type(got) is type(want) and got == want, name

    # 200 examples by default, and the profile's count when it is larger
    # (2000 under --hypothesis-profile=ci).
    @settings(max_examples=max(200, settings.default.max_examples))
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(40, 12), (12, 40), (30, 30)]),
        rank=st.integers(0, 3),
        whiten=st.booleans(),
        mode=st.sampled_from(["plugin", "white"]),
        scale=st.sampled_from([1e-100, 1.0, 1e100]),
    )
    def test_write_read_write_same_bytes(self, tmp_path_factory, seed, shape, rank,
                                         whiten, mode, scale):
        rng = np.random.default_rng(seed)
        n, p = shape
        d = (rng.random((n, p)) < 0.8) * rng.uniform(0.2, 2.0, (n, p))
        d[rng.integers(n, size=p), np.arange(p)] = 1.0   # no empty column
        x = 4.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) + rng.standard_normal(p)
        y = scale * d * (x + rng.standard_normal((n, p)))
        model, _ = fit_in_sample(dataset_from_arrays(y, d), rank, whiten=whiten, mode=mode)
        first, second = (tmp_path_factory.mktemp("model") / "model.json" for _ in range(2))
        matio.write_model(first, model)
        matio.write_model(second, matio.read_model(first))
        assert first.read_bytes() == second.read_bytes()

    def test_written_fields_follow_the_table(self, tmp_path, rng):
        # The reader's field table is the file's one layout: the writer
        # saves exactly its fields, in its order.
        path = tmp_path / "model.json"
        matio.write_model(path, fitted_model(rng))
        payload = json.loads(path.read_text())
        assert list(payload) == list(matio._MODEL)
        assert [list(entry) for entry in payload["estimates"]] == \
            [list(matio._ESTIMATE)] * len(payload["estimates"])

    def test_corrupted_file(self, tmp_path, rng):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            matio.read_model(path)
        matio.write_model(path, fitted_model(rng))
        good = json.loads(path.read_text())
        nan, inf = float("nan"), float("inf")
        edits = [  # (keys down to the edited value, new value, message)
            (("m_hat_diag", 3), nan, "m_hat_diag"),
            (("w_diag", 0), inf, "w_diag"),
            (("mean", 0), -inf, "mean"),
            (("u_hat", 0, 7), nan, "u_hat"),
            (("estimates", 0, "ell_hat"), nan, r"estimates\[0\]\.ell_hat"),
            (("estimates", 0, "lambda_star"), inf, r"estimates\[0\]\.lambda_star"),
            (("rank",), 7, "rank 7 does not match the 1 components"),
            (("w_diag",), good["w_diag"][:-1], "inconsistent model dimensions"),
            (("mean",), good["mean"] + [0.0], "inconsistent model dimensions"),
            (("estimates",), good["estimates"][1:], "estimates do not match component count"),
            # Each field has one JSON type.  A string, number or null for a
            # boolean, and a boolean or fraction for an integer, once loaded.
            (("version",), 2, "unsupported model version 2"),
            (("version",), True, "version must be an integer, got true"),
            (("version",), 1.0, "version must be an integer, got 1.0"),
            (("whitened",), "false", 'whitened must be a boolean, got "false"'),
            (("whitened",), 0, "whitened must be a boolean, got 0"),
            (("whitened",), None, "whitened must be a boolean, got null"),
            (("n",), 3.7, "n must be an integer, got 3.7"),
            (("n",), True, "n must be an integer, got true"),
            (("rank",), "1", 'rank must be an integer, got "1"'),
            (("estimates", 0, "supercritical"), 1, r"estimates\[0\]\.supercritical must be a boolean"),
            (("estimates", 0, "clamped"), "no", r"estimates\[0\]\.clamped must be a boolean"),
            (("estimates", 0, "c2_hat"), True, r"estimates\[0\]\.c2_hat must be a number, got true"),
            (("estimates", 0, "sigma_obs"), "2.0", r"estimates\[0\]\.sigma_obs must be a number"),
            # Every array entry is a JSON number, not a string or boolean
            # that numpy would convert; the first other one is named.
            (("m_hat_diag", 3), "1.0", r'm_hat_diag\[3\] must be a number, got "1.0"'),
            (("w_diag", 2), True, r"w_diag\[2\] must be a number, got true"),
            (("u_hat", 0, 7), "0.5", r'u_hat\[0\]\[7\] must be a number, got "0.5"'),
            (("mean",), "0", "mean must be an array"),
            (("u_hat",), good["u_hat"][0], r"u_hat\[0\] must be an array"),
            (("mean", 1), 10**400, "malformed model file: int too large"),
            # Scales a fit never saves: M-hat below the fit's floor, and so a
            # zero or negative W or a sample count below 1.
            (("m_hat_diag", 0), 0.0, r"m_hat_diag\[0\] must be at least 1e-06, got 0.0"),
            (("m_hat_diag", 4), 9e-7, r"m_hat_diag\[4\] must be at least 1e-06, got 9e-07"),
            (("m_hat_diag", 2), -1, r"m_hat_diag\[2\] must be at least 1e-06, got -1"),
            (("w_diag", 0), 0.0, r"w_diag\[0\] must be positive, got 0.0"),
            (("w_diag", 5), -0.5, r"w_diag\[5\] must be positive, got -0.5"),
            (("n",), -5, "n must be at least 1, got -5"),
            (("n",), 0, "n must be at least 1, got 0"),
            # Each estimate entry holds exactly the seven fields.
            (("estimates", 0, "foo"), 1.0, r'estimates\[0\]: unknown field "foo"'),
            (("estimates", 0), {k: v for k, v in good["estimates"][0].items() if k != "ell_hat"},
             r"estimates\[0\]\.ell_hat is missing"),
            (("estimates", 0), {k: v for k, v in good["estimates"][0].items() if k != "clamped"},
             r"estimates\[0\]\.clamped is missing"),
            (("estimates", 0), [1.0], r"estimates\[0\] must be an object, got \[1.0\]"),
            (("estimates",), {}, "estimates must be an array"),
            # The top level holds exactly the fields of the table.
            (("exponent",), 7, 'unknown field "exponent"'),
        ]
        for keys, value, message in edits:
            payload = json.loads(json.dumps(good))
            target = payload
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            path.write_text(json.dumps(payload))
            with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: .*{message}"):
                matio.read_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParseError):
            matio.read_model(path)

    def test_missing_top_level_field_named(self, tmp_path, rng):
        path = tmp_path / "model.json"
        matio.write_model(path, fitted_model(rng))
        payload = json.loads(path.read_text())
        del payload["rank"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: rank is missing$"):
            matio.read_model(path)

    def test_array_payload_is_not_a_model_file(self, tmp_path, rng):
        path = tmp_path / "model.json"
        matio.write_model(path, fitted_model(rng))
        path.write_text(json.dumps([json.loads(path.read_text())]))
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: not a model file$"):
            matio.read_model(path)

    def test_later_version_reported_before_its_fields(self, tmp_path, rng):
        # A version-2 file may hold fields version 1 does not know: the
        # version is the error, not the field.
        path = tmp_path / "model.json"
        matio.write_model(path, fitted_model(rng))
        payload = json.loads(path.read_text())
        payload.update(version=2, exponent=7)
        path.write_text(json.dumps(payload))
        with pytest.raises(ParseError,
                           match=f"^{re.escape(str(path))}: unsupported model version 2$"):
            matio.read_model(path)


class TestDenoiseCommand:
    def test_pure_noise_with_mean_returns_column_means(self, tmp_path):
        rng = np.random.default_rng(0)
        n, p = 200, 80
        mean = rng.standard_normal(p)
        y = mean[None, :] + rng.standard_normal((n, p))
        inp, out = tmp_path / "y.txt", tmp_path / "xhat.txt"
        matio.write_matrix(inp, y)
        assert main(["denoise", str(inp), str(out), "--rank", "2"]) == 0
        x_hat, _ = matio.read_matrix(out)
        tiled = np.tile(y.mean(axis=0), (n, 1))
        assert np.linalg.norm(x_hat - tiled) <= 0.1 * np.linalg.norm(tiled)
        report = (tmp_path / "xhat.txt.report").read_text()
        assert "amse_est" in report

    def test_unparseable_input_exit_2(self, tmp_path):
        inp = tmp_path / "bad.txt"
        inp.write_text("1 2\n3 garbage\n")
        assert main(["denoise", str(inp), str(tmp_path / "o.txt"), "--rank", "1"]) == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_exit_2(self, tmp_path, capsys, token):
        rng = np.random.default_rng(2)
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, rng.standard_normal((20, 5)))
        lines = inp.read_text().splitlines()
        fields = lines[3].split()
        fields[2] = token
        lines[3] = " ".join(fields)
        inp.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "o.txt")
        assert main(["denoise", str(inp), out, "--rank", "1"]) == 2
        assert f"row 4, field 3: not a finite number: {token!r}" in capsys.readouterr().err
        if token == "nan":
            # The NA token is matched before the cell is parsed.
            assert main(["denoise", str(inp), out, "--rank", "1", "--na-token", "nan"]) == 0

    def test_missing_cell_marked_observed_exit_2(self, tmp_path, capsys):
        # A mask cannot supply a value the input lacks; the first such cell
        # in reading order is named.
        rng = np.random.default_rng(5)
        observed = np.ones((30, 8), bool)
        observed[6, 3] = observed[2, 5] = False
        inp, maskf = tmp_path / "y.txt", tmp_path / "mask.txt"
        matio.write_matrix(inp, rng.standard_normal((30, 8)), observed=observed)
        matio.write_matrix(maskf, np.ones((30, 8)))
        out = str(tmp_path / "o.txt")
        assert main(["denoise", str(inp), out, "--rank", "1", "--mask", str(maskf)]) == 2
        assert capsys.readouterr().err == (
            f"eblp: parse error: {inp}: row 3, field 6: missing but marked observed by the mask\n")
        matio.write_matrix(maskf, observed)
        assert main(["denoise", str(inp), out, "--rank", "1", "--mask", str(maskf)]) == 0

    def test_mask_file_equals_na_tokens(self, tmp_path):
        # A mask file zeroes the cells it marks missing, whatever they hold:
        # the outputs equal, byte for byte, those of the same cells as NA.
        rng = np.random.default_rng(8)
        y = 1.0 + np.abs(rng.standard_normal((60, 12)))
        observed = rng.random(y.shape) < 0.7
        full, na, maskf = tmp_path / "full.txt", tmp_path / "na.txt", tmp_path / "mask.txt"
        matio.write_matrix(full, y)
        matio.write_matrix(na, y, observed=observed)
        matio.write_matrix(maskf, observed * 1.0)
        for name, args in (("a", [str(full), "--mask", str(maskf)]), ("b", [str(na)])):
            assert main(["denoise", args[0], str(tmp_path / f"{name}.txt"), "--rank", "2",
                         "--save-model", str(tmp_path / f"{name}.json"), *args[1:]]) == 0
        for suffix in (".txt", ".txt.report", ".json"):
            assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()

    @pytest.mark.parametrize("cell,message", [
        ("0.5", "row 3, field 2: mask entries must be 0 or 1: '0.5'"),
        ("NA", "row 3, field 2: mask files cannot contain missing entries: 'NA'"),
    ], ids=["fraction", "missing"])
    def test_bad_mask_cell_named_exit_2(self, tmp_path, capsys, cell, message):
        # The first bad cell in reading order, of either kind, is named.
        inp, maskf = tmp_path / "y.txt", tmp_path / "mask.txt"
        matio.write_matrix(inp, np.random.default_rng(6).standard_normal((6, 4)))
        rows = [["1"] * 4 for _ in range(6)]
        rows[2][1], rows[4][0], rows[5][3] = cell, "2", "NA"
        maskf.write_text("".join(" ".join(row) + "\n" for row in rows))
        out = tmp_path / "o.txt"
        assert main(["denoise", str(inp), str(out), "--rank", "1", "--mask", str(maskf)]) == 2
        assert capsys.readouterr().err == f"eblp: parse error: {maskf}: {message}\n"
        assert not out.exists()

    def test_empty_input_with_mask_exit_2(self, tmp_path, capsys):
        empty, maskf = tmp_path / "empty.txt", tmp_path / "mask.txt"
        empty.write_text("")
        matio.write_matrix(maskf, np.ones((2, 3)))
        out = tmp_path / "o.txt"
        assert main(["denoise", str(empty), str(out), "--rank", "1", "--mask", str(maskf)]) == 2
        assert capsys.readouterr().err == (
            "eblp: input mismatch: mask shape (2, 3) does not match input (0, 0)\n")
        assert not out.exists()

    def test_all_missing_column_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((10, 4))
        mask = np.ones((10, 4))
        mask[:, 2] = 0
        inp, maskf = tmp_path / "y.txt", tmp_path / "mask.txt"
        matio.write_matrix(inp, y)
        matio.write_matrix(maskf, mask)
        code = main(
            ["denoise", str(inp), str(tmp_path / "o.txt"), "--rank", "1",
             "--mask", str(maskf)]
        )
        assert code == 3
        assert "2" in capsys.readouterr().err   # offending coordinate listed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_extreme_magnitudes_exit_0(self, tmp_path, capsys, scale):
        # Rank-1 input: the plug-in fit is scale-equivariant, so scaling
        # the input scales the output, far beyond where a Gram matrix of
        # the raw input would overflow.
        rng = np.random.default_rng(4)
        n, p = 200, 150
        y = 3.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y += rng.standard_normal((n, p))
        outputs = []
        for factor in (1.0, scale):
            inp, out = tmp_path / f"y{factor:g}.txt", tmp_path / f"x{factor:g}.txt"
            matio.write_matrix(inp, factor * y)
            assert main(["denoise", str(inp), str(out), "--rank", "1"]) == 0
            outputs.append(matio.read_matrix(out)[0])
        base, scaled = outputs
        assert np.isfinite(scaled).all()
        assert np.max(np.abs(scaled / scale - base)) <= 1e-12 * np.max(np.abs(base))
        # Beyond about 1e154 ell_hat overflows to inf while X-hat stays
        # finite.  JSON cannot hold inf, so saving the model fails, and
        # denoise then writes none of its outputs.
        inp, out, saved = tmp_path / "y1e200.txt", tmp_path / "x1e200.txt", tmp_path / "m.json"
        matio.write_matrix(inp, 1e200 * y)
        assert main(["denoise", str(inp), str(out), "--rank", "1", "--save-model", str(saved)]) == 4
        assert capsys.readouterr().err == (
            "eblp: numeric failure: cannot save model: estimates[0].ell_hat is inf\n")
        assert not any(path.exists() for path in (out, Path(f"{out}.report"), saved))

    def test_rank_too_large_exit_4(self, tmp_path, rng):
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, rng.standard_normal((10, 6)))
        assert main(["denoise", str(inp), str(tmp_path / "o.txt"), "--rank", "99"]) == 4

    def test_rank_checked_before_input_read(self, tmp_path, capsys):
        # A missing input would exit 2; the rank fails first.
        missing = str(tmp_path / "missing.txt")
        assert main(["denoise", missing, str(tmp_path / "o.txt"), "--rank", "0"]) == 4
        assert "rank must be at least 1" in capsys.readouterr().err

    def test_na_roundtrip_with_custom_token(self, tmp_path, rng):
        y = rng.standard_normal((30, 10))
        y[rng.random((30, 10)) < 0.3] = np.nan
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, np.nan_to_num(y), observed=~np.isnan(y), na_token="?")
        out = tmp_path / "o.txt"
        code = main(["denoise", str(inp), str(out), "--rank", "1", "--na-token", "?"])
        assert code == 0
        x_hat, observed = matio.read_matrix(out)
        assert x_hat.shape == (30, 10)
        assert np.all(observed == 1)


class TestOosCommand:
    def fit_and_save(self, tmp_path, rng, n=300, p=120, delta=0.8):
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))
        z = rng.standard_normal((n, 1))
        x = np.sqrt(16.0) * z @ u.T
        masks = (rng.random((n, p)) < delta).astype(float)
        y = masks * (x + rng.standard_normal((n, p)))
        inp, out = tmp_path / "y.txt", tmp_path / "xhat.txt"
        model_path = tmp_path / "model.json"
        matio.write_matrix(inp, y, observed=masks)
        code = main(
            ["denoise", str(inp), str(out), "--rank", "1",
             "--save-model", str(model_path)]
        )
        assert code == 0
        return inp, out, model_path, x

    def test_training_rows_close_to_in_sample(self, tmp_path):
        rng = np.random.default_rng(8)
        inp, out, model_path, x = self.fit_and_save(tmp_path, rng)
        oos_out = tmp_path / "oos.txt"
        code = main(["oos", str(inp), str(oos_out), "--model", str(model_path)])
        assert code == 0
        x_in, _ = matio.read_matrix(out)
        x_oos, _ = matio.read_matrix(oos_out)
        r_in, r_oos = rmse(x_in, x), rmse(x_oos, x)
        assert abs(r_oos - r_in) <= 0.10 * r_in

    @pytest.mark.parametrize("whiten", [True, False])
    def test_na_cells_match_row_loop(self, tmp_path, whiten):
        rng = np.random.default_rng(12)
        n, p = 120, 30
        y = 4 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y += rng.standard_normal((n, p))
        observed = rng.random((n, p)) < 0.75
        model, _ = fit_in_sample(dataset_from_arrays(y * observed, observed * 1.0), 2,
                                 whiten=whiten)
        model_path = tmp_path / "model.json"
        matio.write_model(model_path, model)
        inp, out = tmp_path / "fresh.txt", tmp_path / "pred.txt"
        matio.write_matrix(inp, y[:40], observed=observed[:40])
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 0
        pred, _ = matio.read_matrix(out)
        want = loop_predict(matio.read_model(model_path), y[:40] * observed[:40],
                            observed[:40] * 1.0)
        assert pred.shape == (40, p)
        assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mask_file_matches_row_loop(self, tmp_path):
        rng = np.random.default_rng(13)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        y = 3 * rng.standard_normal((25, 40))
        mask = (rng.random((25, 40)) < 0.6) * 1.0
        inp, mask_path, out = tmp_path / "f.txt", tmp_path / "f.mask", tmp_path / "p.txt"
        matio.write_matrix(inp, y)
        matio.write_matrix(mask_path, mask)
        code = main(["oos", str(inp), str(out), "--model", str(model_path),
                     "--mask", str(mask_path)])
        assert code == 0
        pred, _ = matio.read_matrix(out)
        want = loop_predict(matio.read_model(model_path), y * mask, mask)
        assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))

    def test_missing_cell_marked_observed_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(14)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        observed = np.ones((12, 40), bool)
        observed[9, 0] = False
        inp, maskf, out = tmp_path / "f.txt", tmp_path / "f.mask", tmp_path / "p.txt"
        matio.write_matrix(inp, rng.standard_normal((12, 40)), observed=observed)
        matio.write_matrix(maskf, np.ones((12, 40)))
        capsys.readouterr()
        code = main(["oos", str(inp), str(out), "--model", str(model_path),
                     "--mask", str(maskf)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"eblp: parse error: {inp}: row 10, field 1: missing but marked observed by the mask\n")
        assert not out.exists()

    def test_empty_input_empty_output(self, tmp_path):
        rng = np.random.default_rng(9)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "oos.txt"
        assert main(["oos", str(empty), str(out), "--model", str(model_path)]) == 0
        values, _ = matio.read_matrix(out)
        assert values.shape == (0, 0)

    def test_empty_input_with_mask_exit_2(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        empty, maskf = tmp_path / "empty.txt", tmp_path / "f.mask"
        empty.write_text("")
        matio.write_matrix(maskf, np.ones((3, 40)))
        out = tmp_path / "oos.txt"
        capsys.readouterr()
        code = main(["oos", str(empty), str(out), "--model", str(model_path),
                     "--mask", str(maskf)])
        assert code == 2
        assert capsys.readouterr().err == (
            "eblp: input mismatch: mask shape (3, 40) does not match input (0, 0)\n")
        assert not out.exists()

    def test_corrupted_model_exit_2(self, tmp_path, rng):
        model_path = tmp_path / "model.json"
        model_path.write_text("garbage")
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, rng.standard_normal((3, 4)))
        out = tmp_path / "o.txt"
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 2

    @pytest.mark.parametrize("key, value", [("whitened", "false"), ("version", 2), ("n", 3.7)])
    def test_mistyped_model_field_exit_2(self, tmp_path, capsys, key, value):
        inp, _, model_path, _ = self.fit_and_save(tmp_path, np.random.default_rng(12), n=60, p=20)
        payload = json.loads(model_path.read_text())
        payload[key] = value
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "o.txt"
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 2
        assert f"{model_path}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("m_hat_diag", "1.0"), ("w_diag", True), ("u_hat", "1.0")])
    def test_non_number_model_array_exit_2(self, tmp_path, capsys, key, value):
        inp, _, model_path, _ = self.fit_and_save(tmp_path, np.random.default_rng(12), n=60, p=20)
        payload = json.loads(model_path.read_text())
        entries = payload[key][-1] if key == "u_hat" else payload[key]
        entries[:] = [value] * len(entries)
        model_path.write_text(json.dumps(payload))
        out = tmp_path / "o.txt"
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 2
        where = f"{key}[{len(payload[key]) - 1}][0]" if key == "u_hat" else f"{key}[0]"
        assert f"{model_path}: {where} must be a number, got {json.dumps(value)}" in capsys.readouterr().err
        assert not out.exists()

    def test_dimension_mismatch_exit_2(self, tmp_path):
        rng = np.random.default_rng(10)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        inp = tmp_path / "wrong.txt"
        matio.write_matrix(inp, rng.standard_normal((5, 7)))
        out = tmp_path / "o.txt"
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 2


class TestSimulateCommand:
    def test_writes_dataset_files(self, tmp_path, tiny_config):
        prefix = str(tmp_path / "dump")
        assert main(["simulate", tiny_config, prefix]) == 0
        y, observed = matio.read_matrix(prefix + ".y.txt")
        mask, _ = matio.read_matrix(prefix + ".mask.txt")
        x, _ = matio.read_matrix(prefix + ".x.txt")
        assert y.shape == mask.shape == x.shape == (50, 40)
        assert np.array_equal(observed, mask)

    def test_deterministic(self, tmp_path, tiny_config):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", tiny_config, a]) == 0
        assert main(["simulate", tiny_config, b]) == 0
        assert (tmp_path / "a.y.txt").read_text() == (tmp_path / "b.y.txt").read_text()

    def test_dumps_benchmark_replicate_zero(self, tmp_path, tiny_config):
        from eblp.benchmark import parse_benchmark_config, simulate_replicate

        prefix = str(tmp_path / "dump")
        assert main(["simulate", tiny_config, prefix, "--seed", "5"]) == 0
        exp = parse_benchmark_config(tiny_config, seed_override=5)[0]
        cfg, data = simulate_replicate(exp, 0, 0)
        assert cfg.noise.sigma == exp.sigma_grid[0]
        assert np.array_equal(matio.read_matrix(prefix + ".x.txt")[0], data.x)
        assert np.array_equal(matio.read_matrix(prefix + ".y.txt")[0], data.y)
        assert np.array_equal(matio.read_matrix(prefix + ".mask.txt")[0], data.masks)

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.cfg"))
                             + [ROOT / "bench" / "desk_campaign.cfg"],
                             ids=lambda path: f"{path.parent.name}/{path.name}")
    def test_shipped_config_parses_and_simulates(self, path):
        experiments = benchmark.parse_benchmark_config(path)
        assert experiments
        for exp in experiments:
            cfg, data = benchmark.simulate_replicate(exp, 0, 0)
            assert data.y.shape == data.masks.shape == (cfg.n, cfg.p)
            assert np.isfinite(data.y).all()


# Tokens a matrix file cannot carry: one that matches no cell, one that
# splits into two cells, one that hides the cell end, one that turns its
# row into a comment.
BAD_NA_TOKENS = ["", "a b", "x\0y", "#x"]


class TestNaTokenRules:
    @pytest.mark.parametrize("token", BAD_NA_TOKENS)
    def test_matio_rejects_token(self, tmp_path, token):
        path = tmp_path / "m.txt"
        with pytest.raises(ParseError, match="invalid NA token"):
            matio.write_matrix(path, np.ones((2, 2)), observed=np.eye(2), na_token=token)
        assert not path.exists()
        matio.write_matrix(path, np.ones((2, 2)))
        with pytest.raises(ParseError, match="invalid NA token"):
            matio.read_matrix(path, na_token=token)

    @pytest.mark.parametrize("command", ["denoise", "oos", "simulate"])
    @pytest.mark.parametrize("token", BAD_NA_TOKENS)
    def test_cli_rejects_token_before_any_file(self, tmp_path, capsys, tiny_config,
                                               command, token):
        # The input and model files do not exist: reading either would
        # fail with another message.
        missing, out = str(tmp_path / "missing.txt"), str(tmp_path / "out")
        argv = {
            "denoise": ["denoise", missing, out, "--rank", "1"],
            "oos": ["oos", missing, out, "--model", str(tmp_path / "missing.json")],
            "simulate": ["simulate", tiny_config, out],
        }[command]
        assert main(argv + ["--na-token", token]) == 2
        assert f"invalid NA token {token!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]

    def test_comment_token_no_longer_drops_rows(self, tmp_path, tiny_config, capsys):
        # A row whose first cell is missing began with the token, so a
        # '#'-led token made the reader skip that row as a comment.
        rng = np.random.default_rng(22)
        y = rng.standard_normal((40, 6))
        observed = rng.random(y.shape) < 0.7
        observed[::3, 0] = False
        inp = tmp_path / "y.txt"
        inp.write_text(per_cell_text(y, observed, "#x"))
        out = tmp_path / "x.txt"
        assert main(["denoise", str(inp), str(out), "--rank", "1", "--na-token", "#x"]) == 2
        assert "invalid NA token '#x'" in capsys.readouterr().err
        assert not out.exists()
        # The simulator refuses to write such a file in the first place.
        prefix = tmp_path / "sim"
        assert main(["simulate", tiny_config, str(prefix), "--na-token", "#x"]) == 2
        assert not (tmp_path / "sim.y.txt").exists()

    def test_numeric_sentinel_allowed(self, tmp_path):
        rng = np.random.default_rng(23)
        y = rng.standard_normal((30, 8))
        observed = rng.random(y.shape) < 0.8
        inp, out = tmp_path / "y.txt", tmp_path / "x.txt"
        matio.write_matrix(inp, y, observed=observed, na_token="-999")
        values, back = matio.read_matrix(inp, na_token="-999")
        assert np.array_equal(back, observed)
        assert np.array_equal(values, np.where(observed, y, 0.0))
        assert main(["denoise", str(inp), str(out), "--rank", "1", "--na-token", "-999"]) == 0
        assert matio.read_matrix(out)[0].shape == (30, 8)


# Words that are a valid value, or the kind of one, for some config key.
CONFIG_WORDS = {"eblp", "unwhitened", "nnrls", "dense", "sparse", "uniform", "linear", "white",
                "colored", *configparser.ConfigParser.BOOLEAN_STATES}


def is_junk(token: str) -> bool:
    """No key takes ``token``: its comma-separated pieces are all empty, or
    one of them is neither a number nor led by a word of CONFIG_WORDS."""
    pieces = [piece.strip() for piece in token.split(",")]
    if not any(pieces):
        return True
    for piece in filter(None, pieces):
        try:
            float(piece)
        except ValueError:
            if piece.partition(":")[0].strip().lower() not in CONFIG_WORDS:
                return True
    return False


class TestConfigKeys:
    # 50 examples by default, 2000 under --hypothesis-profile=ci.
    @given(key=st.sampled_from(list(benchmark._KEYS)),
           token=st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                       exclude_characters=";#"), max_size=8)
           .map(str.strip).filter(is_junk))
    @example(key="methods", token="eblp%x")  # read as written, not interpolated
    @example(key="ell", token=",")
    @example(key="random_mean", token="ture")
    def test_junk_value_exits_2_naming_the_key(self, tmp_path_factory, key, token):
        lines = [line for line in TINY_CONFIG.splitlines() if line.split(" = ")[0] != key]
        cfg = tmp_path_factory.mktemp("cfg") / "exp.cfg"
        cfg.write_text("\n".join(lines + [f"{key} = {token}"]) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["benchmark", str(cfg), str(cfg.parent / "r.txt"), "--no-timings"])
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"eblp: parse error: {cfg}: [tiny]: ")
        assert key in err.getvalue().split("[tiny]: ", 1)[1]
        assert not (cfg.parent / "r.txt").exists()


class TestBenchmarkCommand:
    def test_table_structure(self, tmp_path, tiny_config):
        out = tmp_path / "results.txt"
        assert main(["benchmark", tiny_config, str(out)]) == 0
        rows = read_results(out)
        # methods x sigma grid x replicates
        assert len(rows) == 3 * 2 * 2
        methods = {row["method"] for row in rows}
        assert methods == {"eblp", "unwhitened", "nnrls"}
        assert all(row["rmse"] >= 0 for row in rows)
        eblp_rows = [r for r in rows if r["method"] == "eblp"]
        assert all(np.isfinite(r["amse_est"]) for r in eblp_rows)

    def test_deterministic_with_no_timings(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a), "--no-timings"]) == 0
        assert main(["benchmark", tiny_config, str(b), "--no-timings"]) == 0
        assert a.read_text() == b.read_text()

    def test_timing_column_only_difference_between_runs(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a)]) == 0
        assert main(["benchmark", tiny_config, str(b)]) == 0
        rows_a, rows_b = read_results(a), read_results(b)
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("seconds"), rb.pop("seconds")
            va, vb = ra.pop("amse_est"), rb.pop("amse_est")
            assert np.isclose(va, vb, equal_nan=True)
            assert ra == rb

    def test_zero_replicates_header_only(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG.replace("replicates = 2", "replicates = 0"))
        out = tmp_path / "results.txt"
        assert main(["benchmark", str(cfg), str(out)]) == 0
        assert read_results(out) == []
        assert out.read_text().splitlines()[0].startswith("experiment method")

    def test_unknown_keys_listed(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "bogus_key = 1\nother = 2\n")
        assert main(["benchmark", str(cfg), str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and "other" in err

    @pytest.mark.parametrize("setting", [
        "nnrls_tol = nan", "nnrls_tol = inf", "nnrls_tol = 0", "nnrls_tol = -1e-7",
        "nnrls_max_iters = 0", "weight_replicates = 0",
        "sigma_grid = -1", "sigma_grid = 1,nan", "sigma_grid = inf", "gamma = nan",
        "ell = 8,nan", "ell = inf", "noise = colored:nan", "noise = colored:inf",
        "sparsity = sparse:inf", "sparsity = sparse:1.5", "sparsity = sparse:0",
        "sparsity = sparse:1",
        "rank = 2.5", "replicates = two", "seed = 1e3", "random_mean = ture",
    ])
    def test_bad_nnrls_setting_exit_2(self, tmp_path, capsys, setting):
        # The setting replaces the line of its key, if the config has one.
        key = setting.split()[0]
        lines = [line for line in TINY_CONFIG.splitlines() if line.split(" = ")[0] != key]
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("\n".join(lines + [setting]) + "\n")
        for command in (["benchmark", str(cfg), str(tmp_path / "r.txt")],
                        ["simulate", str(cfg), str(tmp_path / "sim")]):
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "[tiny]" in err and key in err
        assert not (tmp_path / "r.txt").exists()
        assert not list(tmp_path.glob("sim*"))

    @pytest.mark.parametrize("setting,message", [
        ({"sigma_grid": ()}, "empty sigma_grid"),
        ({"sigma_grid": (1.0, -1.0)}, "sigma_grid values must be nonnegative"),
        ({"nnrls_max_iters": 0}, "nnrls_max_iters must be at least 1"),
        ({"nnrls_tol": math.inf}, "nnrls_tol must be finite and positive"),
        ({"weight_replicates": 0}, "weight_replicates must be at least 1"),
        ({"methods": ("eblp", "nmf")},
         re.escape("unknown method 'nmf' (expected one of ('eblp', 'unwhitened', 'nnrls'))")),
        ({"methods": ()}, "empty methods"),
    ], ids=["empty_sigma_grid", "negative_sigma", "max_iters", "tol", "weight_replicates",
            "unknown_method", "empty_methods"])
    def test_bad_setting_rejected_in_code(self, tiny_config, setting, message):
        # The experiment checks its own settings, whoever builds it.
        from eblp.benchmark import BenchmarkExperiment, parse_benchmark_config

        good = parse_benchmark_config(tiny_config)[0]
        with pytest.raises(ValueError, match=f"^{message}$"):
            BenchmarkExperiment(**{**vars(good), **setting})

    @pytest.mark.parametrize("gamma", ["1e-300", "1e-320"])
    def test_gamma_too_small_for_a_matrix_exit_2(self, tmp_path, capsys, gamma):
        # n = round(p / gamma) rows of p = 40: n * p would not fit an index.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG.replace("gamma = 0.8", f"gamma = {gamma}"))
        assert main(["simulate", str(cfg), str(tmp_path / "sim")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: [tiny]: gamma = {float(gamma)} makes n = p / gamma too large" in err
        assert not list(tmp_path.glob("sim*"))

    @pytest.mark.parametrize("kappa", ["0", "0.5"])
    def test_colored_kappa_below_one_exit_2(self, tmp_path, capsys, kappa):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG.replace("noise = white", f"noise = colored:{kappa}"))
        assert main(["benchmark", str(cfg), str(tmp_path / "r.txt")]) == 2
        assert "kappa must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()

    @pytest.mark.parametrize("config_seed,flag", [("-3", []), ("11", ["--seed", "-5"])],
                             ids=["config", "flag"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, config_seed, flag):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG.replace("seed = 11", f"seed = {config_seed}"))
        seed = flag[1] if flag else config_seed
        for command in (["benchmark", str(cfg), str(tmp_path / "r.txt")],
                        ["simulate", str(cfg), str(tmp_path / "sim")]):
            assert main(command + flag) == 2
            assert f"{cfg}: [tiny]: seed must be nonnegative, got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()
        assert not list(tmp_path.glob("sim*"))

    @pytest.mark.parametrize("rank", ["40", "-1", "20"])
    def test_rank_out_of_range_exit_2(self, tmp_path, capsys, rank):
        # p = 20 and gamma = 0.8 give n = 25: the fits take ranks 0 to 19.
        # Linear sampling makes NNRLS calibrate its weight first, at run time.
        text = (TINY_CONFIG.replace("p = 40", "p = 20").replace("rank = 2", f"rank = {rank}")
                .replace("uniform:0.7", "linear:0.5"))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        for command in (["benchmark", str(cfg), str(tmp_path / "r.txt")],
                        ["simulate", str(cfg), str(tmp_path / "sim")]):
            assert main(command) == 2
            assert f"{cfg}: [tiny]: rank {rank} must lie in [0, 19]" in capsys.readouterr().err
        assert not (tmp_path / "r.txt").exists()
        assert not list(tmp_path.glob("sim*"))
        # NNRLS takes no rank.
        cfg.write_text(text.replace("methods = eblp,unwhitened,nnrls", "methods = nnrls"))
        assert main(["benchmark", str(cfg), str(tmp_path / "r.txt"), "--no-timings"]) == 0
        assert {row["method"] for row in read_results(tmp_path / "r.txt")} == {"nnrls"}

    def test_nnrls_settings_default_to_solver(self, tmp_path, tiny_config):
        from eblp.baselines import NnrlsConfig
        from eblp.benchmark import parse_benchmark_config

        exp = parse_benchmark_config(tiny_config)[0]
        solver = NnrlsConfig(w=1.0)
        assert (exp.nnrls_max_iters, exp.nnrls_tol) == (solver.max_iters, solver.tol)
        assert exp.weight_replicates == 20
        cfg = tmp_path / "desk.cfg"
        cfg.write_text(DESK_CONFIG + "nnrls_tol = 1e-5\n")
        exp = parse_benchmark_config(str(cfg))[0]
        assert (exp.nnrls_max_iters, exp.nnrls_tol, exp.weight_replicates) == (40, 1e-5, 4)

    def test_jobs_parallel_matches_serial(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a), "--no-timings", "--jobs", "1"]) == 0
        assert main(["benchmark", tiny_config, str(b), "--no-timings", "--jobs", "2"]) == 0
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, tiny_config, monkeypatch, jobs):
        def run_benchmark(*args, **kwargs):
            raise AssertionError("ran the campaign")

        monkeypatch.setattr(benchmark, "run_benchmark", run_benchmark)
        out = tmp_path / "r.txt"
        assert main(["benchmark", tiny_config, str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == (
            f"eblp: parse error: --jobs must be at least 1, got {jobs}\n")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_run_benchmark_rejects_jobs_below_one(self, tiny_config, jobs):
        experiments = benchmark.parse_benchmark_config(tiny_config)
        with pytest.raises(ValueError, match=f"^jobs must be at least 1, got {jobs}$"):
            benchmark.run_benchmark(experiments, jobs=jobs)

    @pytest.mark.parametrize("jobs,workers", [(["--jobs", "64"], 2), ([], 2), (["--jobs", "1"], 1)],
                             ids=["jobs-64", "default", "jobs-1"])
    def test_workers_bound_by_grid_points(self, tmp_path, monkeypatch, jobs, workers):
        # Two grid points, on 64 usable CPUs: the pool never has more
        # threads than grid points, and --jobs bounds it.
        sizes = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(benchmark, "ThreadPoolExecutor", Pool)
        on_cpus(monkeypatch, 64)
        cfg, out = tmp_path / "two.cfg", tmp_path / "r.txt"
        cfg.write_text(TINY_CONFIG.replace("sigma_grid = 1,2", "sigma_grid = 1"))
        assert main(["benchmark", str(cfg), str(out), "--no-timings", *jobs]) == 0
        assert sizes == [workers]
        assert len(read_results(out)) == 6

    def test_jobs_threads_match_one_blas_thread(self, tmp_path):
        # Campaign threads run at one BLAS thread, so a --jobs 2 table
        # equals a --jobs 1 table from a single-threaded process.
        cfg, a, b = tmp_path / "desk.cfg", tmp_path / "a.txt", tmp_path / "b.txt"
        cfg.write_text(DESK_CONFIG)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        serial = subprocess.run(
            [sys.executable, "-m", "eblp.cli", "benchmark", str(cfg), str(a),
             "--no-timings", "--jobs", "1"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert serial.returncode == 0, serial.stderr
        assert main(["benchmark", str(cfg), str(b), "--no-timings", "--jobs", "2"]) == 0
        assert len(read_results(b)) == 6
        assert a.read_text() == b.read_text()

    def test_seed_override_changes_rows(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a), "--no-timings"]) == 0
        assert main(["benchmark", tiny_config, str(b), "--no-timings", "--seed", "99"]) == 0
        assert a.read_text() != b.read_text()

    def test_sparse_pc_experiment(self, tmp_path):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(
            TINY_CONFIG.replace("[tiny]", "[sparsity]")
            .replace("p = 40", "p = 60")
            + "sparsity = sparse:10\n"
        )
        out = tmp_path / "results.txt"
        assert main(["benchmark", str(cfg), str(out)]) == 0
        rows = read_results(out)
        assert {row["method"] for row in rows} == {"eblp", "unwhitened", "nnrls"}
        assert {row["sigma"] for row in rows} == {1.0, 2.0}
        assert all(row["sparsity"] == "10" for row in rows)


class TestCampaignWiring:
    """Each campaign row equals direct library calls on its replicate's
    data, with the weight rule, column weights and noise profile that the
    README states."""

    @staticmethod
    def expected_rows(exp):
        from eblp.baselines import NnrlsConfig, nnrls, nnrls_weight_colored, nnrls_weight_white
        from eblp.simulate import generate_masks, generate_noise

        cfg = exp.config
        weights = (np.sqrt(cfg.sampling.column_probabilities(cfg.p))
                   if cfg.sampling.kind == "linear" else None)
        w_base = None
        if cfg.noise.kind == "colored" or weights is not None:
            base = dataclasses.replace(cfg, noise=dataclasses.replace(cfg.noise, sigma=1.0))
            w_base = nnrls_weight_colored(
                lambda g: generate_noise(base, base.n, g),
                lambda g: generate_masks(base, base.n, g),
                replicates=exp.weight_replicates,
                rng=np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x57454947])),
                column_weights=weights,
            )
        rows = []
        for sigma_index in range(len(exp.sigma_grid)):
            for replicate in range(cfg.replicates):
                grid_cfg, data = benchmark.simulate_replicate(exp, sigma_index, replicate)
                sigma = grid_cfg.noise.sigma
                dataset = dataset_from_arrays(data.y, data.masks)
                for method in exp.methods:
                    if method == "nnrls":
                        w = (nnrls_weight_white(sigma, cfg.p, cfg.n, int(data.masks.sum()))
                             if w_base is None else sigma * w_base)
                        config = NnrlsConfig(w=w, max_iters=exp.nnrls_max_iters,
                                             tol=exp.nnrls_tol, column_weights=weights)
                        x_hat, amse = nnrls(data.y, data.masks, config).x_hat, math.nan
                    else:
                        whiten = method == "eblp"
                        profile = grid_cfg.noise.variance_profile(cfg.p) if whiten else None
                        model, x_hat = fit_in_sample(dataset, exp.rank, whiten=whiten,
                                                     mode="plugin", noise_var_diag=profile)
                        amse = model.estimates.amse
                    rows.append((exp.name, method, sigma, replicate, rmse(x_hat, data.x), amse))
        return rows

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_equal_direct_calls(self, tmp_path, jobs):
        cfg = tmp_path / "rules.cfg"
        cfg.write_text(WEIGHT_RULES_CONFIG)
        experiments = benchmark.parse_benchmark_config(str(cfg))
        assert [exp.name for exp in experiments] == ["closed", "colored", "linear"]
        # One BLAS thread, as in the campaign.
        previous = spectral.blas_threads(1)
        try:
            rows = benchmark.run_benchmark(experiments, jobs=jobs, timings=False)
            want = [row for exp in experiments for row in self.expected_rows(exp)]
        finally:
            spectral.blas_threads(previous)
        got = [(row["experiment"], row["method"], row["sigma"], row["replicate"],
                row["rmse"], row["amse_est"]) for row in rows]
        assert len(got) == 3 * 3 * 2 * 2
        for g, w in zip(got, want):
            assert g[:5] == w[:5]
            assert g[5] == w[5] or (math.isnan(g[5]) and math.isnan(w[5])), (g, w)
        assert all(row["seconds"] == 0.0 for row in rows)


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["denoise", "save-model", "oos", "simulate", "benchmark"])
    def test_exit_2_naming_the_path(self, tmp_path, capsys, tiny_config, command):
        rng = np.random.default_rng(3)
        inp, x_hat, model = tmp_path / "y.txt", str(tmp_path / "x.txt"), tmp_path / "model.json"
        matio.write_matrix(inp, rng.standard_normal((30, 8)))
        assert main(["denoise", str(inp), x_hat, "--rank", "1", "--save-model", str(model)]) == 0
        missing = str(tmp_path / "missing" / "out")
        argv = {
            "denoise": ["denoise", str(inp), missing, "--rank", "1"],
            "save-model": ["denoise", str(inp), x_hat, "--rank", "1", "--save-model", missing],
            "oos": ["oos", str(inp), missing, "--model", str(model)],
            "simulate": ["simulate", tiny_config, missing],
            "benchmark": ["benchmark", tiny_config, missing, "--no-timings"],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("eblp: cannot write: ") and missing in err

    @pytest.mark.parametrize("target", ["x_hat", "report", "model"])
    def test_denoise_writes_nothing_when_one_target_cannot_be_written(self, tmp_path, capsys, target):
        # Checked before the input is read: the input here does not exist.
        out = tmp_path / "out"
        out.mkdir()
        x_hat, model = out / "x.txt", out / "model.json"
        if target == "x_hat":
            x_hat = out / "missing" / "x.txt"
        elif target == "report":
            (out / "x.txt.report").mkdir()
        else:
            model = out / "missing" / "model.json"
        argv = ["denoise", str(tmp_path / "absent.txt"), str(x_hat), "--rank", "1",
                "--save-model", str(model)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("eblp: cannot write: ")
        left = sorted(str(path.relative_to(out)) for path in out.rglob("*"))
        assert left == (["x.txt.report"] if target == "report" else [])

    @pytest.mark.parametrize("suffix", [".y.txt", ".mask.txt", ".x.txt"])
    def test_simulate_writes_nothing_when_one_file_cannot_be_written(self, tmp_path, capsys,
                                                                     tiny_config, suffix):
        out = tmp_path / "out"
        out.mkdir()
        (out / f"sim{suffix}").mkdir()
        assert main(["simulate", tiny_config, str(out / "sim")]) == 2
        assert capsys.readouterr().err.startswith(f"eblp: cannot write: {out / 'sim'}{suffix}")
        assert sorted(path.name for path in out.iterdir()) == [f"sim{suffix}"]

    def test_benchmark_runs_nothing_when_its_table_cannot_be_written(self, tmp_path, capsys,
                                                                     tiny_config, monkeypatch):
        from eblp import benchmark

        def run_benchmark(*args, **kwargs):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(benchmark, "run_benchmark", run_benchmark)
        missing = tmp_path / "missing" / "r.txt"
        assert main(["benchmark", tiny_config, str(missing), "--no-timings"]) == 2
        assert capsys.readouterr().err.startswith(f"eblp: cannot write: {missing}")
        assert not missing.parent.exists()


# A child that runs ``denoise`` and ``oos`` through ``main``, on one CPU
# when told so: pinned before numpy loads, OpenBLAS starts one thread.
PINNED_CHILD = """
import os, sys
cpus, train, fresh, out = sys.argv[1:]
if cpus == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from eblp.cli import main
model = os.path.join(out, "model.json")
assert main(["denoise", train, os.path.join(out, "xhat.txt"), "--rank", "2",
             "--save-model", model]) == 0
assert main(["oos", fresh, os.path.join(out, "pred.txt"), "--model", model]) == 0
"""


@pytest.mark.skipif(spectral._SET_THREADS is None,
                    reason="numpy's BLAS exports no OpenBLAS thread count")
class TestBlasThreads:
    @pytest.mark.parametrize("error,code", [(None, 0), (ShapeError("bad shape"), 2),
                                            (RankError("bad rank"), 4)])
    def test_main_runs_at_one_thread_and_restores_the_callers(self, monkeypatch, error, code):
        seen = []

        def command(args):
            seen.append(spectral._GET_THREADS())
            if error is not None:
                raise error
            return 0

        monkeypatch.setattr(cli, "cmd_oos", command)
        previous = spectral.blas_threads(2)
        try:
            assert main(["oos", "in.txt", "out.txt", "--model", "m.json"]) == code
            assert spectral._GET_THREADS() == 2
        finally:
            spectral.blas_threads(previous)
        assert seen == [1]

    def test_desk_table_does_not_depend_on_jobs(self, tmp_path):
        cfg, a, b, c = (tmp_path / name for name in ("desk.cfg", "a.txt", "b.txt", "c.txt"))
        cfg.write_text(DESK_CONFIG)
        assert main(["benchmark", str(cfg), str(a), "--no-timings", "--jobs", "1"]) == 0
        assert main(["benchmark", str(cfg), str(b), "--no-timings", "--jobs", "2"]) == 0
        assert main(["benchmark", str(cfg), str(c), "--no-timings"]) == 0
        assert len(read_results(a)) == 6
        assert a.read_text() == b.read_text() == c.read_text()

    @pytest.mark.parametrize("fail", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_campaign_runs_at_one_thread_and_restores_the_callers(self, tiny_config, monkeypatch,
                                                                   jobs, fail):
        seen, run_task = [], benchmark._run_task

        def task(point):
            seen.append(spectral._GET_THREADS())
            if fail:
                raise RankError("bad rank")
            return run_task(point)

        monkeypatch.setattr(benchmark, "_run_task", task)
        experiments = benchmark.parse_benchmark_config(tiny_config)
        previous = spectral.blas_threads(2)
        try:
            with pytest.raises(RankError) if fail else contextlib.nullcontext():
                assert len(benchmark.run_benchmark(experiments, jobs=jobs)) == 12
            assert spectral._GET_THREADS() == 2
        finally:
            spectral.blas_threads(previous)
        assert seen and set(seen) == {1}

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="needs two CPUs")
    def test_outputs_do_not_depend_on_the_cpus(self, tmp_path, rng):
        # Desk-sized, where OpenBLAS splits products over its threads.
        y, _, _ = spiked_white_data(rng, 425, 300, np.array([10.0, 5.0]))
        observed = rng.random(y.shape) < 0.8
        train, fresh = tmp_path / "train.txt", tmp_path / "fresh.txt"
        matio.write_matrix(train, y[:375], observed=observed[:375])
        matio.write_matrix(fresh, y[375:], observed=observed[375:])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        outputs = {}
        for cpus in ("one", "all"):
            out = tmp_path / cpus
            out.mkdir()
            child = subprocess.run(
                [sys.executable, "-c", PINNED_CHILD, cpus, str(train), str(fresh), str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert child.returncode == 0, child.stderr
            outputs[cpus] = {name: (out / name).read_bytes() for name in
                             ("xhat.txt", "xhat.txt.report", "model.json", "pred.txt")}
        assert outputs["one"] == outputs["all"]
