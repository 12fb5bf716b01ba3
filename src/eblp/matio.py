"""Text formats used by the command-line tools.

Matrices are whitespace-delimited rows (samples), a line whose first
non-blank character is ``#`` is a comment, and missing entries are a
configurable token (default ``NA``).  Every other cell must be a finite
number.  The NA token must be one field that no reader mistakes for
something else: nonempty, without whitespace or NUL bytes, and not
starting with ``#``.

Every value is written as exactly the text of ``'%.17g' % value`` (17
significant digits, so values round-trip).  Cells with
1e-4 <= |x| < 1e16, where ``%.17g`` uses fixed notation, are formatted a
block at a time by exact arithmetic on whole arrays; every other cell,
and every exact rounding tie, goes through ``'%.17g'`` itself.

Fitted models are stored as JSON with finite numbers only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError, ShapeError
from .pipeline import EblpModel
from .shrinkage import SpikeEstimate

__all__ = [
    "check_na_token",
    "read_matrix",
    "write_matrix",
    "read_mask",
    "write_model",
    "read_model",
    "write_results",
    "read_results",
    "RESULT_COLUMNS",
]

_FMT = "%.17g"


def check_na_token(na_token: str) -> None:
    """Raise ParseError unless ``na_token`` reads back as one whole cell."""
    token = na_token.encode()
    if token.split() != [token]:
        problem = "it is empty" if not token else "it contains whitespace"
    elif b"\0" in token:
        problem = "it contains a NUL byte"
    elif token.startswith(b"#"):
        problem = "a row starting with it would be read as a comment"
    else:
        return
    raise ParseError(f"invalid NA token {na_token!r}: {problem}")


def _data_lines(path) -> list[bytes]:
    """The file's lines without blank lines and whole-line ``#`` comments."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return [
        line
        for line in data.splitlines()
        if line.strip() and not line.lstrip().startswith(b"#")
    ]


_PARSE_CELLS = 1 << 18  # cells per parsed block of lines


def read_matrix(path, na_token: str = "NA") -> tuple[np.ndarray, np.ndarray]:
    """Read a delimited matrix; returns (values, observed) where missing
    entries are 0 in ``values`` and 0 in the observed indicator.

    A cell is the NA token or a finite number in any spelling ``float()``
    accepts; anything else raises ParseError naming its row and field.
    """
    check_na_token(na_token)
    lines = _data_lines(path)
    if not lines:
        return np.zeros((0, 0)), np.zeros((0, 0))
    na = na_token.encode()
    width = len(lines[0].split())
    values = np.empty((len(lines), width))
    observed = np.empty((len(lines), width))
    step = max(1, _PARSE_CELLS // width)
    for first in range(0, len(lines), step):
        block = lines[first : first + step]
        try:
            tokens = _token_array(block)
            if tokens.shape[1] != width:
                raise ValueError("rows of different lengths")
            missing = tokens == na
            tokens[missing] = b"0"
            part = tokens.astype(float)
        except ValueError as exc:
            _raise_first_bad_cell(path, block, na, width, first)
            raise ParseError(f"{path}: {exc}") from exc
        bad = ~np.isfinite(part)
        if bad.any():
            i, j = np.unravel_index(np.argmax(bad), bad.shape)
            raise ParseError(
                _bad_cell(path, first + i, j, tokens[i, j], "not a finite number")
            )
        values[first : first + len(block)] = part
        np.logical_not(missing, out=observed[first : first + len(block)])
    return values, observed


def _token_array(lines: list[bytes]) -> np.ndarray:
    """Every whitespace-separated token as fixed-width bytes, one row per line."""
    if any(b"\0" in line for line in lines):
        # Fixed-width bytes drop trailing NULs, which would hide the bad cell.
        raise ValueError("NUL byte in matrix text")
    width = 32  # %.17g tokens take at most 24 bytes
    while True:
        tokens = np.loadtxt(lines, dtype=f"S{width}", comments=None, ndmin=2)
        # A token that fills its slot may have been cut short: read wider.
        if not tokens.view(np.uint8)[:, width - 1 :: width].any():
            return tokens
        width *= 2


def _raise_first_bad_cell(path, lines: list[bytes], na: bytes, width: int, first: int) -> None:
    """Raise ParseError at the first ragged row or bad cell, if any, in
    reading order; ``lines`` start at data row ``first`` (0-based) and rows
    must have ``width`` fields.  Only input that failed the vectorized
    parse gets here."""
    for i, line in enumerate(lines, start=first):
        tokens = line.split()
        if len(tokens) != width:
            raise ParseError(
                f"{path}: row {i + 1} has {len(tokens)} fields, expected {width}"
            )
        for j, tok in enumerate(tokens):
            if tok == na:
                continue
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(_bad_cell(path, i, j, tok, "not a number")) from None
            if not math.isfinite(value):
                raise ParseError(_bad_cell(path, i, j, tok, "not a finite number"))


def _bad_cell(path, i: int, j: int, token: bytes, problem: str) -> str:
    shown = token.decode(errors="backslashreplace")
    return f"{path}: row {i + 1}, field {j + 1}: {problem}: {shown!r}"


def write_matrix(path, matrix, observed=None, na_token: str = "NA") -> None:
    """Write a 2-d ``matrix`` one row per line, each value as
    ``'%.17g' % value`` and each cell where ``observed`` (same shape) is
    false as ``na_token``."""
    check_na_token(na_token)
    matrix = np.asarray(matrix, dtype=float)
    rows, width = matrix.shape
    cells = np.ascontiguousarray(matrix).reshape(-1)
    if observed is not None:
        observed = np.asarray(observed, dtype=bool)
        if observed.shape != matrix.shape:
            raise ShapeError(
                f"observed shape {observed.shape} does not match matrix {matrix.shape}"
            )
        observed = np.ascontiguousarray(observed).reshape(-1)
    with open(path, "wb") as handle:
        if width == 0:
            handle.write(b"\n" * rows)
            return
        formatter = _BlockFormatter(min(cells.size, _BLOCK), na_token.encode())
        for first in range(0, cells.size, _BLOCK):
            block = slice(first, first + _BLOCK)
            handle.write(formatter(
                cells[block], first, width, None if observed is None else observed[block]
            ))


# The fast path of write_matrix.  For 1e-4 <= |x| < 1e16, '%.17g' prints x
# in fixed notation from its decimal exponent k (-4 <= k <= 15) and the
# 17-digit significand N = round(|x| * 10**(16 - k)).  10**m is an exact
# double for m <= 22, so Dekker's TwoProduct with Veltkamp splitting gives
# |x| * 10**(16 - k) exactly as prod + err; prod is then an even integer
# (it exceeds 2**53), so N = prod + rint(err), except at exact ties
# |err - rint(err)| == 0.5, which are left to '%.17g' with 0, NaN, +-inf,
# subnormals and every other magnitude.  No double in the range lies close
# enough below a power of ten to round up to it at 17 digits, so k is also
# the exponent '%.17g' uses.
_BLOCK = 1 << 15  # cells formatted at a time
_SLOT = 25  # bytes per cell: the longest text, '-1.2345678901234567e-308', and a separator
_SPLIT = 134217729.0  # 2**27 + 1
_POW10 = np.array([float(10**m) for m in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# ASCII digits of 0..9999, one column per number.
_DIGITS4 = (ord("0") + np.indices((10,) * 4, dtype=np.uint8)).reshape(4, -1)


def _times_pow10(a, m, prod=None, err=None, hi=None, lo=None, t1=None, t2=None):
    """(prod, err) with prod + err == a * 10**m exactly, for 0 <= m <= 22
    and 1e-5 < a < 1e17; the other arguments are optional work arrays."""
    hi = np.multiply(a, _SPLIT, out=hi)
    lo = np.subtract(hi, a, out=lo)
    np.subtract(hi, lo, out=hi)  # the high 26 bits of a
    np.subtract(a, hi, out=lo)  # and the rest
    prod = np.multiply(a, _POW10.take(m, out=t1, mode="clip"), out=prod)
    ph = _POW10_HI.take(m, out=t1, mode="clip")
    pl = _POW10_LO.take(m, out=t2, mode="clip")
    err = np.multiply(hi, ph, out=err)
    err -= prod
    err += np.multiply(hi, pl, out=hi)
    err += np.multiply(lo, ph, out=ph)
    err += np.multiply(lo, pl, out=lo)
    return prod, err


class _BlockFormatter:
    """Formats blocks of up to ``size`` cells as text.  The work arrays
    are reused from block to block: fresh ones would page-fault on every
    block."""

    def __init__(self, size: int, na: bytes):
        self.size, self.na = size, na
        self.slot = slot = max(_SLOT, len(na) + 1)
        self.floats = np.empty((7, size))
        self.ints = np.empty((5, size), np.intp)
        self.flags = np.empty((2, size), bool)
        self.bytes = np.empty((3, size), np.uint8)
        # Column c of `digits` is '0000' then cell c's 17 digits, from row 2.
        self.digits = np.zeros((slot + 1, size), np.uint8)
        self.digits[:7] = ord("0")
        # Cell c's text is column c of `text`, from its first nonzero byte
        # to its separator; the transpose `cells` holds it as one row.
        self.text = np.empty((slot, size), np.uint8)
        self.mask = np.empty((slot, size), np.uint8)
        self.cells = np.empty((size, slot), np.uint8)
        self.keep = np.empty(size * slot, bool)
        self.rows = np.arange(slot, dtype=np.uint8)[:, None]
        self.index = np.arange(size)

    def __call__(self, x, first: int, width: int, seen) -> np.ndarray:
        """The text of cells ``first, first + 1, ...`` of a matrix with
        ``width`` columns, whose values are ``x``."""
        s = x.size
        a, prod, err, hi, lo, t1, t2 = self.floats[:, :s]
        k, n, g, pos = self.ints[:4, :s]
        fast, flag = self.flags[:, :s]
        start, point, end = self.bytes[:, :s]
        digits, text, mask = self.digits[:, :s], self.text[:, :s], self.mask[:, :s]

        np.absolute(x, out=a)
        np.greater_equal(a, 1e-4, out=fast)
        fast &= np.less(a, 1e16, out=flag)
        if seen is not None:
            fast &= seen
        np.copyto(a, 2.0, where=np.logical_not(fast, out=flag))  # replaced below

        # k = floor(log10(a)), which log10 may miss by one next to a power
        # of ten: step k until 10**16 <= N < 10**17.
        np.floor(np.log10(a, out=t1), out=t1)
        np.copyto(k, t1, casting="unsafe")
        np.subtract(16, k, out=g)
        _times_pow10(a, g, prod, err, hi, lo, t1, t2)
        off = np.flatnonzero((prod <= 1e16) | (prod >= 1e17))
        while off.size:
            p, e = prod[off], err[off]
            step = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
            step -= (p < 1e16) | ((p == 1e16) & (e < 0))
            off = off[step != 0]
            k[off] += step[step != 0]
            prod[off], err[off] = _times_pow10(a[off], 16 - k[off])
        np.rint(err, out=t1)
        fast &= np.not_equal(np.absolute(np.subtract(err, t1, out=t2), out=t2), 0.5, out=flag)
        np.copyto(n, prod, casting="unsafe")
        np.copyto(g, t1, casting="unsafe")
        n += g

        # The digits: N's first digit ('000' before it) and four groups of four.
        for row, scale in ((3, 10**16), (7, 10**12), (11, 10**8), (15, 10**4), (19, 1)):
            np.floor_divide(n, scale, out=g)
            np.take(_DIGITS4, g, axis=1, out=digits[row : row + 4], mode="clip")
            n -= np.multiply(g, scale, out=g)

        # Text rows: digits shifted up by one before the point's row
        # 6 + k, so that k + 1 digits (or '0' for k < 0) precede the point.
        np.add(k, 6, out=pos)
        np.copyto(point, pos, casting="unsafe")
        np.negative(np.less(self.rows, point, out=mask.view(bool)).view(np.uint8), out=mask)
        np.bitwise_xor(digits[:-1], digits[1:], out=text)
        text &= mask
        text ^= digits[:-1]
        self._set(pos, ord("."))
        # The text starts at row 4 + min(k, 0), or a '-' one row before.
        np.minimum(k, 0, out=pos)
        pos += 4
        np.copyto(start, pos, casting="unsafe")
        start += np.greater_equal(x, 0, out=flag)
        self._set(pos, ord("-"))

        # It ends after its last nonzero digit, or before the point if that
        # digit precedes it; the separator goes there.
        np.greater(text, ord("0"), out=mask.view(bool))
        mask *= self.rows
        np.maximum.reduce(mask, axis=0, out=end)
        end += np.greater(end, point, out=flag)
        np.maximum(end, point, out=end)
        np.add(self.index[:s], first + 1, out=g)
        newline = np.equal(np.remainder(g, width, out=g), 0, out=flag)
        separator = np.where(newline, np.uint8(ord("\n")), np.uint8(ord(" ")))
        np.copyto(pos, end)
        self._set(pos, separator)
        # Zero every byte outside the text: rows start..end.
        np.subtract(self.rows, start, out=mask)
        end -= start  # both relative to the start, modulo 256
        np.negative(np.less_equal(mask, end, out=mask.view(bool)).view(np.uint8), out=mask)
        text &= mask

        slow = np.flatnonzero(~fast)
        if slow.size:
            if seen is not None:
                gone = ~seen[slow]
                self._put(slow[gone], [self.na] * int(gone.sum()), separator)
                slow = slow[~gone]
            self._put(slow, [(_FMT % v).encode() for v in x[slow].tolist()], separator)

        cells = self.cells[:s]
        np.copyto(cells, text.T)
        flat = cells.reshape(-1)
        keep = np.not_equal(flat, 0, out=self.keep[: flat.size])
        return flat[keep]

    def _set(self, rows, value) -> None:
        """Set row ``rows[c]`` of the text of cell c to ``value``."""
        cell = self.ints[4, : rows.size]
        np.multiply(rows, self.size, out=cell)
        cell += self.index[: rows.size]
        self.text.reshape(-1)[cell] = value

    def _put(self, where, texts: list[bytes], separator) -> None:
        """Replace the text of cells ``where`` by ``texts``."""
        if not texts:
            return
        block = np.array(texts, dtype=f"S{self.slot}").view(np.uint8).reshape(-1, self.slot).T
        lengths = [len(t) for t in texts]
        block[lengths, np.arange(len(texts))] = separator[where]
        self.text[:, where] = block


def read_mask(path) -> np.ndarray:
    values, observed = read_matrix(path)
    if not np.all(observed):
        raise ParseError(f"{path}: mask files cannot contain missing entries")
    if values.size and not np.all(np.isin(values, (0.0, 1.0))):
        raise ParseError(f"{path}: mask entries must be 0 or 1")
    return values


MODEL_FORMAT = "eblp-model"
MODEL_VERSION = 1


def write_model(path, model: EblpModel) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "rank": model.rank,
        "whitened": model.whitened,
        "n": model.n,
        "m_hat_diag": model.m_hat_diag.tolist(),
        "w_diag": model.w_diag.tolist(),
        "mean": model.mean.tolist(),
        "u_hat": model.u_hat.T.tolist(),     # one list per component
        "estimates": [
            {
                "ell_hat": e.ell_hat,
                "c2_hat": e.c2_hat,
                "ct2_hat": e.ct2_hat,
                "lambda_star": e.lambda_star,
                "sigma_obs": e.sigma_obs,
                "supercritical": e.supercritical,
                "clamped": e.clamped,
            }
            for e in model.estimates
        ],
    }
    Path(path).write_text(json.dumps(payload, allow_nan=False))


def read_model(path) -> EblpModel:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse model file {path}: {exc}") from exc
    # Every value is checked before the model, and with it the prediction
    # operator, is built.
    try:
        if payload["format"] != MODEL_FORMAT:
            raise ParseError(f"{path}: not a model file")
        m_hat = np.asarray(payload["m_hat_diag"], dtype=float)
        p = m_hat.size
        arrays = {
            "m_hat_diag": m_hat,
            "w_diag": np.asarray(payload["w_diag"], dtype=float),
            "mean": np.asarray(payload["mean"], dtype=float),
            "u_hat": np.asarray(payload["u_hat"], dtype=float).reshape(-1, p).T,
        }
        estimates = [SpikeEstimate(**entry) for entry in payload["estimates"]]
        rank = int(payload["rank"])
        whitened = bool(payload["whitened"])
        n = int(payload["n"])
        for name, values in arrays.items():
            if not np.all(np.isfinite(values)):
                raise ParseError(f"{path}: non-finite value in {name}")
        for k, entry in enumerate(payload["estimates"]):
            for name, value in entry.items():
                if not math.isfinite(value):
                    raise ParseError(
                        f"{path}: non-finite value in estimates[{k}].{name}"
                    )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file: {exc}") from exc
    u_hat = arrays["u_hat"]
    if arrays["w_diag"].size != p or arrays["mean"].size != p:
        raise ParseError(f"{path}: inconsistent model dimensions")
    if len(estimates) != u_hat.shape[1]:
        raise ParseError(f"{path}: estimates do not match component count")
    if rank != u_hat.shape[1]:
        raise ParseError(
            f"{path}: rank {rank} does not match the "
            f"{u_hat.shape[1]} components in u_hat"
        )
    return EblpModel(
        v_hat=np.zeros((0, u_hat.shape[1])),
        estimates=estimates,
        rank=rank,
        whitened=whitened,
        n=n,
        **arrays,
    )


RESULT_COLUMNS = (
    "experiment",
    "method",
    "sigma",
    "delta",
    "kappa",
    "sparsity",
    "replicate",
    "rmse",
    "seconds",
    "amse_est",
)

_NUMERIC_COLUMNS = {"sigma", "delta", "kappa", "rmse", "seconds", "amse_est"}


def write_results(path, rows: list[dict]) -> None:
    lines = [" ".join(RESULT_COLUMNS)]
    for row in rows:
        fields = []
        for col in RESULT_COLUMNS:
            val = row[col]
            if col == "replicate":
                fields.append(str(int(val)))
            elif col in _NUMERIC_COLUMNS:
                fields.append(_FMT % float(val))
            else:
                fields.append(str(val))
        lines.append(" ".join(fields))
    Path(path).write_text("\n".join(lines) + "\n")


def read_results(path) -> list[dict]:
    rows = [line.decode().split() for line in _data_lines(path)]
    if not rows or tuple(rows[0]) != RESULT_COLUMNS:
        raise ParseError(f"{path}: missing or unexpected results header")
    out = []
    for tokens in rows[1:]:
        if len(tokens) != len(RESULT_COLUMNS):
            raise ParseError(f"{path}: malformed results row: {tokens}")
        row = dict(zip(RESULT_COLUMNS, tokens))
        row["replicate"] = int(row["replicate"])
        for col in _NUMERIC_COLUMNS:
            row[col] = float(row[col])
        out.append(row)
    return out
