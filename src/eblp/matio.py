"""Text formats used by the command-line tools.

Matrices are whitespace-delimited rows (samples), a line whose first
non-blank character is ``#`` is a comment, and missing entries are a
configurable token (default ``NA``).  Every other cell must be a finite
number.  The NA token must be one field that no reader mistakes for
something else: nonempty, without whitespace or NUL bytes, and not
starting with ``#``.

Every cell reads as exactly ``float(token)``.  Tokens spelled
``[-]digits[.digits]`` are converted a block at a time by exact
arithmetic on whole arrays; every other spelling, and every value the
block arithmetic cannot certify, goes through ``float()`` itself.

Every value is written as exactly the text of ``'%.17g' % value`` (17
significant digits, so values round-trip).  Cells with
1e-4 <= |x| < 1e16, where ``%.17g`` uses fixed notation, are formatted a
block at a time by exact arithmetic on whole arrays; every other cell,
and every exact rounding tie, goes through ``'%.17g'`` itself.

Both kernels are plain functions of one block (``_parse_block`` and
``_format_block``): every array they use is made for that block, and
nothing is kept from one block to the next.  So a file of more than two
blocks is parsed or formatted on up to two threads (as many as the CPUs
the process may run on, at most two), and its blocks are taken in file
order: the bytes written, the values read and the bad cell named do not
depend on the thread count.

Fitted models are stored as JSON with finite numbers only.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import fields
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParseError, ShapeError
from .pipeline import EblpModel
from .shrinkage import SpikeEstimates

__all__ = [
    "check_na_token",
    "read_matrix",
    "write_matrix",
    "read_mask",
    "write_model",
    "read_model",
    "write_results",
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


def _data_lines(path) -> Iterator[bytes]:
    """The file's lines without blank lines and whole-line ``#`` comments,
    read a few at a time.  A line ends at ``\\n``, ``\\r\\n`` or ``\\r``."""
    try:
        # Latin-1 maps bytes to characters one to one, and universal
        # newlines split lines exactly as bytes.splitlines() does.
        handle = open(path, encoding="latin-1", newline=None)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with handle:
        try:
            for text in handle:
                line = text.encode("latin-1")
                if line.strip() and not line.lstrip().startswith(b"#"):
                    yield line
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc


def _in_order(work: Callable, items: Iterable) -> Iterator[tuple]:
    """``(item, result)`` for each of ``items`` in order, where ``result()``
    gives ``work(item)`` or raises what it raised.  Given more items than
    two and two CPUs or more, the calls run on two threads, with at most
    three items in flight: two being worked on and one with the caller.
    Fewer items run inline, where starting the threads costs about what
    they would save."""
    items = iter(items)
    head = list(itertools.islice(items, 3))
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    if len(head) < 3 or len(cpus) < 2:
        for item in itertools.chain(head, items):
            yield item, functools.partial(work, item)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(2) as pool:
        pending = collections.deque()
        for item in itertools.chain(head, items):
            pending.append((item, pool.submit(work, item).result))
            if len(pending) > 2:
                yield pending.popleft()
        while pending:
            yield pending.popleft()


_PARSE_CELLS = 1 << 16  # cells per parsed block of lines


def read_matrix(path, na_token: str = "NA") -> tuple[np.ndarray, np.ndarray]:
    """Read a delimited matrix; returns (values, observed) where missing
    entries are 0 in ``values`` and 0 in the observed indicator.

    A cell is the NA token or a finite number in any spelling ``float()``
    accepts, read as exactly the value ``float()`` gives; anything else
    raises ParseError naming its row and field.
    """
    check_na_token(na_token)
    lines = _data_lines(path)
    head = next(lines, None)
    if head is None:
        return np.zeros((0, 0)), np.zeros((0, 0))
    na = na_token.encode()
    width = len(head.split())
    step = max(1, _PARSE_CELLS // width)
    lines = itertools.chain([head], lines)
    try:
        size = os.stat(path).st_size
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    blocks = iter(lambda: list(itertools.islice(lines, step)), [])
    values = observed = None
    first = 0
    for block, result in _in_order(lambda block: _parse_block(block, na, width), blocks):
        try:
            part, seen = result()
        except ValueError as exc:
            _raise_first_bad_cell(path, block, na, width, first)
            raise ParseError(f"{path}: {exc}") from exc
        end = first + len(block)
        if values is None:
            # Rows are counted only at the end of the file, and growing an
            # array may copy it: make room for the rows the file holds at
            # the first block's bytes per row and a sixteenth more, grow by
            # a quarter if that is short, and trim at the end.
            text = sum(map(len, block)) + len(block)
            rows = end + end * max(size - text, 0) // text
            values = np.empty((rows + rows // 16, width))
            observed = np.empty((rows + rows // 16, width))
        if end > len(values):
            rows = max(end, len(values) + len(values) // 4)
            values.resize((rows, width), refcheck=False)
            observed.resize((rows, width), refcheck=False)
        values[first:end] = part
        observed[first:end] = seen
        first = end
    values.resize((first, width), refcheck=False)
    observed.resize((first, width), refcheck=False)
    return values, observed


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
    na = na_token.encode()
    with open(path, "wb") as handle:
        if width == 0:
            handle.write(b"\n" * rows)
            return

        def block(first):
            seen = None if observed is None else observed[first : first + _BLOCK]
            return _format_block(cells[first : first + _BLOCK], first, width, seen, na)

        for _, text in _in_order(block, range(0, cells.size, _BLOCK)):
            handle.write(text())


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


def _times_pow10(a, m):
    """(prod, err) with prod + err == a * 10**m exactly, for 0 <= m <= 22
    and a = 0 or 1e-23 < a < 1e20."""
    hi = a * _SPLIT
    hi -= hi - a  # the high 26 bits of a
    lo = a - hi  # and the rest
    prod = a * _POW10.take(m, mode="clip")
    ph, pl = _POW10_HI.take(m, mode="clip"), _POW10_LO.take(m, mode="clip")
    err = hi * ph
    err -= prod
    err += hi * pl
    err += lo * ph
    err += lo * pl
    return prod, err


def _format_block(x, first: int, width: int, seen, na: bytes) -> np.ndarray:
    """The text of cells ``first, first + 1, ...`` of a matrix with
    ``width`` columns, whose values are ``x``; cells where ``seen`` (if
    given) is false read ``na``."""
    s = x.size
    slot = max(_SLOT, len(na) + 1)
    rows = np.arange(slot, dtype=np.uint8)[:, None]
    index = np.arange(s)
    a = np.absolute(x)
    fast = (a >= 1e-4) & (a < 1e16)
    if seen is not None:
        fast &= seen
    a[~fast] = 2.0  # replaced below

    # k = floor(log10(a)), which log10 may miss by one next to a power
    # of ten: step k until 10**16 <= N < 10**17.
    k = np.floor(np.log10(a)).astype(np.intp)
    prod, err = _times_pow10(a, 16 - k)
    off = np.flatnonzero((prod <= 1e16) | (prod >= 1e17))
    while off.size:
        p, e = prod[off], err[off]
        step = ((p > 1e17) | ((p == 1e17) & (e >= 0))).astype(np.intp)
        step -= (p < 1e16) | ((p == 1e16) & (e < 0))
        off = off[step != 0]
        k[off] += step[step != 0]
        prod[off], err[off] = _times_pow10(a[off], 16 - k[off])
    carry = np.rint(err)
    fast &= np.absolute(err - carry) != 0.5
    n = prod.astype(np.intp) + carry.astype(np.intp)

    # Column c of `digits` is '0000' then cell c's 17 digits, from row 2:
    # N's first digit ('000' before it) and four groups of four.
    digits = np.zeros((slot + 1, s), np.uint8)
    digits[:3] = ord("0")
    for row, scale in ((3, 10**16), (7, 10**12), (11, 10**8), (15, 10**4), (19, 1)):
        group = n // scale
        digits[row : row + 4] = _DIGITS4.take(group, axis=1, mode="clip")
        n -= group * scale

    # Cell c's text is column c of `text`, from its first nonzero byte to
    # its separator.  Text rows: digits shifted up by one before the
    # point's row 6 + k, so that k + 1 digits (or '0' for k < 0) precede
    # the point.
    point = (k + 6).astype(np.uint8)
    text = digits[:-1] ^ digits[1:]
    text &= np.negative((rows < point).view(np.uint8))
    text ^= digits[:-1]
    text.reshape(-1)[(k + 6) * s + index] = ord(".")
    # The text starts at row 4 + min(k, 0), or a '-' one row before.
    minus = np.minimum(k, 0) + 4
    start = minus.astype(np.uint8) + (x >= 0)
    text.reshape(-1)[minus * s + index] = ord("-")

    # It ends after its last nonzero digit, or before the point if that
    # digit precedes it; the separator goes there.
    end = np.maximum.reduce((text > ord("0")).view(np.uint8) * rows, axis=0)
    end += end > point
    np.maximum(end, point, out=end)
    newline = (index + (first + 1)) % width == 0
    separator = np.where(newline, np.uint8(ord("\n")), np.uint8(ord(" ")))
    text.reshape(-1)[end.astype(np.intp) * s + index] = separator
    # Zero every byte outside the text: rows start..end, both taken
    # relative to the start, modulo 256.
    text &= np.negative(((rows - start) <= (end - start)).view(np.uint8))

    # One row per cell; the cells the fast path left take their text
    # from '%.17g' or the NA token.
    cells = np.ascontiguousarray(text.T)
    slow = np.flatnonzero(~fast)
    if slow.size:
        shown = itertools.repeat(True) if seen is None else seen[slow].tolist()
        texts = [(_FMT % v).encode() if ok else na for v, ok in zip(x[slow].tolist(), shown)]
        block = np.array(texts, dtype=f"S{slot}").view(np.uint8).reshape(-1, slot)
        block[np.arange(slow.size), [len(t) for t in texts]] = separator[slow]
        cells[slow] = block
    cells = cells.reshape(-1)
    return cells[cells != 0]


# The fast path of read_matrix.  A token spelled [-]digits[.digits], with
# at most 19 digits from its first nonzero one and f <= 22 after the point,
# is N / 10**f for an integer N < 10**19 (exact in uint64) and an exact
# double 10**f.  For N <= 2**53, N is an exact double too, so one correctly
# rounded division gives float(token) (Clinger's fast path).  Above 2**53,
# q = fl(fl(N) / 10**f) lies within 1.5 ulps of the value, and its residual
# N - q * 10**f is exact: TwoProduct gives q * 10**f as prod + err, prod is
# then an integer below 2**64, and the residual is a multiple of
# min(ulp(q) * 2**f, 1) that is fewer than 2**53 of them.  q is
# float(token) when the residual is strictly inside half an ulp of q times
# 10**f, and the neighbour the residual points to is when it is strictly
# outside.  Exact ties, a q that is a power of two (whose ulp below is half
# the one above) and every other spelling (exponents, '+', '_', 'inf',
# 'nan', tokens of over 24 bytes) go through float() itself.
_PARSE_BLOCK = 1 << 14  # observed cells converted at a time
_TEXT = 24  # leading bytes of a token that the fast path reads
_ROW = np.arange(_TEXT, dtype=np.uint8)[:, None]
_COLUMN = np.arange(_TEXT + 1)[:, None]
_EXPONENT = np.uint64(0x7FF0000000000000)
_MANTISSA = np.uint64(0x000FFFFFFFFFFFFF)


def _parse_block(lines: list[bytes], na: bytes, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, observed) of ``lines`` of ``width`` cells each, where
    ``na`` cells are missing; raises ValueError at a ragged row or at a
    cell that is neither ``na`` nor a finite number."""
    # The text framed by spaces, with NUL bytes after it so that every
    # token's window runs on.
    text = b"".join([b" ", *lines, b" " + bytes(_TEXT + 1)])
    if text.find(b"\0") < len(text) - _TEXT - 1:
        # _convert takes NUL bytes for padding, which would hide the cell.
        raise ValueError("NUL byte in matrix text")
    buf = np.frombuffer(text, np.uint8)
    # Whitespace is what bytes.split() splits on: '\t', '\n', '\x0b',
    # '\x0c', '\r' and ' '.
    code = buf[: -_TEXT - 1]
    edges = np.flatnonzero(np.diff((code - np.uint8(9) < 5) | (code == ord(" ")))) + 1
    starts, ends = edges[0::2], edges[1::2]
    # Row i holds tokens i * width to (i + 1) * width - 1 when there are
    # that many and each row's first and last token lie on its line.
    line_ends = np.cumsum([len(line) for line in lines]) + 1
    if (starts.size != len(lines) * width or (starts[width::width] < line_ends[:-1]).any()
            or (ends[width - 1 :: width] > line_ends).any()):
        raise ValueError("rows of different lengths")
    length = ends - starts
    seen = length != len(na)
    maybe = np.flatnonzero(~seen)
    for i, byte in enumerate(na):
        seen[maybe] |= buf[starts[maybe] + i] != byte
    where = np.flatnonzero(seen)
    values = np.zeros(starts.size)
    windows = sliding_window_view(buf, _TEXT + 1)
    for start in range(0, where.size, _PARSE_BLOCK):
        index = where[start : start + _PARSE_BLOCK]
        cells = np.ascontiguousarray(windows[starts[index]].T)
        cells *= _COLUMN < length[index]  # zero the bytes after each token
        q, fast = _convert(cells)
        slow = index[~fast]
        if slow.size:
            q[~fast] = [float(text[a:b]) for a, b in zip(starts[slow].tolist(), ends[slow].tolist())]
            if not np.isfinite(q).all():
                raise ValueError("not a finite number")
        values[index] = q
    return values.reshape(-1, width), seen.reshape(-1, width)


def _convert(text: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The values of tokens whose first 25 bytes are the columns of
    ``text``, and which of them the fast path certified; the others are
    left to float().  ``text`` is overwritten."""
    # Byte r of a token is text[r], with a leading '-' dropped; a token
    # of over 24 bytes has a 25th.
    fast = text[_TEXT] == 0
    text = text[:_TEXT]
    neg = text[0] == ord("-")
    text[0] *= ~neg

    # The spelling holds when the bytes are digits and at most one
    # point, with at least one digit; the point's row gives f.
    digit = text - ord("0")
    isdigit = digit < 10
    ndig = np.add.reduce(isdigit, axis=0, dtype=np.uint8)
    dot = text == ord(".")
    npt = np.add.reduce(dot, axis=0, dtype=np.uint8)
    point = np.add.reduce(dot * _ROW, axis=0, dtype=np.uint8)
    length = np.add.reduce(text != 0, axis=0, dtype=np.uint8)
    fast &= length == ndig + npt
    fast &= npt <= 1
    fast &= ndig > 0
    # f = ndig - (p - neg) digits after a point, and 0 without one.
    count = ndig + neg
    count -= point
    count *= npt
    fast &= count <= 22
    f = (count * fast).astype(np.intp)
    # Over 19 digits, leading zeros must make up the difference.
    many = np.flatnonzero(fast & (ndig > 19))
    if many.size:
        nonzero = digit[:, many] - np.uint8(1) < 9
        first = np.argmax(nonzero, axis=0)
        leading = first - neg[many] - (npt[many] * (point[many] < first))
        fast[many] = ~nonzero.any(axis=0) | (ndig[many] - leading <= 19)

    # N by Horner's rule, n -> n * mul[r] + digit[r] with mul 10 at
    # digits and 1 elsewhere, composed a pair of steps at a time: a
    # pair is n -> n * (m1 * m2) + (d1 * m2 + d2).  Two steps fit in
    # uint8, four in uint16 and eight in uint32; the last three octets
    # give N modulo 2**64, which is N since N < 10**19.
    v = digit * isdigit
    m = isdigit * np.uint8(9) + np.uint8(1)
    for dtype in (np.uint8, np.uint16, np.uint32):
        v = np.multiply(v[0::2], m[1::2], dtype=dtype) + v[1::2]
        m = np.multiply(m[0::2], m[1::2], dtype=dtype)
    n = (np.multiply(v[0], m[1], dtype=np.uint64) + v[1]) * m[2] + v[2]
    n *= fast

    # q and its residual N - prod - err, in units of 10**-f.
    p = _POW10.take(f)
    q = n / p
    prod, err = _times_pow10(q, f)
    res = (n - prod.astype(np.uint64)).view(np.int64).astype(float)
    res -= err
    # Half an ulp of q, times 10**f.
    bits = q.view(np.uint64)
    half = (bits & _EXPONENT).view(float) * 2.0**-53
    half *= p
    flag = (bits & _MANTISSA) != 0  # not a power of two
    size = np.absolute(res)
    good = (size < half) & flag
    good |= n <= 2**53
    # q is within 1.5 ulps of the value: fl(N) is off by less than one
    # ulp of q, and the division by half of one.  So a residual over
    # half an ulp puts the neighbour it points to within half an ulp,
    # and that neighbour is float(token).
    moved = np.flatnonzero(fast & ~good & flag & (size > half))
    if moved.size:
        qm = q[moved]
        q[moved] = qm + np.copysign(
            (qm.view(np.uint64) & _EXPONENT).view(float) * 2.0**-52, res[moved])
        good[moved] = True
    fast &= good
    # The sign bit.
    bits |= neg.astype(np.uint64) << np.uint64(63)
    return q, fast


def read_mask(path) -> np.ndarray:
    """A 0/1 mask file; ParseError names the first cell, in reading order,
    that is missing or neither 0 nor 1."""
    values, observed = read_matrix(path)
    bad = (observed == 0) | ((values != 0) & (values != 1))
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        if observed[i, j]:
            raise ParseError(_bad_cell(path, i, j, repr(values[i, j].item()).encode(),
                                       "mask entries must be 0 or 1"))
        raise ParseError(_bad_cell(path, i, j, b"NA", "mask files cannot contain missing entries"))
    return values


MODEL_FORMAT = "eblp-model"
MODEL_VERSION = 1

# The JSON types a value of each kind may have: booleans are no numbers.
_JSON_KINDS = {
    bool: ({bool}, "a boolean"), int: ({int}, "an integer"), float: ({int, float}, "a number"),
    dict: ({dict}, "an object"),
}
# A model file is an object with "format" and these fields, in file order.
# A kind is a type of _JSON_KINDS, ``[kind]`` an array of that kind, or a
# dict an object with exactly its fields.
_ESTIMATE = {f.name: bool if f.name in ("supercritical", "clamped") else float
             for f in fields(SpikeEstimates)}
_MODEL = {
    "version": int, "rank": int, "whitened": bool, "n": int,
    "m_hat_diag": [float], "w_diag": [float], "mean": [float],
    "u_hat": [[float]],  # one array per component
    "estimates": [_ESTIMATE],  # one object per component
}


def write_model(path, model: EblpModel) -> None:
    """Save ``model`` as JSON, its fields in the order of ``_MODEL``.  A
    non-finite estimate, which JSON cannot hold, is a ValueError naming it,
    raised before the file is opened."""
    columns = {name: getattr(model.estimates, name).tolist() for name in _ESTIMATE}
    for name, column in columns.items():
        k = next((k for k, v in enumerate(column) if not math.isfinite(v)), None)
        if k is not None:
            raise ValueError(f"cannot save model: estimates[{k}].{name} is {column[k]}")
    values = {
        "version": MODEL_VERSION,
        "u_hat": model.u_hat.T,
        "estimates": [dict(zip(columns, entry)) for entry in zip(*columns.values())],
    }
    payload = {"format": MODEL_FORMAT}
    for name in _MODEL:
        value = values[name] if name in values else getattr(model, name)
        payload[name] = value.tolist() if isinstance(value, np.ndarray) else value
    Path(path).write_text(json.dumps(payload, allow_nan=False))


def read_model(path) -> EblpModel:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse model file {path}: {exc}") from exc
    # The file's own rules: JSON types and field names, format and
    # version, finite estimates, and the rank against u_hat.  The model
    # checks its shapes and values itself.
    try:
        if payload["format"] != MODEL_FORMAT:
            raise ParseError(f"{path}: not a model file")
        for name, kind in _MODEL.items():
            _check(path, name, payload[name], kind)
            if name == "version" and payload[name] != MODEL_VERSION:
                raise ParseError(f"{path}: unsupported model version {payload[name]}")
        arrays = {name: np.asarray(payload[name], dtype=float) for name in ("m_hat_diag", "w_diag", "mean")}
        p = arrays["m_hat_diag"].size
        arrays["u_hat"] = np.asarray(payload["u_hat"], dtype=float).reshape(-1, p).T
        entries = payload["estimates"]
        columns = {name: np.array([entry[name] for entry in entries], dtype=kind)
                   for name, kind in _ESTIMATE.items()}
    except ParseError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model file: {exc}") from exc
    for name, column in columns.items():
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ParseError(f"{path}: non-finite value in estimates[{bad[0]}].{name}")
    try:
        model = EblpModel(estimates=SpikeEstimates(**columns), whitened=payload["whitened"],
                          n=payload["n"], **arrays)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if payload["rank"] != model.rank:
        raise ParseError(
            f"{path}: rank {payload['rank']} does not match the {model.rank} components in u_hat"
        )
    return model


def _check(path, label: str, value, kind) -> None:
    """ParseError unless the JSON ``value`` is of ``kind`` (see ``_MODEL``),
    naming ``label``'s first entry or field that is not, for example
    ``u_hat[1][3]`` or ``estimates[0].clamped``."""
    if type(kind) is list:
        (entry,) = kind
        if type(value) is not list:
            raise ParseError(f"{path}: {label} must be an array")
        # A flat array's types are collected in one pass; the walk only
        # names the first bad entry.
        if type(entry) is not type or not set(map(type, value)) <= _JSON_KINDS[entry][0]:
            for k, item in enumerate(value):
                _check(path, f"{label}[{k}]", item, entry)
        return
    types, what = _JSON_KINDS[kind if type(kind) is type else dict]
    if type(value) not in types:
        raise ParseError(f"{path}: {label} must be {what}, got {json.dumps(value)}")
    if type(kind) is dict:
        unknown = next((key for key in value if key not in kind), None)
        if unknown is not None:
            raise ParseError(f"{path}: {label}: unknown field {json.dumps(unknown)}")
        missing = next((name for name in kind if name not in value), None)
        if missing is not None:
            raise ParseError(f"{path}: {label}.{missing} is missing")
        for name, field in kind.items():
            _check(path, f"{label}.{name}", value[name], field)


# The results table's columns in order, each with the text of a value.
_RESULT_FORMATS = {
    "experiment": str, "method": str, "sigma": _FMT.__mod__, "delta": _FMT.__mod__,
    "kappa": _FMT.__mod__, "sparsity": str, "replicate": "%d".__mod__, "rmse": _FMT.__mod__,
    "seconds": _FMT.__mod__, "amse_est": _FMT.__mod__,
}
RESULT_COLUMNS = tuple(_RESULT_FORMATS)


def write_results(path, rows: list[dict]) -> None:
    lines = [" ".join(RESULT_COLUMNS)]
    for row in rows:
        lines.append(" ".join(text(row[col]) for col, text in _RESULT_FORMATS.items()))
    Path(path).write_text("\n".join(lines) + "\n")
