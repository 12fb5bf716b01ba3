"""Text formats used by the command-line tools.

Matrices are whitespace-delimited rows (samples), a line whose first
non-blank character is ``#`` is a comment, and missing entries are a
configurable token (default ``NA``).  Every other cell must be a finite
number.  Numbers are written with 17 significant digits so values
round-trip.  Fitted models are stored as JSON with finite numbers only.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ParseError
from .pipeline import EblpModel
from .shrinkage import SpikeEstimate

__all__ = [
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


def read_matrix(path, na_token: str = "NA") -> tuple[np.ndarray, np.ndarray]:
    """Read a delimited matrix; returns (values, observed) where missing
    entries are 0 in ``values`` and 0 in the observed indicator.

    A cell is the NA token or a finite number in any spelling ``float()``
    accepts; anything else raises ParseError naming its row and field.
    """
    lines = _data_lines(path)
    if not lines:
        return np.zeros((0, 0)), np.zeros((0, 0))
    na = na_token.encode()
    try:
        tokens = _token_array(lines)
        missing = tokens == na
        tokens[missing] = b"0"
        values = tokens.astype(float)
    except ValueError as exc:
        _raise_first_bad_cell(path, lines, na)
        raise ParseError(f"{path}: {exc}") from exc
    bad = ~np.isfinite(values)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ParseError(_bad_cell(path, i, j, tokens[i, j], "not a finite number"))
    return values, (~missing).astype(float)


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


def _raise_first_bad_cell(path, lines: list[bytes], na: bytes) -> None:
    """Raise ParseError at the first ragged row or bad cell, if any, in
    reading order.  Only input that failed the vectorized parse gets here."""
    width = len(lines[0].split())
    for i, line in enumerate(lines):
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
    matrix = np.asarray(matrix, dtype=float)
    row_format = " ".join([_FMT] * matrix.shape[1])
    if observed is not None:
        observed = np.asarray(observed, dtype=bool)
    with open(path, "w") as handle:
        for i, row in enumerate(matrix):
            values = row.tolist()
            if observed is None or observed[i].all():
                line = row_format % tuple(values)
            else:
                line = " ".join(
                    _FMT % x if seen else na_token for x, seen in zip(values, observed[i])
                )
            handle.write(line + "\n")


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
