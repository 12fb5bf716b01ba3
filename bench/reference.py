"""Reference computations for checking the program's outputs.

Written from the method's formulas, not from the package: one full numpy
SVD, Marchenko-Pastur plug-in estimates vectorized over components, the
white-noise closed forms, and out-of-sample weights ell c^2 / (ell c^2 + d).
Inputs are 0/1 coordinate-selection masks, the case every workload uses.

Conventions (those of the method): the data matrix B is n x p, the
spectrum is the squared singular values of B / sqrt(n), gamma = p / n, and
m(x) = (p - r)^-1 sum_k 1 / (lambda_k - x) runs over the residual
eigenvalues including the p - n implicit zeros when p > n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Fit:
    x_hat: np.ndarray        # (n, p) denoised training rows
    v: np.ndarray            # (p, r) right singular vectors, fitting coordinates
    ell: np.ndarray          # (r,) spike estimates (0 when subcritical)
    c2: np.ndarray
    ct2: np.ndarray
    m_hat: np.ndarray        # (p,) mean sampling rate
    w: np.ndarray            # (p,) whitening diagonal
    mean: np.ndarray         # (p,) available-case column mean
    whitened: bool


def _normalized(y: np.ndarray, mask: np.ndarray):
    m_hat = mask.mean(axis=0)
    mean = (mask * y).sum(axis=0) / mask.sum(axis=0)
    b = mask * (y - mean[None, :])
    return b / m_hat[None, :], m_hat, mean


def _plugin(lam: np.ndarray, r: int, n: int, p: int):
    """Plug-in (ell, c^2, ct^2) for the top r of the stored eigenvalues."""
    gamma = p / n
    x = lam[:r, None]
    resid = lam[None, r:]
    zeros = max(p - n, 0)
    m = (np.sum(1.0 / (resid - x), axis=1, keepdims=True) - zeros / x) / (p - r)
    dm = (np.sum(1.0 / (resid - x) ** 2, axis=1, keepdims=True) + zeros / x**2) / (p - r)
    mc = gamma * m - (1.0 - gamma) / x
    dmc = gamma * dm + (1.0 - gamma) / x**2
    d = x * m * mc
    dd = m * mc + x * dm * mc + x * m * dmc
    ell = 1.0 / d
    c2 = np.clip(m / (dd * ell), 0.0, 1.0)
    ct2 = np.clip(mc / (dd * ell), 0.0, 1.0)
    top = lam[r]
    above = lam[:r] >= top + 1e-8 * max(1.0, top)
    return (np.where(above, v[:, 0], 0.0) for v in (ell, c2, ct2))


def _white(lam: np.ndarray, r: int, n: int, p: int):
    """White unit-noise closed forms for the top r eigenvalues."""
    gamma = p / n
    x = lam[:r]
    above = x > (1.0 + np.sqrt(gamma)) ** 2
    s = x - 1.0 - gamma
    ell = np.where(above, (s + np.sqrt(np.maximum(s * s - 4.0 * gamma, 0.0))) / 2.0, 0.0)
    safe = np.where(above, ell, 1.0)
    common = 1.0 - gamma / safe**2
    c2 = np.where(above, common / (1.0 + gamma / safe), 0.0)
    ct2 = np.where(above, common / (1.0 + 1.0 / safe), 0.0)
    return ell, c2, ct2


def fit(y: np.ndarray, mask: np.ndarray, r: int, mode: str = "plugin", whiten: bool = True) -> Fit:
    """Whitened (or not) optimal shrinkage of the normalized backprojection."""
    n, p = y.shape
    b, m_hat, mean = _normalized(y, mask)
    w = np.sqrt(m_hat) if whiten else np.ones(p)
    u, s, vt = np.linalg.svd(b * w[None, :] / np.sqrt(n), full_matrices=False)
    lam = s * s
    ell, c2, ct2 = (_plugin if mode == "plugin" else _white)(lam, r, n, p)
    shrunk = np.sqrt(ell * c2 * ct2)
    x_fit = np.sqrt(n) * (u[:, :r] * shrunk) @ vt[:r]
    return Fit(
        x_hat=x_fit / w[None, :] + mean[None, :],
        v=vt[:r].T,
        ell=ell,
        c2=c2,
        ct2=ct2,
        m_hat=m_hat,
        w=w,
        mean=mean,
        whitened=whiten,
    )


def predict(model: Fit, y: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Out-of-sample prediction of fresh rows, one row per sample."""
    b = mask * (y - model.mean[None, :]) * (model.w / model.m_hat)[None, :]
    if model.whitened:
        d = np.ones(model.ell.size)
    else:
        d = np.sum(model.v * model.v / model.m_hat[:, None], axis=0)
    signal = model.ell * model.c2
    eta = np.where(signal > 0, signal / (signal + d), 0.0)
    return ((b @ model.v) * eta) @ model.v.T / model.w[None, :] + model.mean[None, :]


def truncation(y: np.ndarray, mask: np.ndarray, r: int) -> np.ndarray:
    """Plain rank-r truncated SVD of the normalized data, mean restored.

    Projects the rows on the top r eigenvectors of the p x p Gram matrix,
    which are the top r right singular vectors; cheaper than a full SVD
    when n >> p.
    """
    b, _, mean = _normalized(y, mask)
    _, vecs = np.linalg.eigh(b.T @ b)
    v = vecs[:, : -r - 1 : -1]
    return (b @ v) @ v.T + mean[None, :]


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Relative Frobenius distance ||a - b|| / ||b||."""
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))
