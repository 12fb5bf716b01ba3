"""Singular-value shrinkage driven by random-matrix spike estimates.

Two calibration paths are provided: a generic plug-in path that reads the
whole residual spectrum (``mode="plugin"``), and closed forms valid when
the effective noise is white with unit variance (``mode="white"``), which
only needs the top singular triplets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy  # scipy.sparse.linalg (ARPACK) loads on the first white-mode fit

from .errors import RankError, ShapeError
from .spectral import (
    EigenSpectrum,
    gram_eigh,
    guard_epsilon,
    mp_bulk_edge,
    spectral_estimates,
)

__all__ = [
    "SpikeEstimate",
    "estimate_spike",
    "optimal_lambda",
    "amse",
    "white_spike_forward",
    "white_spike_inverse",
    "shrink_matrix",
    "shrink_triplets",
    "suggest_rank",
]


@dataclass(frozen=True)
class SpikeEstimate:
    """Per-component spike strength, squared cosines and optimal singular
    value, all in the units of the (scaled) input matrix."""

    ell_hat: float
    c2_hat: float
    ct2_hat: float
    lambda_star: float
    sigma_obs: float
    supercritical: bool
    clamped: bool = False

    @classmethod
    def subcritical(cls, sigma_obs: float) -> "SpikeEstimate":
        return cls(
            ell_hat=0.0,
            c2_hat=0.0,
            ct2_hat=0.0,
            lambda_star=0.0,
            sigma_obs=sigma_obs,
            supercritical=False,
        )


def optimal_lambda(est: SpikeEstimate) -> float:
    """Optimal shrunken singular value sqrt(ell * c^2 * ct^2)."""
    return float(np.sqrt(est.ell_hat * est.c2_hat * est.ct2_hat))


def amse(estimates: list[SpikeEstimate]) -> float:
    """Estimated asymptotic mean squared error sum_k ell_k (1 - c_k^2 ct_k^2)."""
    return float(sum(e.ell_hat * (1.0 - e.c2_hat * e.ct2_hat) for e in estimates))


def estimate_spike(spectrum: EigenSpectrum, r: int, k: int) -> SpikeEstimate:
    """Plug-in spike estimate for the k-th (0-based) of the top r eigenvalues.

    Uses ell = 1/D(sigma_k^2), c^2 = m(sigma_k^2) / (D'(sigma_k^2) ell) and
    ct^2 with the companion transform in place of m.  A component whose
    eigenvalue fails the bulk-separation guard is reported subcritical with
    all estimates zero.
    """
    if r < 0 or r >= min(spectrum.n, spectrum.p):
        raise RankError(f"rank {r} must lie in [0, {min(spectrum.n, spectrum.p)})")
    if k < 0 or k >= r:
        raise RankError(f"component index {k} must lie in [0, {r})")
    sigma2 = float(spectrum.values[k])
    top_resid = float(spectrum.values[r]) if r < spectrum.values.size else 0.0
    if sigma2 < top_resid + guard_epsilon(top_resid):
        return SpikeEstimate.subcritical(sigma_obs=np.sqrt(sigma2))

    est = spectral_estimates(spectrum, r, sigma2)
    ell = 1.0 / est.d_hat
    c2 = est.m_hat / (est.d_prime_hat * ell)
    ct2 = est.m_comp_hat / (est.d_prime_hat * ell)
    clamped = not (0.0 <= c2 <= 1.0 and 0.0 <= ct2 <= 1.0)
    c2 = float(min(max(c2, 0.0), 1.0))
    ct2 = float(min(max(ct2, 0.0), 1.0))
    return SpikeEstimate(
        ell_hat=float(ell),
        c2_hat=c2,
        ct2_hat=ct2,
        lambda_star=float(np.sqrt(ell * c2 * ct2)),
        sigma_obs=float(np.sqrt(sigma2)),
        supercritical=True,
        clamped=clamped,
    )


def white_spike_forward(ell: float, gamma: float) -> tuple[float, float, float]:
    """Map a population spike ell to (top eigenvalue, c^2, ct^2) under
    unit-variance white noise with aspect ratio gamma."""
    if ell > np.sqrt(gamma):
        lam = (ell + 1.0) * (1.0 + gamma / ell)
        common = 1.0 - gamma / (ell * ell)
        return lam, common / (1.0 + gamma / ell), common / (1.0 + 1.0 / ell)
    return mp_bulk_edge(gamma), 0.0, 0.0


def white_spike_inverse(lambda_emp: float, gamma: float) -> float:
    """Invert the white-noise eigenvalue map; 0 below the bulk edge."""
    if lambda_emp <= mp_bulk_edge(gamma):
        return 0.0
    shifted = lambda_emp - 1.0 - gamma
    return (shifted + np.sqrt(shifted * shifted - 4.0 * gamma)) / 2.0


def _white_estimate(sigma2: float, gamma: float, noise_var: float) -> SpikeEstimate:
    ell_white = white_spike_inverse(sigma2 / noise_var, gamma)
    if ell_white <= 0.0:
        return SpikeEstimate.subcritical(sigma_obs=np.sqrt(sigma2))
    _, c2, ct2 = white_spike_forward(ell_white, gamma)
    ell = noise_var * ell_white
    return SpikeEstimate(
        ell_hat=float(ell),
        c2_hat=float(c2),
        ct2_hat=float(ct2),
        lambda_star=float(np.sqrt(ell * c2 * ct2)),
        sigma_obs=float(np.sqrt(sigma2)),
        supercritical=True,
    )


def _top_r_svd(matrix: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n, p = matrix.shape
    if r < min(n, p) - 1 and min(n, p) > 2 and np.linalg.norm(matrix) > 0:
        # Fixed start vector keeps the Lanczos path deterministic.
        v0 = np.full(min(n, p), 1.0 / np.sqrt(min(n, p)))
        try:
            u, s, vt = scipy.sparse.linalg.svds(matrix, k=r, v0=v0)
        except scipy.sparse.linalg.ArpackError:
            pass
        else:
            order = np.argsort(s)[::-1]
            return u[:, order], s[order], vt[order]
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :r], s[:r], vt[:r]


def shrink_triplets(
    matrix: np.ndarray,
    r: int,
    mode: str = "plugin",
    noise_var: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, list[SpikeEstimate]]:
    """Shrinkage core: returns the top-r left vectors (n, r), right vectors
    (p, r) and per-component estimates for ``matrix / sqrt(n)``."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("expected a 2-d data matrix")
    n, p = matrix.shape
    if r < 0 or r > min(n, p):
        raise RankError(f"rank {r} out of range for a {n} x {p} matrix")
    if mode not in ("plugin", "white"):
        raise ValueError(f"unknown mode {mode!r}")
    if r == 0:
        return np.zeros((n, 0)), np.zeros((p, 0)), []

    scaled = matrix / np.sqrt(n)
    if mode == "plugin":
        # Plug-in calibration needs every residual eigenvalue, and the rank
        # contract caps r below min(n, p) so at least one is left.
        if r >= min(n, p):
            raise RankError(
                f"plugin mode needs r < min(n, p) = {min(n, p)} residual values"
            )
        return _plugin_triplets(scaled, r)
    u, s, vt = _top_r_svd(scaled, r)
    gamma = p / n
    estimates = [_white_estimate(sk * sk, gamma, noise_var) for sk in s]
    return u, vt.T, estimates


def _plugin_triplets(
    scaled: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, list[SpikeEstimate]]:
    """Plug-in calibration on one short-side Gram eigendecomposition.

    The plug-in estimator is scale-equivariant, so it runs on ``scaled``
    times a power of two that brings its largest entry into [0.5, 1):
    the Gram matrix then neither overflows nor underflows, the scaling is
    exact, and the estimates are mapped back with the same exponent.
    ``scaled`` is overwritten.
    """
    n, p = scaled.shape
    shift = int(np.frexp(max(scaled.max(), -scaled.min()))[1])
    normed = np.ldexp(scaled, -shift, out=scaled)
    s2, vecs, side = gram_eigh(normed)
    spectrum = EigenSpectrum(values=s2, n=n, p=p)
    estimates = [_ldexp_estimate(estimate_spike(spectrum, r, k), shift) for k in range(r)]

    # Short-side vectors are copied column-contiguous, because prediction
    # reads u_hat one column at a time; the other side is B v / s (or
    # B' u / s), zero where s = 0.
    s = np.sqrt(s2[:r])
    short = np.asfortranarray(vecs[:, :r])
    if side == "right":
        other = normed @ short
    else:
        other = (short.T @ normed).T
    other = np.divide(other, s, out=np.zeros_like(other), where=s > 0)
    return (other, short, estimates) if side == "right" else (short, other, estimates)


def _ldexp_estimate(est: SpikeEstimate, shift: int) -> SpikeEstimate:
    """Estimate for the matrix times 2**shift; ell_hat may overflow to inf."""
    with np.errstate(over="ignore"):
        return replace(
            est,
            ell_hat=float(np.ldexp(est.ell_hat, 2 * shift)),
            lambda_star=float(np.ldexp(est.lambda_star, shift)),
            sigma_obs=float(np.ldexp(est.sigma_obs, shift)),
        )


def shrink_matrix(
    matrix: np.ndarray,
    r: int,
    mode: str = "plugin",
    noise_var: float = 1.0,
) -> tuple[np.ndarray, list[SpikeEstimate]]:
    """Denoise an n x p matrix (rows are samples) by optimal singular-value
    shrinkage of ``matrix / sqrt(n)``.

    ``mode="plugin"`` computes the full spectrum and calibrates every
    component from the residual eigenvalues; ``mode="white"`` computes only
    the top r triplets and applies the white-noise closed forms, assuming
    effective noise variance ``noise_var``.

    Returns the denoised matrix and the per-component estimates.
    """
    left, right, estimates = shrink_triplets(matrix, r, mode=mode, noise_var=noise_var)
    n = np.asarray(matrix).shape[0]
    lam = np.array([e.lambda_star for e in estimates])
    denoised = np.sqrt(n) * (left * lam) @ right.T
    return denoised, estimates


def suggest_rank(spectrum: EigenSpectrum, eps_rank: float = 0.05) -> int:
    """Count eigenvalues above (1 + sqrt(gamma))^2 * (1 + eps_rank).

    Rough plumbing for whitened, unit-noise spectra only; rank selection
    proper is out of scope and the rank is normally caller-supplied.
    """
    threshold = mp_bulk_edge(spectrum.gamma) * (1.0 + eps_rank)
    return int(np.sum(spectrum.values > threshold))
