"""Singular-value shrinkage driven by random-matrix spike estimates.

Two calibration paths are provided: a generic plug-in path that reads the
whole residual spectrum (``mode="plugin"``), and closed forms valid when
the effective noise is white with unit variance (``mode="white"``), which
only needs the top singular triplets.  Both take their singular values and
vectors from one short-side Gram eigendecomposition (``gram_eigh``) of the
input prescaled by a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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
    "amse",
    "white_spike_forward",
    "white_spike_inverse",
    "shrink_matrix",
    "shrink_triplets",
]


def __getattr__(name):
    # No fit uses SciPy.  bench/tracing.py install() still proxies
    # ``shrinkage.scipy``, so that one name imports SciPy when it is read;
    # delete this function once the tracer stops proxying it (ROADMAP,
    # numpy-only runtime).
    if name == "scipy":
        import scipy

        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def white_spike_forward(
    ell: float, gamma: float, noise_var: float = 1.0
) -> tuple[float, float, float]:
    """Map a population spike ell to (top eigenvalue, c^2, ct^2) under
    white noise of variance ``noise_var`` with aspect ratio gamma; ell and
    the eigenvalue are in the units of ``noise_var``."""
    if ell > np.sqrt(gamma) * noise_var:
        ratio = noise_var / ell
        lam = (ell + noise_var) * (1.0 + gamma * ratio)
        common = 1.0 - gamma * ratio * ratio
        return lam, common / (1.0 + gamma * ratio), common / (1.0 + ratio)
    return noise_var * mp_bulk_edge(gamma), 0.0, 0.0


def white_spike_inverse(lambda_emp: float, gamma: float, noise_var: float = 1.0) -> float:
    """Invert the white-noise eigenvalue map; 0 at or below the bulk edge.

    ``lambda_emp`` and the returned spike are in the units of
    ``noise_var``.  With s = lambda_emp - noise_var (1 + gamma) the spike
    is (s + sqrt(s^2 - 4 gamma noise_var^2)) / 2; the root is taken as
    sqrt(s - 2 sqrt(gamma) noise_var) sqrt(s + 2 sqrt(gamma) noise_var),
    whose first factor is the distance to the bulk edge.  Neither
    lambda_emp / noise_var nor a square is formed, so no value overflows
    before the result does.
    """
    gap = lambda_emp - noise_var * mp_bulk_edge(gamma)
    if not gap > 0.0:
        return 0.0
    root = 2.0 * np.sqrt(gamma) * noise_var
    return (gap + root + np.sqrt(gap) * np.sqrt(gap + 2.0 * root)) / 2.0


def _white_estimate(sigma2: float, gamma: float, noise_var: float) -> SpikeEstimate:
    """White-noise closed forms for a squared singular value ``sigma2``
    and a noise variance in the same units."""
    ell = white_spike_inverse(sigma2, gamma, noise_var)
    if ell <= 0.0:
        return SpikeEstimate.subcritical(sigma_obs=np.sqrt(sigma2))
    _, c2, ct2 = white_spike_forward(ell, gamma, noise_var)
    return SpikeEstimate(
        ell_hat=float(ell),
        c2_hat=float(c2),
        ct2_hat=float(ct2),
        lambda_star=float(np.sqrt(ell * c2 * ct2)),
        sigma_obs=float(np.sqrt(sigma2)),
        supercritical=True,
    )


def shrink_triplets(
    matrix: np.ndarray,
    r: int,
    mode: str = "plugin",
    noise_var: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, list[SpikeEstimate]]:
    """Shrinkage core: returns the top-r left vectors (n, r), right vectors
    (p, r) and per-component estimates for ``matrix / sqrt(n)``.

    Both modes run one ``gram_eigh`` on ``matrix / sqrt(n)`` times the
    power of two that brings its largest entry into [0.5, 1), calibrate in
    those units and map the estimates back.  Plug-in mode reads the whole
    prescaled spectrum; white mode applies the closed forms to the top r
    values with the effective noise variance ``noise_var`` prescaled alike.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("expected a 2-d data matrix")
    n, p = matrix.shape
    if r < 0 or r > min(n, p):
        raise RankError(f"rank {r} out of range for a {n} x {p} matrix")
    if mode not in ("plugin", "white"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "white" and not 0.0 < noise_var < np.inf:
        raise ValueError(f"noise_var must be positive and finite, got {noise_var!r}")
    if r == 0:
        return np.zeros((n, 0)), np.zeros((p, 0)), []
    # Plug-in calibration needs every residual eigenvalue, and the rank
    # contract caps r below min(n, p) so at least one is left.
    if mode == "plugin" and r >= min(n, p):
        raise RankError(
            f"plugin mode needs r < min(n, p) = {min(n, p)} residual values"
        )

    left, right, s2, shift = _prescaled_triplets(matrix / np.sqrt(n), r)
    if mode == "plugin":
        spectrum = EigenSpectrum(values=s2, n=n, p=p)
        estimates = [estimate_spike(spectrum, r, k) for k in range(r)]
    else:
        # The noise variance in the prescaled units may underflow to 0 or
        # overflow to inf; the closed forms take both limits.
        with np.errstate(over="ignore"):
            scaled_noise = float(np.ldexp(noise_var, -2 * shift))
        estimates = [_white_estimate(s2k, p / n, scaled_noise) for s2k in s2[:r]]
    return left, right, [_ldexp_estimate(est, shift) for est in estimates]


def _prescaled_triplets(
    scaled: np.ndarray, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Top-r singular vectors of ``scaled`` from one short-side Gram
    eigendecomposition.

    ``scaled`` is first multiplied in place by 2**-shift, the power of two
    that brings its largest entry into [0.5, 1): the Gram matrix then
    neither overflows nor underflows, and the scaling is exact.  Returns
    the left (n, r) and right (p, r) vectors, all min(n, p) squared
    singular values of the prescaled matrix (descending), and ``shift``.
    """
    shift = int(np.frexp(max(scaled.max(), -scaled.min()))[1])
    normed = np.ldexp(scaled, -shift, out=scaled)
    s2, vecs, side = gram_eigh(normed)

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
    left, right = (other, short) if side == "right" else (short, other)
    return left, right, s2, shift


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

    Both modes decompose the short-side Gram matrix once.
    ``mode="plugin"`` calibrates every component from the residual
    eigenvalues; ``mode="white"`` uses only the top r singular values and
    applies the white-noise closed forms, assuming effective noise variance
    ``noise_var``.

    Returns the denoised matrix and the per-component estimates.
    """
    left, right, estimates = shrink_triplets(matrix, r, mode=mode, noise_var=noise_var)
    n = np.asarray(matrix).shape[0]
    lam = np.array([e.lambda_star for e in estimates])
    denoised = np.sqrt(n) * (left * lam) @ right.T
    return denoised, estimates
