"""Singular-value shrinkage driven by random-matrix spike estimates.

Two calibration paths are provided: a generic plug-in path that reads the
whole residual spectrum (``mode="plugin"``), and closed forms valid when
the effective noise is white with unit variance (``mode="white"``), which
only needs, and only computes, the top singular triplets.  Both take their
singular triplets from one short-side Gram eigendecomposition
(``gram_eigh``) of the input prescaled by a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "SpikeEstimates",
    "estimate_spike",
    "white_spike_forward",
    "white_spike_inverse",
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
class SpikeEstimates:
    """Per-component spike strength, squared cosines and optimal singular
    value, all in the units of the input matrix, as 1-d arrays with one
    entry per component.  A subcritical component has every estimate but
    ``sigma_obs`` zero; ``supercritical`` and ``clamped`` are boolean."""

    ell_hat: np.ndarray
    c2_hat: np.ndarray
    ct2_hat: np.ndarray
    lambda_star: np.ndarray
    sigma_obs: np.ndarray
    supercritical: np.ndarray
    clamped: np.ndarray

    @property
    def amse(self) -> float:
        """Estimated asymptotic mean squared error sum_k ell_k (1 - c_k^2
        ct_k^2), added left to right."""
        return float(sum((self.ell_hat * (1.0 - self.c2_hat * self.ct2_hat)).tolist()))


def estimate_spike(spectrum: EigenSpectrum, r: int, shift: int = 0) -> SpikeEstimates:
    """Plug-in spike estimates for the top r eigenvalues of ``spectrum``,
    the eigenvalues of a matrix times 2**-shift, in the units of the matrix.

    Uses ell = 1/D(sigma_k^2), c^2 = m(sigma_k^2) / (D'(sigma_k^2) ell) and
    ct^2 with the companion transform in place of m, evaluated at every
    component in one call.  A cosine outside [0, 1] is clipped into it
    and flagged ``clamped``.  A component whose eigenvalue fails the
    bulk-separation guard is subcritical.
    """
    if r < 0 or r >= min(spectrum.n, spectrum.p):
        raise RankError(f"rank {r} must lie in [0, {min(spectrum.n, spectrum.p)})")
    sigma2, top_resid = spectrum.values[:r], spectrum.values[r]
    supercritical = sigma2 >= top_resid + guard_epsilon(top_resid)
    m, m_comp, d, d_prime = spectral_estimates(spectrum, r, sigma2[supercritical])
    ell, cos2, clamped = np.zeros(r), np.zeros((2, r)), np.zeros(r, dtype=bool)
    ell[supercritical] = 1.0 / d
    raw = np.stack([m, m_comp]) / (d_prime * ell[supercritical])
    clamped[supercritical] = ~((0.0 <= raw) & (raw <= 1.0)).all(axis=0)
    # Python's min(max(c, 0.0), 1.0): -0.0 and NaN pass through.
    cos2[:, supercritical] = np.where(raw > 1.0, 1.0, np.where(raw < 0.0, 0.0, raw))
    return _spike_estimates(sigma2, ell, *cos2, supercritical, clamped, shift)


def white_spike_forward(
    ell: float | np.ndarray, gamma: float, noise_var: float = 1.0
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """Map a population spike ell to (top eigenvalue, c^2, ct^2) under
    white noise of variance ``noise_var`` with aspect ratio gamma; ell and
    the eigenvalue are in the units of ``noise_var``.  An array is mapped
    elementwise; a spike at or below sqrt(gamma) noise_var gives the bulk
    edge and zero cosines."""
    ell = np.asarray(ell, dtype=float)
    lam = np.full(ell.shape, noise_var * mp_bulk_edge(gamma))
    c2, ct2 = np.zeros(ell.shape), np.zeros(ell.shape)
    above = ell > np.sqrt(gamma) * noise_var
    spike = ell[above]
    ratio = noise_var / spike
    lam[above] = (spike + noise_var) * (1.0 + gamma * ratio)
    common = 1.0 - gamma * ratio * ratio
    c2[above] = common / (1.0 + gamma * ratio)
    ct2[above] = common / (1.0 + ratio)
    return lam[()], c2[()], ct2[()]


def white_spike_inverse(
    lambda_emp: float | np.ndarray, gamma: float, noise_var: float = 1.0
) -> float | np.ndarray:
    """Invert the white-noise eigenvalue map; 0 at or below the bulk edge.

    ``lambda_emp`` and the returned spike are in the units of
    ``noise_var``.  With s = lambda_emp - noise_var (1 + gamma) the spike
    is (s + sqrt(s^2 - 4 gamma noise_var^2)) / 2; the root is taken as
    sqrt(s - 2 sqrt(gamma) noise_var) sqrt(s + 2 sqrt(gamma) noise_var),
    whose first factor is the distance to the bulk edge.  Neither
    lambda_emp / noise_var nor a square is formed, so no value overflows
    before the result does.  An array is mapped elementwise.
    """
    gap = np.asarray(lambda_emp, dtype=float) - noise_var * mp_bulk_edge(gamma)
    ell = np.zeros(gap.shape)
    above = gap > 0.0
    root = 2.0 * np.sqrt(gamma) * noise_var
    edge_gap = gap[above]
    ell[above] = (edge_gap + root + np.sqrt(edge_gap) * np.sqrt(edge_gap + 2.0 * root)) / 2.0
    return ell[()]


def _spike_estimates(sigma2, ell, c2, ct2, supercritical, clamped, shift) -> SpikeEstimates:
    """Estimates from arrays over components in the units of a matrix
    times 2**-shift, mapped back to the units of the matrix: ell_hat by
    4**shift (it may overflow to inf), lambda_star and sigma_obs by
    2**shift."""
    lambda_star = np.sqrt(ell * c2 * ct2)
    with np.errstate(over="ignore"):
        return SpikeEstimates(np.ldexp(ell, 2 * shift), c2, ct2, np.ldexp(lambda_star, shift),
                              np.ldexp(np.sqrt(sigma2), shift), supercritical, clamped)


def shrink_triplets(
    matrix: np.ndarray, r: int, mode: str = "plugin"
) -> tuple[np.ndarray, np.ndarray, SpikeEstimates]:
    """Shrinkage core: returns the top-r left vectors (n, r), right vectors
    (p, r) and per-component estimates for ``matrix / sqrt(n)``.

    Both modes run one ``gram_eigh`` on ``matrix / sqrt(n)`` times the
    power of two that brings its largest entry into [0.5, 1), calibrate in
    those units and map the estimates back.  Plug-in mode reads the whole
    prescaled spectrum but only the top r vectors; white mode computes the
    top r pairs alone and applies the closed forms to their values, with
    the unit effective noise variance prescaled alike.  Either calibrates
    every component in one array pass.  A float64 ``matrix`` is prescaled
    in place, and so overwritten.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("expected a 2-d data matrix")
    n, p = matrix.shape
    if r < 0 or r > min(n, p):
        raise RankError(f"rank {r} out of range for a {n} x {p} matrix")
    if mode not in ("plugin", "white"):
        raise ValueError(f"unknown mode {mode!r}")
    if r == 0:
        empty = SpikeEstimates(*np.zeros((5, 0)), *np.zeros((2, 0), dtype=bool))
        return np.zeros((n, 0)), np.zeros((p, 0)), empty
    # Plug-in calibration needs every residual eigenvalue, and the rank
    # contract caps r below min(n, p) so at least one is left.
    if mode == "plugin" and r >= min(n, p):
        raise RankError(
            f"plugin mode needs r < min(n, p) = {min(n, p)} residual values"
        )

    left, right, s2, shift = _prescaled_triplets(matrix, r, mode == "plugin")
    if mode == "plugin":
        return left, right, estimate_spike(EigenSpectrum(values=s2, n=n, p=p), r, shift)
    # The unit noise variance in the prescaled units may underflow to 0
    # or overflow to inf; the closed forms take both limits.
    with np.errstate(over="ignore"):
        scaled_noise = float(np.ldexp(1.0, -2 * shift))
    ell = white_spike_inverse(s2, p / n, scaled_noise)
    _, c2, ct2 = white_spike_forward(ell, p / n, scaled_noise)
    unclamped = np.zeros(r, dtype=bool)
    return left, right, _spike_estimates(s2, ell, c2, ct2, ell > 0.0, unclamped, shift)


def _prescaled_triplets(
    matrix: np.ndarray, r: int, whole: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Top-r singular vectors of ``matrix / sqrt(n)`` from ``gram_eigh``,
    with all its values if ``whole``.

    ``matrix`` is divided in place by the exact sqrt(n) 2**shift that
    brings max|matrix| / sqrt(n), the largest entry of ``matrix / sqrt(n)``
    as division is monotone, into [0.5, 1) ([1, 2) past 2**1023): the Gram
    matrix neither overflows nor underflows, and outside subnormals this is
    ``matrix / sqrt(n)`` times 2**-shift bit for bit.  Returns the left
    (n, r) and right (p, r) vectors, the squared singular values of the
    prescaled matrix (descending; all min(n, p), or the top r), and shift.
    """
    root_n = np.sqrt(matrix.shape[0])
    shift = int(np.frexp(max(matrix.max(), -matrix.min()) / root_n)[1])
    shift = min(shift, 1024 - int(np.frexp(root_n)[1]))
    np.divide(matrix, np.ldexp(root_n, shift), out=matrix)
    s2, left, right = gram_eigh(matrix, top=r, spectrum=whole)
    return left, right, s2, shift
