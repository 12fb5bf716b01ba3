"""Plug-in estimation of Marchenko-Pastur spectral functionals.

Everything here operates on the eigenvalues of the normalized covariance
``B~' B~ / n`` of an n x p data matrix ``B~``; the aspect ratio is
``gamma = p / n``.  When p > n the covariance has p - n structural zero
eigenvalues which are never stored explicitly: the plug-in sums account
for them (zero-padding policy).

``spectral_estimates`` evaluates the sample Stieltjes transform, its
companion and the D-transform of Benaych-Georges & Nadakuditi (2012),
with derivatives, in one pass over the residual spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankError, ShapeError, SpectrumDomainError

__all__ = [
    "EigenSpectrum",
    "SpectralEstimates",
    "gram_eigh",
    "spectral_estimates",
    "mp_bulk_edge",
    "guard_epsilon",
]


def gram_eigh(
    matrix: np.ndarray, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray | None, str]:
    """Squared singular values of an n x p matrix from its short-side Gram
    matrix (``B' B`` if n >= p, else ``B B'``).

    Returns the min(n, p) squared singular values, descending and floored
    at 0; the matching singular vectors as columns (None when ``vectors``
    is false); and their side: ``"right"`` (p x min) or ``"left"``
    (n x min).  Forming the Gram matrix squares the condition number:
    values below about eps * max(values) carry no relative accuracy, and
    neither do their vectors.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("expected a 2-d data matrix")
    n, p = matrix.shape
    side = "right" if n >= p else "left"
    gram = matrix.T @ matrix if side == "right" else matrix @ matrix.T
    if not vectors:
        return np.maximum(np.linalg.eigvalsh(gram)[::-1], 0.0), None, side
    values, vecs = np.linalg.eigh(gram)
    return np.maximum(values[::-1], 0.0), vecs[:, ::-1], side


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues of ``B~' B~ / n``, sorted descending.

    ``values`` holds the min(n, p) computable eigenvalues; the remaining
    p - n zeros (when p > n) are implicit.
    """

    values: np.ndarray
    n: int
    p: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if self.n < 1 or self.p < 1:
            raise ShapeError("n and p must be positive")
        if values.ndim != 1 or values.size != min(self.n, self.p):
            raise ShapeError(
                f"expected {min(self.n, self.p)} eigenvalues, got {values.size}"
            )
        if np.any(values < 0):
            raise ShapeError("eigenvalues must be nonnegative")
        if np.any(np.diff(values) > 0):
            raise ShapeError("eigenvalues must be sorted descending")

    @property
    def gamma(self) -> float:
        return self.p / self.n

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "EigenSpectrum":
        """Spectrum of ``matrix' matrix / n`` for an n x p data matrix."""
        matrix = np.asarray(matrix, dtype=float)
        s2, _, _ = gram_eigh(matrix, vectors=False)
        n, p = matrix.shape
        return cls(values=s2 / n, n=n, p=p)

    def residual(self, r: int) -> tuple[np.ndarray, int]:
        """Stored residual eigenvalues after dropping the top ``r``, plus
        the number of implicit zeros."""
        if r < 0 or r >= min(self.n, self.p):
            raise RankError(f"rank {r} must lie in [0, {min(self.n, self.p)})")
        return self.values[r:], max(self.p - self.n, 0)


@dataclass(frozen=True)
class SpectralEstimates:
    """Plug-in spectral functionals evaluated at one point."""

    m_hat: float
    m_comp_hat: float
    d_hat: float
    d_prime_hat: float
    eval_point: float


def guard_epsilon(top_residual: float) -> float:
    """Guard band above the top residual eigenvalue."""
    return 1e-8 * max(1.0, top_residual)


def _check_eval_point(resid: np.ndarray, n_zeros: int, x: float) -> None:
    # Valid regions: strictly above the bulk (top residual eigenvalue plus
    # guard) or strictly below the smallest residual eigenvalue.  Inside
    # the bulk the plug-in sum is meaningless or blows up.
    top = resid[0] if resid.size else 0.0
    bottom = resid[-1] if resid.size else 0.0
    if n_zeros > 0:
        bottom = 0.0
    eps = guard_epsilon(top)
    if x >= top + eps:
        return
    if x < bottom - guard_epsilon(bottom):
        return
    raise SpectrumDomainError(
        f"evaluation point {x:g} lies within the residual bulk "
        f"[{bottom:g}, {top:g}] (guard {eps:g})"
    )


def spectral_estimates(spectrum: EigenSpectrum, r: int, x: float) -> SpectralEstimates:
    """Plug-in m, m_comp, D and D' at ``x`` of the spectrum less its top ``r``.

    m(x) = (p - r)^-1 sum_{k>r} 1 / (lambda_k - x), implicit zeros included;
    m_comp = gamma m - (1 - gamma) / x is the transform of the companion
    law gamma F + (1 - gamma) delta_0; D = x m m_comp.  ``x`` must lie
    outside the residual bulk and its guard band, and not at 0.
    """
    resid, n_zeros = spectrum.residual(r)
    _check_eval_point(resid, n_zeros, x)
    if x == 0:
        raise SpectrumDomainError("companion transform undefined at x = 0")
    gap = resid - x
    m_sum = float(np.sum(1.0 / gap))
    m_prime_sum = float(np.sum(1.0 / gap ** 2))
    if n_zeros:
        m_sum += n_zeros * (1.0 / (0.0 - x))
        m_prime_sum += n_zeros / (x * x)
    m_hat = m_sum / (spectrum.p - r)
    m_prime = m_prime_sum / (spectrum.p - r)
    gamma = spectrum.gamma
    m_comp = gamma * m_hat - (1.0 - gamma) / x
    m_comp_prime = gamma * m_prime + (1.0 - gamma) / (x * x)
    return SpectralEstimates(
        m_hat=m_hat,
        m_comp_hat=m_comp,
        d_hat=x * m_hat * m_comp,
        d_prime_hat=m_hat * m_comp + x * m_prime * m_comp + x * m_hat * m_comp_prime,
        eval_point=x,
    )


def mp_bulk_edge(gamma: float) -> float:
    """Upper edge (1 + sqrt(gamma))^2 of the unit-variance MP law."""
    return (1.0 + np.sqrt(gamma)) ** 2
