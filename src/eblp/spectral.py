"""Plug-in estimation of Marchenko-Pastur spectral functionals.

Everything here operates on the eigenvalues of the normalized covariance
``B~' B~ / n`` of an n x p data matrix ``B~``; the aspect ratio is
``gamma = p / n``.  When p > n the covariance has p - n structural zero
eigenvalues which are never stored explicitly: the plug-in sums account
for them (zero-padding policy).

``spectral_estimates`` evaluates the sample Stieltjes transform, its
companion and the D-transform of Benaych-Georges & Nadakuditi (2012),
with derivatives, in one pass over the residual spectrum.

``gram_eigh`` is the one decomposition routine.  Plug-in fits read the
whole spectrum of a dense ``eigh``.  The NNRLS prox (``above=t**2``),
white-mode fits (``top=r``) and the NNRLS weight calibration (``top=1``,
no vectors) get only the pairs they keep, from LAPACK ``dsyevr``: Sturm
bisection, then inverse iteration.
"""

from __future__ import annotations

import ctypes
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
    matrix: np.ndarray,
    vectors: bool = True,
    *,
    above: float | None = None,
    top: int | None = None,
) -> tuple[np.ndarray, np.ndarray | None, str]:
    """Squared singular values of an n x p matrix from its short-side Gram
    matrix (``B' B`` if n >= p, else ``B B'``).

    Returns the squared singular values, descending and floored at 0; the
    matching singular vectors as columns (None when ``vectors`` is false);
    and their side: ``"right"`` (p rows) or ``"left"`` (n rows).  A dense
    ``eigh`` gives all min(n, p) pairs; ``above=t`` (values > t) or
    ``top=k`` (the k largest) computes only those, by ``dsyevr`` where
    numpy's LAPACK has it.  Forming the Gram matrix squares the condition
    number: values below about eps * max(values) carry no relative
    accuracy, and neither do their vectors.  A Gram matrix that is not
    finite raises LinAlgError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("expected a 2-d data matrix")
    if above is not None and top is not None:
        raise ValueError("pass at most one of above and top")
    n, p = matrix.shape
    if top is not None and not 0 <= top <= min(n, p):
        raise ValueError(f"top={top} out of range for a {n} x {p} matrix")
    side = "right" if n >= p else "left"
    gram = matrix.T @ matrix if side == "right" else matrix @ matrix.T
    if not np.isfinite(gram).all():
        # LAPACKE screens out NaN only; on inf, dsyevr misreports the pairs.
        raise np.linalg.LinAlgError("Gram matrix is not finite")
    found = None if above is None and top is None else _partial_eigh(gram, vectors, above, top)
    if found is None:
        found = np.linalg.eigh(gram) if vectors else (np.linalg.eigvalsh(gram), None)
    # Ascending from either path; the slice keeps the selection exact.
    values = np.maximum(found[0][::-1], 0.0)
    kept = top if above is None else int(np.count_nonzero(values > above))
    vecs = None if found[1] is None else found[1][:, ::-1][:, :kept]
    return values[:kept], vecs, side


def _load_dsyevr():
    """LAPACKE ``dsyevr`` (ILP64) of the LAPACK numpy.linalg links, so that
    it shares numpy's BLAS threads; None on builds without it (MKL,
    Accelerate)."""
    try:
        fn = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_LAPACKE_dsyevr64_
    except (AttributeError, OSError):
        return None
    i64, f64, ptr, char = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w,
    # z, ldz, isuppz
    fn.argtypes = [ctypes.c_int, char, char, char, i64, ptr, i64, f64, f64,
                   i64, i64, f64, ptr, ptr, ptr, i64, ptr]
    fn.restype = i64
    return fn


_DSYEVR = _load_dsyevr()


def _partial_eigh(gram, vectors, above, top):
    """The eigenpairs of ``gram`` with values in (above, inf] (RANGE 'V')
    or its ``top`` largest (RANGE 'I'), ascending like ``eigh``; None when
    ``dsyevr`` is missing or reports failure, or nothing is asked for."""
    m = gram.shape[0]
    if _DSYEVR is None or m == 0 or top == 0:
        return None
    if top is None:
        select, vl, il, iu, cols = b"V", above, 0, 0, m
    else:
        select, vl, il, iu, cols = b"I", 0.0, m - top + 1, m, top
    a = gram.copy()  # destroyed by the call; the fallback reads `gram`
    w, count = np.empty(m), ctypes.c_int64(0)
    # Column-major output: a C-ordered z gets wrong vectors, silently.
    z = np.empty((m, cols if vectors else 1), order="F")
    isuppz = np.empty(2 * m, dtype=np.int64)
    # Layout 102 is column-major, so uplo 'U' reads the lower triangle of
    # the C-ordered matrix, as eigh does.
    info = _DSYEVR(
        102, b"V" if vectors else b"N", select, b"U", m, a.ctypes.data, m,
        vl, np.inf, il, iu, 0.0,
        ctypes.byref(count), w.ctypes.data, z.ctypes.data, m, isuppz.ctypes.data,
    )
    if info != 0:
        return None
    return w[: count.value], z[:, : count.value] if vectors else None


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
