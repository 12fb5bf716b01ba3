"""Plug-in estimation of Marchenko-Pastur spectral functionals.

Everything here operates on the eigenvalues of the normalized covariance
``B~' B~ / n`` of an n x p data matrix ``B~``; the aspect ratio is
``gamma = p / n``.  When p > n the covariance has p - n structural zero
eigenvalues which are never stored explicitly: the plug-in sums account
for them (zero-padding policy).

``spectral_estimates`` evaluates the sample Stieltjes transform, its
companion and the D-transform of Benaych-Georges & Nadakuditi (2012),
with derivatives, in one pass over the residual spectrum.

``gram_eigh`` is the one decomposition routine, and every caller takes
its selection from one LAPACK tridiagonal reduction: plug-in fits every
eigenvalue and the top r triplets, white-mode fits the top r triplets,
the NNRLS prox the triplets above ``t**2`` (every eigenvalue and no
triplet at threshold 0) and the NNRLS weight calibration the top triplet.

This module is the one place that calls numpy's OpenBLAS directly: for
those routines and for ``blas_threads``, its thread count.  Nothing is
set at import; the CLI and the campaign workers set one thread.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .errors import RankError, ShapeError, SpectrumDomainError

__all__ = [
    "EigenSpectrum",
    "gram_eigh",
    "spectral_estimates",
    "mp_bulk_edge",
    "guard_epsilon",
]


def gram_eigh(
    matrix: np.ndarray,
    *,
    above: float | None = None,
    top: int | None = None,
    spectrum: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular triplets of an n x p matrix from its short-side Gram
    matrix (``B' B`` if n >= p, else ``B B'``).

    Returns the squared singular values, descending and floored at 0, and
    the left (n rows) and right (p rows) singular vectors as columns.  The
    short side's vectors are the Gram eigenvectors; the other side's are
    ``B v / s`` (``B' u / s``), zero where s = 0.  ``above=t`` (values >
    t) or ``top=k`` (the k largest) computes only those triplets, or with
    ``spectrum=True`` all values but only those vectors, by one
    tridiagonal reduction.  A dense ``eigh`` gives all min(n, p)
    triplets, and stands in where numpy's LAPACK lacks a routine or one
    fails.  Forming the Gram matrix squares the condition number: values
    below about eps * max(values) carry no relative accuracy, and neither
    do their vectors.  A NaN ``above`` is a ValueError; a Gram matrix
    that is not finite raises LinAlgError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ShapeError("expected a 2-d data matrix")
    if above is not None and top is not None:
        raise ValueError("pass at most one of above and top")
    if above is not None and np.isnan(above):
        raise ValueError("above must not be NaN")
    n, p = matrix.shape
    if top is not None and not 0 <= top <= min(n, p):
        raise ValueError(f"top={top} out of range for a {n} x {p} matrix")
    gram = _gram(matrix)
    if not np.isfinite(gram).all():
        # LAPACKE screens out NaN only; inf would reach the reduction.
        raise np.linalg.LinAlgError("Gram matrix is not finite")
    tridiagonal = (above is not None or top is not None) and None not in (
        _DSYTRD, _DSTERF, _DSTEBZ, _DSTEIN, _DORMTR)
    found = _tridiagonal_eigh(gram, above, top, spectrum) if tridiagonal else None
    if found is None:
        # The reduction works on ``gram`` in place: a routine that failed
        # has overwritten it.
        found = np.linalg.eigh(_gram(matrix) if tridiagonal else gram)
    # Ascending from every path; the slice keeps the selection exact.
    values = np.maximum(found[0][::-1], 0.0)
    kept = top if above is None else int(np.count_nonzero(values > above))
    # Column-major, as prediction reads u_hat by column.  Bisection may
    # count one pair fewer than dsterf at ``above``: keep those it found.
    short = np.asfortranarray(found[1][:, ::-1][:, :kept])
    kept = short.shape[1]
    s = np.sqrt(values[:kept])
    other = matrix @ short if n >= p else (short.T @ matrix).T
    other = np.divide(other, s, out=np.zeros_like(other), where=s > 0)
    left, right = (other, short) if n >= p else (short, other)
    return (values if spectrum else values[:kept]), left, right


def _gram(matrix: np.ndarray) -> np.ndarray:
    """The short-side Gram matrix of ``matrix``, a fresh array."""
    n, p = matrix.shape
    return matrix.T @ matrix if n >= p else matrix @ matrix.T


def _openblas(name, restype, *argtypes):
    """``name`` in the ILP64 OpenBLAS that numpy.linalg links (PyPI wheels
    export it as ``scipy_<name>64_``); None on builds without it (MKL,
    Accelerate).  Every call into that library goes through here."""
    try:
        fn = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), f"scipy_{name}64_")
    except (AttributeError, OSError):
        return None
    fn.restype, fn.argtypes = restype, argtypes
    return fn


_L, _I, _F, _P, _C = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
_DSYTRD = _openblas("LAPACKE_dsytrd", _I, _L, _C, _I, _P, _I, _P, _P, _P)
_DSTERF = _openblas("LAPACKE_dsterf", _I, _I, _P, _P)
_DSTEBZ = _openblas("LAPACKE_dstebz", _I, _C, _C, _I, _F, _F, _I, _I, _F, _P, _P, _P, _P, _P, _P, _P)
_DSTEIN = _openblas("LAPACKE_dstein", _I, _L, _I, _P, _P, _I, _P, _P, _P, _P, _I, _P)
_DORMTR = _openblas("LAPACKE_dormtr", _I, _L, _C, _C, _C, _I, _I, _P, _I, _P, _P, _I)
_SET_THREADS = _openblas("openblas_set_num_threads", None, _L)
_GET_THREADS = _openblas("openblas_get_num_threads", _L)


def blas_threads(count: int | None) -> int | None:
    """Set numpy's OpenBLAS to ``count`` threads and return the previous
    count: only a fixed count sums in the same order on every machine.
    For ``count=None``, and on builds without the symbols (MKL,
    Accelerate), nothing is set and None is returned."""
    if count is None or None in (_SET_THREADS, _GET_THREADS):
        return None
    previous = _GET_THREADS()
    _SET_THREADS(count)
    return previous


def _tridiagonal_eigh(gram, above, top, spectrum):
    """The eigenvalues of ``gram`` in (above, inf] or its ``top`` largest
    (every eigenvalue if ``spectrum``), ascending like ``eigh``, and the
    selected ones' vectors, from one Householder tridiagonalization of
    ``gram`` in place; None when a routine fails."""
    # Bisection squares the off-diagonal, which underflows below about
    # 1e-146: as dsyevr does, scale a Gram matrix whose largest (diagonal)
    # entry is below 2**-484 into [0.5, 1) by a power of two.
    shift = int(np.frexp(np.max(np.diagonal(gram), initial=0.0))[1])
    shift = shift if shift < -483 else 0
    if shift:
        np.ldexp(gram, -shift, out=gram)
    m = len(gram)
    d, e, tau = np.empty((3, m))
    count, nsplit = ctypes.c_int64(0), ctypes.c_int64(0)
    # LAPACKE's dstein screens all m entries of w for NaN, not only the kept.
    w, (iblock, isplit) = np.zeros(m), np.empty((2, m), dtype=np.int64)
    if top is None:
        select, vl, il, iu = b"V", np.ldexp(above, -shift), 0, 0
    else:
        select, vl, il, iu = b"I", 0.0, m - top + 1, m
    # dsytrd leaves the reflectors in gram, which dormtr applies.
    if _DSYTRD(102, b"U", m, gram.ctypes.data, max(m, 1), d.ctypes.data, e.ctypes.data, tau.ctypes.data):
        return None
    # Bisection finds the kept values, and is skipped where they are none.
    if top != 0 and above != np.inf and (
        _DSTEBZ(select, b"B", m, vl, np.inf, il, iu,
                2 * np.finfo(float).tiny,  # LAPACK's abstol for values that feed dstein
                d.ctypes.data, e.ctypes.data, ctypes.byref(count), ctypes.byref(nsplit),
                w.ctypes.data, iblock.ctypes.data, isplit.ctypes.data)
        or top is not None and count.value != top  # a tie at the RANGE 'I' boundary
    ):
        return None
    k = count.value
    z, ifail = np.empty((m, k), order="F"), np.empty(k, dtype=np.int64)
    if k and (
        _DSTEIN(102, m, d.ctypes.data, e.ctypes.data, k, w.ctypes.data,
                iblock.ctypes.data, isplit.ctypes.data, z.ctypes.data, m, ifail.ctypes.data)
        or _DORMTR(102, b"L", b"U", b"N", m, k, gram.ctypes.data, m, tau.ctypes.data, z.ctypes.data, m)
    ):
        return None
    # dstebz orders its values by block: sort them, and the vectors, ascending.
    order = np.argsort(w[:k], kind="stable")
    if spectrum and _DSTERF(m, d.ctypes.data, e.ctypes.data):  # last: overwrites d, e
        return None
    return np.ldexp(d if spectrum else w[:k][order], shift), z[:, order]


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
        if not np.isfinite(values).all():
            raise ShapeError("eigenvalues must be finite")
        if np.any(values < 0):
            raise ShapeError("eigenvalues must be nonnegative")
        if np.any(np.diff(values) > 0):
            raise ShapeError("eigenvalues must be sorted descending")

    @property
    def gamma(self) -> float:
        return self.p / self.n


def guard_epsilon(top_residual: float) -> float:
    """Guard band above the top residual eigenvalue."""
    return 1e-8 * max(1.0, top_residual)


def spectral_estimates(
    spectrum: EigenSpectrum, r: int, x: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Plug-in (m, m_comp, D, D') at ``x`` of the spectrum less its top
    ``r``, each shaped like ``x``.

    m(x) = (p - r)^-1 sum_{k>r} 1 / (lambda_k - x), implicit zeros included;
    m_comp = gamma m - (1 - gamma) / x is the transform of the companion
    law gamma F + (1 - gamma) delta_0; D = x m m_comp.  ``x`` is one point
    or a 1-d array of points, each at or above the guard band over the
    top residual eigenvalue, where the plug-in sums are finite and every
    transform is defined.  Each point's sums run along one row of the
    residual spectrum, so an array gives, bit for bit, what a call per
    point gives.
    """
    if r < 0 or r >= min(spectrum.n, spectrum.p):
        raise RankError(f"rank {r} must lie in [0, {min(spectrum.n, spectrum.p)})")
    resid, n_zeros = spectrum.values[r:], max(spectrum.p - spectrum.n, 0)
    top, eps = resid[0], guard_epsilon(resid[0])
    x = np.asarray(x, dtype=float)
    lowest = np.min(x, initial=np.inf)
    if not lowest >= top + eps:
        raise SpectrumDomainError(
            f"evaluation point {lowest:g} lies below the residual bulk edge {top:g} "
            f"plus its guard {eps:g}"
        )
    gap = resid - x[..., None]
    m_sum = np.sum(1.0 / gap, axis=-1)
    m_prime_sum = np.sum(1.0 / gap ** 2, axis=-1)
    if n_zeros:
        m_sum += n_zeros * (1.0 / (0.0 - x))
        m_prime_sum += n_zeros / (x * x)
    m_hat = m_sum / (spectrum.p - r)
    m_prime = m_prime_sum / (spectrum.p - r)
    gamma = spectrum.gamma
    m_comp = gamma * m_hat - (1.0 - gamma) / x
    m_comp_prime = gamma * m_prime + (1.0 - gamma) / (x * x)
    d_prime = m_hat * m_comp + x * m_prime * m_comp + x * m_hat * m_comp_prime
    return m_hat, m_comp, x * m_hat * m_comp, d_prime


def mp_bulk_edge(gamma: float) -> float:
    """Upper edge (1 + sqrt(gamma))^2 of the unit-variance MP law."""
    return (1.0 + np.sqrt(gamma)) ** 2
