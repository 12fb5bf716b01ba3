"""Nuclear-norm regularized least squares (NNRLS), the matrix-completion
baseline.

NNRLS minimizes 0.5 * ||X_Omega - Y_Omega||^2 + w * ||X||_* (or, weighted,
w * ||X C||_*) with an accelerated proximal gradient method whose prox step
is singular-value soft-thresholding of the triplets ``gram_eigh`` selects
above the threshold.  The unwhitened-shrinkage baseline is
``fit_in_sample(..., whiten=False, mode="plugin")``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ShapeError
from .spectral import gram_eigh

__all__ = [
    "NnrlsConfig",
    "NnrlsResult",
    "nnrls",
    "nnrls_weight_white",
    "nnrls_weight_colored",
    "soft_threshold_singular_values",
]


@dataclass(frozen=True)
class NnrlsConfig:
    """Regularization weight and solver knobs for NNRLS.

    ``column_weights`` enables the weighted variant with C = diag(weights),
    typically sqrt of the per-column sampling probabilities.
    """

    w: float
    max_iters: int = 500
    tol: float = 1e-7
    column_weights: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.w) and self.w >= 0):
            raise ValueError("regularization weight must be finite and nonnegative")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be finite and positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.column_weights is not None:
            cw = np.asarray(self.column_weights, dtype=float)
            object.__setattr__(self, "column_weights", cw)
            if cw.ndim != 1 or not np.all(np.isfinite(cw) & (cw > 0)):
                raise ValueError("column_weights must be finite and positive")


@dataclass(frozen=True)
class NnrlsResult:
    """``prox_calls`` counts the prox steps: one per iteration plus one
    per momentum restart."""

    x_hat: np.ndarray
    iterations: int
    converged: bool
    objective_history: tuple[float, ...] = ()
    prox_calls: int = 0


def soft_threshold_singular_values(
    matrix: np.ndarray, threshold: float, *, out: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """Prox of the nuclear norm: shrink every singular value by
    ``threshold`` (floored at zero).  Returns (matrix, nuclear norm).

    Only the singular triplets above the threshold survive, so only the
    short-side Gram eigenpairs above ``threshold**2`` are computed, and
    the result is ``U diag(s - t) V'`` over the kept triplets.  Every
    kept s exceeds t > 0, so the other side's ``B v / s`` (``B' u / s``
    when p > n) never divides by zero.  A NaN threshold is a ValueError.
    The result is written into ``out`` when given, else into a fresh
    array.
    """
    matrix = np.asarray(matrix, dtype=float)
    if not threshold >= 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold!r}")
    if threshold == 0:
        # The identity, exactly: the Gram matrix resolves the vectors of
        # (numerically) zero singular values only to sqrt(eps).  Every
        # value and no triplet is dsytrd then dsterf: no bisection.
        s2, _, _ = gram_eigh(matrix, top=0, spectrum=True)
        nuclear = float(np.sqrt(s2).sum())
        if out is None:
            return matrix.copy(), nuclear
        out[...] = matrix
        return out, nuclear
    s2, left, right = gram_eigh(matrix, above=threshold * threshold)
    s = np.sqrt(s2)
    shrunk = np.matmul(left * (s - threshold), right.T, out=out)
    return shrunk, float(np.sum(s - threshold))


def nnrls(y_masked: np.ndarray, mask: np.ndarray, config: NnrlsConfig) -> NnrlsResult:
    """Accelerated proximal gradient for masked nuclear-norm regression.

    Iterates are monotone in the objective (momentum restarts on a
    violation); stops when the relative objective decrease drops below
    ``config.tol`` or after ``config.max_iters`` iterations, in which case
    the best iterate is returned with ``converged=False``.  Every ``mask``
    entry must be 0 or 1, and ``y_masked`` finite where ``mask`` is 1; its
    other cells are ignored (NaN may mark them missing).

    A solve allocates its n x p arrays once: the iterate, the momentum
    point, the candidate and one work array.  Each iteration writes into
    them, and the prox writes its result into the candidate.
    """
    y_masked = np.asarray(y_masked, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if y_masked.shape != mask.shape or y_masked.ndim != 2:
        raise ShapeError("y_masked and mask must be 2-d arrays of equal shape")
    # The gradient (x - y) * mask and the objective's squared residual
    # agree only for 0/1 masks.
    _reject_first((mask != 0) & (mask != 1), mask, "mask entry is not 0 or 1")
    observed = mask != 0
    bad_y = observed & ~np.isfinite(y_masked)
    _reject_first(bad_y, y_masked, "y_masked is not finite where observed")
    y = np.where(observed, y_masked, 0.0)

    cw = config.column_weights
    if cw is not None and cw.size != y.shape[1]:
        raise ShapeError("column_weights must have one entry per column")
    # Weighted problem is solved in Z = X C, where the masked-quadratic
    # gradient is Lipschitz with constant 1 / min(C)^2.
    c_inv = None if cw is None else 1.0 / cw
    step = 1.0 if cw is None else float(np.min(cw) ** 2)
    z = np.zeros_like(y)
    momentum = np.zeros_like(y)
    cand = np.empty_like(y)
    work = np.empty_like(y)

    def residual(point: np.ndarray) -> np.ndarray:
        """(point C^-1 - y) * mask, in ``work``."""
        if c_inv is None:
            np.subtract(point, y, out=work)
        else:
            np.multiply(point, c_inv, out=work)
            np.subtract(work, y, out=work)
        return np.multiply(work, mask, out=work)

    def objective(point: np.ndarray, nuc: float) -> float:
        resid = residual(point)
        return 0.5 * float(np.sum(np.multiply(resid, resid, out=resid))) + config.w * nuc

    def prox_step(point: np.ndarray) -> float:
        """The prox of ``point - step * gradient`` into ``cand``; returns
        its nuclear norm."""
        g = residual(point)
        if c_inv is not None:
            np.multiply(g, c_inv, out=g)
        np.subtract(point, np.multiply(step, g, out=g), out=g)
        return soft_threshold_singular_values(g, config.w * step, out=cand)[1]

    t = 1.0
    obj = objective(z, 0.0)
    history = [obj]
    converged = False
    iterations = restarts = 0

    for iterations in range(1, config.max_iters + 1):
        nuc = prox_step(momentum)
        cand_obj = objective(cand, nuc)
        if cand_obj > obj:
            # Restart from the last accepted iterate; a plain prox step is
            # guaranteed not to increase the objective at this step size.
            restarts += 1
            nuc = prox_step(z)
            cand_obj = objective(cand, nuc)
            t = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        # momentum = cand + ((t - 1) / t_next) * (cand - z)
        np.subtract(cand, z, out=work)
        np.add(cand, np.multiply((t - 1.0) / t_next, work, out=work), out=momentum)
        z, cand = cand, z
        t = t_next
        decrease = obj - cand_obj
        obj = cand_obj
        history.append(obj)
        if decrease <= config.tol * max(abs(obj), 1.0):
            converged = True
            break

    if c_inv is not None:
        np.multiply(z, c_inv, out=z)
    return NnrlsResult(
        x_hat=z,
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
        prox_calls=iterations + restarts,
    )


def _reject_first(bad: np.ndarray, values: np.ndarray, problem: str) -> None:
    """Raise ValueError naming the first cell (row-major) where ``bad``."""
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{problem}: {float(values[i, j])!r} at index ({i}, {j})")


def nnrls_weight_white(sigma: float, p: int, n: int, n_obs: int) -> float:
    """Null-calibrated weight sigma (sqrt(p) + sqrt(n)) sqrt(|Omega|/(p n))
    for white noise of variance sigma^2."""
    return sigma * (np.sqrt(p) + np.sqrt(n)) * np.sqrt(n_obs / (p * n))


def nnrls_weight_colored(
    noise_sampler: Callable[[np.random.Generator], np.ndarray],
    mask_sampler: Callable[[np.random.Generator], np.ndarray],
    replicates: int,
    rng: np.random.Generator,
    column_weights: np.ndarray | None = None,
) -> float:
    """Monte Carlo weight calibration: mean operator norm of a masked
    pure-noise draw (post-multiplied by C^-1 for the weighted variant).
    The operator norm is the square root of the top Gram eigenvalue."""
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    c_inv = None if column_weights is None else 1.0 / np.asarray(column_weights)
    norms = []
    for _ in range(replicates):
        masked = mask_sampler(rng) * noise_sampler(rng)
        if c_inv is not None:
            masked = masked * c_inv[None, :]
        s2, _, _ = gram_eigh(masked, top=1)
        norms.append(np.sqrt(s2[0]))
    return float(np.mean(norms))
