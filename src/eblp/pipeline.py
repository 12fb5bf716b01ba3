"""End-to-end linear prediction on transformed observations.

An observation is a sample-space vector ``y`` laid out on the p-grid
together with the diagonal ``d`` of ``A' A`` for its (diagonal) transform
``A``.  Fitting normalizes the backprojected data by the mean transform
weight, optionally whitens, shrinks the singular values, and maps back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCoordinateError,
    NotFittedError,
    RankError,
    ShapeError,
)
from .shrinkage import SpikeEstimate, shrink_triplets

__all__ = [
    "TransformedObservation",
    "EblpModel",
    "SignalModel",
    "backproject",
    "fit_in_sample",
    "predict_out_of_sample",
    "blp_oracle",
    "simple_blp_uniform",
    "dataset_from_arrays",
]

DEFAULT_M_FLOOR = 1e-6


@dataclass(frozen=True)
class TransformedObservation:
    """One sample: observed vector on the p-grid plus diag(A'A).

    ``y[j]`` is the sample-space value recorded at coordinate j (0 where
    ``d[j] == 0``); ``d[j] >= 0`` is the squared transform weight there.
    Coordinate-selection masks use d in {0, 1}.  ``y`` and ``d`` may also
    be (k, p) arrays holding k samples as rows: the dataset of
    :func:`fit_in_sample`, or a batch for :func:`backproject` and
    :func:`predict_out_of_sample`.
    """

    y: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)
        if y.ndim not in (1, 2) or y.shape != d.shape:
            raise ShapeError("y and d must be 1-d vectors or (k, p) arrays of equal shape")
        if np.any(d < 0):
            raise ShapeError("transform weights d must be nonnegative")


def dataset_from_arrays(y: np.ndarray, d: np.ndarray) -> TransformedObservation:
    """Wrap n x p arrays (samples as rows) as the (n, p) batch that
    :func:`fit_in_sample` takes.  Float arrays are used without a copy."""
    batch = TransformedObservation(y=y, d=d)
    if batch.y.ndim != 2:
        raise ShapeError("y and d must be 2-d arrays of identical shape")
    return batch


def backproject(obs: TransformedObservation) -> np.ndarray:
    """A' y for the diagonal transform with diag(A'A) = d, i.e. sqrt(d) * y."""
    return np.sqrt(obs.d) * obs.y


@dataclass(frozen=True)
class EblpModel:
    """Fitted state sufficient for out-of-sample prediction.

    ``u_hat`` lives in the fitting coordinates (whitened when
    ``whitened``); ``w_diag`` is all ones otherwise.  ``mean`` is the
    available-case column mean that was removed before fitting.
    """

    u_hat: np.ndarray            # (p, r)
    v_hat: np.ndarray            # (n, r)
    estimates: list[SpikeEstimate]
    m_hat_diag: np.ndarray       # (p,)
    w_diag: np.ndarray           # (p,)
    rank: int
    whitened: bool
    mean: np.ndarray             # (p,)
    n: int

    @property
    def p(self) -> int:
        return self.m_hat_diag.size

    @property
    def gamma(self) -> float:
        return self.p / self.n


def fit_in_sample(
    dataset: TransformedObservation,
    r: int,
    whiten: bool = True,
    mode: str = "plugin",
    *,
    center: bool = True,
    m_floor: float = DEFAULT_M_FLOOR,
    m_diag: np.ndarray | None = None,
    noise_var_diag: np.ndarray | None = None,
    noise_var: float = 1.0,
) -> tuple[EblpModel, np.ndarray]:
    """Fit the in-sample predictor and denoise the whole dataset.

    ``dataset`` is an (n, p) batch of observations, one sample per row, as
    built by :func:`dataset_from_arrays`; its arrays are read, never
    written.  Steps: backproject, normalize by the mean transform weight
    M-hat, optionally whiten by W = M-hat^(1/2), shrink singular values
    (``mode`` as in :func:`shrink_matrix`), unwhiten, restore the
    available-case column mean sum(backprojected) / sum(d).

    ``m_diag`` overrides the estimated M-hat (for testing against known
    transforms).  ``noise_var_diag``, when the sample-space noise variances
    are known up to scale, folds them into the whitening so the effective
    noise is isotropic: W = sqrt(M-hat / v).  ``noise_var`` is the white
    -mode effective noise variance.  A coordinate whose M-hat falls below
    ``m_floor`` raises DegenerateCoordinateError naming every such one.

    Returns (model, X-hat) with X-hat of shape n x p.
    """
    if not isinstance(dataset, TransformedObservation) or dataset.y.ndim != 2:
        raise ShapeError(
            "fit_in_sample takes an (n, p) batch; build it with dataset_from_arrays(y, d)"
        )
    y, d = dataset.y, dataset.d
    n, p = y.shape
    if n == 0:
        raise ShapeError("dataset must contain at least one observation")
    if r < 0 or r > min(n, p):
        raise RankError(f"rank {r} out of range for {n} samples in dimension {p}")

    weight = d.sum(axis=0)
    if m_diag is not None:
        m_hat = np.asarray(m_diag, dtype=float)
        if m_hat.shape != (p,):
            raise ShapeError("m_diag must have length p")
    else:
        m_hat = weight / n
    bad = np.flatnonzero(m_hat < m_floor)
    if bad.size:
        raise DegenerateCoordinateError(bad.tolist(), m_floor)

    # One working buffer: backproject, center, then normalize and whiten.
    b = np.sqrt(d)
    b *= y
    mean = np.zeros(p)
    if center:
        seen = weight > 0
        mean[seen] = b.sum(axis=0)[seen] / weight[seen]
    b -= d * mean

    if whiten:
        if noise_var_diag is not None:
            v = np.asarray(noise_var_diag, dtype=float)
            if v.shape != (p,) or np.any(v <= 0):
                raise ShapeError("noise_var_diag must be p positive reals")
            w_diag = np.sqrt(m_hat / v)
        else:
            w_diag = np.sqrt(m_hat)
    else:
        w_diag = np.ones(p)

    # B~ = B M^-1, then B~ W; combined column scale.
    b *= w_diag / m_hat

    v_hat, u_hat, estimates = shrink_triplets(b, r, mode=mode, noise_var=noise_var)
    lam = np.array([e.lambda_star for e in estimates])
    # shrink_triplets worked on its own scaled copy, so X-hat can reuse b.
    x_hat = np.matmul(np.sqrt(n) * (v_hat * lam), u_hat.T, out=b)
    x_hat /= w_diag
    x_hat += mean

    model = EblpModel(
        u_hat=u_hat,
        v_hat=v_hat,
        estimates=estimates,
        m_hat_diag=m_hat,
        w_diag=w_diag,
        rank=r,
        whitened=whiten,
        mean=mean,
        n=n,
    )
    return model, x_hat


def predict_out_of_sample(model: EblpModel, obs: TransformedObservation) -> np.ndarray:
    """Predict a fresh observation, or a (k, p) batch of them, from the
    fitted principal components.

    Projects the normalized (and, if the model was fitted whitened,
    whitened) backprojection onto the fitted PCs with per-component
    weights ell c^2 / (ell c^2 + d), where d = 1 in whitened coordinates
    and d = u' M-hat^-1 u otherwise (white original noise).  Returns a
    vector of length p, or a (k, p) array for a batch.
    """
    if model.u_hat.ndim != 2 or model.m_hat_diag.ndim != 1:
        raise NotFittedError("model is missing fitted arrays")
    p = model.p
    if obs.y.shape[-1] != p:
        raise ShapeError(f"observation has dimension {obs.y.shape[-1]}, model expects {p}")

    u = model.u_hat
    if model.whitened:
        noise = [1.0] * u.shape[1]
    else:
        noise = np.einsum("jk,jk->k", u, u / model.m_hat_diag[:, None]).tolist()
    # 1 / (1 + d / signal) is signal / (signal + d), and stays 1 where the
    # signal estimate overflowed to inf.
    eta = np.zeros(u.shape[1])
    for k, (est, d_k) in enumerate(zip(model.estimates, noise)):
        signal = est.ell_hat * est.c2_hat
        if est.supercritical and signal != 0 and signal + d_k > 0:
            eta[k] = 1.0 / (1.0 + d_k / signal)

    b = backproject(obs) - obs.d * model.mean
    b_fit = b * (model.w_diag / model.m_hat_diag)
    return (eta * (b_fit @ u)) @ u.T / model.w_diag + model.mean


@dataclass(frozen=True)
class SignalModel:
    """Ground-truth low-rank signal law: strengths, directions, mean."""

    ell: np.ndarray              # (r,), strictly decreasing positive
    u: np.ndarray                # (p, r), orthonormal columns
    mean: np.ndarray | None = None

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=float)
        u = np.asarray(self.u, dtype=float)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "u", u)
        if ell.ndim != 1 or u.ndim != 2 or u.shape[1] != ell.size:
            raise ShapeError("need ell of length r and u of shape (p, r)")
        if np.any(ell <= 0) or np.any(np.diff(ell) >= 0):
            raise ShapeError("ell must be strictly decreasing and positive")
        if self.mean is not None:
            mean = np.asarray(self.mean, dtype=float)
            object.__setattr__(self, "mean", mean)
            if mean.shape != (u.shape[0],):
                raise ShapeError("mean must have length p")


def blp_oracle(
    obs: TransformedObservation,
    signal: SignalModel,
    noise_cov_diag: np.ndarray,
) -> np.ndarray:
    """Exact best linear predictor given the true signal law (test oracle).

    Evaluates Sigma_X A' (A Sigma_X A' + Sigma_eps)^-1 (y - A mean) + mean
    with a dense solve restricted to the observed coordinates.
    """
    p = obs.y.size
    noise_cov_diag = np.asarray(noise_cov_diag, dtype=float)
    if signal.u.shape[0] != p or noise_cov_diag.shape != (p,):
        raise ShapeError("signal/noise dimensions do not match the observation")
    mean = signal.mean if signal.mean is not None else np.zeros(p)

    observed = np.flatnonzero(obs.d > 0)
    if observed.size == 0:
        return mean.copy()
    a = np.sqrt(obs.d[observed])                       # diagonal of A on support
    u_s = signal.u[observed, :]                        # (q, r)
    y_c = obs.y[observed] - a * mean[observed]

    # K = A Sigma_X A' + Sigma_eps on the support
    k = (a[:, None] * u_s) * signal.ell[None, :] @ u_s.T * a[None, :]
    k[np.diag_indices_from(k)] += noise_cov_diag[observed]
    w = np.linalg.solve(k, y_c)

    coeff = signal.ell * (u_s.T @ (a * w))             # (r,)
    return signal.u @ coeff + mean


def simple_blp_uniform(
    obs: TransformedObservation,
    signal: SignalModel,
    m: float,
) -> np.ndarray:
    """Inverse-free reduction of the BLP valid in the uniform model
    (E A'A = m I, unit noise): sum_k ell_k/(1 + m ell_k) u_k u_k' A'y."""
    p = obs.y.size
    if signal.u.shape[0] != p:
        raise ShapeError("signal dimension does not match the observation")
    mean = signal.mean if signal.mean is not None else np.zeros(p)
    b = backproject(obs) - obs.d * mean
    coeff = (signal.ell / (1.0 + m * signal.ell)) * (signal.u.T @ b)
    return signal.u @ coeff + mean
