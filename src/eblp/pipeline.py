"""End-to-end linear prediction on transformed observations.

An observation is a sample-space vector ``y`` laid out on the p-grid
together with the diagonal ``d`` of ``A' A`` for its (diagonal) transform
``A``.  Fitting normalizes the backprojected data by the mean transform
weight, optionally whitens, shrinks the singular values, and maps back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCoordinateError, RankError, ShapeError
from .shrinkage import SpikeEstimates, shrink_triplets

__all__ = [
    "TransformedObservation",
    "EblpModel",
    "fit_in_sample",
    "predict_out_of_sample",
    "dataset_from_arrays",
]

DEFAULT_M_FLOOR = 1e-6


@dataclass(frozen=True)
class TransformedObservation:
    """One sample: observed vector on the p-grid plus diag(A'A).

    ``y[j]`` is the sample-space value recorded at coordinate j (0 where
    ``d[j] == 0``); ``d[j] >= 0`` is the squared transform weight there
    (NaN is rejected).  Coordinate-selection masks use d in {0, 1}.  ``y``
    and ``d`` may also be (k, p) arrays holding k samples as rows: the
    dataset of :func:`fit_in_sample`, or a batch for
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
        # One reduction; a NaN minimum fails the comparison too.
        if d.size and not (d.min() >= 0):
            raise ShapeError("transform weights d must be nonnegative")


def dataset_from_arrays(y: np.ndarray, d: np.ndarray) -> TransformedObservation:
    """Wrap n x p arrays (samples as rows) as the (n, p) batch that
    :func:`fit_in_sample` takes.  Float arrays are used without a copy."""
    batch = TransformedObservation(y=y, d=d)
    if batch.y.ndim != 2:
        raise ShapeError("y and d must be 2-d arrays of identical shape")
    return batch


@dataclass(frozen=True)
class EblpModel:
    """Fitted state sufficient for out-of-sample prediction.

    ``u_hat`` lives in the fitting coordinates (whitened when
    ``whitened``); ``w_diag`` is all ones otherwise.  ``mean`` is the
    available-case column mean that was removed before fitting.

    Construction also builds the out-of-sample prediction operator once:
    a (p, r) input map and an (r, p) output map, so that
    :func:`predict_out_of_sample` costs two (p, r) products per row.  The
    operator is private state, not compared, shown or saved, and is built
    again by ``dataclasses.replace``; treat the fitted arrays as read-only
    once the model exists.  Arrays that disagree in shape, or estimates
    that do not match the columns of ``u_hat``, raise ShapeError.  The
    operator divides by M-hat and W, so the fitted arrays must be finite,
    M-hat at least ``DEFAULT_M_FLOOR``, W positive and ``n`` at least 1,
    as a fit leaves them; anything else raises ValueError naming the first
    bad entry.  The estimates may be infinite: beyond about 1e154 a fit's
    ``ell_hat`` overflows while its weights stay exact.
    """

    u_hat: np.ndarray            # (p, r)
    estimates: SpikeEstimates    # (r,) each
    m_hat_diag: np.ndarray       # (p,)
    w_diag: np.ndarray           # (p,)
    whitened: bool
    mean: np.ndarray             # (p,)
    n: int
    _inward: np.ndarray = field(init=False, repr=False, compare=False)
    _outward: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        u, m, w = self.u_hat, self.m_hat_diag, self.w_diag
        p = np.size(m)
        if np.ndim(m) != 1 or np.ndim(u) != 2 or np.shape(u)[0] != p or not (
            np.shape(w) == np.shape(self.mean) == (p,)
        ):
            raise ShapeError("inconsistent model dimensions")
        if {np.shape(a) for a in vars(self.estimates).values()} != {np.shape(u)[1:]}:
            raise ShapeError("estimates do not match component count")
        for name in ("m_hat_diag", "w_diag", "mean", "u_hat"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite value in {name}")
        for name, bad, rule in (
            ("m_hat_diag", m < DEFAULT_M_FLOOR, f"at least {DEFAULT_M_FLOOR:g}"),
            ("w_diag", w <= 0, "positive"),
        ):
            if bad.any():
                j = int(np.argmax(bad))
                raise ValueError(f"{name}[{j}] must be {rule}, got {float(getattr(self, name)[j])!r}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        # X-hat = mean + W^-1 U diag(eta) U' W M^-1 (A'y - A'A mean).
        object.__setattr__(self, "_inward", u * (w / m)[:, None])
        object.__setattr__(self, "_outward", _eta(self)[:, None] * (u / w[:, None]).T)

    @property
    def p(self) -> int:
        return self.m_hat_diag.size

    @property
    def rank(self) -> int:
        return self.u_hat.shape[1]


def _eta(model: EblpModel) -> np.ndarray:
    """Per-component weights ell c^2 / (ell c^2 + d_k), where d_k = 1 in
    whitened coordinates and d_k = u_k' M-hat^-1 u_k otherwise (white
    original noise); 0 for subcritical components."""
    u, est = model.u_hat, model.estimates
    if model.whitened:
        noise = np.ones(u.shape[1])
    else:
        noise = np.einsum("jk,jk->k", u, u / model.m_hat_diag[:, None])
    # 1 / (1 + d / signal) is signal / (signal + d), and stays 1 where the
    # signal estimate overflowed to inf.  Masked-out entries may be NaN.
    with np.errstate(all="ignore"):
        signal = est.ell_hat * est.c2_hat
        keep = est.supercritical & (signal != 0) & (signal + noise > 0)
        return np.where(keep, 1.0 / (1.0 + noise / signal), 0.0)


def fit_in_sample(
    dataset: TransformedObservation,
    r: int,
    whiten: bool = True,
    mode: str = "plugin",
    *,
    center: bool = True,
    noise_var_diag: np.ndarray | None = None,
) -> tuple[EblpModel, np.ndarray]:
    """Fit the in-sample predictor and denoise the whole dataset.

    ``dataset`` is an (n, p) batch of observations, one sample per row, as
    built by :func:`dataset_from_arrays`; its arrays are read, never
    written.  Steps: backproject, normalize by the mean transform weight
    M-hat, optionally whiten by W = M-hat^(1/2), shrink singular values
    (``mode="plugin"``: calibrated on the residual spectrum; ``"white"``:
    by the white-noise closed forms for unit effective noise), unwhiten,
    restore the available-case column mean sum(backprojected) / sum(d).

    ``noise_var_diag``, when the sample-space noise variances are known up
    to scale, folds them into the whitening so the effective noise is
    isotropic: W = sqrt(M-hat / v); it is a ValueError without ``whiten``,
    which would ignore it.  A coordinate whose M-hat falls below
    ``DEFAULT_M_FLOOR`` raises DegenerateCoordinateError naming every such
    one.  ``y`` must be finite, even where ``d == 0``; its first
    non-finite cell in row-major order is a ValueError.

    Returns (model, X-hat) with X-hat of shape n x p.
    """
    if not isinstance(dataset, TransformedObservation) or dataset.y.ndim != 2:
        raise ShapeError(
            "fit_in_sample takes an (n, p) batch; build it with dataset_from_arrays(y, d)"
        )
    if noise_var_diag is not None and not whiten:
        raise ValueError("noise_var_diag applies only to a whitened fit")
    y, d = dataset.y, dataset.d
    n, p = y.shape
    if n == 0:
        raise ShapeError("dataset must contain at least one observation")
    if r < 0 or r > min(n, p):
        raise RankError(f"rank {r} out of range for {n} samples in dimension {p}")
    if not np.isfinite(y).all():
        i, j = np.argwhere(~np.isfinite(y))[0]
        raise ValueError(f"y is not finite: {float(y[i, j])!r} at index ({i}, {j})")

    weight = d.sum(axis=0)
    m_hat = weight / n
    bad = np.flatnonzero(m_hat < DEFAULT_M_FLOOR)
    if bad.size:
        raise DegenerateCoordinateError(bad.tolist(), DEFAULT_M_FLOOR)

    # One working buffer: backproject, center, then normalize and whiten.
    b = np.sqrt(d)
    b *= y
    mean = np.zeros(p)
    if center:
        seen = weight > 0
        mean[seen] = b.sum(axis=0)[seen] / weight[seen]
    for i in range(0, n, step := max(1, 16384 // max(p, 1))):  # not one full-size d * mean
        b[i:i + step] -= d[i:i + step] * mean

    w_diag = np.ones(p)
    if whiten:
        # Unknown variances are unit ones: m_hat / 1.0 is m_hat, bit for bit.
        v = np.ones(p) if noise_var_diag is None else np.asarray(noise_var_diag, dtype=float)
        if v.shape != (p,) or not (np.isfinite(v) & (v > 0)).all():
            raise ShapeError("noise_var_diag must be p positive reals")
        w_diag = np.sqrt(m_hat / v)

    # B~ = B M^-1, then B~ W; combined column scale.
    b *= w_diag / m_hat

    # shrink_triplets prescales b in place, and X-hat then overwrites it.
    v_hat, u_hat, estimates = shrink_triplets(b, r, mode=mode)
    x_hat = np.matmul(np.sqrt(n) * (v_hat * estimates.lambda_star), u_hat.T, out=b)
    x_hat /= w_diag
    x_hat += mean

    model = EblpModel(
        u_hat=u_hat,
        estimates=estimates,
        m_hat_diag=m_hat,
        w_diag=w_diag,
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
    and d = u' M-hat^-1 u otherwise (white original noise).  The model
    holds this map, built once at its construction, so a row costs the
    centering and two (p, r) products.  Returns a vector of length p, or
    a (k, p) array for a batch.  ``y`` is not checked: a non-finite
    ``y`` gives non-finite predictions.
    """
    p = model.p
    if obs.y.shape[-1] != p:
        raise ShapeError(f"observation has dimension {obs.y.shape[-1]}, model expects {p}")

    # Center elementwise before the products: subtracting a precomputed
    # (d * mean) @ inward afterwards would cancel catastrophically for
    # large means.
    b = np.sqrt(obs.d)
    b *= obs.y
    b -= obs.d * model.mean
    out = (b @ model._inward) @ model._outward
    out += model.mean
    return out
