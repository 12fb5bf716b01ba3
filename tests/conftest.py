from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate

# Property tests draw the same examples on every run and never fail on
# timing: shared machines stall for seconds at a time.
settings.register_profile(
    "eblp", derandomize=True, deadline=None, max_examples=50, database=None
)
# A longer run of the same properties: pytest --hypothesis-profile=ci
settings.register_profile("ci", settings.get_profile("eblp"), max_examples=2000)
settings.load_profile("eblp")


def mp_stieltjes_quadrature(x: float, gamma: float) -> float:
    """Independent oracle: integrate the Marchenko-Pastur density directly."""
    a = (1.0 - np.sqrt(gamma)) ** 2
    b = (1.0 + np.sqrt(gamma)) ** 2
    def dens(t):
        return np.sqrt((b - t) * (t - a)) / (2.0 * np.pi * gamma * t)
    val, _ = integrate.quad(lambda t: dens(t) / (t - x), a, b, limit=200)
    mass_at_zero = max(1.0 - 1.0 / gamma, 0.0)
    return val + mass_at_zero / (0.0 - x)


def mp_white_stieltjes(x: float, gamma: float) -> float:
    """Closed-form Stieltjes transform of the unit-variance MP law
    with ratio gamma, for ``x`` at or above the bulk edge.

    The branch is fixed by m(x) ~ -1/x as x -> infinity and is checked
    against the quadrature oracle and the plug-in estimator on simulated
    white-noise spectra.  At the edge the limit value is returned.
    """
    from eblp import SpectrumDomainError, mp_bulk_edge

    if gamma <= 0:
        raise SpectrumDomainError("gamma must be positive")
    edge = mp_bulk_edge(gamma)
    if x < edge:
        raise SpectrumDomainError(
            f"x = {x:g} lies inside or below the MP bulk (edge {edge:g})"
        )
    lower = (1.0 - np.sqrt(gamma)) ** 2
    disc = (x - lower) * (x - edge)
    return ((1.0 - gamma - x) + np.sqrt(max(disc, 0.0))) / (2.0 * gamma * x)


def spiked_white_data(
    rng: np.random.Generator, n: int, p: int, ell: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classical spiked sample: X = Z sqrt(L) U' plus unit white noise.

    Returns (Y, U, Z) with orthonormal U (p, r) and the factor scores Z (n, r).
    """
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    r = ell.size
    u, _ = np.linalg.qr(rng.standard_normal((p, r)))
    z = rng.standard_normal((n, r))
    y = (z * np.sqrt(ell)) @ u.T + rng.standard_normal((n, p))
    return y, u, z


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def loop_predict(model, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Reference out-of-sample predictor: one row and one component at a
    time, with weights signal / (signal + d_k).  Returns a (k, p) array
    for (k, p) inputs."""
    out = np.zeros(y.shape)
    for i in range(y.shape[0]):
        b = np.sqrt(d[i]) * y[i] - d[i] * model.mean
        b_fit = b * (model.w_diag / model.m_hat_diag)
        row = np.zeros(model.p)
        est = model.estimates
        for col in range(model.rank):
            if not est.supercritical[col]:
                continue
            u = model.u_hat[:, col]
            d_k = 1.0 if model.whitened else float(u @ (u / model.m_hat_diag))
            signal = est.ell_hat[col] * est.c2_hat[col]
            eta = signal / (signal + d_k) if signal + d_k > 0 else 0.0
            row += eta * (u @ b_fit) * u
        out[i] = row / model.w_diag + model.mean
    return out


def loop_eta(model) -> np.ndarray:
    """Reference out-of-sample weights, one component at a time in Python
    floats, in the operation order the weights of the model must
    reproduce bit for bit: 1 / (1 + d_k / (ell c^2)) for a supercritical
    component whose signal ell c^2 is nonzero and signal + d_k > 0, and 0
    otherwise; d_k = 1 whitened and u_k' M-hat^-1 u_k unwhitened."""
    u, est = model.u_hat, model.estimates
    if model.whitened:
        noise = [1.0] * u.shape[1]
    else:
        noise = np.einsum("jk,jk->k", u, u / model.m_hat_diag[:, None]).tolist()
    eta = np.zeros(u.shape[1])
    rows = zip(est.ell_hat.tolist(), est.c2_hat.tolist(), est.supercritical.tolist(), noise)
    for k, (ell, c2, supercritical, d_k) in enumerate(rows):
        signal = ell * c2
        if supercritical and signal != 0 and signal + d_k > 0:
            eta[k] = 1.0 / (1.0 + d_k / signal)
    return eta


ESTIMATE_FIELDS = ("ell_hat", "c2_hat", "ct2_hat", "lambda_star", "sigma_obs",
                   "supercritical", "clamped")


def component(*values) -> SimpleNamespace:
    """One component's estimates (ell_hat, c2_hat, ct2_hat, lambda_star,
    sigma_obs, supercritical[, clamped]), by name."""
    return SimpleNamespace(**dict(zip(ESTIMATE_FIELDS, values + (False,) * (7 - len(values)))))


def components(estimates) -> list[SimpleNamespace]:
    """A record of estimates as one ``component`` per component, in
    Python floats and bools."""
    columns = (getattr(estimates, name).tolist() for name in ESTIMATE_FIELDS)
    return [component(*values) for values in zip(*columns)]


def spike_estimates(rows) -> "SpikeEstimates":
    """A record of estimates from per-component rows (ell_hat, c2_hat,
    ct2_hat, lambda_star, sigma_obs, supercritical[, clamped])."""
    from eblp import SpikeEstimates

    rows = [tuple(row) + (False,) * (7 - len(row)) for row in rows]
    columns = list(zip(*rows)) or [()] * 7
    return SpikeEstimates(*(np.array(c, dtype=float) for c in columns[:5]),
                          *(np.array(c, dtype=bool) for c in columns[5:]))


def reference_fit(
    y: np.ndarray,
    d: np.ndarray,
    r: int,
    whiten: bool = True,
    mode: str = "plugin",
    *,
    center: bool = True,
    m_floor: float = 1e-6,
    m_diag: np.ndarray | None = None,
    noise_var_diag: np.ndarray | None = None,
):
    """Reference in-sample fit: stacked row copies and one fresh array per
    step, the operation order that ``fit_in_sample`` must reproduce bit
    for bit.  ``m_diag`` replaces the estimated M-hat by a known one, which
    ``fit_in_sample`` cannot take.  Returns (model, x_hat)."""
    from eblp import DegenerateCoordinateError, RankError, ShapeError
    from eblp.pipeline import EblpModel
    from eblp.shrinkage import shrink_triplets

    y = np.stack([np.asarray(row, dtype=float) for row in y])
    d = np.stack([np.asarray(row, dtype=float) for row in d])
    n, p = y.shape
    if r < 0 or r > min(n, p):
        raise RankError(f"rank {r} out of range for {n} samples in dimension {p}")

    if m_diag is not None:
        m_hat = np.asarray(m_diag, dtype=float)
        if m_hat.shape != (p,):
            raise ShapeError("m_diag must have length p")
    else:
        m_hat = d.mean(axis=0)
    bad = np.flatnonzero(m_hat < m_floor)
    if bad.size:
        raise DegenerateCoordinateError(bad.tolist(), m_floor)

    b = np.sqrt(d) * y
    mean = np.zeros(p)
    if center:
        weight = d.sum(axis=0)
        seen = weight > 0
        mean[seen] = b.sum(axis=0)[seen] / weight[seen]
    b -= d * mean[None, :]

    if whiten:
        if noise_var_diag is not None:
            w_diag = np.sqrt(m_hat / np.asarray(noise_var_diag, dtype=float))
        else:
            w_diag = np.sqrt(m_hat)
    else:
        w_diag = np.ones(p)

    fit_scale = w_diag / m_hat
    b_fit = b * fit_scale[None, :]

    v_hat, u_hat, estimates = shrink_triplets(b_fit, r, mode=mode)
    x_fit = np.sqrt(n) * (v_hat * estimates.lambda_star) @ u_hat.T
    x_hat = x_fit / w_diag[None, :] + mean[None, :]

    model = EblpModel(
        u_hat=u_hat, estimates=estimates, m_hat_diag=m_hat,
        w_diag=w_diag, whitened=whiten, mean=mean, n=n,
    )
    return model, x_hat


def shrink_plain(y: np.ndarray, r: int, mode: str = "plugin"):
    """Plain singular-value shrinkage of ``y / sqrt(n)`` by the one fit
    path: unit transforms, no whitening and no centering, where every other
    step is exact.  Returns (x_hat, estimates)."""
    from eblp import dataset_from_arrays, fit_in_sample

    model, x_hat = fit_in_sample(
        dataset_from_arrays(y, np.ones_like(y)), r,
        whiten=False, center=False, mode=mode,
    )
    return x_hat, model.estimates


def reference_nnrls(y_masked: np.ndarray, mask: np.ndarray, config):
    """Reference NNRLS: the accelerated proximal gradient loop with one
    fresh array per step, whose iterates, objective history, iteration
    count and flag ``nnrls`` must reproduce bit for bit from its fixed
    working arrays.  Calls the library prox without ``out``.  Returns an
    ``NnrlsResult``."""
    from eblp import baselines

    y_masked = np.asarray(y_masked, dtype=float)
    mask = np.asarray(mask, dtype=float)
    y = np.where(mask != 0, y_masked, 0.0) * mask
    cw = config.column_weights
    c_inv = None if cw is None else 1.0 / cw
    step = 1.0 if cw is None else float(np.min(cw) ** 2)

    def objective_parts(z, nuc):
        x = z if c_inv is None else z * c_inv[None, :]
        resid = (x - y) * mask
        return 0.5 * float(np.sum(resid * resid)) + config.w * nuc

    def gradient(z):
        x = z if c_inv is None else z * c_inv[None, :]
        g = (x - y) * mask
        return g if c_inv is None else g * c_inv[None, :]

    prox = baselines.soft_threshold_singular_values
    z = np.zeros_like(y)
    momentum = z
    t = 1.0
    obj = objective_parts(z, 0.0)
    history = [obj]
    converged = False
    iterations = restarts = 0
    for iterations in range(1, config.max_iters + 1):
        cand, nuc = prox(momentum - step * gradient(momentum), config.w * step)
        cand_obj = objective_parts(cand, nuc)
        if cand_obj > obj:
            restarts += 1
            cand, nuc = prox(z - step * gradient(z), config.w * step)
            cand_obj = objective_parts(cand, nuc)
            t = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        momentum = cand + ((t - 1.0) / t_next) * (cand - z)
        z = cand
        t = t_next
        decrease = obj - cand_obj
        obj = cand_obj
        history.append(obj)
        if decrease <= config.tol * max(abs(obj), 1.0):
            converged = True
            break
    return baselines.NnrlsResult(
        x_hat=z if c_inv is None else z * c_inv[None, :],
        iterations=iterations,
        converged=converged,
        objective_history=tuple(history),
        prox_calls=iterations + restarts,
    )


def spectrum_of(matrix: np.ndarray):
    """EigenSpectrum of ``matrix' matrix / n`` for an n x p data matrix."""
    from eblp import EigenSpectrum
    from eblp.spectral import gram_eigh

    matrix = np.asarray(matrix, dtype=float)
    n, p = matrix.shape
    return EigenSpectrum(values=gram_eigh(matrix)[0] / n, n=n, p=p)


@dataclass(frozen=True)
class SignalModel:
    """Ground-truth low-rank signal law of the oracles: strengths,
    directions, mean."""

    ell: np.ndarray              # (r,), strictly decreasing positive
    u: np.ndarray                # (p, r), orthonormal columns
    mean: np.ndarray | None = None

    def __post_init__(self):
        from eblp import ShapeError

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


def blp_oracle(obs, signal, noise_cov_diag) -> np.ndarray:
    """Exact best linear predictor given the true signal law (test oracle).

    Evaluates Sigma_X A' (A Sigma_X A' + Sigma_eps)^-1 (y - A mean) + mean
    with a dense solve restricted to the observed coordinates.
    """
    from eblp import ShapeError

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


def simple_blp_uniform(obs, signal, m: float) -> np.ndarray:
    """Inverse-free reduction of the BLP valid in the uniform model
    (E A'A = m I, unit noise): sum_k ell_k/(1 + m ell_k) u_k u_k' A'y."""
    from eblp import ShapeError

    p = obs.y.size
    if signal.u.shape[0] != p:
        raise ShapeError("signal dimension does not match the observation")
    mean = signal.mean if signal.mean is not None else np.zeros(p)
    b = np.sqrt(obs.d) * obs.y - obs.d * mean
    coeff = (signal.ell / (1.0 + m * signal.ell)) * (signal.u.T @ b)
    return signal.u @ coeff + mean


def read_results(path) -> list[dict]:
    """The rows of a results table that ``eblp benchmark`` wrote, with its
    numbers as numbers."""
    from eblp.matio import RESULT_COLUMNS

    header, *lines = Path(path).read_text().splitlines()
    assert tuple(header.split()) == RESULT_COLUMNS, header
    rows = []
    for line in lines:
        tokens = line.split()
        assert len(tokens) == len(RESULT_COLUMNS), line
        row = dict(zip(RESULT_COLUMNS, tokens))
        row["replicate"] = int(row["replicate"])
        for col in ("sigma", "delta", "kappa", "rmse", "seconds", "amse_est"):
            row[col] = float(row[col])
        rows.append(row)
    return rows
