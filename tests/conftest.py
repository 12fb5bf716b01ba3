import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate

# Property tests draw the same examples on every run and never fail on
# timing: shared machines stall for seconds at a time.
settings.register_profile(
    "eblp", derandomize=True, deadline=None, max_examples=50, database=None
)
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
        for col, est in enumerate(model.estimates):
            if not est.supercritical:
                continue
            u = model.u_hat[:, col]
            d_k = 1.0 if model.whitened else float(u @ (u / model.m_hat_diag))
            signal = est.ell_hat * est.c2_hat
            eta = signal / (signal + d_k) if signal + d_k > 0 else 0.0
            row += eta * (u @ b_fit) * u
        out[i] = row / model.w_diag + model.mean
    return out
