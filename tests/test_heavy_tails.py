"""Criteria 4 and 5 of the acceptance suite under heavy-tailed noise.

Each test reruns its criterion with the same design, seed and tolerance;
only the Gaussian noise draw is replaced, in place, by unit-variance
Student-t noise with ``nu`` degrees of freedom.  The fits rest on the
noise's fourth moment (Yin, Bai & Krishnaiah, PTRF 1988), which is finite
for every ``nu > 4`` drawn here.  At ``nu = 3`` it is not, and both
criteria fail (see the README); that case is not tested.
"""

import numpy as np
import pytest

from eblp import TransformedObservation, dataset_from_arrays, fit_in_sample, predict_out_of_sample
from eblp.simulate import rmse

DEGREES = [8.0, 5.0, 4.5]


def t_noise(rng, nu, shape):
    """Student-t noise scaled to unit variance."""
    return rng.standard_t(nu, shape) * np.sqrt((nu - 2) / nu)


@pytest.mark.parametrize("nu", DEGREES)
def test_04_amse_estimator_under_t_noise(nu):
    rng = np.random.default_rng(104)
    p, n, delta = 300, 375, 0.7
    ell = np.arange(10, 0, -1).astype(float)
    realized, estimated = [], []
    for _ in range(20):
        u, _ = np.linalg.qr(rng.standard_normal((p, ell.size)))
        z = rng.standard_normal((n, ell.size))
        x = (z * np.sqrt(ell)) @ u.T
        masks = (rng.random((n, p)) < delta).astype(float)
        y = masks * (x + t_noise(rng, nu, (n, p)))
        model, x_hat = fit_in_sample(
            dataset_from_arrays(y, masks), 10, whiten=False, mode="plugin", center=False
        )
        realized.append(np.linalg.norm(x_hat - x) ** 2 / n)
        estimated.append(model.estimates.amse)
    ratio = np.mean(estimated) / np.mean(realized)
    print(f"[criterion  4, t{nu:g}] AMSE estimate/realized = {ratio:.4f} (tol 5%)")
    assert abs(ratio - 1.0) <= 0.05


@pytest.mark.parametrize("nu", DEGREES)
def test_05_in_out_of_sample_equality_under_t_noise(nu):
    rng = np.random.default_rng(105)
    p, delta = 500, 0.8
    r_in, r_out = [], []
    for _ in range(20):
        n = int(rng.integers(520, 1100))
        ell = float(rng.uniform(3.0, 15.0))
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))

        def draw(nn):
            z = rng.standard_normal((nn, 1))
            x = np.sqrt(ell) * z @ u.T
            m = (rng.random((nn, p)) < delta).astype(float)
            return x, m, m * (x + t_noise(rng, nu, (nn, p)))

        x_in, m_in, y_in = draw(n)
        x_out, m_out, y_out = draw(n)
        model, xh_in = fit_in_sample(dataset_from_arrays(y_in, m_in), 1, whiten=True)
        xh_out = np.stack(
            [
                predict_out_of_sample(model, TransformedObservation(y=yo, d=mo))
                for yo, mo in zip(y_out, m_out)
            ]
        )
        r_in.append(rmse(xh_in, x_in))
        r_out.append(rmse(xh_out, x_out))
    gap = abs(np.mean(r_in) - np.mean(r_out)) / np.mean(r_in)
    print(f"[criterion  5, t{nu:g}] in/out RMSE gap {gap:.3%} (tol 5%)")
    assert gap <= 0.05
