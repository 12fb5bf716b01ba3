from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import blp_oracle, loop_predict, reference_fit, simple_blp_uniform
from eblp import (
    DegenerateCoordinateError,
    RankError,
    ShapeError,
    SignalModel,
    SpikeEstimate,
    TransformedObservation,
    amse,
    dataset_from_arrays,
    fit_in_sample,
    predict_out_of_sample,
    rmse,
)
from eblp.pipeline import EblpModel


def make_dataset(rng, n, p, ell, delta=1.0, sigma=1.0, mean=None):
    """Masked spiked data plus ground truth."""
    ell = np.atleast_1d(np.asarray(ell, dtype=float))
    u, _ = np.linalg.qr(rng.standard_normal((p, ell.size)))
    z = rng.standard_normal((n, ell.size))
    x = (z * np.sqrt(ell)) @ u.T
    if mean is not None:
        x = x + mean[None, :]
    masks = (rng.random((n, p)) < delta).astype(float)
    y = masks * (x + sigma * rng.standard_normal((n, p)))
    return dataset_from_arrays(y, masks), x, SignalModel(ell=ell, u=u, mean=mean)


class TestTransformedObservation:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            TransformedObservation(y=np.ones(3), d=np.ones(4))

    def test_negative_weights_rejected(self):
        with pytest.raises(ShapeError):
            TransformedObservation(y=np.ones(2), d=np.array([1.0, -1.0]))

    def test_nan_weights_rejected(self):
        with pytest.raises(ShapeError, match="nonnegative"):
            TransformedObservation(y=np.ones(3), d=np.array([1.0, np.nan, 1.0]))
        d = np.ones((2, 3))
        d[1, 2] = np.nan
        with pytest.raises(ShapeError, match="nonnegative"):
            TransformedObservation(y=np.ones((2, 3)), d=d)


class TestEstimateM:
    """M-hat, the entrywise mean of diag(A'A), as ``fit_in_sample`` stores it."""

    def test_entrywise_mean(self):
        ds = dataset_from_arrays(np.zeros((2, 2)), np.array([[1.0, 0.0], [1.0, 1.0]]))
        model, _ = fit_in_sample(ds, 0)
        assert np.allclose(model.m_hat_diag, [1.0, 0.5])

    def test_all_ones(self):
        ds = dataset_from_arrays(np.zeros((3, 4)), np.ones((3, 4)))
        model, _ = fit_in_sample(ds, 0)
        assert np.allclose(model.m_hat_diag, 1.0)

    def test_never_observed_coordinate(self):
        d = np.ones((5, 3))
        d[:, 1] = 0.0
        ds = dataset_from_arrays(np.zeros((5, 3)), d)
        with pytest.raises(DegenerateCoordinateError) as exc:
            fit_in_sample(ds, 0)
        assert exc.value.coordinates == [1]


class TestFitInSample:
    def test_pure_noise_predicts_zero(self):
        # All spikes subcritical (white mode exact; plugin leaves at most a
        # vanishing residual since lambda* -> 0 at the bulk edge).
        rng = np.random.default_rng(42)
        n, p = 375, 300
        for _ in range(10):
            y = rng.standard_normal((n, p))
            ds = dataset_from_arrays(y, np.ones((n, p)))
            _, x_white = fit_in_sample(ds, 3, whiten=False, mode="white", center=False)
            assert np.all(x_white == 0)
            _, x_plugin = fit_in_sample(ds, 3, whiten=False, mode="plugin", center=False)
            assert np.linalg.norm(x_plugin) <= 0.05 * np.linalg.norm(y)

    def test_whiten_toggle_irrelevant_for_constant_weights(self, rng):
        # d = delta everywhere makes W a scalar, so whitening cannot change
        # the predictions.
        n, p = 120, 90
        x = 2.5 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y = np.sqrt(0.7) * x + rng.standard_normal((n, p))
        d = np.full((n, p), 0.7)
        ds = dataset_from_arrays(y, d)
        _, x_on = fit_in_sample(ds, 1, whiten=True, mode="plugin")
        _, x_off = fit_in_sample(ds, 1, whiten=False, mode="plugin")
        assert np.linalg.norm(x_on - x_off) <= 1e-8 * np.linalg.norm(x_off)

    def test_rank_out_of_range(self, rng):
        ds, _, _ = make_dataset(rng, 20, 10, [4.0])
        with pytest.raises(RankError):
            fit_in_sample(ds, 11)

    def test_degenerate_coordinate_propagates(self, rng):
        y = rng.standard_normal((6, 4))
        d = np.ones((6, 4))
        d[:, 2] = 0.0
        with pytest.raises(DegenerateCoordinateError):
            fit_in_sample(dataset_from_arrays(y * d, d), 1)

    def test_center_restores_mean_on_pure_noise(self):
        rng = np.random.default_rng(9)
        n, p = 375, 300
        mean = rng.standard_normal(p)
        y = mean[None, :] + rng.standard_normal((n, p))
        ds = dataset_from_arrays(y, np.ones((n, p)))
        model, x_hat = fit_in_sample(ds, 2, whiten=True, mode="white")
        expected = np.tile(model.mean, (n, 1))
        assert np.linalg.norm(x_hat - expected) <= 0.05 * np.linalg.norm(expected)

    def test_available_case_mean_uses_observed_entries_only(self):
        y = np.array([[2.0, 0.0], [4.0, 6.0]])
        d = np.array([[1.0, 0.0], [1.0, 1.0]])
        model, _ = fit_in_sample(dataset_from_arrays(y, d), 0)
        assert np.allclose(model.mean, [3.0, 6.0])

    def test_subspace_containment(self, rng):
        # Every centered prediction row lies in the span of the unwhitened
        # component directions W^-1 u_k.
        ds, x, _ = make_dataset(rng, 150, 100, [12.0, 6.0], delta=0.8)
        model, x_hat = fit_in_sample(ds, 2, whiten=True, mode="plugin")
        basis = model.u_hat / model.w_diag[:, None]
        centered = x_hat - model.mean[None, :]
        coeffs, *_ = np.linalg.lstsq(basis, centered.T, rcond=None)
        resid = basis @ coeffs - centered.T
        assert np.linalg.norm(resid) <= 1e-8 * max(np.linalg.norm(centered), 1e-12)

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(60, 40), (40, 60), (50, 50)]),
        rank=st.integers(1, 2),
        whiten=st.booleans(),
        mode=st.sampled_from(["plugin", "white"]),
        permute=st.sampled_from(["rows", "columns", "both"]),
    )
    def test_permutation_equivariance(self, seed, shape, rank, whiten, mode, permute):
        # Permuting samples, coordinates or both permutes every fitted
        # output and leaves the spike estimates alone; only summation order
        # changes, so values agree to rounding, not bit for bit.
        rng = np.random.default_rng(seed)
        n, p = shape
        ds, _, _ = make_dataset(rng, n, p, [40.0, 15.0], delta=0.7, mean=rng.standard_normal(p))
        rows = rng.permutation(n) if permute != "columns" else np.arange(n)
        cols = rng.permutation(p) if permute != "rows" else np.arange(p)
        model, x_hat = fit_in_sample(ds, rank, whiten=whiten, mode=mode)
        permuted = dataset_from_arrays(ds.y[rows][:, cols], ds.d[rows][:, cols])
        model_perm, x_perm = fit_in_sample(permuted, rank, whiten=whiten, mode=mode)
        assert max_rel_err(x_perm, x_hat[rows][:, cols]) <= 1e-12
        assert max_rel_err(model_perm.m_hat_diag, model.m_hat_diag[cols]) <= 1e-12
        assert max_rel_err(model_perm.w_diag, model.w_diag[cols]) <= 1e-12
        assert max_rel_err(model_perm.mean, model.mean[cols]) <= 1e-12
        fields = lambda m: np.array([astuple(e) for e in m.estimates], dtype=float)  # noqa: E731
        want = fields(model)
        for column in range(want.shape[1]):
            assert max_rel_err(fields(model_perm)[:, column], want[:, column]) <= 1e-12

    def test_orthonormal_u_hat(self, rng):
        ds, _, _ = make_dataset(rng, 150, 100, [10.0, 5.0], delta=0.9)
        model, _ = fit_in_sample(ds, 2)
        gram = model.u_hat.T @ model.u_hat
        assert np.allclose(gram, np.eye(2), atol=1e-10)

    def test_estimated_amse_nonnegative(self, rng):
        ds, _, _ = make_dataset(rng, 150, 100, [10.0], delta=0.9)
        model, _ = fit_in_sample(ds, 1)
        assert amse(model.estimates) >= 0


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFitReference:
    """``fit_in_sample`` on one working buffer against the stacked
    reference in ``conftest.reference_fit``."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(40, 12), (12, 40), (25, 25), (60, 30)]),
        rank=st.integers(0, 3),
        whiten=st.booleans(),
        mode=st.sampled_from(["plugin", "white"]),
        center=st.booleans(),
        noise_var_diag=st.booleans(),
    )
    def test_bitwise_equal_to_reference(self, seed, shape, rank, whiten, mode, center,
                                        noise_var_diag):
        rng = np.random.default_rng(seed)
        n, p = shape
        d = (rng.random((n, p)) < 0.8) * rng.uniform(0.0, 2.0, (n, p))
        d[rng.integers(n, size=p), np.arange(p)] = 1.0   # no empty column
        x = 3.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) + rng.standard_normal(p)
        y = np.sqrt(d) * (x + rng.standard_normal((n, p)))
        kwargs = {"center": center}
        if noise_var_diag:
            kwargs["noise_var_diag"] = rng.uniform(0.5, 2.0, p)

        want_model, want_x = reference_fit(y, d, rank, whiten, mode, **kwargs)
        model, x_hat = fit_in_sample(dataset_from_arrays(y, d), rank, whiten, mode, **kwargs)
        assert same_bits(x_hat, want_x)
        for name in ("m_hat_diag", "mean", "w_diag", "u_hat"):
            assert same_bits(getattr(model, name), getattr(want_model, name)), name
        assert (model.rank, model.whitened, model.n) == (want_model.rank, want_model.whitened, n)
        fields = lambda m: np.array([astuple(e) for e in m.estimates], dtype=float)  # noqa: E731
        assert same_bits(fields(model), fields(want_model))

    def test_caller_arrays_untouched(self, rng):
        # The batch wraps the caller's arrays without a copy; fitting and
        # predicting must only read them (a write to a read-only array raises).
        n, p = 80, 30
        d = (rng.random((n, p)) < 0.7) * rng.uniform(0.2, 2.0, (n, p))
        y = np.sqrt(d) * (4.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
                          + rng.standard_normal((n, p)) + 2.0)
        y0, d0 = y.copy(), d.copy()
        y.flags.writeable = False
        d.flags.writeable = False
        batch = dataset_from_arrays(y, d)
        assert batch.y is y and batch.d is d
        for whiten in (True, False):
            for mode in ("plugin", "white"):
                model, _ = fit_in_sample(batch, 2, whiten=whiten, mode=mode)
                predict_out_of_sample(model, batch)
                predict_out_of_sample(model, TransformedObservation(y=y[0], d=d[0]))
        assert same_bits(y, y0) and same_bits(d, d0)


class TestFitScaleEquivariance:
    """A plug-in fit of ``y * 2**k`` is the fit of ``y`` scaled exactly:
    the backprojection, the available-case mean and the fit's power-of-two
    prescale carry the factor through unrounded."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(40, 12), (12, 40), (25, 25), (60, 30)]),
        rank=st.integers(0, 3),
        noise_var_diag=st.booleans(),
        k=st.integers(-400, 400),
    )
    def test_power_of_two_scale(self, seed, shape, rank, noise_var_diag, k):
        rng = np.random.default_rng(seed)
        n, p = shape
        d = (rng.random((n, p)) < 0.8).astype(float)
        d[rng.integers(n, size=p), np.arange(p)] = 1.0   # no empty column
        x = 3.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) + rng.standard_normal(p)
        y = d * (x + rng.standard_normal((n, p)))
        v = rng.uniform(0.5, 2.0, p) if noise_var_diag else None

        def fit(values):
            return fit_in_sample(dataset_from_arrays(values, d), rank, whiten=True,
                                 mode="plugin", center=True, noise_var_diag=v)

        model, x_hat = fit(y)
        scaled, scaled_x = fit(np.ldexp(y, k))
        assert same_bits(scaled_x, np.ldexp(x_hat, k))
        assert same_bits(scaled.mean, np.ldexp(model.mean, k))
        for name in ("u_hat", "m_hat_diag", "w_diag"):
            assert same_bits(getattr(scaled, name), getattr(model, name)), name
        assert len(scaled.estimates) == len(model.estimates) == rank
        for est, want in zip(scaled.estimates, model.estimates):
            assert est.supercritical == want.supercritical
            assert (est.c2_hat, est.ct2_hat) == (want.c2_hat, want.ct2_hat)
            assert est.ell_hat == np.ldexp(want.ell_hat, 2 * k)
            assert est.lambda_star == np.ldexp(want.lambda_star, k)
            assert est.sigma_obs == np.ldexp(want.sigma_obs, k)


class TestPredictOutOfSample:
    def test_eta_half_when_signal_equals_noise(self):
        # ell c^2 = 1 and d = 1 in whitened coordinates give eta = 1/2.
        p = 4
        u = np.zeros((p, 1))
        u[0, 0] = 1.0
        model = EblpModel(
            u_hat=u,
            estimates=[SpikeEstimate(1.0, 1.0, 1.0, 1.0, 1.0, True)],
            m_hat_diag=np.ones(p),
            w_diag=np.ones(p),
            whitened=True,
            mean=np.zeros(p),
            n=1,
        )
        obs = TransformedObservation(y=np.array([3.0, 0, 0, 0]), d=np.ones(p))
        out = predict_out_of_sample(model, obs)
        assert np.allclose(out, [1.5, 0, 0, 0])

    def test_subcritical_component_contributes_nothing(self):
        p = 3
        model = EblpModel(
            u_hat=np.eye(p)[:, :1],
            estimates=[SpikeEstimate.subcritical(1.0)],
            m_hat_diag=np.ones(p),
            w_diag=np.ones(p),
            whitened=True,
            mean=np.zeros(p),
            n=1,
        )
        obs = TransformedObservation(y=np.array([5.0, 1.0, 1.0]), d=np.ones(p))
        assert np.allclose(predict_out_of_sample(model, obs), 0.0)

    def test_eta_tends_to_one_as_noise_direction_vanishes(self):
        # Unwhitened coordinates: d_k = u' M^-1 u -> 0 for large M, so the
        # projection coefficient approaches 1.
        p = 3
        big = 1e8
        u = np.eye(p)[:, :1]
        model = EblpModel(
            u_hat=u,
            estimates=[SpikeEstimate(1.0, 1.0, 1.0, 1.0, 1.0, True)],
            m_hat_diag=np.full(p, big),
            w_diag=np.ones(p),
            whitened=False,
            mean=np.zeros(p),
            n=1,
        )
        obs = TransformedObservation(y=np.array([2.0, 0, 0]), d=np.ones(p))
        out = predict_out_of_sample(model, obs)
        eta = out[0] * big / 2.0
        assert eta == pytest.approx(1.0, abs=1e-7)

    def test_model_without_2d_u_hat_not_fitted(self, rng):
        # A model that could not predict cannot be built.
        ds, _, _ = make_dataset(rng, 30, 20, [6.0])
        model, _ = fit_in_sample(ds, 1)
        with pytest.raises(ShapeError, match="inconsistent model dimensions"):
            replace(model, u_hat=model.u_hat[:, 0])

    def test_inconsistent_arrays_rejected(self, rng):
        ds, _, _ = make_dataset(rng, 30, 20, [6.0, 3.0])
        model, _ = fit_in_sample(ds, 2)
        assert model.rank == 2
        for name, value in [
            ("u_hat", model.u_hat[1:]),
            ("m_hat_diag", model.m_hat_diag[:, None]),
            ("w_diag", model.w_diag[1:]),
            ("mean", np.append(model.mean, 0.0)),
        ]:
            with pytest.raises(ShapeError, match="inconsistent model dimensions"):
                replace(model, **{name: value})
        for count in (1, 3):
            estimates = (model.estimates * 2)[:count]
            with pytest.raises(ShapeError, match="estimates do not match component count"):
                replace(model, estimates=estimates)

    def test_operator_is_private_state(self, rng):
        ds, _, _ = make_dataset(rng, 30, 20, [6.0])
        model, _ = fit_in_sample(ds, 1)
        assert "_inward" not in repr(model) and "_outward" not in repr(model)
        twin = replace(model)
        assert twin == model
        assert twin._inward is not model._inward
        assert np.array_equal(twin._inward, model._inward)
        with pytest.raises(TypeError):
            EblpModel(**{**vars(model), "_inward": None})

    def test_dimension_mismatch(self, rng):
        ds, _, _ = make_dataset(rng, 30, 20, [6.0])
        model, _ = fit_in_sample(ds, 1)
        with pytest.raises(ShapeError):
            predict_out_of_sample(
                model, TransformedObservation(y=np.ones(5), d=np.ones(5))
            )

    def test_in_and_out_of_sample_errors_agree(self, rng):
        p, delta, n = 200, 0.8, 300
        ell = np.array([9.0])
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))

        def draw():
            z = rng.standard_normal((n, 1))
            x = np.sqrt(ell) * z @ u.T
            m = (rng.random((n, p)) < delta).astype(float)
            return x, m, m * (x + rng.standard_normal((n, p)))

        ratios = []
        for _ in range(5):
            x_in, m_in, y_in = draw()
            x_out, m_out, y_out = draw()
            model, xh_in = fit_in_sample(dataset_from_arrays(y_in, m_in), 1, whiten=True)
            xh_out = np.stack(
                [
                    predict_out_of_sample(model, TransformedObservation(y=yo, d=mo))
                    for yo, mo in zip(y_out, m_out)
                ]
            )
            ratios.append(rmse(xh_out, x_out) / rmse(xh_in, x_in))
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.1)


def max_rel_err(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want), initial=0.0)), 1e-300)
    return float(np.max(np.abs(got - want), initial=0.0)) / scale


class TestBatchPrediction:
    """One call on a (k, p) batch against the per-row, per-component loop."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(40, 12), (25, 30), (30, 30), (60, 8)]),
        rank=st.integers(1, 4),
        whiten=st.booleans(),
        mode=st.sampled_from(["plugin", "white"]),
        k=st.sampled_from([0, 1, 9]),
        subcritical=st.lists(st.booleans(), min_size=4, max_size=4),
    )
    def test_batch_matches_row_loop(self, seed, shape, rank, whiten, mode, k, subcritical):
        rng = np.random.default_rng(seed)
        n, p = shape
        ds, _, _ = make_dataset(rng, n, p, [20.0, 8.0], delta=0.7,
                                mean=rng.standard_normal(p))
        model, _ = fit_in_sample(ds, rank, whiten=whiten, mode=mode)
        # Flag some components subcritical on top of what the fit found,
        # keeping their nonzero estimates: the flag alone must drop them.
        model = replace(model, estimates=[
            replace(e, supercritical=False) if off else e
            for e, off in zip(model.estimates, subcritical)
        ])
        d = (rng.random((k, p)) < 0.7) * rng.uniform(0.2, 2.0, (k, p))
        y = d * rng.standard_normal((k, p)) * 3.0

        batch = predict_out_of_sample(model, TransformedObservation(y=y, d=d))
        want = loop_predict(model, y, d)
        assert batch.shape == (k, p)
        assert max_rel_err(batch, want) <= 1e-12
        for i in range(k):
            row = predict_out_of_sample(model, TransformedObservation(y=y[i], d=d[i]))
            assert row.shape == (p,)
            assert max_rel_err(row, want[i]) <= 1e-12

    def test_batch_shape_checked(self, rng):
        ds, _, _ = make_dataset(rng, 30, 20, [6.0])
        model, _ = fit_in_sample(ds, 1)
        with pytest.raises(ShapeError):
            predict_out_of_sample(model, TransformedObservation(y=np.ones((3, 5)), d=np.ones((3, 5))))
        with pytest.raises(ShapeError):
            TransformedObservation(y=np.ones((2, 3, 4)), d=np.ones((2, 3, 4)))
        rows = [TransformedObservation(y=np.ones(20), d=np.ones(20)) for _ in range(3)]
        batch_in_list = [TransformedObservation(y=np.ones((2, 20)), d=np.ones((2, 20)))]
        for dataset in (rows, rows[0], batch_in_list):
            with pytest.raises(ShapeError, match="dataset_from_arrays"):
                fit_in_sample(dataset, 1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("whiten", [True, False])
    @pytest.mark.parametrize("scale", [1e160, 1e200])
    def test_extreme_magnitudes_finite(self, whiten, scale):
        # Beyond about 1e154 the plug-in ell_hat overflows to inf, so the
        # weight of a supercritical component is exactly 1.
        rng = np.random.default_rng(4)
        n, p = 200, 150
        y = 3.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y = scale * (y + rng.standard_normal((n, p)))
        d = np.ones((n, p))
        model, x_hat = fit_in_sample(dataset_from_arrays(y, d), 1, whiten=whiten)
        assert np.isfinite(x_hat).all()
        assert model.estimates[0].supercritical
        assert model.estimates[0].ell_hat == np.inf

        pred = predict_out_of_sample(model, TransformedObservation(y=y[:20], d=d[:20]))
        assert np.isfinite(pred).all()
        u = model.u_hat
        b_fit = (y[:20] - model.mean) * (model.w_diag / model.m_hat_diag)
        projection = (b_fit @ u) @ u.T / model.w_diag + model.mean
        assert max_rel_err(pred, projection) <= 1e-12


class TestBlpOracle:
    def test_vanishing_signal_gives_zero(self, rng):
        p = 6
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))
        sig = SignalModel(ell=np.array([1e-12]), u=u)
        obs = TransformedObservation(y=rng.standard_normal(p), d=np.ones(p))
        assert np.allclose(blp_oracle(obs, sig, np.ones(p)), 0.0, atol=1e-9)

    def test_rank_one_full_observation_closed_form(self, rng):
        # Sherman-Morrison: Sigma_X (Sigma_X + I)^-1 y = ell/(ell+1) u u' y.
        p, ell = 8, 3.0
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))
        sig = SignalModel(ell=np.array([ell]), u=u)
        y = rng.standard_normal(p)
        obs = TransformedObservation(y=y, d=np.ones(p))
        expected = (ell / (ell + 1.0)) * u[:, 0] * (u[:, 0] @ y)
        assert np.allclose(blp_oracle(obs, sig, np.ones(p)), expected, atol=1e-12)

    def test_matches_dense_inverse_small_instance(self, rng):
        # p = 5, q = 3, r = 2 against an explicit dense-inverse evaluation.
        p, r = 5, 2
        d = np.array([1.0, 0.0, 2.0, 0.0, 0.5])
        u, _ = np.linalg.qr(rng.standard_normal((p, r)))
        ell = np.array([4.0, 1.5])
        noise = np.array([1.0, 1.0, 2.0, 1.0, 0.7])
        y = rng.standard_normal(p) * (d > 0)
        obs = TransformedObservation(y=y, d=d)

        rows = np.flatnonzero(d > 0)
        a_mat = np.zeros((rows.size, p))
        for i, j in enumerate(rows):
            a_mat[i, j] = np.sqrt(d[j])
        sigma_x = (u * ell) @ u.T
        k = a_mat @ sigma_x @ a_mat.T + np.diag(noise[rows])
        dense = sigma_x @ a_mat.T @ np.linalg.inv(k) @ y[rows]

        sig = SignalModel(ell=ell, u=u)
        assert np.allclose(blp_oracle(obs, sig, noise), dense, atol=1e-10)

    def test_nothing_observed_returns_mean(self, rng):
        p = 4
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))
        mean = rng.standard_normal(p)
        sig = SignalModel(ell=np.array([2.0]), u=u, mean=mean)
        obs = TransformedObservation(y=np.zeros(p), d=np.zeros(p))
        assert np.allclose(blp_oracle(obs, sig, np.ones(p)), mean)


class TestSimpleBlp:
    def test_equals_blp_at_identity_transform(self, rng):
        p, ell = 10, 5.0
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))
        sig = SignalModel(ell=np.array([ell]), u=u)
        y = rng.standard_normal(p)
        obs = TransformedObservation(y=y, d=np.ones(p))
        assert np.allclose(
            simple_blp_uniform(obs, sig, 1.0),
            blp_oracle(obs, sig, np.ones(p)),
            atol=1e-10,
        )

    def test_vanishing_ell(self, rng):
        p = 5
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))
        sig = SignalModel(ell=np.array([1e-14]), u=u)
        obs = TransformedObservation(y=rng.standard_normal(p), d=np.ones(p))
        assert np.allclose(simple_blp_uniform(obs, sig, 0.7), 0.0, atol=1e-12)

    def test_blp_superiority_ordering(self, rng):
        # blp <= simple reduction <= naive backprojection in mean square,
        # averaged over replicates of a uniform-model instance.
        p, delta = 60, 0.7
        ell = np.array([6.0, 2.5])
        mse = {"blp": [], "simple": [], "naive": []}
        for _ in range(15):
            u, _ = np.linalg.qr(rng.standard_normal((p, 2)))
            sig = SignalModel(ell=ell, u=u)
            n = 80
            z = rng.standard_normal((n, 2))
            x = (z * np.sqrt(ell)) @ u.T
            masks = (rng.random((n, p)) < delta).astype(float)
            y = masks * (x + rng.standard_normal((n, p)))
            for i in range(n):
                obs = TransformedObservation(y=y[i], d=masks[i])
                mse["blp"].append(np.sum((blp_oracle(obs, sig, np.ones(p)) - x[i]) ** 2))
                mse["simple"].append(
                    np.sum((simple_blp_uniform(obs, sig, delta) - x[i]) ** 2)
                )
                mse["naive"].append(np.sum((np.sqrt(obs.d) * obs.y - x[i]) ** 2))
        assert np.mean(mse["blp"]) <= np.mean(mse["simple"])
        assert np.mean(mse["simple"]) <= np.mean(mse["naive"])
