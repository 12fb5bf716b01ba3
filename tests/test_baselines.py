import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import optimize

from eblp import baselines, dataset_from_arrays, fit_in_sample, spectral
from eblp.baselines import (
    NnrlsConfig,
    nnrls,
    nnrls_weight_colored,
    nnrls_weight_white,
    soft_threshold_singular_values,
)
from eblp.simulate import (
    ExperimentConfig,
    NoiseSpec,
    SamplingSpec,
    generate_masks,
    generate_noise,
    simulate_dataset,
)
from conftest import reference_nnrls, shrink_plain


def svd_prox(matrix, threshold, *, out=None):
    """Reference prox: full SVD, every singular value shrunk by the threshold."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    s = np.maximum(s - threshold, 0.0)
    return np.matmul(u * s, vt, out=out), float(s.sum())


def desk_problem(law):
    """A draw of a desk campaign law at sigma 2 and its NNRLS config:
    ``uneven`` (linearly ramped sampling, white noise, column weights) or
    ``colored`` (uniform sampling, colored noise, no weights), 375 x 300."""
    if law == "uneven":
        sampling, noise = SamplingSpec("linear", 0.1), NoiseSpec("white", 2.0)
    else:
        sampling, noise = SamplingSpec("uniform", 0.5), NoiseSpec("colored", 2.0, 10.0)
    cfg = ExperimentConfig(
        p=300, gamma=0.8, ell=tuple(range(10, 0, -1)),
        sampling=sampling, noise=noise, seed=7, random_mean=True,
    )
    rng = np.random.default_rng(7)
    data = simulate_dataset(cfg, rng)
    column_weights = (
        np.sqrt(cfg.sampling.column_probabilities(cfg.p)) if law == "uneven" else None
    )
    w = nnrls_weight_colored(
        lambda g: generate_noise(cfg, cfg.n, g),
        lambda g: generate_masks(cfg, cfg.n, g),
        replicates=3, rng=rng, column_weights=column_weights,
    )
    return data, NnrlsConfig(w=w, column_weights=column_weights)


def counting_prox(calls):
    """The library prox, appending the ``out`` of every call to ``calls``."""
    prox = baselines.soft_threshold_singular_values

    def counted(matrix, threshold, *, out=None):
        calls.append(out)
        return prox(matrix, threshold, out=out)

    return counted


@st.composite
def prox_inputs(draw):
    """A matrix of any shape up to 12 x 12 (square ones often), any rank
    down to zero, any scale, and a threshold as a fraction of its top
    singular value: 0, or within [0.01, 1.5]."""
    n = draw(st.integers(1, 12))
    p = draw(st.one_of(st.just(n), st.integers(1, 12)))
    rank = draw(st.integers(0, min(n, p)))
    scale = draw(st.sampled_from([1e-100, 1e-3, 1.0, 1e3, 1e100]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = scale * (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, p)))
    fraction = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.5)))
    return matrix, fraction


class TestNnrls:
    def test_unregularized_full_observation_is_identity(self, rng):
        y = rng.standard_normal((12, 9))
        result = nnrls(y, np.ones_like(y), NnrlsConfig(w=0.0))
        assert np.allclose(result.x_hat, y, atol=1e-8)
        assert result.converged

    def test_rank_one_soft_threshold(self, rng):
        # Fully observed rank-1 input: the minimizer is reached in one prox
        # step and its singular value is s - w.
        u = rng.standard_normal(15)
        v = rng.standard_normal(10)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        s, w = 7.0, 2.5
        y = s * np.outer(u, v)
        result = nnrls(y, np.ones_like(y), NnrlsConfig(w=w))
        out_s = np.linalg.svd(result.x_hat, compute_uv=False)
        assert out_s[0] == pytest.approx(s - w, abs=1e-8)
        assert np.all(out_s[1:] < 1e-8)

    def test_pure_noise_returns_zero_matrix(self):
        # w equals the asymptotic operator norm of the masked noise, so the
        # zero matrix solves the problem whenever the realized top singular
        # value does not fluctuate above w (the typical draw; asserted).
        rng = np.random.default_rng(3)
        n, p, delta = 375, 300, 0.5
        mask = (rng.random((n, p)) < delta).astype(float)
        y = mask * rng.standard_normal((n, p))
        w = nnrls_weight_white(1.0, p, n, int(mask.sum()))
        assert np.linalg.svd(y, compute_uv=False)[0] <= w
        result = nnrls(y, mask, NnrlsConfig(w=w))
        assert np.linalg.norm(result.x_hat) < 1e-6 * np.linalg.norm(y)

    def test_objective_monotone(self, rng):
        n, p = 60, 40
        mask = (rng.random((n, p)) < 0.6).astype(float)
        x = 4.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y = mask * (x + rng.standard_normal((n, p)))
        result = nnrls(y, mask, NnrlsConfig(w=2.0, max_iters=200))
        diffs = np.diff(result.objective_history)
        assert np.all(diffs <= 1e-9 * np.abs(result.objective_history[:-1]))

    def test_nonconvergence_flag(self, rng):
        n, p = 40, 30
        mask = (rng.random((n, p)) < 0.5).astype(float)
        y = mask * (
            5 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
            + rng.standard_normal((n, p))
        )
        result = nnrls(y, mask, NnrlsConfig(w=0.5, max_iters=2, tol=1e-16))
        assert not result.converged
        assert result.iterations == 2

    def test_prox_step_against_dense_brute_force_2x2(self, rng):
        # One prox step at full observation solves
        #   min 0.5 ||X - Y||^2 + w ||X||_*
        # exactly; compare with a direct numerical minimization over R^4.
        y = np.array([[1.5, -0.3], [0.4, 0.9]])
        w = 0.6

        def objective(flat):
            x = flat.reshape(2, 2)
            return 0.5 * np.sum((x - y) ** 2) + w * np.sum(
                np.linalg.svd(x, compute_uv=False)
            )

        best = None
        for start in [np.zeros(4), y.ravel(), rng.standard_normal(4)]:
            res = optimize.minimize(objective, start, method="Powell",
                                    options={"xtol": 1e-12, "ftol": 1e-14})
            if best is None or res.fun < best.fun:
                best = res
        svt, _ = soft_threshold_singular_values(y, w)
        assert objective(svt.ravel()) <= best.fun + 1e-9
        assert np.allclose(svt, best.x.reshape(2, 2), atol=1e-5)

    def test_weighted_reduction_to_uniform(self, rng):
        # Constant column weights c are equivalent to uniform NNRLS with
        # regularization w * c.
        n, p, c, w = 30, 20, 1.7, 1.2
        mask = (rng.random((n, p)) < 0.7).astype(float)
        y = mask * rng.standard_normal((n, p)) * 3
        weighted = nnrls(
            y, mask, NnrlsConfig(w=w, column_weights=np.full(p, c), max_iters=800)
        )
        uniform = nnrls(y, mask, NnrlsConfig(w=w * c, max_iters=800))
        assert np.allclose(weighted.x_hat, uniform.x_hat, atol=1e-6)

    def test_shape_validation(self):
        with pytest.raises(Exception):
            nnrls(np.ones((3, 2)), np.ones((2, 3)), NnrlsConfig(w=1.0))

    def test_unobserved_cells_are_not_read(self, rng):
        # NaN, inf or anything else where the mask is 0 marks a missing cell.
        mask = (rng.random((20, 15)) < 0.6).astype(float)
        y = mask * rng.standard_normal((20, 15))
        config = NnrlsConfig(w=1.0)
        want = nnrls(y, mask, config)
        for missing in (np.nan, np.inf, 1e300):
            got = nnrls(np.where(mask == 0, missing, y), mask, config)
            assert np.array_equal(got.x_hat, want.x_hat)
            assert got.objective_history == want.objective_history

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_value_named(self, bad):
        y, mask = np.ones((4, 3)), np.ones((4, 3))
        y[2, 1] = y[3, 0] = bad
        with pytest.raises(ValueError, match=r"y_masked .* at index \(2, 1\)"):
            nnrls(y, mask, NnrlsConfig(w=1.0))

    # NNRLS is matrix completion: its gradient (x - y) * mask matches the
    # squared residual only for 0/1 masks, so 0.5 or 2 is refused too.
    @pytest.mark.parametrize("bad", [np.nan, -0.5, np.inf, 0.5, 2.0])
    def test_bad_mask_entry_named(self, bad):
        y, mask = np.ones((4, 3)), np.ones((4, 3))
        mask[1, 2] = mask[3, 0] = bad
        with pytest.raises(ValueError, match=r"mask .* at index \(1, 2\)"):
            nnrls(y, mask, NnrlsConfig(w=1.0))

    def test_config_validation(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                NnrlsConfig(w=bad)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                NnrlsConfig(w=1.0, tol=bad)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                NnrlsConfig(w=1.0, column_weights=np.array([1.0, bad]))

    def test_same_iterates_as_full_svd_prox(self, monkeypatch):
        self.assert_same_iterates_as_full_svd_prox(monkeypatch, p=60)

    @pytest.mark.parametrize("binding", ["tridiagonal", "dense"])
    def test_same_iterates_at_desk_scale(self, monkeypatch, binding):
        # 375 x 300, through the tridiagonal prox and its dense fallback.
        if binding == "dense":
            # One missing routine sends every selection to the fallback.
            monkeypatch.setattr(spectral, "_DSYTRD", None)
        self.assert_same_iterates_as_full_svd_prox(monkeypatch, p=300)

    @staticmethod
    def assert_same_iterates_as_full_svd_prox(monkeypatch, p):
        # Weighted NNRLS on a draw of the uneven-sampling law: the Gram
        # prox and the full-SVD prox take the same path to rounding.
        cfg = ExperimentConfig(
            p=p, gamma=0.8, ell=(10.0, 6.0, 3.0),
            sampling=SamplingSpec("linear", 0.1),
            noise=NoiseSpec("white", 2.0), seed=7, random_mean=True,
        )
        rng = np.random.default_rng(7)
        data = simulate_dataset(cfg, rng)
        column_weights = np.sqrt(cfg.sampling.column_probabilities(cfg.p))
        w = nnrls_weight_colored(
            lambda g: generate_noise(cfg, cfg.n, g),
            lambda g: generate_masks(cfg, cfg.n, g),
            replicates=5, rng=rng, column_weights=column_weights,
        )
        config = NnrlsConfig(w=w, column_weights=column_weights)
        gram = nnrls(data.y, data.masks, config)
        monkeypatch.setattr(baselines, "soft_threshold_singular_values", svd_prox)
        ref = nnrls(data.y, data.masks, config)
        assert gram.iterations == ref.iterations > 10
        assert gram.converged == ref.converged
        assert np.allclose(gram.objective_history, ref.objective_history, rtol=1e-12, atol=0)
        assert np.linalg.norm(gram.x_hat - ref.x_hat) <= 1e-10 * np.linalg.norm(ref.x_hat)


class TestNnrlsReference:
    """``nnrls`` iterates in fixed working arrays and must take exactly the
    path of the allocating reference loop in ``conftest``."""

    @pytest.mark.parametrize("law", ["uneven", "colored"])
    def test_bit_identical_to_reference(self, law):
        data, config = desk_problem(law)
        got = nnrls(data.y, data.masks, config)
        ref = reference_nnrls(data.y, data.masks, config)
        assert ref.prox_calls > ref.iterations  # at least one restart
        assert np.array_equal(got.x_hat, ref.x_hat)
        assert got.iterations == ref.iterations
        assert got.converged == ref.converged
        assert got.objective_history == ref.objective_history
        assert got.prox_calls == ref.prox_calls

    @pytest.mark.parametrize("law", ["uneven", "colored"])
    def test_prox_calls_write_into_two_fixed_arrays(self, monkeypatch, law):
        # prox_calls is every call a wrapper on the module attribute sees,
        # a restart included.
        data, config = desk_problem(law)
        calls = []
        monkeypatch.setattr(baselines, "soft_threshold_singular_values", counting_prox(calls))
        result = nnrls(data.y, data.masks, config)
        assert len(calls) == result.prox_calls > result.iterations
        assert all(out is not None for out in calls)
        assert len({out.ctypes.data for out in calls}) <= 2

    @pytest.mark.parametrize("max_iters", [5, 50])
    def test_peak_memory_in_matrices(self, max_iters):
        # y, the iterate, the momentum point, the candidate and the work
        # array, plus the prox's Gram matrix and its few triplets.
        data, config = desk_problem("uneven")
        config = dataclasses.replace(config, max_iters=max_iters)
        tracemalloc.start()
        try:
            result = nnrls(data.y, data.masks, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged == (max_iters == 50)  # 5 stops short
        assert peak <= 7 * data.y.nbytes, peak / data.y.nbytes


class TestWeights:
    def test_white_formula(self):
        assert nnrls_weight_white(1.0, 100, 100, 10_000) == pytest.approx(20.0)

    def test_quarter_observations_halves_weight(self):
        full = nnrls_weight_white(1.0, 200, 300, 60_000)
        quarter = nnrls_weight_white(1.0, 200, 300, 15_000)
        assert quarter == pytest.approx(full / 2)

    def test_zero_noise(self):
        assert nnrls_weight_white(0.0, 50, 60, 1000) == 0.0

    def test_monte_carlo_matches_white_formula(self):
        n, p, delta = 375, 300, 0.5
        rng = np.random.default_rng(21)
        w_mc = nnrls_weight_colored(
            lambda g: g.standard_normal((n, p)),
            lambda g: (g.random((n, p)) < delta).astype(float),
            replicates=20,
            rng=rng,
        )
        w_formula = nnrls_weight_white(1.0, p, n, int(delta * n * p))
        assert w_mc == pytest.approx(w_formula, rel=0.03)

    def test_monte_carlo_homogeneous_in_sigma(self):
        n, p = 100, 80
        mask_sampler = lambda g: (g.random((n, p)) < 0.6).astype(float)
        w1 = nnrls_weight_colored(
            lambda g: g.standard_normal((n, p)),
            mask_sampler,
            replicates=10,
            rng=np.random.default_rng(5),
        )
        w2 = nnrls_weight_colored(
            lambda g: 2.0 * g.standard_normal((n, p)),
            mask_sampler,
            replicates=10,
            rng=np.random.default_rng(5),
        )
        assert w2 == pytest.approx(2 * w1, rel=1e-12)

    def test_zero_noise_sampler(self):
        w = nnrls_weight_colored(
            lambda g: np.zeros((10, 8)),
            lambda g: np.ones((10, 8)),
            replicates=3,
            rng=np.random.default_rng(0),
        )
        assert w == 0.0

    def test_replicates_validated(self):
        with pytest.raises(ValueError):
            nnrls_weight_colored(
                lambda g: 0, lambda g: 0, replicates=0, rng=np.random.default_rng(0)
            )


class TestUnwhitenedShrinkage:
    def test_equals_whitened_fit_for_constant_weights(self, rng):
        n, p = 120, 90
        x = 3.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        d = np.full((n, p), 0.7)
        y = np.sqrt(0.7) * x + rng.standard_normal((n, p))
        ds = dataset_from_arrays(y, d)
        _, x_unwhite = fit_in_sample(ds, 1, whiten=False, mode="plugin")
        _, x_white = fit_in_sample(ds, 1, whiten=True, mode="plugin")
        assert np.linalg.norm(x_unwhite - x_white) <= 1e-6 * np.linalg.norm(x_white)

    def test_full_observation_equals_classical_shrinkage(self, rng):
        n, p = 150, 100
        y = rng.standard_normal((n, p)) + 4 * np.outer(
            rng.standard_normal(n), rng.standard_normal(p)
        ) / np.sqrt(p)
        x_hat, ests = shrink_plain(y, 1, mode="plugin")
        u, _, vt = np.linalg.svd(y / np.sqrt(n), full_matrices=False)
        x_classical = np.sqrt(n) * ests.lambda_star[0] * np.outer(u[:, 0], vt[0])
        assert np.allclose(x_hat, x_classical, atol=1e-10)

    def test_zero_input(self):
        ds = dataset_from_arrays(np.zeros((10, 6)), np.ones((10, 6)))
        _, x_hat = fit_in_sample(ds, 2, whiten=False, mode="plugin")
        assert np.all(x_hat == 0)


class TestSoftThreshold:
    @given(prox_inputs())
    @example((np.zeros((4, 4)), 0.5))
    @example((np.zeros((3, 5)), 0.0))
    def test_matches_full_svd(self, case):
        matrix, fraction = case
        norm = np.linalg.norm(matrix, ord=2)
        threshold = fraction * norm
        shrunk, nuclear = soft_threshold_singular_values(matrix, threshold)
        ref, ref_nuclear = svd_prox(matrix, threshold)
        assert shrunk.shape == matrix.shape
        assert np.max(np.abs(shrunk - ref), initial=0.0) <= 1e-10 * norm
        if threshold == 0:
            # The identity, exactly; the nuclear norm carries the Gram
            # error of numerically zero singular values, sqrt(eps) each.
            assert np.array_equal(shrunk, matrix)
            assert abs(nuclear - ref_nuclear) <= 1e-7 * min(matrix.shape) * norm
        else:
            assert abs(nuclear - ref_nuclear) <= 1e-10 * norm
        if fraction > 1.01:
            assert not shrunk.any() and nuclear == 0.0

    @pytest.mark.parametrize("shape", [(375, 300), (300, 375), (300, 300)])
    def test_desk_shapes_across_the_spectrum(self, rng, shape):
        # Square: gamma = 1, so the smallest singular values are near 0.
        matrix = rng.standard_normal(shape)
        s = np.linalg.svd(matrix, compute_uv=False)
        norm = s[0]
        for threshold in (0.0, s[-1], s[-2] / 2, np.median(s), s[1], 1.1 * s[0]):
            shrunk, nuclear = soft_threshold_singular_values(matrix, threshold)
            ref, ref_nuclear = svd_prox(matrix, threshold)
            assert np.max(np.abs(shrunk - ref)) <= 1e-12 * norm
            assert abs(nuclear - ref_nuclear) <= 1e-12 * norm * min(shape)

    @pytest.mark.parametrize("shape", [(375, 300), (300, 375), (300, 300)])
    def test_desk_shapes_on_the_dense_fallback(self, rng, shape, monkeypatch):
        monkeypatch.setattr(spectral, "_DSYTRD", None)
        self.test_desk_shapes_across_the_spectrum(rng, shape)

    @pytest.mark.parametrize("shape", [(60, 40), (40, 60), (50, 50)])
    def test_zero_threshold_takes_the_whole_spectrum_without_bisection(self, rng, shape, monkeypatch):
        # At threshold 0 the prox keeps no triplet: its nuclear norm comes
        # from the whole spectrum, dsytrd then dsterf, never bisection.
        monkeypatch.setattr(spectral, "_DSTEBZ", mock.Mock(side_effect=AssertionError("dstebz ran")))
        matrix = rng.standard_normal(shape)
        shrunk, nuclear = soft_threshold_singular_values(matrix, 0.0)
        assert shrunk is not matrix and np.array_equal(shrunk, matrix)
        want = np.linalg.svd(matrix, compute_uv=False).sum()
        assert nuclear == pytest.approx(want, rel=1e-12, abs=0)

    def test_negative_threshold_rejected(self):
        # NaN is no threshold either; inf is, and shrinks everything away.
        for bad in (-1.0, np.nan):
            with pytest.raises(ValueError):
                soft_threshold_singular_values(np.ones((2, 2)), bad)
        shrunk, nuclear = soft_threshold_singular_values(np.ones((2, 3)), np.inf)
        assert shrunk.shape == (2, 3) and not shrunk.any() and nuclear == 0.0
