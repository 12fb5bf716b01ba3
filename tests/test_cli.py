import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import loop_predict
from eblp import (
    ParseError,
    TransformedObservation,
    dataset_from_arrays,
    fit_in_sample,
    predict_out_of_sample,
    rmse,
)
from eblp import matio
from eblp.cli import main

TINY_CONFIG = """
[tiny]
p = 40
gamma = 0.8
ell = 8,4
rank = 2
sampling = uniform:0.7
noise = white
sigma_grid = 1,2
replicates = 2
seed = 11
methods = eblp,unwhitened,nnrls
random_mean = true
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def per_cell_text(matrix, observed=None, na_token="NA"):
    """Reference writer: one ``%.17g`` per cell, the format's definition."""
    lines = []
    for i in range(matrix.shape[0]):
        fields = []
        for j in range(matrix.shape[1]):
            if observed is not None and not observed[i, j]:
                fields.append(na_token)
            else:
                fields.append("%.17g" % matrix[i, j])
        lines.append(" ".join(fields))
    return "\n".join(lines) + ("\n" if lines else "")


@st.composite
def masked_matrices(draw, elements, min_side=1):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=min_side, max_side=6))
    matrix = draw(hnp.arrays(np.float64, shape, elements=elements))
    observed = draw(hnp.arrays(np.bool_, shape))
    return matrix, observed


EXTREMES = np.array([[-0.0, 5e-324, -2.2250738585072009e-308,
                      1.7976931348623157e308, -1.7976931348623157e308]])


class TestMatrixIO:
    def test_roundtrip_precision(self, tmp_path, rng):
        path = tmp_path / "m.txt"
        m = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-8, 8, size=(7, 5))
        matio.write_matrix(path, m)
        back, observed = matio.read_matrix(path)
        assert np.array_equal(back, m)      # %.17g round-trips float64
        assert np.all(observed == 1)

    def test_na_tokens(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# comment line\n1.5 NA\nNA 2.5\n")
        values, observed = matio.read_matrix(path)
        assert np.array_equal(values, [[1.5, 0.0], [0.0, 2.5]])
        assert np.array_equal(observed, [[1, 0], [0, 1]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3\n# comment\n4 5\n")
        with pytest.raises(ParseError, match="row 2 has 2 fields, expected 3"):
            matio.read_matrix(path)

    def test_bad_token_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 oops\n")
        with pytest.raises(ParseError, match="row 2, field 2: not a number: 'oops'"):
            matio.read_matrix(path)

    @pytest.mark.parametrize("text, where", [
        ("1 2 # note\n3 4\n", "row 1, field 3: not a number: '#'"),
        ("1 2\n3 4#\n", "row 2, field 2: not a number: '4#'"),
        ("1 2\n3 1e400\n", "row 2, field 2: not a finite number: '1e400'"),
        ("1 nan\n3 x\n", "row 1, field 2: not a finite number: 'nan'"),
        ("1 2\n3 4\x00\n", "row 2, field 2: not a number: '4\\x00'"),
    ])
    def test_bad_cell_named(self, tmp_path, text, where):
        # '#' starts a comment only at the start of a line; the first bad
        # cell in reading order is named.
        path = tmp_path / "m.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            matio.read_matrix(path)
        assert str(info.value) == f"{path}: {where}"

    @pytest.mark.parametrize("text", [
        "1.5 NA\r\nNA 2.5\r\n",
        "  # indented comment\n1.5 NA\n\t#tabbed\n\nNA 2.5",
        "\t1.5   NA \n NA\t2.5\n   \n",
        "15e-1 NA\n NA +2_5e-1\n",
    ])
    def test_line_layouts(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_bytes(text.encode())
        values, observed = matio.read_matrix(path)
        assert np.array_equal(values, [[1.5, 0.0], [0.0, 2.5]])
        assert np.array_equal(observed, [[1, 0], [0, 1]])

    def test_long_tokens_kept_whole(self, tmp_path):
        # Longer than the first fixed-width slot, including the NA token.
        long_value = "0." + "0" * 60 + "15"
        na = "MISSING_" + "x" * 70
        path = tmp_path / "m.txt"
        path.write_text(f"{long_value} 2\n{na} 1{'0' * 40}\n")
        values, observed = matio.read_matrix(path, na_token=na)
        assert np.array_equal(values, [[float(long_value), 2.0], [0.0, 1e40]])
        assert np.array_equal(observed, [[1, 1], [0, 1]])

    @given(masked_matrices(st.floats(allow_nan=False, allow_infinity=False)),
           st.sampled_from(["NA", "?", "-"]))
    @example((EXTREMES, np.ones(EXTREMES.shape, bool)), "NA")
    def test_roundtrip_finite_doubles(self, tmp_path_factory, case, na_token):
        matrix, observed = case
        path = tmp_path_factory.mktemp("roundtrip") / "m.txt"
        matio.write_matrix(path, matrix, observed=observed, na_token=na_token)
        back, back_observed = matio.read_matrix(path, na_token=na_token)
        assert np.array_equal(back_observed, observed)
        expected = np.where(observed, matrix, 0.0)
        assert np.array_equal(back.view(np.uint64), expected.view(np.uint64))

    @given(masked_matrices(st.floats(), min_side=0), st.sampled_from(["NA", "?", "-"]),
           st.booleans())
    @example((EXTREMES, np.ones(EXTREMES.shape, bool)), "NA", True)
    def test_write_matches_per_cell_format(self, tmp_path_factory, case, na_token, masked):
        matrix, observed = case
        observed = observed if masked else None
        path = tmp_path_factory.mktemp("format") / "m.txt"
        matio.write_matrix(path, matrix, observed=observed, na_token=na_token)
        assert path.read_text() == per_cell_text(matrix, observed, na_token)

    def test_mask_validation(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("1 0\n0 2\n")
        with pytest.raises(ParseError):
            matio.read_mask(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("")
        values, observed = matio.read_matrix(path)
        assert values.shape == (0, 0)


def fitted_model(rng):
    n, p = 80, 50
    x = 4 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
    masks = (rng.random((n, p)) < 0.8).astype(float)
    y = masks * (x + rng.standard_normal((n, p)))
    model, _ = fit_in_sample(dataset_from_arrays(y, masks), 1)
    return model


class TestModelIO:
    def test_roundtrip(self, tmp_path, rng):
        model = fitted_model(rng)
        path = tmp_path / "model.json"
        matio.write_model(path, model)
        back = matio.read_model(path)
        assert np.array_equal(back.u_hat, model.u_hat)
        assert np.array_equal(back.m_hat_diag, model.m_hat_diag)
        assert back.whitened == model.whitened
        assert back.estimates == model.estimates
        model.mean[0] = np.nan
        with pytest.raises(ValueError, match="JSON compliant"):
            matio.write_model(tmp_path / "nan.json", model)

    @pytest.mark.parametrize("whiten", [True, False])
    def test_read_model_predicts_bit_for_bit(self, tmp_path, rng, whiten):
        n, p = 80, 30
        y = 4 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y += rng.standard_normal((n, p)) + rng.standard_normal(p)
        observed = (rng.random((n, p)) < 0.7) * 1.0
        model, _ = fit_in_sample(dataset_from_arrays(y * observed, observed), 2,
                                 whiten=whiten)
        path = tmp_path / "model.json"
        matio.write_model(path, model)
        back = matio.read_model(path)
        fresh = TransformedObservation(y=y[:9] * observed[:9], d=observed[:9])
        want = predict_out_of_sample(model, fresh)
        assert want.tobytes() == predict_out_of_sample(back, fresh).tobytes()
        row = TransformedObservation(y=fresh.y[0], d=fresh.d[0])
        assert predict_out_of_sample(model, row).tobytes() == \
            predict_out_of_sample(back, row).tobytes()

    def test_corrupted_file(self, tmp_path, rng):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            matio.read_model(path)
        matio.write_model(path, fitted_model(rng))
        good = json.loads(path.read_text())
        nan, inf = float("nan"), float("inf")
        edits = [  # (keys down to the edited value, new value, message)
            (("m_hat_diag", 3), nan, "m_hat_diag"),
            (("w_diag", 0), inf, "w_diag"),
            (("mean", 0), -inf, "mean"),
            (("u_hat", 0, 7), nan, "u_hat"),
            (("estimates", 0, "ell_hat"), nan, r"estimates\[0\]\.ell_hat"),
            (("estimates", 0, "lambda_star"), inf, r"estimates\[0\]\.lambda_star"),
            (("rank",), 7, "rank 7 does not match the 1 components"),
        ]
        for keys, value, message in edits:
            payload = json.loads(json.dumps(good))
            target = payload
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value
            path.write_text(json.dumps(payload))
            with pytest.raises(ParseError, match=message):
                matio.read_model(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ParseError):
            matio.read_model(path)


class TestDenoiseCommand:
    def test_pure_noise_with_mean_returns_column_means(self, tmp_path):
        rng = np.random.default_rng(0)
        n, p = 200, 80
        mean = rng.standard_normal(p)
        y = mean[None, :] + rng.standard_normal((n, p))
        inp, out = tmp_path / "y.txt", tmp_path / "xhat.txt"
        matio.write_matrix(inp, y)
        assert main(["denoise", str(inp), str(out), "--rank", "2"]) == 0
        x_hat, _ = matio.read_matrix(out)
        tiled = np.tile(y.mean(axis=0), (n, 1))
        assert np.linalg.norm(x_hat - tiled) <= 0.1 * np.linalg.norm(tiled)
        report = (tmp_path / "xhat.txt.report").read_text()
        assert "amse_est" in report

    def test_unparseable_input_exit_2(self, tmp_path):
        inp = tmp_path / "bad.txt"
        inp.write_text("1 2\n3 garbage\n")
        assert main(["denoise", str(inp), str(tmp_path / "o.txt"), "--rank", "1"]) == 2

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_exit_2(self, tmp_path, capsys, token):
        rng = np.random.default_rng(2)
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, rng.standard_normal((20, 5)))
        lines = inp.read_text().splitlines()
        fields = lines[3].split()
        fields[2] = token
        lines[3] = " ".join(fields)
        inp.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "o.txt")
        assert main(["denoise", str(inp), out, "--rank", "1"]) == 2
        assert f"row 4, field 3: not a finite number: {token!r}" in capsys.readouterr().err
        if token == "nan":
            # The NA token is matched before the cell is parsed.
            assert main(["denoise", str(inp), out, "--rank", "1", "--na-token", "nan"]) == 0

    def test_all_missing_column_exit_3(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        y = rng.standard_normal((10, 4))
        mask = np.ones((10, 4))
        mask[:, 2] = 0
        inp, maskf = tmp_path / "y.txt", tmp_path / "mask.txt"
        matio.write_matrix(inp, y)
        matio.write_matrix(maskf, mask)
        code = main(
            ["denoise", str(inp), str(tmp_path / "o.txt"), "--rank", "1",
             "--mask", str(maskf)]
        )
        assert code == 3
        assert "2" in capsys.readouterr().err   # offending coordinate listed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_extreme_magnitudes_exit_0(self, tmp_path, scale):
        # Rank-1 input: the plug-in fit is scale-equivariant, so scaling
        # the input scales the output, far beyond where a Gram matrix of
        # the raw input would overflow.
        rng = np.random.default_rng(4)
        n, p = 200, 150
        y = 3.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y += rng.standard_normal((n, p))
        outputs = []
        for factor in (1.0, scale):
            inp, out = tmp_path / f"y{factor:g}.txt", tmp_path / f"x{factor:g}.txt"
            matio.write_matrix(inp, factor * y)
            assert main(["denoise", str(inp), str(out), "--rank", "1"]) == 0
            outputs.append(matio.read_matrix(out)[0])
        base, scaled = outputs
        assert np.isfinite(scaled).all()
        assert np.max(np.abs(scaled / scale - base)) <= 1e-12 * np.max(np.abs(base))

    def test_rank_too_large_exit_4(self, tmp_path, rng):
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, rng.standard_normal((10, 6)))
        assert main(["denoise", str(inp), str(tmp_path / "o.txt"), "--rank", "99"]) == 4

    def test_rank_checked_before_input_read(self, tmp_path, capsys):
        # A missing input would exit 2; the rank fails first.
        missing = str(tmp_path / "missing.txt")
        assert main(["denoise", missing, str(tmp_path / "o.txt"), "--rank", "0"]) == 4
        assert "rank must be at least 1" in capsys.readouterr().err

    def test_na_roundtrip_with_custom_token(self, tmp_path, rng):
        y = rng.standard_normal((30, 10))
        y[rng.random((30, 10)) < 0.3] = np.nan
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, np.nan_to_num(y), observed=~np.isnan(y), na_token="?")
        out = tmp_path / "o.txt"
        code = main(["denoise", str(inp), str(out), "--rank", "1", "--na-token", "?"])
        assert code == 0
        x_hat, observed = matio.read_matrix(out)
        assert x_hat.shape == (30, 10)
        assert np.all(observed == 1)


class TestOosCommand:
    def fit_and_save(self, tmp_path, rng, n=300, p=120, delta=0.8):
        u, _ = np.linalg.qr(rng.standard_normal((p, 1)))
        z = rng.standard_normal((n, 1))
        x = np.sqrt(16.0) * z @ u.T
        masks = (rng.random((n, p)) < delta).astype(float)
        y = masks * (x + rng.standard_normal((n, p)))
        inp, out = tmp_path / "y.txt", tmp_path / "xhat.txt"
        model_path = tmp_path / "model.json"
        matio.write_matrix(inp, y, observed=masks)
        code = main(
            ["denoise", str(inp), str(out), "--rank", "1",
             "--save-model", str(model_path)]
        )
        assert code == 0
        return inp, out, model_path, x

    def test_training_rows_close_to_in_sample(self, tmp_path):
        rng = np.random.default_rng(8)
        inp, out, model_path, x = self.fit_and_save(tmp_path, rng)
        oos_out = tmp_path / "oos.txt"
        code = main(["oos", str(inp), str(oos_out), "--model", str(model_path)])
        assert code == 0
        x_in, _ = matio.read_matrix(out)
        x_oos, _ = matio.read_matrix(oos_out)
        r_in, r_oos = rmse(x_in, x), rmse(x_oos, x)
        assert abs(r_oos - r_in) <= 0.10 * r_in

    @pytest.mark.parametrize("whiten", [True, False])
    def test_na_cells_match_row_loop(self, tmp_path, whiten):
        rng = np.random.default_rng(12)
        n, p = 120, 30
        y = 4 * np.outer(rng.standard_normal(n), rng.standard_normal(p)) / np.sqrt(p)
        y += rng.standard_normal((n, p))
        observed = rng.random((n, p)) < 0.75
        model, _ = fit_in_sample(dataset_from_arrays(y * observed, observed * 1.0), 2,
                                 whiten=whiten)
        model_path = tmp_path / "model.json"
        matio.write_model(model_path, model)
        inp, out = tmp_path / "fresh.txt", tmp_path / "pred.txt"
        matio.write_matrix(inp, y[:40], observed=observed[:40])
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 0
        pred, _ = matio.read_matrix(out)
        want = loop_predict(matio.read_model(model_path), y[:40] * observed[:40],
                            observed[:40] * 1.0)
        assert pred.shape == (40, p)
        assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))

    def test_mask_file_matches_row_loop(self, tmp_path):
        rng = np.random.default_rng(13)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        y = 3 * rng.standard_normal((25, 40))
        mask = (rng.random((25, 40)) < 0.6) * 1.0
        inp, mask_path, out = tmp_path / "f.txt", tmp_path / "f.mask", tmp_path / "p.txt"
        matio.write_matrix(inp, y)
        matio.write_matrix(mask_path, mask)
        code = main(["oos", str(inp), str(out), "--model", str(model_path),
                     "--mask", str(mask_path)])
        assert code == 0
        pred, _ = matio.read_matrix(out)
        want = loop_predict(matio.read_model(model_path), y * mask, mask)
        assert np.max(np.abs(pred - want)) <= 1e-12 * np.max(np.abs(want))

    def test_empty_input_empty_output(self, tmp_path):
        rng = np.random.default_rng(9)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "oos.txt"
        assert main(["oos", str(empty), str(out), "--model", str(model_path)]) == 0
        values, _ = matio.read_matrix(out)
        assert values.shape == (0, 0)

    def test_corrupted_model_exit_2(self, tmp_path, rng):
        model_path = tmp_path / "model.json"
        model_path.write_text("garbage")
        inp = tmp_path / "y.txt"
        matio.write_matrix(inp, rng.standard_normal((3, 4)))
        out = tmp_path / "o.txt"
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 2

    def test_dimension_mismatch_exit_2(self, tmp_path):
        rng = np.random.default_rng(10)
        _, _, model_path, _ = self.fit_and_save(tmp_path, rng, n=100, p=40)
        inp = tmp_path / "wrong.txt"
        matio.write_matrix(inp, rng.standard_normal((5, 7)))
        out = tmp_path / "o.txt"
        assert main(["oos", str(inp), str(out), "--model", str(model_path)]) == 2


class TestSimulateCommand:
    def test_writes_dataset_files(self, tmp_path, tiny_config):
        prefix = str(tmp_path / "dump")
        assert main(["simulate", tiny_config, prefix]) == 0
        y, observed = matio.read_matrix(prefix + ".y.txt")
        mask, _ = matio.read_matrix(prefix + ".mask.txt")
        x, _ = matio.read_matrix(prefix + ".x.txt")
        assert y.shape == mask.shape == x.shape == (50, 40)
        assert np.array_equal(observed, mask)

    def test_deterministic(self, tmp_path, tiny_config):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["simulate", tiny_config, a]) == 0
        assert main(["simulate", tiny_config, b]) == 0
        assert (tmp_path / "a.y.txt").read_text() == (tmp_path / "b.y.txt").read_text()


class TestBenchmarkCommand:
    def test_table_structure(self, tmp_path, tiny_config):
        out = tmp_path / "results.txt"
        assert main(["benchmark", tiny_config, str(out)]) == 0
        rows = matio.read_results(out)
        # methods x sigma grid x replicates
        assert len(rows) == 3 * 2 * 2
        methods = {row["method"] for row in rows}
        assert methods == {"eblp", "unwhitened", "nnrls"}
        assert all(row["rmse"] >= 0 for row in rows)
        eblp_rows = [r for r in rows if r["method"] == "eblp"]
        assert all(np.isfinite(r["amse_est"]) for r in eblp_rows)

    def test_deterministic_with_no_timings(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a), "--no-timings"]) == 0
        assert main(["benchmark", tiny_config, str(b), "--no-timings"]) == 0
        assert a.read_text() == b.read_text()

    def test_timing_column_only_difference_between_runs(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a)]) == 0
        assert main(["benchmark", tiny_config, str(b)]) == 0
        rows_a, rows_b = matio.read_results(a), matio.read_results(b)
        for ra, rb in zip(rows_a, rows_b):
            ra.pop("seconds"), rb.pop("seconds")
            va, vb = ra.pop("amse_est"), rb.pop("amse_est")
            assert np.isclose(va, vb, equal_nan=True)
            assert ra == rb

    def test_zero_replicates_header_only(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG.replace("replicates = 2", "replicates = 0"))
        out = tmp_path / "results.txt"
        assert main(["benchmark", str(cfg), str(out)]) == 0
        assert matio.read_results(out) == []
        assert out.read_text().splitlines()[0].startswith("experiment method")

    def test_unknown_keys_listed(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + "bogus_key = 1\nother = 2\n")
        assert main(["benchmark", str(cfg), str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert "bogus_key" in err and "other" in err

    @pytest.mark.parametrize("setting", [
        "nnrls_tol = nan", "nnrls_tol = inf", "nnrls_tol = 0", "nnrls_tol = -1e-7",
        "nnrls_max_iters = 0", "weight_replicates = 0",
    ])
    def test_bad_nnrls_setting_exit_2(self, tmp_path, capsys, setting):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(TINY_CONFIG + setting + "\n")
        assert main(["benchmark", str(cfg), str(tmp_path / "r.txt")]) == 2
        err = capsys.readouterr().err
        assert "[tiny]" in err and setting.split()[0] in err
        assert not (tmp_path / "r.txt").exists()

    def test_jobs_parallel_matches_serial(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a), "--no-timings"]) == 0
        assert main(["benchmark", tiny_config, str(b), "--no-timings", "--jobs", "2"]) == 0
        assert a.read_text() == b.read_text()

    def test_seed_override_changes_rows(self, tmp_path, tiny_config):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(["benchmark", tiny_config, str(a), "--no-timings"]) == 0
        assert main(["benchmark", tiny_config, str(b), "--no-timings", "--seed", "99"]) == 0
        assert a.read_text() != b.read_text()

    def test_sparse_pc_experiment(self, tmp_path):
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text(
            TINY_CONFIG.replace("[tiny]", "[sparsity]")
            .replace("p = 40", "p = 60")
            + "sparsity = sparse:10\n"
        )
        out = tmp_path / "results.txt"
        assert main(["benchmark", str(cfg), str(out)]) == 0
        rows = matio.read_results(out)
        assert {row["method"] for row in rows} == {"eblp", "unwhitened", "nnrls"}
        assert {row["sigma"] for row in rows} == {1.0, 2.0}
        assert all(row["sparsity"] == "10" for row in rows)
