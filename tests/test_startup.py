"""Start-up cost guard: ``denoise`` and ``oos`` load neither SciPy nor the
campaign's modules (the runner, the simulator, the NNRLS baseline and
``configparser``), no path loads SciPy's ARPACK module
(``scipy.sparse.linalg``, about 0.3 s to import), ``import eblp.cli``
loads no ``concurrent.futures`` module, and only a multi-job campaign
loads the process pool (``concurrent.futures.process``).  Neither the
import nor a command changes the caller's OpenBLAS thread count.  The
checks run in a fresh interpreter, because this test process may have
loaded any of them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import spiked_white_data
from eblp import dataset_from_arrays, fit_in_sample, matio

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """
[tiny]
p = 20
gamma = 0.8
ell = 8,4
rank = 2
sampling = uniform:0.7
noise = white
sigma_grid = 1
replicates = 1
seed = 11
methods = eblp,unwhitened,nnrls
"""

SCRIPT = """
import ctypes, json, sys
import numpy as np
# numpy's OpenBLAS, set to two threads: neither the import nor a command
# may leave another count behind.
lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
get = getattr(lib, "scipy_openblas_get_num_threads64_", lambda: None)
getattr(lib, "scipy_openblas_set_num_threads64_", lambda count: None)(2)
before = get()
import eblp, eblp.cli
from eblp import TransformedObservation, dataset_from_arrays, fit_in_sample
from eblp import matio, predict_out_of_sample

y_path, model, fresh, pred, xhat, config, table, prefix = sys.argv[1:]
campaign = ("scipy", "eblp.benchmark", "eblp.simulate", "eblp.baselines", "configparser")
lean = lambda: [name for name in campaign if name in sys.modules]
seen = {"lean_import": lean(), "futures_import": [m for m in sys.modules if m.startswith("concurrent")],
        "threads_import": [before, get()]}
loaded = lambda: "scipy.sparse.linalg" in sys.modules
pool = lambda: "concurrent.futures.process" in sys.modules
y = np.load(y_path)
dataset = dataset_from_arrays(y, np.ones_like(y))
seen.update({"import": loaded(), "pool_import": pool()})
plugin, _ = fit_in_sample(dataset, 2, mode="plugin")
predict_out_of_sample(plugin, TransformedObservation(y=y[:5], d=np.ones_like(y[:5])))
seen["plugin"] = loaded()
seen["pool_fit"] = pool()
white, _ = fit_in_sample(dataset, 2, mode="white")
seen["white"] = loaded()
matio.write_model(model, white)
assert eblp.cli.main(["oos", fresh, pred, "--model", model]) == 0
seen["oos"] = loaded()
seen["pool_oos"] = pool()
assert eblp.cli.main(["denoise", fresh, xhat, "--rank", "2", "--mode", "white"]) == 0
seen["denoise_white"] = loaded()
seen["lean_commands"] = lean()
assert eblp.cli.main(["benchmark", config, table, "--no-timings"]) == 0
assert eblp.cli.main(["simulate", config, prefix]) == 0
seen["benchmark"] = loaded()
seen["pool_benchmark"] = pool()
seen["rows"] = len(open(table).read().splitlines()) - 1  # less the header
seen["threads_commands"] = get()
est = white.estimates
seen["estimates"] = [a.tolist() for a in (est.ell_hat, est.c2_hat, est.ct2_hat,
                                          est.lambda_star, est.sigma_obs)]
print(json.dumps(seen))
"""


def test_sparse_linalg_never_loads(tmp_path, rng):
    y, _, _ = spiked_white_data(rng, 80, 50, np.array([12.0, 6.0]))
    np.save(tmp_path / "y.npy", y)
    fresh = tmp_path / "fresh.txt"
    matio.write_matrix(fresh, y[:20])
    config = tmp_path / "tiny.cfg"
    config.write_text(CONFIG)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    args = [tmp_path / name for name in ("y.npy", "model.json")]
    args += [fresh, tmp_path / "pred.txt", tmp_path / "xhat.txt", config]
    args += [tmp_path / "results.txt", tmp_path / "sim"]
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    for path in ("import", "plugin", "white", "oos", "denoise_white", "benchmark"):
        assert not seen[path], path
    assert not (seen["pool_import"] or seen["pool_fit"] or seen["pool_oos"])
    assert seen["futures_import"] == []
    assert not seen["pool_benchmark"]
    assert seen["lean_import"] == seen["lean_commands"] == []
    assert seen["rows"] == 3
    before, after_import = seen["threads_import"]
    assert before in (2, None)  # None: numpy's BLAS exports no thread count
    assert after_import == seen["threads_commands"] == before
    assert (tmp_path / "sim.y.txt").exists()

    white, _ = fit_in_sample(dataset_from_arrays(y, np.ones_like(y)), 2, mode="white")
    est = white.estimates
    assert est.supercritical.all()
    expected = [est.ell_hat, est.c2_hat, est.ct2_hat, est.lambda_star, est.sigma_obs]
    np.testing.assert_allclose(seen["estimates"], expected, rtol=1e-12)


# Every public name the package exports, those it loads on first access
# included.
EXPORTED = (
    "DegenerateCoordinateError", "EblpError", "EblpModel", "EigenSpectrum",
    "ExperimentConfig", "NnrlsConfig", "NnrlsResult", "NoiseSpec",
    "ParseError", "RankError", "SamplingSpec", "ShapeError",
    "SimulatedData", "SpectrumDomainError", "SpikeEstimates",
    "TransformedObservation", "baselines",
    "dataset_from_arrays", "errors", "estimate_spike", "fit_in_sample",
    "generate_masks", "generate_noise", "generate_signals", "mp_bulk_edge",
    "nnrls", "nnrls_weight_colored", "nnrls_weight_white", "pipeline",
    "predict_out_of_sample", "rmse", "shrinkage", "simulate",
    "simulate_dataset", "spectral", "spectral_estimates",
    "white_spike_forward", "white_spike_inverse",
)

LAZY_SCRIPT = """
import json, sys
import eblp
seen = {"baselines": "eblp.baselines" in sys.modules,
        "simulate": "eblp.simulate" in sys.modules,
        "dir": dir(eblp)}
from eblp import nnrls, NnrlsConfig, SimulatedData, simulate_dataset
import eblp.baselines, eblp.simulate
seen["same"] = (nnrls is eblp.baselines.nnrls and NnrlsConfig is eblp.baselines.NnrlsConfig
                and simulate_dataset is eblp.simulate.simulate_dataset
                and SimulatedData is eblp.SimulatedData is eblp.simulate.SimulatedData)
star = {}
exec("from eblp import *", star)
seen["star"] = sorted(name for name in star if not name.startswith("_"))
try:
    eblp.no_such_name
except AttributeError as exc:
    seen["missing"] = str(exc)
print(json.dumps(seen))
"""


def test_package_names_resolve_on_first_access():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", LAZY_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert not (seen["baselines"] or seen["simulate"])
    assert set(EXPORTED) <= set(seen["dir"])
    assert seen["same"]
    assert seen["star"] == sorted(EXPORTED)
    assert seen["missing"] == "module 'eblp' has no attribute 'no_such_name'"
