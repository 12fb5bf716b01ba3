"""Start-up cost guard: SciPy's ARPACK (``scipy.sparse.linalg``, about
0.4 s to import) loads only when a white-mode fit runs.  Each check runs
in a fresh interpreter, because this test process may have loaded it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import spiked_white_data
from eblp import dataset_from_arrays, fit_in_sample, matio

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys
import numpy as np
import eblp, eblp.cli
from eblp import TransformedObservation, dataset_from_arrays, fit_in_sample
from eblp import matio, predict_out_of_sample

loaded = lambda: "scipy.sparse.linalg" in sys.modules
y = np.load(sys.argv[1])
dataset = dataset_from_arrays(y, np.ones_like(y))
seen = {"import": loaded()}
model, _ = fit_in_sample(dataset, 2, mode="plugin")
predict_out_of_sample(model, TransformedObservation(y=y[:5], d=np.ones_like(y[:5])))
seen["plugin"] = loaded()
matio.write_model(sys.argv[2], model)
assert eblp.cli.main(["oos", sys.argv[3], sys.argv[4], "--model", sys.argv[2]]) == 0
seen["oos"] = loaded()
white, _ = fit_in_sample(dataset, 2, mode="white")
seen["white"] = loaded()
seen["estimates"] = [[e.ell_hat, e.c2_hat, e.ct2_hat, e.lambda_star, e.sigma_obs]
                     for e in white.estimates]
print(json.dumps(seen))
"""


def test_arpack_loads_only_for_white_fits(tmp_path, rng):
    y, _, _ = spiked_white_data(rng, 80, 50, np.array([12.0, 6.0]))
    np.save(tmp_path / "y.npy", y)
    fresh = tmp_path / "fresh.txt"
    matio.write_matrix(fresh, y[:5])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "y.npy"), str(tmp_path / "model.json"),
         str(fresh), str(tmp_path / "pred.txt")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert not seen["import"]
    assert not seen["plugin"]
    assert not seen["oos"]
    assert seen["white"]

    white, _ = fit_in_sample(dataset_from_arrays(y, np.ones_like(y)), 2, mode="white")
    assert all(e.supercritical for e in white.estimates)
    expected = [[e.ell_hat, e.c2_hat, e.ct2_hat, e.lambda_star, e.sigma_obs]
                for e in white.estimates]
    np.testing.assert_allclose(seen["estimates"], expected, rtol=1e-12)
