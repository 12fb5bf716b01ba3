"""The benchmark's span tracer patches eblp names from outside; a rename in
the package must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy

import eblp.pipeline as pipeline
import eblp.shrinkage as shrinkage
from conftest import spiked_white_data

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_traces_both_modes_and_uninstall_restores(rng):
    tracing = load_tracing()
    y, _, _ = spiked_white_data(rng, 60, 40, np.array([12.0, 6.0]))
    dataset = pipeline.dataset_from_arrays(y, np.ones_like(y))
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert shrinkage.np is not np and shrinkage.scipy is not scipy
        plugin, _ = pipeline.fit_in_sample(dataset, 2, mode="plugin")
        white, _ = pipeline.fit_in_sample(dataset, 2, mode="white")
    finally:
        tracer.uninstall()
    assert shrinkage.np is np
    assert shrinkage.scipy is scipy
    assert plugin.estimates.supercritical.all() and white.estimates.supercritical.all()

    names = [span[0] for span in tracer.spans]
    assert names.count("pipeline.fit_in_sample") == 2
    assert names.count("shrinkage.shrink_triplets") == 2
    # One calibration span per plug-in fit, and one per white closed form.
    shrinks = [sid for sid, span in enumerate(tracer.spans) if span[0] == "shrinkage.shrink_triplets"]
    parents = [span[3] for span in tracer.spans if span[0] == "spectral.calibration"]
    assert [parents.count(sid) for sid in shrinks] == [1, 2]
    metrics, _ = tracing.summarize(tracer.spans)
    assert metrics["shrinkage.calls"][0] == 2
