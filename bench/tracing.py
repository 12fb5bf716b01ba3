"""In-memory span tracing of the eblp layers, applied from outside.

:func:`install` replaces module attributes of the ``eblp`` package with
wrappers, so callers that resolve a name at call time (``matio.read_matrix``
from the CLI, ``shrink_triplets`` from the pipeline, ``nnrls`` from the
campaign runner) record a span per call.  A span is (name, start, end,
parent); spans stay in memory until :meth:`Tracer.dump`.  The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time

LAYERS = ("cli", "matio", "pipeline", "shrinkage", "spectral", "baselines", "simulate", "benchmark")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, attrs=None):
        """Wrap ``fn`` so every call records a span; ``attrs(args, kwargs,
        result)`` may return extra fields computed after the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None, {}])
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid][1:3] = start, end
            if attrs is not None:
                self.spans[sid][4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def run(self, name: str, fn):
        """Call ``fn()`` inside a span of its own (the benchmark's operations)."""
        return self.span(name, fn)()

    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` until :meth:`uninstall`."""
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_everywhere(self, name: str, fn, attrs=None) -> None:
        """Replace ``fn`` in every loaded ``eblp`` module that holds it."""
        wrapper = self.span(name, fn, attrs)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "eblp" and not mod_name.startswith("eblp."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`patch` replaced."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            for sid, (name, start, end, parent, attrs) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": start, "end": end, **attrs,
                }) + "\n")


class _Proxy:
    """Module stand-in: the given attributes, everything else delegated."""

    def __init__(self, real, **overrides):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


def _file_bytes(path) -> dict:
    try:
        return {"bytes": os.path.getsize(path)}
    except (OSError, TypeError):
        return {"bytes": 0}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every eblp layer."""
    import eblp.baselines as baselines
    import eblp.benchmark as benchmark
    import eblp.cli as cli
    import eblp.matio as matio
    import eblp.pipeline as pipeline
    import eblp.shrinkage as shrinkage
    import eblp.simulate as simulate

    # Every matio function takes its file path first; size it after the call.
    path_bytes = lambda args, kwargs, result: _file_bytes(args[0])  # noqa: E731
    tracer.wrap_everywhere("cli.main", cli.main)
    for fn in (matio.read_matrix, matio.read_mask, matio.read_model,
               matio.write_matrix, matio.write_model, matio.write_results):
        tracer.wrap_everywhere(f"matio.{fn.__name__}", fn, path_bytes)
    for fn in (pipeline.dataset_from_arrays, pipeline.fit_in_sample, pipeline.predict_out_of_sample):
        tracer.wrap_everywhere(f"pipeline.{fn.__name__}", fn)
    tracer.wrap_everywhere("shrinkage.shrink_triplets", shrinkage.shrink_triplets)
    # The decompositions are numpy/scipy calls made from shrinkage; proxy
    # that module's `np` and `scipy` names so only its own calls are seen.
    np_mod, sp_mod = shrinkage.np, shrinkage.scipy
    svd = tracer.span("shrinkage.decomposition", np_mod.linalg.svd)
    svds = tracer.span("shrinkage.decomposition", sp_mod.sparse.linalg.svds)
    tracer.patch(shrinkage, "np", _Proxy(np_mod, linalg=_Proxy(np_mod.linalg, svd=svd)))
    tracer.patch(shrinkage, "scipy", _Proxy(
        sp_mod, sparse=_Proxy(sp_mod.sparse, linalg=_Proxy(sp_mod.sparse.linalg, svds=svds))
    ))
    for fn in (shrinkage.estimate_spike, shrinkage.white_spike_inverse, shrinkage.white_spike_forward):
        tracer.wrap_everywhere("spectral.calibration", fn)
    tracer.wrap_everywhere(
        "baselines.nnrls", baselines.nnrls,
        lambda args, kwargs, result: {"iterations": result.iterations, "converged": result.converged},
    )
    tracer.wrap_everywhere("baselines.prox", baselines.soft_threshold_singular_values)
    for fn in (baselines.nnrls_weight_colored, baselines.nnrls_weight_white):
        tracer.wrap_everywhere("baselines.weight_calibration", fn)
    tracer.wrap_everywhere("simulate.simulate_dataset", simulate.simulate_dataset)
    tracer.wrap_everywhere("benchmark.run_benchmark", benchmark.run_benchmark)
    tracer.wrap_everywhere("benchmark.task", benchmark._run_task)


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, from a wrapped no-op."""
    noop = lambda: None  # noqa: E731
    wrapped = Tracer().span("noop", noop)
    per_call = {}
    for name, fn in (("raw", noop), ("wrapped", wrapped)):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        per_call[name] = (time.perf_counter() - start) / calls
    return per_call["wrapped"] - per_call["raw"]


def summarize(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self time from a list of spans.

    Times are totals over the traced operations, except
    ``baselines.nnrls_s``, the median time of one NNRLS fit.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    selft: dict[str, float] = {}
    attr_sum: dict[str, float] = {}
    nnrls_times = []
    for sid, (name, start, end, parent, attrs) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        selft[name] = selft.get(name, 0.0) + dur - child_time[sid]
        for key, value in attrs.items():
            attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0.0) + float(value)
        if name == "baselines.nnrls":
            nnrls_times.append(dur)

    t = lambda name: total.get(name, 0.0)  # noqa: E731
    n = lambda name: count.get(name, 0)  # noqa: E731
    a = lambda key: attr_sum.get(key, 0.0)  # noqa: E731
    rate = lambda nbytes, secs: nbytes / 1e6 / secs if secs > 0 else 0.0  # noqa: E731
    layer_self = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for name, secs in selft.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + secs

    metrics = {
        "matio.read_matrix_s": (t("matio.read_matrix"), "s"),
        "matio.read_matrix_mb_per_s": (rate(a("matio.read_matrix.bytes"), t("matio.read_matrix")), "MB/s"),
        "matio.write_matrix_s": (t("matio.write_matrix"), "s"),
        "matio.write_matrix_mb_per_s": (rate(a("matio.write_matrix.bytes"), t("matio.write_matrix")), "MB/s"),
        "matio.bytes_read": (a("matio.read_matrix.bytes"), "bytes"),
        "matio.bytes_written": (a("matio.write_matrix.bytes"), "bytes"),
        "matio.read_model_s": (t("matio.read_model"), "s"),
        "matio.write_model_s": (t("matio.write_model"), "s"),
        "matio.model_bytes": (a("matio.write_model.bytes") / max(n("matio.write_model"), 1), "bytes"),
        "pipeline.dataset_from_arrays_s": (t("pipeline.dataset_from_arrays"), "s"),
        "pipeline.fit_in_sample_s": (t("pipeline.fit_in_sample"), "s"),
        "pipeline.fit_self_s": (selft.get("pipeline.fit_in_sample", 0.0), "s"),
        "pipeline.predict_us_per_row": (
            1e6 * t("pipeline.predict_out_of_sample") / max(n("pipeline.predict_out_of_sample"), 1), "us"),
        "pipeline.predict_calls": (n("pipeline.predict_out_of_sample"), "count"),
        "shrinkage.shrink_triplets_s": (t("shrinkage.shrink_triplets"), "s"),
        "shrinkage.decomposition_s": (t("shrinkage.decomposition"), "s"),
        "shrinkage.calls": (n("shrinkage.shrink_triplets"), "count"),
        "spectral.calibration_s": (t("spectral.calibration"), "s"),
        "spectral.evaluations": (n("spectral.calibration"), "count"),
        "baselines.nnrls_s": (statistics.median(nnrls_times) if nnrls_times else 0.0, "s"),
        "baselines.nnrls_fits": (n("baselines.nnrls"), "count"),
        "baselines.nnrls_iters": (a("baselines.nnrls.iterations"), "count"),
        "baselines.nnrls_converged": (a("baselines.nnrls.converged"), "count"),
        "baselines.prox_calls": (n("baselines.prox"), "count"),
        "baselines.prox_s": (t("baselines.prox"), "s"),
        "baselines.weight_calibration_s": (t("baselines.weight_calibration"), "s"),
        "simulate.simulate_dataset_s": (t("simulate.simulate_dataset"), "s"),
        "benchmark.run_benchmark_s": (t("benchmark.run_benchmark"), "s"),
        "benchmark.tasks": (n("benchmark.task"), "count"),
        "benchmark.task_s": (t("benchmark.task"), "s"),
        "benchmark.overhead_s": (t("benchmark.run_benchmark") - t("benchmark.task"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (layer_self[layer], "s")
    return metrics, layer_self
