"""Benchmark of the eblp command-line tools and library.

Run from the repository root:

    python3 bench/run.py --workload denoise-tall --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the CLI as separate processes and reports the
end-to-end metrics; ``--trace 1`` runs the same operations in process
through ``eblp.cli.main``, each once untraced and once with every layer
wrapped (bench/tracing.py), and reports the per-layer metrics.  Inputs come
from bench/gen.py and are written under bench/_data/<workload>/.  Outputs
are checked against bench/reference.py and against properties the method
must have.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(HERE, "_data")

RANK = 10
TOL = 1e-9            # relative Frobenius distance to the reference
OOS_GAP = 0.05        # acceptance criterion 5: |oos - in-sample| / in-sample


@dataclass(frozen=True)
class Workload:
    mode: str                 # `eblp denoise --mode`
    setup_reads_model: bool   # set-up includes reading the saved model
    counts: dict              # operations per round, interleaved by `schedule`


# Operations per round.  An operation repeats unless one call takes half
# the round (the desk campaign), so that each metric averages over the
# whole run; the totals keep a run within about 60 s on a 2-core machine.
WORKLOADS = {
    "denoise-tall": Workload("plugin", False, {
        "denoise": 3, "fit": 2, "oos": 2, "campaign": 1, "predict": 30, "setup": 3}),
    "oos-wide": Workload("white", True, {
        "denoise": 3, "fit": 20, "oos": 3, "campaign": 3, "predict": 10, "setup": 3}),
    "campaign-desk": Workload("plugin", False, {
        "denoise": 3, "fit": 25, "oos": 3, "campaign": 1, "predict": 40, "setup": 3}),
}
# A traced run calls each operation once untraced and once traced.
TRACED_COUNTS = {"denoise": 1, "fit": 1, "oos": 1, "campaign": 1, "predict": 1}


def schedule(counts: dict) -> list[str]:
    """Spread each operation's repetitions evenly over the round, so every
    metric samples the whole run.  The first denoise and the first fit
    lead: `oos` and set-up read the saved model, `predict` the fitted one."""
    slots = []
    for k, (name, n) in enumerate(counts.items()):
        lead = 0.0 if name in ("denoise", "fit") else 0.5
        slots += [((i + lead) / n, k, name) for i in range(n)]
    return [name for *_, name in sorted(slots)]


END_TO_END_UNITS = {
    "setup_s": "s",
    "denoise_s": "s",
    "fit_s": "s",
    "oos_rows_per_s": "rows/s",
    "predict_rows_per_s": "rows/s",
    "campaign_s": "s",
    "peak_rss_mb": "MB",
}

# Fresh interpreter until ready for the first unit of work.  Prints the
# ready instant (CLOCK_MONOTONIC, shared across processes on Linux) and
# the import time.
PROBE = """import time
t0 = time.perf_counter()
import eblp.cli
t1 = time.perf_counter()
import sys
if len(sys.argv) > 1:
    eblp.cli.matio.read_model(sys.argv[1])
print(time.perf_counter(), t1 - t0)
"""


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except Exception:  # the config layout is not a stable API
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
    }


def prepare_inputs(gen, workload: str, seed: int, out: str) -> str:
    """Generate the seed's inputs unless ``out`` already holds them."""
    digest = hashlib.sha256()
    for name in ("gen.py", "desk_campaign.cfg"):
        with open(os.path.join(HERE, name), "rb") as handle:
            digest.update(handle.read())
    stamp = {"workload": workload, "seed": seed, "generator": digest.hexdigest()}
    stamp_path = os.path.join(out, "inputs.json")
    try:
        with open(stamp_path) as handle:
            if json.load(handle) == stamp:
                return "reused"
    except (OSError, ValueError):
        pass
    if os.path.exists(stamp_path):
        os.remove(stamp_path)
    gen.generate(workload, seed, out)
    with open(stamp_path, "w") as handle:
        json.dump(stamp, handle)
    return "generated"


def spawn(argv: list[str], env: dict, stderr_path: str, capture: bool = False):
    """Run a child process; returns (exit code, wall seconds, peak RSS MB, stdout)."""
    start = time.perf_counter()
    with open(stderr_path, "ab") as err:
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE if capture else subprocess.DEVNULL, stderr=err
        )
        out = proc.stdout.read() if capture else b""
        if capture:
            proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out.decode()


def read_table(path: str) -> list[dict]:
    """Results table as dicts; numeric columns as floats."""
    with open(path) as handle:
        lines = [line.split() for line in handle if line.strip()]
    header, rows = lines[0], [dict(zip(lines[0], line)) for line in lines[1:]]
    for row in rows:
        for key in ("sigma", "rmse", "amse_est"):
            row[key] = float(row[key])
    return rows if header[:3] == ["experiment", "method", "sigma"] else []


class Run:
    """One benchmark run: operations, their checks, and the samples."""

    def __init__(self, workload: str, out: str):
        import numpy as np

        import gen
        import reference

        self.np, self.ref = np, reference
        self.name, self.spec, self.out = workload, WORKLOADS[workload], out
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.train = gen.load(out, "train")      # (x, mask, y)
        self.fresh = gen.load(out, "fresh")
        self.ref_fit = reference.fit(self.train[2], self.train[1], RANK, self.spec.mode)
        self.ref_pred = reference.predict(self.ref_fit, self.fresh[2], self.fresh[1])
        self.first_table: bytes | None = None
        self.truncation_rmse: float | None = None
        self.verified: set[tuple[str, str]] = set()
        self.model = None
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def outputs(self, *names: str) -> list[str]:
        """Paths for a CLI operation's outputs, with earlier copies removed.

        The program then writes new files.  Overwriting a file on ext4
        starts its writeback when the file is closed, and truncating it
        again waits for that writeback, so the next operation's time would
        depend on how busy the disk is.
        """
        paths = [self.path(name) for name in names]
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        return paths

    def record(self, what: str, exited_ok: bool, check=None) -> None:
        """Count one operation; ``check()`` returns a problem or None."""
        self.attempted += 1
        problem = None if exited_ok else "exited with an error"
        if exited_ok and check is not None:
            try:
                problem = check()
            except Exception as exc:  # an unreadable output is a failed check
                problem = f"check raised {exc!r}"
            if problem:
                self.correct = False
        if problem:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")

    # -- checks -------------------------------------------------------------

    def check_file(self, path: str, check) -> str | None:
        """``check()`` unless the file is byte-identical to one that passed."""
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        if (path, digest) in self.verified:
            return None
        problem = check()
        if problem is None:
            self.verified.add((path, digest))
        return problem

    def check_fit(self, x_hat) -> str | None:
        err = self.ref.rel_err(x_hat, self.ref_fit.x_hat)
        if not err <= TOL:
            return f"denoised matrix differs from the reference by {err:.3g}"
        if self.name == "denoise-tall":
            x, mask, y = self.train
            if self.truncation_rmse is None:
                self.truncation_rmse = self.ref.rel_err(self.ref.truncation(y, mask, RANK), x)
            ours = self.ref.rel_err(x_hat, x)
            if not ours < self.truncation_rmse:
                return (f"RMSE {ours:.4f} does not beat rank-{RANK} truncation "
                        f"{self.truncation_rmse:.4f}")
        return None

    def check_predictions(self, pred) -> str | None:
        err = self.ref.rel_err(pred, self.ref_pred)
        if not err <= TOL:
            return f"predictions differ from the reference by {err:.3g}"
        if self.name == "oos-wide":
            r_in = self.ref.rel_err(self.ref_fit.x_hat, self.train[0])
            r_out = self.ref.rel_err(pred, self.fresh[0])
            if not abs(r_out - r_in) <= OOS_GAP * r_in:
                return f"out-of-sample RMSE {r_out:.4f} vs in-sample {r_in:.4f}"
        return None

    def check_campaign(self, path: str) -> str | None:
        with open(path, "rb") as handle:
            raw = handle.read()
        if self.first_table is None:
            self.first_table = raw
        elif raw != self.first_table:
            return "--no-timings table differs from the run's first table"
        rows = read_table(path)
        if not rows:
            return "missing or unexpected results header"
        for row in rows:
            if not math.isfinite(row["rmse"]):
                return f"non-finite rmse in {row}"
            if row["method"] != "nnrls" and not math.isfinite(row["amse_est"]):
                return f"non-finite amse_est in {row}"
        top = max(row["sigma"] for row in rows)
        for exp in sorted({row["experiment"] for row in rows}):
            means = defaultdict(list)
            for row in rows:
                if row["experiment"] == exp and row["sigma"] == top:
                    means[row["method"]].append(row["rmse"])
            mean = {m: statistics.fmean(v) for m, v in means.items()}
            best = min(mean, key=mean.get)
            if best != "eblp":
                return f"{exp} at sigma={top:g}: {best} beats eblp ({mean})"
        return None

    # -- operations ---------------------------------------------------------

    def setup(self, cli, timed) -> None:
        argv = [sys.executable, "-c", PROBE]
        if self.spec.setup_reads_model:
            argv.append(self.path("model.json"))
        start = time.perf_counter()
        code, _, rss, out = spawn(argv, self.env, self.path("stderr.txt"), capture=True)
        ok = code == 0 and len(out.split()) == 2
        self.record("setup", ok)
        if ok:
            ready, import_s = (float(v) for v in out.split())
            self.samples["setup"].append(ready - start)
            self.samples["import"].append(import_s)
        self.samples["rss"].append(rss)

    def denoise(self, cli, timed) -> None:
        out, model = self.outputs("xhat.txt", "model.json")
        argv = ["denoise", self.path("train.txt"), out, "--rank", str(RANK)]
        if self.spec.mode != "plugin":
            argv += ["--mode", self.spec.mode]
        code, wall, rss = cli(argv + ["--save-model", model])
        self.samples["denoise"].append(wall)
        self.samples["rss"].append(rss)
        self.record("denoise", code == 0, lambda: self.check_file(
            out, lambda: self.check_fit(self.np.loadtxt(out, ndmin=2))))

    def oos(self, cli, timed) -> None:
        (out,) = self.outputs("pred.txt")
        code, wall, rss = cli(["oos", self.path("fresh.txt"), out,
                               "--model", self.path("model.json")])
        self.samples["oos"].append(wall)
        self.samples["rss"].append(rss)
        self.record("oos", code == 0, lambda: self.check_file(
            out, lambda: self.check_predictions(self.np.loadtxt(out, ndmin=2))))

    def campaign(self, cli, timed) -> None:
        (table,) = self.outputs("results.txt")
        code, wall, rss = cli(["benchmark", self.path("campaign.cfg"), table,
                               "--no-timings", "--jobs", "1"])
        self.samples["campaign"].append(wall)
        self.samples["rss"].append(rss)
        self.record("benchmark", code == 0, lambda: self.check_campaign(table))

    def fit(self, cli, timed) -> None:
        import eblp.pipeline as pipeline

        _, mask, y = self.train
        dataset, _ = timed("dataset", lambda: pipeline.dataset_from_arrays(y, mask))
        (self.model, x_hat), secs = timed(
            "fit", lambda: pipeline.fit_in_sample(dataset, RANK, whiten=True, mode=self.spec.mode)
        )
        self.samples["fit"].append(secs)
        self.record("fit_in_sample", True, lambda: self.check_fit(x_hat))

    def predict(self, cli, timed) -> None:
        import eblp.pipeline as pipeline

        _, mask, y = self.fresh
        pred, secs = timed("predict", lambda: self.np.stack([
            pipeline.predict_out_of_sample(self.model, pipeline.TransformedObservation(y=yi, d=di))
            for yi, di in zip(y, mask)
        ]))
        self.samples["predict"].append(secs)
        self.record("predict_out_of_sample", True, lambda: self.check_predictions(pred))

    def round(self, counts: dict, cli, timed) -> None:
        """One round: ``counts[op]`` calls of each operation, interleaved.

        ``cli(argv)`` runs one CLI command and returns (exit code, wall s,
        peak RSS MB); ``timed(name, fn)`` calls ``fn`` and returns
        (result, seconds).
        """
        for name in schedule(counts):
            getattr(self, name)(cli, timed)


def warm_up(mode: str) -> None:
    """First BLAS and LAPACK calls of the process, outside any timing."""
    import numpy as np

    import eblp.pipeline as pipeline

    rng = np.random.default_rng(0)
    y = rng.standard_normal((200, 150))
    pipeline.fit_in_sample(pipeline.dataset_from_arrays(y, np.ones_like(y)), RANK, mode=mode)


def measure(run: Run, seconds: float) -> dict:
    """Untraced: whole rounds of CLI processes and library calls until
    ``seconds`` have passed; end-to-end metrics are means over the run."""

    def cli(argv):
        code, wall, rss, _ = spawn(
            [sys.executable, "-m", "eblp.cli"] + argv, run.env, run.path("stderr.txt")
        )
        return code, wall, rss

    def timed(_name, fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start

    warm_up(run.spec.mode)
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        run.round(run.spec.counts, cli, timed)
        rounds += 1
    print(f"rounds: {rounds} in {time.perf_counter() - start:.1f} s")
    for name, values in run.samples.items():
        print(f"samples {name}: n={len(values)} min {min(values):.6g} max {max(values):.6g}")
    with open(run.path("samples.json"), "w") as handle:
        json.dump(run.samples, handle)
    # Means over the run, i.e. total work over total time: the machine's
    # speed switches between two levels every few seconds, and a median
    # over the repetitions jumps between them from run to run.
    mean = lambda name: statistics.fmean(run.samples[name] or [float("nan")])  # noqa: E731
    rows = len(run.fresh[0])
    values = {
        "setup_s": mean("setup"),
        "denoise_s": mean("denoise"),
        "fit_s": mean("fit"),
        "oos_rows_per_s": rows / mean("oos"),
        "predict_rows_per_s": rows / mean("predict"),
        "campaign_s": mean("campaign"),
        "peak_rss_mb": max(run.samples["rss"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def measure_traced(run: Run) -> dict:
    """Each operation once untraced and then once traced, in process;
    per-layer metrics from the traced calls."""
    import eblp.cli as cli_mod

    import tracing

    tracer = tracing.Tracer()
    traced = False
    op_time = {False: 0.0, True: 0.0}    # operations only, checks excluded

    def timed(name, fn):
        start = time.perf_counter()
        result = tracer.run(f"bench.{name}", fn) if traced else fn()
        secs = time.perf_counter() - start
        op_time[traced] += secs
        return result, secs

    def cli(argv):
        code, secs = timed("cli", lambda: cli_mod.main(argv))
        return code, secs, 0.0

    warm_up(run.spec.mode)
    # Pairs next to each other in time, so that the machine's drift
    # cancels in the overhead.
    for name in schedule(TRACED_COUNTS):
        for traced in (False, True):
            if traced:
                tracing.install(tracer)
            getattr(run, name)(cli, timed)
            if traced:
                tracer.uninstall()
    run.round({"setup": run.spec.counts["setup"]}, cli, timed)

    spans_path = run.path("spans.jsonl")
    tracer.dump(spans_path)
    metrics, layer_self = tracing.summarize(tracer.spans)
    overhead = op_time[True] - op_time[False]
    metrics["cli.import_s"] = (statistics.fmean(run.samples["import"] or [0.0]), "s")
    metrics["trace.overhead_s"] = (overhead, "s")

    print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    print(f"{'layer':<10} {'self s':>9} {'share':>7}")
    total = sum(layer_self.values())
    for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<10} {secs:9.3f} {secs / total:7.1%}")
    print(f"tracing overhead: {overhead:.3f} s "
          f"(traced {op_time[True]:.3f} s - untraced {op_time[False]:.3f} s); "
          f"the wrappers themselves add {len(tracer.spans)} spans x "
          f"{tracing.span_cost() * 1e6:.2f} us, the rest is run-to-run noise")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="eblp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "eblp", "cli.py")):
        die(f"no src/eblp/cli.py under {ROOT}; run from the repository root")
    sys.path[:0] = [SRC, HERE]
    import eblp

    if not os.path.abspath(eblp.__file__).startswith(SRC + os.sep):
        die(f"imported eblp from {eblp.__file__}, not from {SRC}")
    import gen

    env = environment()
    out = os.path.join(DATA, args.workload)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "env.json"), "w") as handle:
        json.dump(env, handle, indent=1)
    print("env: " + json.dumps(env))

    start = time.perf_counter()
    how = prepare_inputs(gen, args.workload, args.seed, out)
    print(f"inputs: {how} for seed {args.seed} in {time.perf_counter() - start:.1f} s "
          f"({os.path.relpath(out, ROOT)})")
    run = Run(args.workload, out)
    metrics = measure_traced(run) if args.trace else measure(run, args.seconds)

    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>14.6g} {metric['unit']}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"attempted {run.attempted}, failed {run.failed}, correct {run.correct}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
