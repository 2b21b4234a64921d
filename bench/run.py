"""gazeid benchmark: one workload, closed loop, one client.

    python3 bench/run.py --workload markov-bayes --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; gazeid is imported from ``src``.
The workload's inputs come from ``--seed``. Operations run one after
another for ``--seconds`` (the first pass over a workload's cohorts always
completes) and every operation's output is checked. Set-up runs at least
twice before the operations and once after them; ``setup_s`` is the
median. With ``--trace 1`` half of the time is spent untraced and the
rest in whole passes with every public gazeid function wrapped in a span;
the per-layer metrics come from those spans, and ``trace.overhead``
compares the two halves.

The last line of standard output is the result as one JSON object. The
environment, the per-run details and, for traced runs, every span go to
``bench/.work/<workload>-seed<n>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
# Set-up runs before the operations and again after them: at least twice
# before and once after, so that setup_s is the median of three or more, and
# on each side more times while that side has taken less than SETUP_SECONDS,
# up to MAX_SETUPS. The machine's speed drifts over seconds; set-ups on both
# sides of the operations sample it at two times instead of one.
SETUP_SECONDS = 2.5
MAX_SETUPS = 6
WORKLOAD_NAMES = ("markov-bayes", "markov-fisher", "scenewalk-fisher", "raw-identify")

# Traced functions reported by calls and inclusive seconds.
FUNCTIONS = (
    "core.load_recording_csv",
    "core.load_scanpath_csv",
    "core.load_features_csv",
    "core.detect_saccades",
    "core.extract_features",
    "dataset.load_dataset",
    "dataset.save_dataset",
    "simulate.generate_cohort",
    "distributions.gamma_mle",
    "distributions.gamma_logpdf",
    "markov.fit",
    "markov.loglik",
    "markov.grad_loglik",
    "fisher.estimate_information",
    "fisher.feature_map",
    "classify.train",
    "classify.decision_matrix",
    "classify.identify",
    "scenewalk.fit",
    "scenewalk.loglik",
    "scenewalk.grad_loglik",
    "scenewalk.step",
)
LAYERS = ("cli", "dataset", "core", "distributions", "markov", "scenewalk", "fisher", "classify", "simulate")

# Per-call means measured when the roadmap was re-anchored (2 cores,
# Python 3.11.7, numpy 2.4.6, scipy 1.17.1): (function, per, microseconds).
BASELINES = (
    ("markov.loglik", "call", 240.0),
    ("markov.grad_loglik", "call", 150.0),
    ("core.extract_features", "call", 265.0),
    ("scenewalk.loglik", "transition", 13300.0 / 29),
    ("scenewalk.grad_loglik", "transition", 22100.0 / 29),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny cohorts, for the benchmark's own tests")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


class Phase:
    """Latencies and check outcomes of the operations of one phase."""

    def __init__(self):
        self.latency: dict[int, list[float]] = defaultdict(list)
        self.acc: dict[int, dict[int, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def latency_s(self) -> float:
        """Mean operation time, each cohort weighted equally. A mean, not a
        median: the machine's speed can switch between two levels every few
        seconds, which makes the latencies of short operations bimodal and
        lets their median jump from one level to the other."""
        return statistics.fmean(statistics.fmean(v) for v in self.latency.values())

    def all_latencies(self) -> list[float]:
        return [v for values in self.latency.values() for v in values]


def run_phase(workload, state, seconds, first_index, tracer=None, whole_passes=False):
    """Operations until ``seconds`` have passed; the first pass over the
    cohorts always completes, and with ``whole_passes`` every pass does."""
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    phase = Phase()
    i = first_index
    deadline = time.perf_counter() + seconds
    while True:
        done = i - first_index
        at_pass_end = done % workload.groups == 0
        if done >= workload.groups and time.perf_counter() >= deadline and (at_pass_end or not whole_passes):
            break
        group = workload.group_of(i)
        start = time.perf_counter()
        with span("bench.op"):
            output = workload.operation(state, i)
        elapsed = time.perf_counter() - start
        with span("bench.check"):
            outcome = workload.check(state, i, output)
        phase.attempted += 1
        phase.latency[group].append(elapsed)
        if outcome.problems:
            phase.problems.append(f"operation {i}: " + "; ".join(outcome.problems))
        else:
            for k, v in outcome.acc.items():
                phase.acc[group][k].append(v)
        i += 1
    return phase


def accuracy(phase: Phase, k: int) -> float:
    """Mean over cohorts of the cohort's mean accuracy at k."""
    per_group = [statistics.fmean(acc[k]) for acc in phase.acc.values() if k in acc]
    return statistics.fmean(per_group) if per_group else 0.0


def reference_ms() -> float:
    """Median time of a fixed pure-Python loop. Recorded before and after a
    run's operations, it shows when the machine itself got slower."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for k in range(100_000):
            total += k * k % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def timed_setups(workload, inputs: Path, seed: int, times: list[float], at_least: int):
    """Set up ``at_least`` times, and more while they have taken less than
    SETUP_SECONDS, up to MAX_SETUPS; appends each time to ``times`` and
    returns the last state."""
    mine = []
    while len(mine) < at_least or (sum(mine) < SETUP_SECONDS and len(mine) < MAX_SETUPS):
        state = None  # so that two set-ups never hold memory at once
        fresh_dir(inputs)
        start = time.perf_counter()
        state = workload.setup(inputs, seed)
        mine.append(time.perf_counter() - start)
    times.extend(mine)
    return state


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------


def train_observer(arguments, model):
    """Rows trained on and the primal objective of the returned weights:
    sum over classes of 0.5 |w|^2 + C * sum of hinge losses."""
    X = np.asarray(arguments["features"], dtype=float)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    labels = np.asarray(list(arguments["labels"]))
    Y = np.where(labels[None, :] == np.asarray(model.classes)[:, None], 1.0, -1.0)
    hinge = np.maximum(0.0, 1.0 - Y * (model.weights @ Xb.T))
    primal = 0.5 * float(np.sum(model.weights**2)) + float(arguments["C"]) * float(hinge.sum())
    return {"rows": X.shape[0], "primal_objective": primal}


OBSERVERS = {
    "classify.train": train_observer,
    "markov.fit": lambda arguments, params: {"fallback_cells": len(params.fit_report.fallback_cells)},
    "scenewalk.fit": lambda arguments, result: {
        "iterations": result.iterations,
        "converged": float(result.converged),
    },
}


def layer_metrics(summary, untraced: Phase, traced: Phase, state) -> dict[str, float]:
    """Per-layer values per traced operation. A function that no traced
    operation called is reported from the traced set-up instead."""
    ops = summary.get("bench.op", {})
    setup = summary.get("bench.setup", {})
    n_ops = traced.attempted
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "extras": {}}

    def entry(name):
        if ops.get(name, empty)["calls"]:
            e = ops[name]
            return e["calls"] / n_ops, e["s"] / n_ops, {k: v / n_ops for k, v in e["extras"].items()}
        e = setup.get(name, empty)
        return e["calls"], e["s"], dict(e["extras"])

    m: dict[str, float] = {}
    for name in FUNCTIONS:
        calls, seconds, _ = entry(name)
        m[f"{name}.calls"] = calls
        m[f"{name}.s"] = seconds
    m["core.detect_saccades.match_ratio"] = getattr(state, "match_ratio", 0.0)
    m["markov.fit.fallback_cells"] = entry("markov.fit")[2].get("fallback_cells", 0.0)
    train_extras = entry("classify.train")[2]
    m["classify.train.rows"] = train_extras.get("rows", 0.0)
    m["classify.train.primal_objective"] = train_extras.get("primal_objective", 0.0)
    fit_calls, _, fit_extras = entry("scenewalk.fit")
    m["scenewalk.fit.iterations"] = fit_extras.get("iterations", 0.0)
    m["scenewalk.fit.converged_ratio"] = fit_extras.get("converged", 0.0) / fit_calls if fit_calls else 0.0

    op_seconds = ops.get("bench.op", empty)["s"] / n_ops
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, e in ops.items():
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += e["self_s"] / n_ops
    for layer, seconds in layer_self.items():
        m[f"{layer}.self_s"] = seconds
    m["bench.self_s"] = ops.get("bench.op", empty)["self_s"] / n_ops
    m["classify.run_protocol.self_s"] = ops.get("classify.run_protocol", empty)["self_s"] / n_ops
    m["trace.coverage"] = sum(layer_self.values()) / op_seconds
    m["trace.overhead"] = traced.latency_s() / untraced.latency_s() - 1.0
    m["trace.ops"] = n_ops
    m["acc_k1"] = accuracy(traced, 1)
    m["acc_k5"] = accuracy(traced, 5)
    return m


COUNTS = {"markov.fit.fallback_cells", "classify.train.rows", "scenewalk.fit.iterations", "trace.ops"}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in COUNTS:
        return "count"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name == "classify.train.primal_objective":
        return "objective"
    return "ratio"


def readout(metrics, workload) -> list[str]:
    """Traced per-call means next to the roadmap's re-anchor baselines."""
    lines = []
    transitions = workload.cohort["fixations_per_path"] - 1
    for name, per, baseline_us in BASELINES:
        calls = metrics[f"{name}.calls"]
        if not calls:
            continue
        mean_us = metrics[f"{name}.s"] / calls * 1e6
        if per == "transition":
            mean_us /= transitions
        lines.append(f"  {name}: {mean_us:.1f} us per {per} (roadmap baseline {baseline_us:.1f} us)")
    return lines


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_state() -> tuple[str | None, bool | None]:
    """Commit and dirtiness of the checkout; None where it is not a git
    repository. Git does not look above the checkout for a repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        commit, status = (
            subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
            for cmd in (["rev-parse", "HEAD"], ["status", "--porcelain"])
        )
    except (OSError, subprocess.SubprocessError):
        return None, None
    if commit.returncode != 0 or status.returncode != 0:
        return None, None
    return commit.stdout.strip(), bool(status.stdout.strip())


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = git_state()
    return {
        "nproc": threads,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit,
        "git_dirty": dirty,
        "seed": seed,
        "eval_threads": threads,
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in a fresh process; one result line per workload."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv + (["--smoke"] if args.smoke else []), capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"{name}: {lines[-1] if proc.returncode == 0 and lines else 'exited with ' + str(proc.returncode)}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = 1
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
        from spans import Tracer, summarize
    except ImportError as exc:
        print(f"error: cannot import gazeid from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import gazeid
    from gazeid import classify, cli, core, dataset, distributions, fisher, markov, scenewalk, simulate

    workload = workloads.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    work = fresh_dir(ROOT / "bench" / ".work" / f"{workload.name}-seed{args.seed}-trace{args.trace}")
    inputs = work / "inputs"
    env = environment(args.seed, workloads.eval_threads())

    traced = tracer = None
    setup_times = []
    reference = [reference_ms()]
    if args.trace:
        modules = (cli, classify, core, dataset, distributions, fisher, markov, scenewalk, simulate)
        tracer = Tracer(modules, OBSERVERS)
        fresh_dir(inputs)
        with tracer:
            with tracer.span("bench.setup"):
                state = workload.setup(inputs, args.seed)
        untraced = run_phase(workload, state, args.seconds / 2, 0)
        with tracer:
            traced = run_phase(
                workload, state, args.seconds / 2, untraced.attempted, tracer, whole_passes=True
            )
        phases = (untraced, traced)
    else:
        state = timed_setups(workload, inputs, args.seed, setup_times, at_least=2)
        untraced = run_phase(workload, state, args.seconds, 0)
        state = None  # so that two set-ups never hold memory at once
        timed_setups(workload, inputs, args.seed, setup_times, at_least=1)
        phases = (untraced,)

    reference.append(reference_ms())
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    acc_k5 = accuracy(untraced, 5)
    chance = 1.0 / workload.cohort["n_users"]
    run_problems = []
    if isinstance(workload, workloads.RawIdentifyWorkload) and not acc_k5 > chance:
        run_problems.append(f"acc_k5 {acc_k5} is not above chance {chance}")

    if tracer is not None:
        metrics = layer_metrics(summarize(tracer.spans()), untraced, traced, state)
        units = {name: per_layer_unit(name) for name in metrics}
        tracer.write(work / "spans.json")
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "latency_ms": untraced.latency_s() * 1000.0,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = {"setup_s": "s", "latency_ms": "ms", "peak_rss_mb": "MB"}
    shutil.rmtree(inputs, ignore_errors=True)

    lat = sorted(untraced.all_latencies())
    summary = {
        "workload": workload.name,
        "why": workload.why,
        "note": workload.note,
        "smoke": args.smoke,
        "environment": env,
        "reference_loop_ms_before_after": reference,
        "setup_times_s": setup_times,
        "operations": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": [p for phase in phases for p in phase.problems] + run_problems,
        "latency_ms": {
            "n": len(lat),
            "p50": statistics.median(lat) * 1000.0,
            "p95": statistics.quantiles(lat, n=20)[18] * 1000.0 if len(lat) >= 2 else lat[0] * 1000.0,
            "mean": statistics.fmean(lat) * 1000.0,
            "cohort_means": [statistics.fmean(v) * 1000.0 for v in untraced.latency.values()],
        },
        "acc_k1": accuracy(untraced, 1),
        "acc_k5": acc_k5,
        "metrics": metrics,
        "gazeid_version": gazeid.__version__,
    }
    with open(work / "result.json", "w") as fh:
        json.dump(summary, fh, indent=2)

    print(f"{workload.name} seed {args.seed}: {attempted} operations, {failed} failed")
    if isinstance(workload, workloads.RawIdentifyWorkload):
        print(f"  identify_ms.p50 {summary['latency_ms']['p50']:.3f} ms, "
              f"identify_ms.p95 {summary['latency_ms']['p95']:.3f} ms over {len(lat)} requests")
    else:
        print(f"  eval_s {untraced.latency_s():.3f} s over {len(lat)} operations")
    print(f"  fail_ratio {summary['fail_ratio']:.4f}, acc_k1 {summary['acc_k1']:.4f}, acc_k5 {acc_k5:.4f}")
    for problem in summary["problems"][:5]:
        print(f"  problem: {problem}")
    if tracer is not None:
        print("\n".join(readout(metrics, workload)))
    else:
        print(f"  environment: {json.dumps(env)}")
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
