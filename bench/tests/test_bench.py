"""The benchmark's own tests, on tiny cohorts (``--smoke``).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gazeid import classify, cli, core, dataset, distributions, fisher, markov, scenewalk, simulate  # noqa: E402

MODULES = (cli, classify, core, dataset, distributions, fisher, markov, scenewalk, simulate)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tracing_does_not_change_results(workload, tmp_path):
    wl = workloads.WORKLOADS[workload].smoke()
    state = wl.setup(tmp_path, seed=5)
    indices = range(2 * wl.groups)
    plain = [wl.check(state, i, wl.operation(state, i)) for i in indices]
    with spans.Tracer(MODULES, run.OBSERVERS) as tracer:
        traced = [wl.check(state, i, wl.operation(state, i)) for i in indices]
    assert [o.problems for o in plain + traced] == [[]] * (2 * len(indices))
    assert [o.acc for o in traced] == [o.acc for o in plain]
    assert {1, 5} <= set(plain[0].acc)
    assert tracer.spans()


def test_tracer_patches_importers_and_restores():
    originals = (cli.main, classify.extract_features, markov.gamma_logpdf, cli.load_dataset)
    with spans.Tracer(MODULES) as tracer:
        assert classify.extract_features is core.extract_features is not originals[1]
        assert markov.gamma_logpdf is distributions.gamma_logpdf is not originals[2]
        assert cli.load_dataset is dataset.load_dataset is not originals[3]
        with tracer.span("bench.op"):
            classify.extract_features(simulate.generate_cohort(
                simulate.SyntheticCohortSpec(n_users=1, n_images=1, fixations_per_path=4)
            ).data.items[0].scanpath)
    assert (cli.main, classify.extract_features, markov.gamma_logpdf, cli.load_dataset) == originals
    summary = spans.summarize(tracer.spans())["bench.op"]
    assert summary["core.extract_features"]["calls"] == 1
    assert summary["core.classify_saccade_type"]["calls"] == 3


def test_worker_thread_spans_nest_under_the_submitting_span():
    with spans.Tracer(MODULES) as tracer:
        with tracer.span("bench.op"):
            workers = [threading.Thread(target=time.sleep, args=(0.02,)) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=5)
                assert not w.is_alive()

            def child():
                with tracer.span("child"):
                    time.sleep(0.05)

            pair = [threading.Thread(target=child) for _ in range(2)]
            for t in pair:
                t.start()
            for t in pair:
                t.join(timeout=5)
                assert not t.is_alive()
    recorded = tracer.spans()
    op = next(s for s in recorded if s[spans.NAME] == "bench.op")
    children = [s for s in recorded if s[spans.NAME] == "child"]
    assert all(s[spans.PARENT] is op for s in children)
    selfs = spans.self_times(recorded)
    # The two children overlap, so the op's self time subtracts their union.
    union = max(s[spans.END] for s in children) - min(s[spans.START] for s in children)
    duration = op[spans.END] - op[spans.START]
    assert selfs[id(op)] == pytest.approx(duration - union, abs=1e-9)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("markov-bayes", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
