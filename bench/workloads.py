"""The benchmark's workloads: their inputs, one operation, and its checks.

Every workload is closed-loop with one client: the next operation starts
when the previous one has finished. Inputs come from the workload seed
only; gazeid receives the generated cohorts and recordings.

gazeid is reached through module attributes (``cli.main``,
``core.detect_saccades``, ...) looked up at call time, so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gazeid import classify, cli, core, dataset, fisher, markov, simulate

import render

MAX_K = classify.EvalProtocol().max_k
TRAIN_FRACTION = classify.EvalProtocol().train_fraction


def eval_threads() -> int:
    """``eval --threads``: the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Outcome:
    """What the checks made of one operation."""

    problems: list[str]
    acc: dict[int, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# gazeid eval on simulated cohorts
# ---------------------------------------------------------------------------


@dataclass
class EvalState:
    cohort_dirs: list[Path]
    expected_ks: list[int]
    first_output: dict[int, tuple[bytes, bytes]] = field(default_factory=dict)


@dataclass(frozen=True)
class EvalWorkload:
    """``gazeid eval`` on ``cohorts`` simulated datasets, one per operation
    in turn. Cohort j of seed s is simulated with seed s * cohorts + j, so
    seeds never share a cohort and, with one cohort, seed 0 is the cohort
    the acceptance tests use."""

    name: str
    why: str
    cohort: dict
    cohorts: int
    eval_args: tuple[str, ...]
    note: str = ""

    @property
    def groups(self) -> int:
        return self.cohorts

    def smoke(self) -> "EvalWorkload":
        small = {**self.cohort, "n_users": 3, "n_images": 10, "fixations_per_path": 8}
        if self.cohort["family"] == "scenewalk":
            small["grid_shape"] = (16, 16)
        return replace(self, cohort=small, cohorts=min(self.cohorts, 2))

    def expected_ks(self) -> list[int]:
        n = self.cohort["n_images"]
        n_train = min(max(int(round(TRAIN_FRACTION * n)), 1), n - 1)
        return list(range(1, min(MAX_K, n - n_train) + 1))

    def setup(self, work: Path, seed: int) -> EvalState:
        dirs = []
        for j in range(self.cohorts):
            spec = simulate.SyntheticCohortSpec(**self.cohort, seed=seed * self.cohorts + j)
            root = work / f"cohort{j}"
            dataset.save_dataset(simulate.generate_cohort(spec).data, root / "data")
            for run in ("run_a", "run_b"):
                (root / run).mkdir()
            dirs.append(root)
        return EvalState(cohort_dirs=dirs, expected_ks=self.expected_ks())

    def group_of(self, i: int) -> int:
        return i % self.cohorts

    def operation(self, state: EvalState, i: int):
        """One ``gazeid eval``. Operations on one cohort alternate between
        two output directories and pass the same relative paths, so that
        their artifacts must be byte-identical."""
        root = state.cohort_dirs[self.group_of(i)]
        run_dir = root / ("run_a" if (i // self.cohorts) % 2 == 0 else "run_b")
        argv = ["eval", "--data", "../data", "--out", "out", *self.eval_args,
                "--threads", str(eval_threads())]
        with contextlib.chdir(run_dir), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, run_dir / "out"

    def check(self, state: EvalState, i: int, output) -> Outcome:
        code, out = output
        if code != 0:
            return Outcome([f"eval exited with {code}"])
        try:
            blob = ((out / "results.json").read_bytes(), (out / "results.csv").read_bytes())
            doc = json.loads(blob[0])
            rows = list(csv.DictReader(blob[1].decode().splitlines()))
            curve = {int(e["k"]): float(e["mean_acc"]) for e in doc["curve"]}
            csv_curve = {int(r["k"]): float(r["mean_acc"]) for r in rows}
            per_split = [float(v) for vs in doc["per_split"].values() for v in vs]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return Outcome([f"unreadable results: {exc!r}"])
        problems = []
        values = list(curve.values()) + list(csv_curve.values()) + per_split
        if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append("an accuracy is not finite or outside [0, 1]")
        if sorted(curve) != state.expected_ks or sorted(csv_curve) != state.expected_ks:
            problems.append(f"curve covers k={sorted(curve)}, expected {state.expected_ks}")
        chance = 1.0 / self.cohort["n_users"]
        if self.cohort["family"] == "markov" and not curve.get(1, 0.0) > chance:
            problems.append(f"acc_k1 {curve.get(1)} is not above chance {chance}")
        first = state.first_output.setdefault(self.group_of(i), blob)
        if blob != first:
            problems.append("results differ from the first run on this cohort")
        return Outcome(problems, {k: curve[k] for k in (1, 5) if k in curve})


# ---------------------------------------------------------------------------
# Identification from raw gaze, one request at a time
# ---------------------------------------------------------------------------


@dataclass
class IdentifyState:
    model: classify.LinearModel
    params: markov.MarkovModelParams
    info: fisher.FisherInformation
    held_out: dict[str, list[core.GazeRecording]]
    requests: list[tuple[str, tuple[int, ...]]]
    match_ratio: float


@dataclass(frozen=True)
class RawIdentifyWorkload:
    """Raw 500 Hz recordings of a simulated cohort. Set-up renders them,
    writes and reads them back as CSV, detects fixations, fits a pooled
    Markov model on each viewer's first ``train_images`` images, estimates
    the information and trains the SVM with the ``gazeid scores``/``train``
    defaults (C=1, default ridge, no normalisation). A request identifies
    the viewer of ``group_k`` held-out recordings."""

    name: str
    why: str
    cohort: dict
    train_images: int
    group_k: int
    note: str = ""

    @property
    def groups(self) -> int:
        return 1

    def smoke(self) -> "RawIdentifyWorkload":
        small = {**self.cohort, "n_users": 3, "n_images": 8, "fixations_per_path": 10}
        return replace(self, cohort=small, train_images=2)

    def setup(self, work: Path, seed: int) -> IdentifyState:
        spec = simulate.SyntheticCohortSpec(**self.cohort, seed=seed)
        data = simulate.generate_cohort(spec).data
        rng = np.random.default_rng([seed, 1])
        raw_dir = work / "raw"
        raw_dir.mkdir()
        recordings = {}
        for item in data.items:
            csv_path = raw_dir / f"{item.subject_id}__{item.image_id}.csv"
            core.save_recording_csv(render.render_recording(item.scanpath, rng), csv_path)
            recordings[item.subject_id, item.image_id] = core.load_recording_csv(csv_path)
        detected = {key: core.detect_saccades(rec) for key, rec in recordings.items()}
        match_ratio = float(
            np.mean([len(detected[it.subject_id, it.image_id]) == len(it.scanpath) for it in data.items])
        )

        subjects = data.subjects
        images = {s: data.images_of(s) for s in subjects}
        train_keys = [(s, img) for s in subjects for img in images[s][: self.train_images]]
        features = {key: core.extract_features(detected[key]) for key in train_keys}
        params = markov.fit([features[key] for key in train_keys], markov.BASE_CHANNELS)
        scores = fisher.compute_scores(
            train_keys, lambda key: markov.grad_loglik(features[key], params), model_tag="markov"
        )
        info = fisher.estimate_information(scores, fisher.DEFAULT_RIDGE)
        X = np.array([fisher.feature_map(score, info) for score in scores])
        model = classify.train(X, [s for s, _ in train_keys], C=1.0)

        held_out = {
            s: [recordings[s, img] for img in images[s][self.train_images :]] for s in subjects
        }
        requests = [
            (s, combo)
            for s in subjects
            for combo in itertools.combinations(range(len(held_out[s])), self.group_k)
        ]
        order = np.random.default_rng([seed, 2]).permutation(len(requests))
        return IdentifyState(
            model=model,
            params=params,
            info=info,
            held_out=held_out,
            requests=[requests[r] for r in order],
            match_ratio=match_ratio,
        )

    def group_of(self, i: int) -> int:
        return 0

    def operation(self, state: IdentifyState, i: int):
        """detect_saccades -> extract_features -> grad_loglik -> feature_map
        for each recording of the request, then classify.identify."""
        subject, combo = state.requests[i % len(state.requests)]
        try:
            rows = []
            for r in combo:
                scanpath = core.detect_saccades(state.held_out[subject][r])
                feats = core.extract_features(scanpath)
                rows.append(fisher.feature_map(markov.grad_loglik(feats, state.params), state.info))
            X = np.array(rows)
            return subject, X, classify.identify(state.model, X)
        except Exception as exc:  # a failed request is counted, the run goes on
            return subject, None, exc

    def check(self, state: IdentifyState, i: int, output) -> Outcome:
        subject, X, predicted = output
        if isinstance(predicted, Exception):
            return Outcome([f"request raised {predicted!r}"])
        if predicted not in state.model.classes:
            return Outcome([f"predicted {predicted!r}, not a trained class"])
        truth = state.model.classes.index(subject)
        single = np.argmax(classify.decision_matrix(state.model, X), axis=1)
        return Outcome([], {1: float(np.mean(single == truth)), self.group_k: float(predicted == subject)})


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

CRITERION6_COHORT = {
    "n_users": 10, "n_images": 40, "fixations_per_path": 30, "family": "markov", "jitter": 0.3,
}

WORKLOADS = {
    w.name: w
    for w in (
        EvalWorkload(
            name="markov-bayes",
            why=(
                "criterion-6 cohort, 5 splits on eval threads: dataset loading, markov.fit/loglik "
                "and distributions; exercises Markov sufficient statistics, never trains an SVM"
            ),
            cohort=CRITERION6_COHORT,
            cohorts=1,
            eval_args=("--family", "bayes-markov", "--splits", "5"),
            note="cohort of acceptance criterion 6 at seed 0; 5 splits run on eval threads",
        ),
        EvalWorkload(
            name="markov-fisher",
            why=(
                "pooled Markov Fisher scores into the pure-Python SVM, over 90% of the time in "
                "classify.train; exercises the SVM solver, bypasses markov.loglik"
            ),
            cohort={**CRITERION6_COHORT, "n_users": 6, "n_images": 12},
            cohorts=8,
            eval_args=("--family", "fisher-svm-markov", "--splits", "1"),
            note=(
                "an operation on the criterion-6 cohort takes about 47 s (31 classify.train "
                "calls), too long for a timed run; eight 6-user x 12-image cohorts average out "
                "how the SVM's epoch count varies with the data"
            ),
        ),
        EvalWorkload(
            name="scenewalk-fisher",
            why=(
                "the only SceneWalk workload: scenewalk.fit's loglik/grad_loglik/step sweeps "
                "over a 64x64 grid, paths sharing images"
            ),
            cohort={
                "n_users": 3, "n_images": 10, "fixations_per_path": 8, "family": "scenewalk",
                "jitter": 0.3, "grid_shape": (64, 64), "extent": (32.0, 32.0),
            },
            cohorts=6,
            eval_args=(
                "--family", "fisher-svm-scenewalk", "--splits", "1", "--scenewalk-max-iter", "10",
            ),
            note=(
                "the pooled fit is capped at 10 L-BFGS iterations: run to convergence it takes "
                "30-70 iterations depending on the data, which spreads one operation over 5-15 s; "
                "even capped, a cohort's time varies by ~13% with its line searches, so each run "
                "averages six cohorts"
            ),
        ),
        RawIdentifyWorkload(
            name="raw-identify",
            why=(
                "one small request at a time through detect_saccades, extract_features, "
                "grad_loglik, feature_map and identify; the only workload reading raw recordings"
            ),
            cohort={**CRITERION6_COHORT, "n_images": 16},
            train_images=6,
            group_k=5,
            note="10 held-out recordings per viewer give 2520 distinct 5-recording requests",
        ),
    )
}
