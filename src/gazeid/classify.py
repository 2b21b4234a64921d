"""Multiclass linear classifier over Fisher features and the evaluation
harness: image-disjoint splits, cross-validated hyperparameter search, and
accuracy as a function of the number of test images.

Six model families are evaluated: generative Bayes identification and
Fisher-SVM classification, each over the base Markov model, the Markov
model with saccade dynamics, or the saliency-walk model.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from . import fisher, markov, scenewalk
from .core import BASE_CHANNELS, DYNAMICS_CHANNELS, extract_features
from .dataset import GazeDataset

FAMILIES = (
    "bayes-markov",
    "bayes-markov-dyn",
    "bayes-scenewalk",
    "fisher-svm-markov",
    "fisher-svm-markov-dyn",
    "fisher-svm-scenewalk",
)


# ---------------------------------------------------------------------------
# Linear one-vs-rest SVM
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolverReport:
    """How the dual solve of ``train`` ended: L-BFGS-B iterations summed
    over restarts, the largest projected-gradient entry at the returned
    point, and whether that entry met the tolerance stated in ``train``."""

    iterations: int
    max_projected_gradient: float
    converged: bool


@dataclass(frozen=True)
class LinearModel:
    """One weight vector per class; the last weight is the bias term."""

    weights: np.ndarray
    classes: tuple[str, ...]
    C: float
    report: SolverReport | None = field(default=None, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] != len(self.classes):
            raise ValueError("weights must have one row per class")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")


def train(features: np.ndarray, labels: Sequence[str], C: float = 1.0) -> LinearModel:
    """One-vs-rest L2-regularized hinge-loss training on explicit feature
    vectors, by one exact solve of the joint dual.

    With the bias folded into the features as a constant last column, the
    dual of each one-vs-rest problem is a box QP with no equality
    constraint: minimize f = sum_k (0.5 |w_k|^2 - sum_i alpha_ki) over
    0 <= alpha <= C, where w_k = sum_i alpha_ki y_ki x_i. All classes are
    solved together by L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995).

    The solve has converged when the largest projected-gradient entry is at
    most sqrt(2 eps |f| max_i |x_i|^2), with eps the float64 machine
    epsilon and x_i including its bias entry: a step along one coordinate
    whose projected gradient is below that lowers f by less than f's
    rounding error, so no line search can resolve it. One L-BFGS-B call
    can stop short of that, so the solve restarts from the returned point
    while the entry is above the tolerance and still falling.
    ``LinearModel.report`` records the outcome.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    labels = list(labels)
    if len(labels) != X.shape[0]:
        raise ValueError("one label per feature row required")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValueError("training requires at least 2 classes")

    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    label_idx = np.array([classes.index(lbl) for lbl in labels])
    Y = np.where(label_idx[None, :] == np.arange(len(classes))[:, None], 1.0, -1.0)

    def dual(a):
        W = (a.reshape(Y.shape) * Y) @ Xb
        return 0.5 * float(np.sum(W * W)) - float(a.sum()), (Y * (W @ Xb.T) - 1.0).ravel()

    curvature = float(np.max(np.einsum("ij,ij->i", Xb, Xb)))
    alpha = np.zeros(Y.size)
    iterations = 0
    previous = math.inf
    while True:
        res = minimize(
            dual,
            alpha,
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, C)] * alpha.size,
            options={"ftol": 0.0, "gtol": 0.0},
        )
        alpha, iterations = res.x, iterations + int(res.nit)
        pg = float(np.max(np.abs(np.clip(alpha - res.jac, 0.0, C) - alpha)))
        converged = pg <= math.sqrt(2.0 * np.finfo(float).eps * abs(res.fun) * curvature)
        if converged or pg >= previous:
            break
        previous = pg
    return LinearModel(
        weights=(alpha.reshape(Y.shape) * Y) @ Xb,
        classes=classes,
        C=C,
        report=SolverReport(iterations=iterations, max_projected_gradient=pg, converged=converged),
    )


def decision_matrix(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """(n_items, n_classes) decision values for a feature matrix."""
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.shape[1] != model.weights.shape[1] - 1:
        raise ValueError(
            f"feature dimension {X.shape[1]} does not match model ({model.weights.shape[1] - 1})"
        )
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    return Xb @ model.weights.T


def identify(model: LinearModel, features: np.ndarray) -> str:
    """Class whose summed decision score over the given feature rows is
    largest; ties break toward the lowest class index."""
    total = decision_matrix(model, features).sum(axis=0)
    return model.classes[int(np.argmax(total))]


# ---------------------------------------------------------------------------
# Evaluation protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalProtocol:
    """Split/CV configuration for ``run_protocol``."""

    train_fraction: float = 0.5
    n_splits: int = 5
    cv_folds: int = 3
    c_grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    eps_grid: tuple[float, ...] = (1e-3,)
    normalize_grid: tuple[bool, ...] = (True, False)
    max_k: int = 10
    seed: int = 0
    scenewalk_rho: float = 1.0
    scenewalk_max_iter: int = 100

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.n_splits < 1 or self.cv_folds < 1 or self.max_k < 1:
            raise ValueError("n_splits, cv_folds, and max_k must be positive")
        if not (self.c_grid and self.eps_grid and self.normalize_grid):
            raise ValueError("hyperparameter grids must be non-empty")


@dataclass(frozen=True)
class Split:
    """Per-subject image-disjoint train/test partition."""

    train: dict[str, tuple[str, ...]]
    test: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class AccuracyCurve:
    """Mean accuracy and standard error across splits, per image count k."""

    entries: tuple[tuple[int, float, float], ...]

    def mean_at(self, k: int) -> float:
        for kk, mean, _ in self.entries:
            if kk == k:
                return mean
        raise KeyError(f"no entry for k={k}")


@dataclass(frozen=True)
class ProtocolResult:
    family: str
    curve: AccuracyCurve
    per_split: dict[int, tuple[float, ...]]
    hyperparams: tuple[dict | None, ...]
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "model_family": self.family,
            "splits": len(self.hyperparams),
            "curve": [
                {"k": k, "mean_acc": mean, "stderr": se} for k, mean, se in self.curve.entries
            ],
            "per_split": {str(k): list(v) for k, v in self.per_split.items()},
            "hyperparams_chosen": list(self.hyperparams),
            "warnings": list(self.warnings),
        }


def make_splits(data: GazeDataset, protocol: EvalProtocol) -> list[Split]:
    """Deterministic per-subject image splits; no image is shared between a
    subject's train and test sets."""
    subjects = data.subjects
    roots = np.random.SeedSequence(protocol.seed).spawn(protocol.n_splits)
    splits = []
    for seq in roots:
        rng = np.random.default_rng(seq)
        train: dict[str, tuple[str, ...]] = {}
        test: dict[str, tuple[str, ...]] = {}
        for subject in subjects:
            images = data.images_of(subject)
            if len(images) < 2:
                raise ValueError(
                    f"subject {subject!r} has {len(images)} image(s); need at least 2"
                )
            perm = rng.permutation(len(images))
            n_train = int(round(protocol.train_fraction * len(images)))
            n_train = min(max(n_train, 1), len(images) - 1)
            train[subject] = tuple(images[i] for i in perm[:n_train])
            test[subject] = tuple(images[i] for i in perm[n_train:])
            assert not set(train[subject]) & set(test[subject])
        splits.append(Split(train=train, test=test))
    return splits


def _test_groups(test_images: Sequence[str], k: int) -> list[tuple[str, ...]]:
    """Disjoint consecutive groups of k test images (remainder dropped)."""
    return [tuple(test_images[i : i + k]) for i in range(0, len(test_images) - k + 1, k)]


class _FamilyOps:
    """Per-family generative-model hooks. Markov families reduce every item
    once to its ``markov.statistics`` row; fits, likelihoods and scores are
    then sums and matrix products of those rows."""

    def __init__(self, data: GazeDataset, family: str, protocol: EvalProtocol):
        self.data = data
        self.family = family
        self.index = {(it.subject_id, it.image_id): it for it in data.items}
        if family in ("bayes-markov", "fisher-svm-markov"):
            self.kind, self.channels = "markov", BASE_CHANNELS
        elif family in ("bayes-markov-dyn", "fisher-svm-markov-dyn"):
            self.kind, self.channels = "markov", DYNAMICS_CHANNELS
        elif family in ("bayes-scenewalk", "fisher-svm-scenewalk"):
            self.kind, self.channels = "scenewalk", None
            if not data.saliency:
                raise ValueError("scenewalk families require saliency maps in the dataset")
        else:
            raise ValueError(f"unknown model family {family!r}; choose one of {FAMILIES}")
        self.protocol = protocol
        if self.kind == "markov":
            self.rows = {
                key: markov.statistics(
                    item.features if item.features is not None else extract_features(item.scanpath),
                    self.channels,
                )
                for key, item in self.index.items()
            }

    def _stack(self, keys: Sequence[tuple[str, str]]) -> np.ndarray:
        return np.array([self.rows[key] for key in keys])

    def fit(self, keys: Sequence[tuple[str, str]]):
        """The fitted model parameters and, for SceneWalk, the
        ``SceneWalkFitResult`` (None for Markov)."""
        if self.kind == "markov":
            return markov.fit_from_statistics(self._stack(keys).sum(axis=0), self.channels), None
        pairs = [
            (self.index[key].scanpath, self.data.saliency[key[1]]) for key in keys
        ]
        result = scenewalk.fit(
            pairs,
            rho=self.protocol.scenewalk_rho,
            max_iter=self.protocol.scenewalk_max_iter,
        )
        return result.params, result

    def loglik_table(self, keys: Sequence[tuple[str, str]], models: Sequence) -> np.ndarray:
        """(items, models) log-likelihood of each item under each model."""
        if self.kind == "markov":
            return self._stack(keys) @ np.array([markov.coef(m) for m in models]).T
        return np.array([
            [scenewalk.loglik(self.index[key].scanpath, self.data.saliency[key[1]], m) for m in models]
            for key in keys
        ])

    def grads(self, keys: Sequence[tuple[str, str]], params) -> np.ndarray:
        """(items, parameters) log-likelihood gradient of each item."""
        if self.kind == "markov":
            return markov.grad_from_statistics(self._stack(keys), params)
        return np.array([
            scenewalk.loglik_and_grad(self.index[key].scanpath, self.data.saliency[key[1]], params)[1]
            for key in keys
        ])


def _unconverged(result, whose: str = "") -> list[str]:
    """A warning for a SceneWalk fit that stopped short of convergence;
    deterministic, so results stay byte-identical across runs."""
    if result is None or result.converged:
        return []
    return [
        f"scenewalk fit{whose} stopped after {result.iterations} iterations without "
        f"converging (grad_norm {result.grad_norm:.1e})"
    ]


def _accuracy_from_rows(
    subjects: tuple[str, ...],
    split: Split,
    ks: Sequence[int],
    row_scores: dict[tuple[str, str], np.ndarray],
) -> dict[int, float]:
    """Group accuracies when per-item per-class scores are additive."""
    accuracies = {}
    for k in ks:
        correct = total = 0
        for s_idx, subject in enumerate(subjects):
            for group in _test_groups(split.test[subject], k):
                summed = np.sum([row_scores[(subject, image)] for image in group], axis=0)
                correct += int(np.argmax(summed)) == s_idx
                total += 1
        accuracies[k] = correct / total if total else math.nan
    return accuracies


def _run_bayes_split(ops: _FamilyOps, split: Split, ks: Sequence[int]):
    subjects = ops.data.subjects
    fits = [ops.fit([(s, img) for img in split.train[s]]) for s in subjects]
    user_models = [model for model, _ in fits]
    notes = [note for s, (_, result) in zip(subjects, fits) for note in _unconverged(result, f" of {s}")]
    # Per-item log-likelihood under every user model; group identification
    # then sums rows, exactly matching bayes_identify's aggregation.
    test_keys = [(s, img) for s in subjects for img in split.test[s]]
    rows = dict(zip(test_keys, ops.loglik_table(test_keys, user_models)))
    return _accuracy_from_rows(subjects, split, ks, rows), None, notes


def _cv_folds_of(train_images: Sequence[str], n_folds: int) -> list[tuple[list[str], list[str]]]:
    folds = []
    for f in range(n_folds):
        val = list(train_images[f::n_folds])
        fit = [img for img in train_images if img not in val]
        folds.append((fit, val))
    return folds


def _run_fisher_split(ops: _FamilyOps, split: Split, ks: Sequence[int]):
    protocol = ops.protocol
    subjects = ops.data.subjects
    train_keys = [(s, img) for s in subjects for img in split.train[s]]
    test_keys = [(s, img) for s in subjects for img in split.test[s]]
    pooled, result = ops.fit(train_keys)
    notes = _unconverged(result)

    raw = dict(zip(train_keys + test_keys, ops.grads(train_keys + test_keys, pooled)))
    train_scores = {key: fisher.FisherScore(g=raw[key], model_tag=ops.family) for key in train_keys}

    if len(subjects) < 2:
        rows = {key: np.array([0.0]) for key in test_keys}
        return _accuracy_from_rows(subjects, split, ks, rows), {"degenerate": True}, notes

    # Hyperparameter search: evaluated on single test images (k = 1) within
    # image-disjoint folds of the training portion. Candidates are ranked
    # by CV accuracy with ties broken toward smaller C, then smaller ridge,
    # then normalization on.
    folds = {s: _cv_folds_of(split.train[s], protocol.cv_folds) for s in subjects}
    candidates = []
    for eps, norm in itertools.product(sorted(protocol.eps_grid), protocol.normalize_grid):
        fold_data = []
        for f in range(protocol.cv_folds):
            fit_keys = [(s, img) for s in subjects for img in folds[s][f][0]]
            val_keys = [(s, img) for s in subjects for img in folds[s][f][1]]
            if not fit_keys or not val_keys or len({s for s, _ in fit_keys}) < 2:
                continue
            info = fisher.estimate_information([train_scores[k_] for k_ in fit_keys], eps)
            X_fit = np.array([fisher.feature_map(raw[k_], info, norm) for k_ in fit_keys])
            X_val = np.array([fisher.feature_map(raw[k_], info, norm) for k_ in val_keys])
            fold_data.append((X_fit, [s for s, _ in fit_keys], X_val, [s for s, _ in val_keys]))
        for C in sorted(protocol.c_grid):
            accs = []
            for X_fit, fit_labels, X_val, val_labels in fold_data:
                model = train(X_fit, fit_labels, C=C)
                pred_idx = np.argmax(decision_matrix(model, X_val), axis=1)
                accs.append(
                    float(np.mean([model.classes[p] == lbl for p, lbl in zip(pred_idx, val_labels)]))
                )
            cv_acc = float(np.mean(accs)) if accs else -1.0
            candidates.append((cv_acc, C, eps, norm))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2], not c[3]))
    _, C, eps, norm = candidates[0]

    info = fisher.estimate_information([train_scores[k_] for k_ in train_keys], eps)
    X_train = np.array([fisher.feature_map(raw[k_], info, norm) for k_ in train_keys])
    model = train(X_train, [s for s, _ in train_keys], C=C)
    X_test = np.array([fisher.feature_map(raw[k_], info, norm) for k_ in test_keys])
    decisions = decision_matrix(model, X_test)
    class_order = [model.classes.index(s) for s in subjects]
    rows = {
        key: decisions[i][class_order] for i, key in enumerate(test_keys)
    }
    chosen = {"C": C, "eps_reg": eps, "normalize": bool(norm)}
    return _accuracy_from_rows(subjects, split, ks, rows), chosen, notes


def run_protocol(
    data: GazeDataset,
    family: str,
    protocol: EvalProtocol | None = None,
    threads: int = 1,
) -> ProtocolResult:
    """Full evaluation: splits, per-split fitting/tuning, accuracy curve.

    Bayes families fit one generative model per subject on its training
    images and identify by summed log-likelihood. Fisher families fit one
    pooled generative model per split on all training items, whiten the
    score vectors with the empirical information of the training scores,
    tune (C, ridge, normalization) by image-disjoint CV on the training
    portion, and identify by summed decision scores. Accuracy at k
    averages over disjoint consecutive groups of k test images per
    subject; the curve reports mean and standard error across splits.
    Results depend only on (data, family, protocol), not on ``threads``.
    Each SceneWalk fit that stops without converging adds one warning, in
    split order (subject order within a Bayes split).
    """
    protocol = protocol or EvalProtocol()
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}; choose one of {FAMILIES}")
    ops = _FamilyOps(data, family, protocol)
    splits = make_splits(data, protocol)

    warnings: list[str] = []
    if len(data.subjects) < 2:
        warnings.append("single-subject dataset: identification accuracy is trivially 1.0")

    min_test = min(len(images) for split in splits for images in split.test.values())
    ks = [k for k in range(1, protocol.max_k + 1) if k <= min_test]

    def run_one(idx: int):
        split = splits[idx]
        if family.startswith("bayes"):
            if len(data.subjects) < 2:
                rows = {
                    (s, img): np.array([0.0])
                    for s in data.subjects
                    for img in split.test[s]
                }
                return _accuracy_from_rows(data.subjects, split, ks, rows), None, []
            return _run_bayes_split(ops, split, ks)
        return _run_fisher_split(ops, split, ks)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(run_one, range(len(splits))))
    else:
        outcomes = [run_one(i) for i in range(len(splits))]

    warnings += [f"split {idx}: {note}" for idx, (_, _, notes) in enumerate(outcomes) for note in notes]
    per_split = {k: tuple(acc[k] for acc, _, _ in outcomes) for k in ks}
    entries = []
    for k in ks:
        vals = np.array(per_split[k])
        se = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
        entries.append((k, float(vals.mean()), se))
    return ProtocolResult(
        family=family,
        curve=AccuracyCurve(entries=tuple(entries)),
        per_split=per_split,
        hyperparams=tuple(chosen for _, chosen, _ in outcomes),
        warnings=tuple(warnings),
    )


def save_results_json(result: ProtocolResult, path: str | Path, extra: dict | None = None) -> None:
    doc = result.to_json_dict()
    if extra:
        doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def save_results_csv(result: ProtocolResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mean_acc", "stderr"])
        for k, mean, se in result.curve.entries:
            writer.writerow([k, repr(mean), repr(se)])
