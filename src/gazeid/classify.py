"""Multiclass linear classifier over Fisher features and the evaluation
harness: image-disjoint splits, cross-validated hyperparameter search, and
accuracy as a function of the number of test images.

Six model families are evaluated: generative Bayes identification and
Fisher-SVM classification, each over the base Markov model, the Markov
model with saccade dynamics, or the saliency-walk model.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fisher, markov, scenewalk
from .core import BASE_CHANNELS, DYNAMICS_CHANNELS, check_saccades, extract_features
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
    """How ``train``'s solve ended: interior-point iterations, the primal
    P(w) and the duality gap P - D, each summed over classes, and whether
    every class met its tolerance."""

    iterations: int
    primal: float
    duality_gap: float
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

    With the bias folded into the features as a last column x_i = 1, class
    k's dual is a box QP: maximize D = sum alpha - |w|^2 / 2 over
    0 <= alpha <= C, w = sum_i alpha_i y_i x_i; its primal is
    P(w) = |w|^2 / 2 + C sum_i max(0, e_i), e_i = 1 - y_i x_i.w. All K duals
    are solved together by a primal-dual interior-point method
    (``_mehrotra_step``). A class stops when P - D, summed as sum_i h_i with
    h_i = C max(0, e_i) - alpha_i e_i (terms that each vanish at the
    optimum), is at most sqrt(n) sum_i [s_i d_i + u (C max(0, e_i) + alpha_i |e_i|)],
    the rounding error of the terms. d_i = u (1 + |x_i|.(|w| + |X|^T alpha))
    is that of e_i, from x_i.w and from w's own sum over alpha; s_i is the
    slope |C [e_i > 0] - alpha_i| of h_i, or max(alpha_i, C - alpha_i) where
    |e_i| <= d_i leaves the side of the kink open; u = eps / 2 is the float64
    unit roundoff, |.| is entrywise, and sqrt(n) the usual growth of rounding
    error over n-term sums. After ``_MAX_ITERATIONS`` steps it stops unconverged.
    The stop rule was checked for C up to 100 (the protocol's grid) and at
    C = 1e4 (the tests); at C = 1e6 the tests' overlapping classes stop at
    the step cap, unconverged.
    """
    return _train_grid([(features, labels)], (C,))[0][0]


def _train_grid(
    problems: Sequence[tuple[np.ndarray, Sequence[str]]], Cs: Sequence[float]
) -> list[list[LinearModel]]:
    """``train`` of each (features, labels) problem at each C of ``Cs``: one
    list of models per problem, in C order. Problems whose designs have the
    same shape share one interior-point stack, whose duals (one per problem,
    C and class, in that order) each carry the index of their problem's
    design; a dual that meets its tolerance is not stepped again. Each C
    must be finite and positive."""
    for c in Cs:
        if not (c > 0 and math.isfinite(c)):
            raise ValueError(f"C must be finite and positive, got {c}")
    designs, classes, targets = [], [], []
    for features, labels in problems:
        X = np.asarray(features, dtype=float)
        if X.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        labels = list(labels)
        if len(labels) != X.shape[0]:
            raise ValueError("one label per feature row required")
        classes.append(tuple(sorted(set(labels))))
        if len(classes[-1]) < 2:
            raise ValueError("training requires at least 2 classes")
        designs.append(np.hstack([X, np.ones((X.shape[0], 1))]))
        targets.append(np.where(np.array(labels)[None, :] == np.array(classes[-1])[:, None], 1.0, -1.0))
    stacks: dict[tuple[int, int], list[int]] = {}
    for p, Xb in enumerate(designs):
        stacks.setdefault(Xb.shape, []).append(p)
    models: list[list[LinearModel]] = [[] for _ in designs]
    for members in stacks.values():
        Y = np.concatenate([np.tile(targets[p], (len(Cs), 1)) for p in members])
        C = np.concatenate([np.repeat(np.asarray(Cs, dtype=float), len(classes[p])) for p in members])[:, None]
        block = np.repeat(np.arange(len(members)), [len(Cs) * len(classes[p]) for p in members])
        W, steps, primal, gap, active = _solve_stack(np.stack([designs[p] for p in members]), Y, C, block)
        start = 0
        for p in members:
            for c in Cs:
                b = slice(start, start + len(classes[p]))
                start = b.stop
                report = SolverReport(int(steps[b].max()), float(primal[b].sum()), float(gap[b].sum()), not active[b].any())
                models[p].append(LinearModel(W[b], classes[p], c, report))
    return models


def _solve_stack(Xb: np.ndarray, Y: np.ndarray, C: np.ndarray, block: np.ndarray) -> tuple[np.ndarray, ...]:
    """The duals of ``train`` for the (P, n, m) stack of designs ``Xb``:
    dual b has labels Y[b], bound C[b] and design Xb[block[b]], ``block``
    sorted. Returns each dual's weights, steps, primal, duality gap and
    whether it stopped short of its tolerance. A dual leaves the stack, with
    the weights and gap of its last iterate, once it meets its tolerance."""
    n, u = Xb.shape[1], np.finfo(float).eps / 2
    abs_Xb = np.abs(Xb)
    XbT, abs_XbT = Xb.transpose(0, 2, 1), abs_Xb.transpose(0, 2, 1)
    weights, primal, gaps = np.empty((len(C), Xb.shape[2])), np.empty(len(C)), np.empty(len(C))
    steps, short = np.zeros(len(C), dtype=int), np.zeros(len(C), dtype=bool)
    live, runs = np.arange(len(C)), _runs(block)
    # Iterate (alpha, z, s, v): upper slack s = C - alpha, z and v the multipliers of alpha, s >= 0.
    alpha = np.full(Y.shape, 0.5) * C
    grad = Y * _by_design(_by_design(alpha * Y, Xb, runs), XbT, runs) - 1.0
    state = np.stack([alpha, np.maximum(grad, 0.0) + 1.0, C - alpha, np.maximum(-grad, 0.0) + 1.0])
    for iterations in itertools.count():
        alpha = state[0]
        W = _by_design(alpha * Y, Xb, runs)
        e = 1.0 - Y * _by_design(W, XbT, runs)
        hinge = C * np.maximum(0.0, e)
        gap = (hinge - alpha * e).sum(axis=1)
        delta = u * (1.0 + _by_design(np.abs(W) + _by_design(alpha, abs_Xb, runs), abs_XbT, runs))
        near_kink = np.abs(e) <= delta
        slope = np.where(near_kink, np.maximum(alpha, C - alpha), np.abs(np.where(e > 0.0, C, 0.0) - alpha))
        active = gap > math.sqrt(n) * (slope * delta + u * (hinge + alpha * np.abs(e))).sum(axis=1)
        done = ~active if iterations < _MAX_ITERATIONS else np.ones_like(active)
        if done.any():
            ids = live[done]
            weights[ids], gaps[ids], short[ids] = W[done], gap[done], active[done]
            primal[ids] = 0.5 * (W[done] * W[done]).sum(axis=1) + hinge[done].sum(axis=1)
            if done.all():
                return weights, steps, primal, gaps, short
            live, Y, C, state, e = live[~done], Y[~done], C[~done], state[:, ~done], e[~done]
            runs = _runs(block[live])
        state = _mehrotra_step(Xb, runs, Y, C, state, -e)
        steps[live] += 1


def _runs(block: np.ndarray) -> list[tuple[int, slice]]:
    """(design, rows) of each run of equal entries of the sorted ``block``."""
    cuts = [0, *(np.flatnonzero(np.diff(block)) + 1), len(block)]
    return [(block[a], slice(a, b)) for a, b in zip(cuts, cuts[1:])]


def _by_design(V: np.ndarray, mats: np.ndarray, runs: list[tuple[int, slice]]) -> np.ndarray:
    """Row b of the result is V[b] @ mats[p], p the design of dual b: one
    product per run of ``runs``."""
    out = np.empty((len(V), mats.shape[2]))
    for p, rows in runs:
        np.matmul(V[rows], mats[p], out=out[rows])
    return out


_MAX_ITERATIONS = 50
# Primal regularization of the Newton matrix only; it bounds 1/D where z, v -> 0.
_RHO = 1e-8


def _mehrotra_step(
    Xb: np.ndarray, runs: list[tuple[int, slice]], Y: np.ndarray, C: np.ndarray, state: np.ndarray, grad: np.ndarray
) -> np.ndarray:
    """One Mehrotra (1992) predictor-corrector step on the (alpha, z, s, v)
    iterate of the duals min alpha^T Q alpha / 2 - sum alpha, Q = Z Z^T,
    Z = diag(y) Xb, given their gradient; dual b's design is Xb[p] for its
    run (p, rows) of ``runs``.
    A Newton direction solves (Q + D + rho I) d = r, D = z/alpha + v/s, by
    Sherman-Morrison-Woodbury (Ferris & Munson 2002) through the m x m
    matrix M = I + Xb^T diag(1/(D + rho)) Xb, m = d + 1, which y^2 = 1 makes
    label-free. M >= I is symmetric positive definite: one batched
    ``np.linalg.cholesky`` factors every dual's M = L L^T once, and both
    directions reuse it by forward and back substitution over all duals at
    once. A ``LinAlgError`` from the factorization propagates."""
    alpha, z, s, v = state
    inv_alpha, inv_s, r_slack = 1.0 / alpha, 1.0 / s, C - alpha - s
    dinv = 1.0 / (z * inv_alpha + v * inv_s + _RHO)
    m = Xb.shape[2]
    U = np.linalg.cholesky(np.concatenate([(dinv[rows, None, :] * Xb[p].T) @ Xb[p] for p, rows in runs]) + np.eye(m))
    # L = D U, D its diagonal: U[i, j] holds the entry of every dual, contiguous
    diag = np.ascontiguousarray(U.diagonal(axis1=1, axis2=2).T)
    U = np.divide(U.transpose(1, 2, 0), diag[:, None], order="C")
    dinv_y, shared = dinv * Y, z - v - grad + v * r_slack * inv_s

    def solve(b):  # M^-1 b = D^-1 U^-T U^-1 D^-1 b, a column of the unit triangle U at a time
        x = np.ascontiguousarray(b.T) / diag
        for j in range(m - 1):
            x[j + 1:] -= U[j + 1:, j] * x[j]
        for j in range(m - 1, 0, -1):
            x[:j] -= U[j, :j] * x[j]
        return (x / diag).T

    def direction(r_z, r_v):
        r = shared + r_v * inv_s - r_z * inv_alpha
        t = solve(_by_design(dinv_y * r, Xb, runs))
        d_alpha = dinv * r - dinv_y * _by_design(t, Xb.transpose(0, 2, 1), runs)
        d_s = r_slack - d_alpha
        return np.stack([d_alpha, -(r_z + z * d_alpha) * inv_alpha, d_s, -(r_v + v * d_s) * inv_s])

    def max_step(d):
        ratio = np.divide(state, -d, out=np.full(d.shape, np.inf), where=d < 0)
        return np.minimum(1.0, ratio.min(axis=(0, 2)))[:, None]

    def mu(x):  # mean complementarity per class
        return (x[0] * x[1] + x[2] * x[3]).sum(axis=1, keepdims=True) / (2 * x.shape[2])

    affine = direction(alpha * z, s * v)
    target = mu(state + max_step(affine) * affine) ** 3 / mu(state) ** 2
    d = direction(alpha * z + affine[0] * affine[1] - target, s * v + affine[2] * affine[3] - target)
    return state + 0.995 * max_step(d) * d


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
        if not (self.c_grid and self.normalize_grid):
            raise ValueError("hyperparameter grids must be non-empty")
        if not all(c > 0 and math.isfinite(c) for c in self.c_grid):
            raise ValueError(f"c_grid entries must be finite and positive, got {self.c_grid}")
        if not (math.isfinite(self.scenewalk_rho) and self.scenewalk_rho >= 0):
            raise ValueError(f"scenewalk_rho must be finite and non-negative, got {self.scenewalk_rho!r}")
        if self.scenewalk_max_iter < 1:
            raise ValueError(f"scenewalk_max_iter must be at least 1, got {self.scenewalk_max_iter!r}")


@dataclass(frozen=True)
class Split:
    """Each subject's train and test rows of ``data.items``, in drawn order."""

    train: dict[str, tuple[int, ...]]
    test: dict[str, tuple[int, ...]]


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
    """Deterministic splits: split i permutes each subject's n item rows by
    generator i of ``protocol.seed`` and trains on the first
    round(train_fraction * n), at least 1 and at most n - 1; the rest test."""
    rows_of: dict[str, list[int]] = {}
    for row, subject_id in enumerate(data.items.subject_ids):
        rows_of.setdefault(subject_id, []).append(row)
    splits = []
    for seq in np.random.SeedSequence(protocol.seed).spawn(protocol.n_splits):
        rng = np.random.default_rng(seq)
        train, test = {}, {}
        for subject, rows in rows_of.items():
            if len(rows) < 2:
                raise ValueError(f"subject {subject!r} has {len(rows)} image(s); need at least 2")
            perm = rng.permutation(len(rows))
            n_train = min(max(int(round(protocol.train_fraction * len(rows))), 1), len(rows) - 1)
            train[subject] = tuple(rows[i] for i in perm[:n_train])
            test[subject] = tuple(rows[i] for i in perm[n_train:])
        splits.append(Split(train=train, test=test))
    return splits


class _FamilyOps:
    """Generative-model hooks of one model (markov, markov-dyn or
    scenewalk) over the rows of ``data.items``, shared by the evaluation
    and ``gazeid fit``/``scores``; ``labels`` holds each row's subject.
    Markov models reduce every item once to its ``markov.statistics`` row
    in one call over one table, for the base model that of one
    ``extract_features`` call over the dataset's fixation columns and for
    markov-dyn the dataset's ``features``; an item of fewer than 2
    fixations is named first. Fits, likelihoods and scores are then sums
    and matrix products of those rows; no item's ``Scanpath`` is built.
    SceneWalk sweeps the items' paths in a
    ``scenewalk.SweepPool`` with ``threads - 1`` forked workers, which
    ``close`` (or leaving a ``with`` block) stops."""

    def __init__(self, data: GazeDataset, model: str, protocol: EvalProtocol, threads: int):
        self.data = data
        self.labels = np.array(data.items.subject_ids)
        if model == "markov":
            self.kind, self.channels = "markov", BASE_CHANNELS
        elif model == "markov-dyn":
            self.kind, self.channels = "markov", DYNAMICS_CHANNELS
            if data.features is None:
                raise ValueError("dynamics channels unavailable: dataset carries no per-saccade feature files")
        elif model == "scenewalk":
            self.kind, self.channels = "scenewalk", None
            if not data.saliency:
                raise ValueError("the scenewalk model requires saliency maps in the dataset")
        else:
            raise ValueError(f"unknown model {model!r}; choose one of markov, markov-dyn, scenewalk")
        self.protocol = protocol
        if self.kind == "markov":
            items, lengths = data.items, data.items.lengths.tolist()
            check_saccades(lengths, items.subject_ids, items.image_ids)
            table = extract_features(items) if model == "markov" else data.features
            self.rows = markov.statistics(table, self.channels, [n - 1 for n in lengths])
        else:
            pairs = [(it.scanpath, data.saliency[it.image_id]) for it in data.items]
            self.pool = scenewalk.SweepPool(pairs, min(threads, len(pairs)) - 1)

    def __enter__(self) -> "_FamilyOps":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self.kind == "scenewalk":
            self.pool.close()

    def fit(self, groups: Sequence[Sequence[int]]) -> list:
        """For each group of item rows, the fitted model parameters and,
        for SceneWalk, the ``SceneWalkFitResult`` (None for Markov). All
        Markov groups are fitted in one call."""
        if self.kind == "markov":
            sums = np.array([self.rows[list(rows)].sum(axis=0) for rows in groups])
            return [(params, None) for params in markov.fit_from_statistics(sums, self.channels)]
        results = []
        for rows in groups:
            results.append(scenewalk.fit(
                [self.pool.pairs[i] for i in rows],
                rho=self.protocol.scenewalk_rho,
                max_iter=self.protocol.scenewalk_max_iter,
                sweeps=functools.partial(self.pool.sweeps, indices=rows),
            ))
        return [(result.params, result) for result in results]

    def loglik_table(self, rows: Sequence[int], models: Sequence) -> np.ndarray:
        """(items, models) log-likelihood of each item row under each model."""
        if self.kind == "markov":
            return self.rows[list(rows)] @ np.array([markov.coef(m) for m in models]).T
        return np.array([[value for value, _ in self.pool.sweeps(m, rows, with_grad=False)] for m in models]).T

    def grads(self, rows: Sequence[int], params) -> np.ndarray:
        """(items, parameters) log-likelihood gradient of each item row."""
        if self.kind == "markov":
            return markov.grad_from_statistics(self.rows[list(rows)], params)
        return np.array([grad for _, grad in self.pool.sweeps(params, rows)])


def _unconverged(result, whose: str = "") -> list[str]:
    """A warning for a SceneWalk fit that stopped short of convergence;
    deterministic, so results stay byte-identical across runs."""
    if result is None or result.converged:
        return []
    return [
        f"scenewalk fit{whose} stopped after {result.iterations} iterations without "
        f"converging (grad_norm {result.grad_norm:.1e})"
    ]


def _unconverged_train(model: LinearModel) -> list[str]:
    """A warning for an SVM solve that stopped short of its tolerance."""
    if model.report.converged:
        return []
    return [
        f"svm train at C={model.C:g} stopped after {model.report.iterations} iterations without "
        f"converging (duality gap {model.report.duality_gap:.1e})"
    ]


def _accuracy_from_rows(
    subjects: tuple[str, ...], split: Split, ks: Sequence[int], table: np.ndarray
) -> dict[int, float]:
    """Group accuracies when per-item per-class scores are additive.
    ``table`` has one row per test item, subject by subject in
    ``split.test`` order. Each subject's disjoint consecutive groups of k
    test images (remainder dropped) are summed, for every subject at once,
    by one gather into a (groups, k, classes) array; ties go to the lowest
    class index."""
    n_test = np.array([len(split.test[s]) for s in subjects])
    starts = np.cumsum(n_test) - n_test
    accuracies = {}
    for k in ks:
        groups = n_test // k
        owner = np.repeat(np.arange(len(subjects)), groups)
        # group g of a subject starts k * g rows after the subject's first row
        index_in_subject = np.arange(len(owner)) - np.repeat(np.cumsum(groups) - groups, groups)
        first = starts[owner] + k * index_in_subject
        summed = table[first[:, None] + np.arange(k)].sum(axis=1)
        correct = int(np.count_nonzero(np.argmax(summed, axis=1) == owner))
        accuracies[k] = correct / len(owner) if len(owner) else math.nan
    return accuracies


def _run_bayes_splits(ops: _FamilyOps, splits: Sequence[Split], ks: Sequence[int]) -> list:
    """Bayes identification on every split. The viewer models of all
    splits are fitted in one ``ops.fit`` call, split by split and subject
    by subject; each split then scores its test items under its own
    models."""
    subjects = ops.data.subjects
    fits = ops.fit([split.train[s] for split in splits for s in subjects])
    outcomes = []
    for i, split in enumerate(splits):
        split_fits = fits[i * len(subjects):(i + 1) * len(subjects)]
        notes = [note for s, (_, result) in zip(subjects, split_fits) for note in _unconverged(result, f" of {s}")]
        # Per-item log-likelihood under every user model; a group's
        # log-likelihood under a model is the sum of its items' rows.
        test_rows = [r for s in subjects for r in split.test[s]]
        table = ops.loglik_table(test_rows, [model for model, _ in split_fits])
        outcomes.append((_accuracy_from_rows(subjects, split, ks, table), None, notes))
    return outcomes


def _run_fisher_split(ops: _FamilyOps, split: Split, ks: Sequence[int]):
    protocol = ops.protocol
    subjects = ops.data.subjects
    train_rows = [r for s in subjects for r in split.train[s]]
    test_rows = [r for s in subjects for r in split.test[s]]
    [(pooled, result)] = ops.fit([train_rows])
    notes = _unconverged(result)

    # every item is a train or a test row of the split: score each once
    scores = ops.grads(range(len(ops.labels)), pooled)

    def whitened(fit_rows, other_rows, norm):
        """Features of both row lists, whitened by the information of the first."""
        G = scores[fit_rows]
        info = fisher.estimate_information(G)
        return fisher.feature_map(G, info, norm), fisher.feature_map(scores[other_rows], info, norm)

    def fitted(problems, Cs):
        """``_train_grid`` of (features, rows) problems; a warning for each
        model that stopped short of its tolerance, in problem and C order."""
        grids = _train_grid([(X, ops.labels[rows].tolist()) for X, rows in problems], Cs)
        notes.extend(note for models in grids for m in models for note in _unconverged_train(m))
        return grids

    # Hyperparameter search: evaluated on single test images (k = 1) within
    # image-disjoint folds of the training rows (fold f validates every f-th
    # train row of each subject and fits on the others), at the fixed ridge
    # fisher.DEFAULT_RIDGE. Candidates are ranked by CV accuracy with ties
    # broken toward smaller C, then normalization on. Every (normalization,
    # fold) is whitened first, and the SVMs of the whole CV are solved in
    # one call.
    cv_rows = []
    for f in range(protocol.cv_folds):
        val_rows = [r for s in subjects for r in split.train[s][f::protocol.cv_folds]]
        held_out = set(val_rows)
        fit_rows = [r for r in train_rows if r not in held_out]
        if val_rows and len(set(ops.labels[fit_rows])) >= 2:
            cv_rows.append((fit_rows, val_rows))
    c_grid = sorted(protocol.c_grid)
    cv = [(fit_rows, val_rows, *whitened(fit_rows, val_rows, norm))
          for norm in protocol.normalize_grid for fit_rows, val_rows in cv_rows]
    grids = fitted([(X_fit, fit_rows) for fit_rows, _, X_fit, _ in cv], c_grid)
    accs = [  # per (normalization, fold), the validation accuracy at each C of c_grid
        [float(np.mean(np.array(m.classes)[np.argmax(decision_matrix(m, X_val), axis=1)] == ops.labels[val_rows]))
         for m in models]
        for (_, val_rows, _, X_val), models in zip(cv, grids)
    ]
    candidates = []
    for j, norm in enumerate(protocol.normalize_grid):
        fold_accs = accs[j * len(cv_rows):(j + 1) * len(cv_rows)]
        candidates += [(float(np.mean([acc[i] for acc in fold_accs])) if fold_accs else -1.0, C, norm)
                       for i, C in enumerate(c_grid)]
    candidates.sort(key=lambda c: (-c[0], c[1], not c[2]))
    _, C, norm = candidates[0]

    X_train, X_test = whitened(train_rows, test_rows, norm)
    [[model]] = fitted([(X_train, train_rows)], (C,))
    decisions = decision_matrix(model, X_test)
    class_order = [model.classes.index(s) for s in subjects]
    chosen = {"C": C, "eps_reg": fisher.DEFAULT_RIDGE, "normalize": bool(norm)}
    return _accuracy_from_rows(subjects, split, ks, decisions[:, class_order]), chosen, notes


def run_protocol(
    data: GazeDataset,
    family: str,
    protocol: EvalProtocol | None = None,
    threads: int = 1,
) -> ProtocolResult:
    """Full evaluation: splits, per-split fitting/tuning, accuracy curve.

    Bayes families fit one generative model per subject on its training
    images, the models of all splits in one ``_FamilyOps.fit`` call, and
    identify by summed log-likelihood. Fisher families fit one
    pooled generative model per split on all training items, whiten the
    score vectors with the empirical information of the training scores
    at the fixed ridge ``fisher.DEFAULT_RIDGE``, tune (C, normalization)
    by image-disjoint CV on the training portion, and identify by summed
    decision scores. The CV's SVMs are solved together: every fold,
    normalization, C and class whose fold has the same number of training
    rows in one interior-point stack (``_train_grid``). Accuracy at k
    averages over disjoint consecutive groups of k test images per
    subject; the curve reports mean and standard error across splits.
    Each SceneWalk fit and each SVM solve that stops without converging
    adds one warning, in split order (subject order within a Bayes split,
    CV order then the final model within a Fisher split). A single subject
    is trivially identified: nothing is fitted, and one warning says so.

    Splits run one after another. For SceneWalk families every sweep over
    a set of paths is spread over this process and ``threads - 1`` forked
    workers; Markov families run in this process only. The whole run uses
    one BLAS thread (``_one_blas_thread``), so every ``threads`` value runs
    the same arithmetic and results depend only on (data, family,
    protocol).
    """
    protocol = protocol or EvalProtocol()
    if family not in FAMILIES:
        raise ValueError(f"unknown model family {family!r}; choose one of {FAMILIES}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    splits = make_splits(data, protocol)

    min_test = min(len(rows) for split in splits for rows in split.test.values())
    ks = [k for k in range(1, protocol.max_k + 1) if k <= min_test]

    model = family.removeprefix("bayes-").removeprefix("fisher-svm-")
    warnings: list[str] = []
    with _one_blas_thread(), _FamilyOps(data, model, protocol, threads) as ops:
        if len(data.subjects) < 2:
            warnings.append("single-subject dataset: identification accuracy is trivially 1.0")
            [only] = data.subjects
            chosen = None if family.startswith("bayes") else {"degenerate": True}
            outcomes = [(_accuracy_from_rows(data.subjects, split, ks, np.zeros((len(split.test[only]), 1))), chosen, [])
                        for split in splits]
        elif family.startswith("bayes"):
            outcomes = _run_bayes_splits(ops, splits, ks)
        else:
            outcomes = [_run_fisher_split(ops, split, ks) for split in splits]

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


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS in this process set to one thread,
    and restore the old counts on exit.

    Evaluation work is many small matrix products: with more BLAS threads
    each product is slower (OpenBLAS wakes threads that then spin on the
    cores the forked SceneWalk workers need), and the thread count changes
    the order in which some sums are added. Does nothing where no OpenBLAS
    is found.
    """
    restore = [(set_threads, get_threads()) for get_threads, set_threads in _openblas_thread_controls()]
    for set_threads, _ in restore:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in restore:
            set_threads(count)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS mapped into
    this process, from ``/proc/self/maps`` (none where it cannot be read).
    The ones numpy's and scipy's wheels bundle prefix the names with
    ``scipy_`` and, for 64-bit integers, suffix ``64_``. Both are loaded
    once this module is imported (scipy's by ``scenewalk``'s optimizer),
    so the first answer is kept: reading the map takes about a
    millisecond."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in fh if "openblas" in line})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get_threads, set_threads = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get_threads is not None and set_threads is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                controls.append((get_threads, set_threads))
                break
    return tuple(controls)


def save_results_csv(result: ProtocolResult, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "mean_acc", "stderr"])
        for k, mean, se in result.curve.entries:
            writer.writerow([k, repr(mean), repr(se)])
