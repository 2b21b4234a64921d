"""Linear classifier and the evaluation protocol harness."""

import dataclasses
import itertools
import json
import math
import multiprocessing
import os
import re
import signal

import numpy as np
import pytest
from scipy.optimize import minimize
from test_markov import bayes_oracle

from gazeid import classify, markov, scenewalk, simulate
from gazeid.classify import EvalProtocol
from gazeid.core import BASE_CHANNELS, DYNAMICS_CHANNELS, extract_features
from gazeid.dataset import DatasetItem, GazeDataset


def separable_blobs(rng, n_per_class=20, gap=6.0):
    X, y = [], []
    for c, center in enumerate([(0.0, 0.0), (gap, 0.0)]):
        pts = rng.standard_normal((n_per_class, 2)) * 0.5 + np.asarray(center)
        X.append(pts)
        y += [f"c{c}"] * n_per_class
    return np.vstack(X), y


def ovr_primal(model, X, y):
    """Sum over classes of |w|^2 / 2 + C * hinge, bias folded in."""
    Xb = np.hstack([X, np.ones((len(X), 1))])
    Y = np.where(np.array(y)[None, :] == np.array(model.classes)[:, None], 1.0, -1.0)
    return 0.5 * float(np.sum(model.weights**2)) + model.C * float(np.maximum(0.0, 1.0 - Y * (model.weights @ Xb.T)).sum())


def slsqp_primal(X, y, C):
    """One-vs-rest primal optimum, each class solved with explicit slack
    variables by SLSQP; the objective is divided by C for conditioning."""
    Xb = np.hstack([X, np.ones((len(X), 1))])
    n, d = Xb.shape
    total = 0.0
    for cls in sorted(set(y)):
        yk = np.where(np.array(y) == cls, 1.0, -1.0)
        res = minimize(
            lambda z: (0.5 * z[:d] @ z[:d] + C * z[d:].sum()) / C,
            np.concatenate([np.zeros(d), np.ones(n)]),
            jac=lambda z: np.concatenate([z[:d] / C, np.ones(n)]),
            method="SLSQP",
            bounds=[(None, None)] * d + [(0.0, None)] * n,
            constraints=[{
                "type": "ineq",
                "fun": lambda z: yk * (Xb @ z[:d]) - 1.0 + z[d:],
                "jac": lambda z: np.hstack([yk[:, None] * Xb, np.eye(n)]),
            }],
            options={"ftol": 1e-10, "maxiter": 1000},
        )
        assert res.success
        w = res.x[:d]
        total += 0.5 * w @ w + C * np.maximum(0.0, 1.0 - yk * (Xb @ w)).sum()
    return total


def overlapping_classes():
    rng = np.random.default_rng(0)
    X = 3.0 * rng.standard_normal((60, 4))
    X[:, 0] += np.arange(60) % 3
    return X, [f"c{i % 3}" for i in range(60)]


class TestTrain:
    def test_separable_data_perfectly_classified(self, rng):
        X, y = separable_blobs(rng)
        model = classify.train(X, y, C=1.0)
        pred = np.argmax(classify.decision_matrix(model, X), axis=1)
        assert all(model.classes[p] == label for p, label in zip(pred, y))

    def test_duplicating_dataset_keeps_training_argmax(self, rng):
        # Duplication rescales the loss like doubling C; on clustered data
        # with real margins the training-point argmax must not move.
        centers = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 1.0], [0.0, 4.0, -1.0]])
        X = np.vstack([c + 0.6 * rng.standard_normal((15, 3)) for c in centers])
        y = [f"c{i // 15}" for i in range(45)]
        m1 = classify.train(X, y, C=1.0)
        m2 = classify.train(np.vstack([X, X]), y + y, C=1.0)
        p1 = np.argmax(classify.decision_matrix(m1, X), axis=1)
        p2 = np.argmax(classify.decision_matrix(m2, X), axis=1)
        np.testing.assert_array_equal(p1, p2)

    def test_deterministic(self, rng):
        X = rng.standard_normal((30, 4))
        y = [f"c{i % 3}" for i in range(30)]
        m1 = classify.train(X, y, C=10.0)
        m2 = classify.train(X, y, C=10.0)
        np.testing.assert_array_equal(m1.weights, m2.weights)

    def test_overlapping_classes_reach_primal_optimum(self):
        # Overlapping classes at large C: many multipliers sit at the bound,
        # and the dual is ill-conditioned. The reference solves each
        # one-vs-rest primal with explicit slack variables by SLSQP.
        X, y = overlapping_classes()
        model = classify.train(X, y, C=100.0)
        assert model.report.converged
        assert ovr_primal(model, X, y) == pytest.approx(slsqp_primal(X, y, 100.0), rel=1e-6)

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError):
            classify.train(rng.standard_normal((5, 2)), ["a"] * 5)

    @pytest.mark.parametrize("C", [-1.0, 0.0, math.nan, math.inf])
    def test_C_that_is_not_finite_and_positive_rejected(self, C):
        X, y = overlapping_classes()
        with pytest.raises(ValueError, match=f"C must be finite and positive, got {C}"):
            classify.train(X, y, C=C)
        with pytest.raises(ValueError, match=r"c_grid entries must be finite and positive, got \(1.0, "):
            EvalProtocol(c_grid=(1.0, C))

    def test_large_C_reaches_certified_optimum(self):
        # C = 1e4 on the overlapping classes: the optimum is about 1.1706e6.
        # The duality gap bounds how far the primal is above it, and it is
        # within the tolerance stated in train's docstring, here bounded
        # above through alpha <= C.
        X, y = overlapping_classes()
        C = 1e4
        model = classify.train(X, y, C=C)
        assert model.report.converged
        got, reference = ovr_primal(model, X, y), slsqp_primal(X, y, C)
        assert got == pytest.approx(reference, rel=1e-6)
        assert got - reference <= model.report.duality_gap
        Xb = np.hstack([X, np.ones((len(X), 1))])
        Y = np.where(np.array(y)[None, :] == np.array(model.classes)[:, None], 1.0, -1.0)
        e = 1.0 - Y * (model.weights @ Xb.T)
        absX = np.abs(Xb)
        error_bound = C * (1.0 + (np.abs(model.weights) + C * absX.sum(axis=0)) @ absX.T) + 2.0 * C * np.abs(e)
        tolerance = np.sqrt(len(Xb)) * np.finfo(float).eps / 2 * error_bound.sum()
        assert 0.0 <= model.report.duality_gap <= tolerance


def ref_train(features, labels, C=1.0):
    """The L-BFGS-B solve of the joint dual that ``train`` replaced, kept as
    a parity oracle: it restarts while the largest projected-gradient entry
    is above sqrt(2 eps |f| max_i |x_i|^2) and still falling."""
    X = np.asarray(features, dtype=float)
    classes = tuple(sorted(set(labels)))
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    label_idx = np.array([classes.index(lbl) for lbl in labels])
    Y = np.where(label_idx[None, :] == np.arange(len(classes))[:, None], 1.0, -1.0)

    def dual(a):
        W = (a.reshape(Y.shape) * Y) @ Xb
        return 0.5 * float(np.sum(W * W)) - float(a.sum()), (Y * (W @ Xb.T) - 1.0).ravel()

    curvature = float(np.max(np.einsum("ij,ij->i", Xb, Xb)))
    alpha = np.zeros(Y.size)
    previous = np.inf
    while True:
        res = minimize(
            dual, alpha, jac=True, method="L-BFGS-B",
            bounds=[(0.0, C)] * alpha.size, options={"ftol": 0.0, "gtol": 0.0},
        )
        alpha = res.x
        pg = float(np.max(np.abs(np.clip(alpha - res.jac, 0.0, C) - alpha)))
        if pg <= np.sqrt(2.0 * np.finfo(float).eps * abs(res.fun) * curvature) or pg >= previous:
            break
        previous = pg
    return classify.LinearModel(weights=(alpha.reshape(Y.shape) * Y) @ Xb, classes=classes, C=C)


class TestTrainParity:
    """The interior-point solve against the L-BFGS-B oracle: never above its
    primal by more than 1e-12 relative, on every C of the protocol grid."""

    @pytest.mark.parametrize("n_classes", [2, 6, 10])
    @pytest.mark.parametrize("per_class", [1, 12], ids=["n<d+1", "n>d+1"])
    def test_primal_not_above_lbfgsb(self, n_classes, per_class):
        rng = np.random.default_rng(n_classes * 100 + per_class)
        dim = 20
        n = n_classes * per_class
        labels = [f"c{i % n_classes}" for i in range(n)]
        centers = rng.standard_normal((n_classes, dim))
        X = centers[np.arange(n) % n_classes] + 1.5 * rng.standard_normal((n, dim))
        for C in EvalProtocol().c_grid:
            model = classify.train(X, labels, C=C)
            assert model.report.converged, (C, model.report)
            oracle = ovr_primal(ref_train(X, labels, C=C), X, labels)
            assert ovr_primal(model, X, labels) <= oracle * (1.0 + 1e-12), C

    def test_grid_solve_matches_single_solves(self):
        # A problem's whole C grid shares one stack; each model must be the
        # one train gives at that C.
        X, y = overlapping_classes()
        c_grid = EvalProtocol().c_grid
        [grid] = classify._train_grid([(X, y)], c_grid)
        for C, model in zip(c_grid, grid):
            single = classify.train(X, y, C=C)
            assert model.C == C and model.report.iterations == single.report.iterations
            assert model.report.converged == single.report.converged
            np.testing.assert_allclose(model.weights, single.weights, rtol=1e-12, atol=1e-12 * np.abs(single.weights).max())


def ref_train_grid(features, labels, Cs):
    """The interior-point solve that the stacked one replaced, kept as a
    parity oracle: one stack per design holding its K len(Cs) duals, and
    two LU solves of each Newton matrix per step (``ref_mehrotra_step``)."""
    X = np.asarray(features, dtype=float)
    classes = tuple(sorted(set(labels)))
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    Y = np.tile(np.where(np.array(labels)[None, :] == np.array(classes)[:, None], 1.0, -1.0), (len(Cs), 1))
    C = np.repeat(np.asarray(Cs, dtype=float), len(classes))[:, None]
    n, abs_Xb, u = Xb.shape[0], np.abs(Xb), np.finfo(float).eps / 2
    alpha = np.full(Y.shape, 0.5) * C
    grad = Y * ((alpha * Y) @ Xb @ Xb.T) - 1.0
    state = np.stack([alpha, np.maximum(grad, 0.0) + 1.0, C - alpha, np.maximum(-grad, 0.0) + 1.0])
    steps = np.zeros(len(C), dtype=int)
    for iterations in itertools.count():
        alpha = state[0]
        W = (alpha * Y) @ Xb
        e = 1.0 - Y * (W @ Xb.T)
        hinge = C * np.maximum(0.0, e)
        gap = (hinge - alpha * e).sum(axis=1)
        delta = u * (1.0 + (np.abs(W) + alpha @ abs_Xb) @ abs_Xb.T)
        near_kink = np.abs(e) <= delta
        slope = np.where(near_kink, np.maximum(alpha, C - alpha), np.abs(np.where(e > 0.0, C, 0.0) - alpha))
        active = gap > np.sqrt(n) * (slope * delta + u * (hinge + alpha * np.abs(e))).sum(axis=1)
        if not active.any() or iterations == classify._MAX_ITERATIONS:
            break
        state[:, active] = ref_mehrotra_step(Xb, Y[active], C[active], state[:, active], -e[active])
        steps += active
    primal = 0.5 * (W * W).sum(axis=1) + hinge.sum(axis=1)
    blocks = [slice(j * len(classes), (j + 1) * len(classes)) for j in range(len(Cs))]
    return [
        classify.LinearModel(W[b], classes, c, classify.SolverReport(
            int(steps[b].max()), float(primal[b].sum()), float(gap[b].sum()), not active[b].any()))
        for c, b in zip(Cs, blocks)
    ]


def ref_mehrotra_step(Xb, Y, C, state, grad):
    alpha, z, s, v = state
    inv_alpha, inv_s, r_slack = 1.0 / alpha, 1.0 / s, C - alpha - s
    dinv = 1.0 / (z * inv_alpha + v * inv_s + classify._RHO)
    M = (dinv[:, None, :] * Xb.T) @ Xb + np.eye(Xb.shape[1])
    dinv_y, shared = dinv * Y, z - v - grad + v * r_slack * inv_s

    def direction(r_z, r_v):
        r = shared + r_v * inv_s - r_z * inv_alpha
        t = np.linalg.solve(M, ((dinv_y * r) @ Xb)[..., None])[..., 0]
        d_alpha = dinv * r - dinv_y * (t @ Xb.T)
        d_s = r_slack - d_alpha
        return np.stack([d_alpha, -(r_z + z * d_alpha) * inv_alpha, d_s, -(r_v + v * d_s) * inv_s])

    def max_step(d):
        ratio = np.where(d < 0, state / np.where(d < 0, -d, 1.0), np.inf)
        return np.minimum(1.0, ratio.min(axis=(0, 2)))[:, None]

    def mu(x):
        return (x[0] * x[1] + x[2] * x[3]).sum(axis=1, keepdims=True) / (2 * x.shape[2])

    affine = direction(alpha * z, s * v)
    target = mu(state + max_step(affine) * affine) ** 3 / mu(state) ** 2
    d = direction(alpha * z + affine[0] * affine[1] - target, s * v + affine[2] * affine[3] - target)
    return state + 0.995 * max_step(d) * d


def oracle_train_grid(problems, Cs):
    """``classify._train_grid`` with every problem solved by the oracle."""
    return [ref_train_grid(X, labels, Cs) for X, labels in problems]


class TestStackedSolveParity:
    """A CV's stacked solve against the oracle: on every C of the protocol
    grid each model is converged, as the oracle's is, and its primal is not
    above the oracle's by more than its own duality gap and 1e-12 relative.
    Both solves stop once the gap is down to the rounding error of its
    terms, which can be some 1e-11 of the primal, so either primal may be
    the lower one by that much; the gap certifies P - P* <= P - D."""

    @pytest.mark.parametrize("n_classes", [2, 6, 10])
    @pytest.mark.parametrize("dim", [8, 20, 68], ids=lambda dim: f"m={dim + 1}")
    @pytest.mark.parametrize("per_class", [(6, 6, 6), (6, 6, 7)], ids=["equal-folds", "unequal-folds"])
    def test_primal_not_above_oracle(self, n_classes, dim, per_class):
        # Three folds, each with and without unit-norm rows, as in the CV.
        rng = np.random.default_rng(n_classes * 1000 + dim * 10 + per_class[-1])
        centers = rng.standard_normal((n_classes, dim))
        problems = []
        for normalize, count in itertools.product((True, False), per_class):
            n = n_classes * count
            X = centers[np.arange(n) % n_classes] + 1.5 * rng.standard_normal((n, dim))
            if normalize:
                X /= np.linalg.norm(X, axis=1, keepdims=True)
            problems.append((X, [f"c{i % n_classes}" for i in range(n)]))
        c_grid = EvalProtocol().c_grid
        for (X, labels), models, oracles in zip(problems, classify._train_grid(problems, c_grid), oracle_train_grid(problems, c_grid)):
            for C, model, oracle in zip(c_grid, models, oracles):
                assert model.C == C and model.report.converged, (C, model.report)
                assert model.report.converged == oracle.report.converged
                bound = ovr_primal(oracle, X, labels) * (1.0 + 1e-12) + model.report.duality_gap
                assert ovr_primal(model, X, labels) <= bound, (C, model.report, oracle.report)


class TestIdentify:
    def model(self):
        return classify.LinearModel(
            weights=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            classes=("a", "b"),
            C=1.0,
        )

    def test_k1_reduces_to_single_argmax(self):
        m = self.model()
        assert classify.identify(m, np.array([[2.0, 1.0]])) == "a"
        assert classify.identify(m, np.array([[1.0, 2.0]])) == "b"

    def test_zero_weights_tie_breaks_to_first_class(self):
        m = classify.LinearModel(weights=np.zeros((3, 3)), classes=("a", "b", "c"), C=1.0)
        assert classify.identify(m, np.array([[1.0, 1.0]])) == "a"

    def test_summed_evidence(self):
        m = self.model()
        feats = np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 2.0]])
        assert classify.identify(m, feats) == "b"

    def test_rescaling_invariance(self, rng):
        m = self.model()
        feats = rng.standard_normal((4, 2))
        base = classify.identify(m, feats)
        scaled = classify.LinearModel(weights=m.weights * 7.3, classes=m.classes, C=m.C)
        assert classify.identify(scaled, feats) == base

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="feature dimension 3 does not match model"):
            classify.decision_matrix(self.model(), np.array([1.0, 2.0, 3.0]))


def small_cohort(n_users=4, n_images=8, T=15, jitter=0.4, seed=0, family="markov"):
    spec = simulate.SyntheticCohortSpec(
        n_users=n_users,
        n_images=n_images,
        fixations_per_path=T,
        family=family,
        jitter=jitter,
        seed=seed,
    )
    return simulate.generate_cohort(spec).data


class TestSplits:
    def test_no_image_leaks_between_train_and_test(self):
        data = small_cohort()
        protocol = EvalProtocol(n_splits=4, seed=3)
        for split in classify.make_splits(data, protocol):
            for subject in data.subjects:
                train, test = split.train[subject], split.test[subject]
                assert {data.items[r].subject_id for r in train + test} == {subject}
                train_images = {data.items[r].image_id for r in train}
                test_images = {data.items[r].image_id for r in test}
                assert not train_images & test_images
                assert train_images | test_images == set(data.images_of(subject))

    def test_deterministic_given_seed(self):
        data = small_cohort()
        a = classify.make_splits(data, EvalProtocol(n_splits=3, seed=5))
        b = classify.make_splits(data, EvalProtocol(n_splits=3, seed=5))
        assert a == b

    def test_subject_with_one_image_rejected(self):
        data = small_cohort()
        extra = GazeDataset(
            items=data.items + (DatasetItem("lonely", "only", data.items[0].scanpath),),
        )
        with pytest.raises(ValueError, match="lonely"):
            classify.make_splits(extra, EvalProtocol())


class TestAccuracyFromRows:
    def test_groups_sum_and_ties_go_to_lowest_class(self):
        split = classify.Split(train={}, test={"a": ("i1", "i2", "i3"), "b": ("j1", "j2", "j3")})
        table = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 3.0], [0.0, 0.0], [0.0, 0.0], [5.0, 0.0]])
        acc = classify._accuracy_from_rows(("a", "b"), split, [1, 2, 3], table)
        # k=1: a wins its first two items (the second by the tie), b none;
        # k=2: one group each, the remainder dropped; k=3: both groups lost
        assert acc == {1: 2 / 6, 2: 1 / 2, 3: 0.0}


class TestFamilyOpsInputs:
    def test_base_rows_come_from_scanpaths_and_dynamics_rows_from_features(self):
        # a markov-dyn cohort carries both copies of amplitude and duration,
        # which differ in their last bits; the base model reads the scanpath's
        data = small_cohort(family="markov-dyn")
        base = classify._FamilyOps(data, "markov", EvalProtocol(), threads=1)
        dyn = classify._FamilyOps(data, "markov-dyn", EvalProtocol(), threads=1)
        np.testing.assert_array_equal(
            base.rows, markov.statistics([extract_features(it.scanpath) for it in data.items], BASE_CHANNELS)
        )
        np.testing.assert_array_equal(dyn.rows, markov.statistics([it.features for it in data.items], DYNAMICS_CHANNELS))

    def test_dynamics_reject_an_item_without_features(self):
        data = small_cohort(family="markov-dyn")
        partial = GazeDataset(items=(dataclasses.replace(data.items[0], features=None),) + data.items[1:])
        with pytest.raises(ValueError, match="dynamics channels unavailable"):
            classify._FamilyOps(partial, "markov-dyn", EvalProtocol(), threads=1)


class TestRunProtocol:
    def test_reproducible_bit_for_bit(self):
        data = small_cohort()
        protocol = EvalProtocol(n_splits=2, seed=9, max_k=3)
        r1 = classify.run_protocol(data, "bayes-markov", protocol)
        r2 = classify.run_protocol(data, "bayes-markov", protocol)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_a_viewing_listed_twice_is_rejected(self):
        # Items are named by row: a repeated viewing could otherwise train
        # and test the same split.
        data = small_cohort()
        repeated = dataclasses.replace(data.items[1], image_id=data.items[0].image_id)
        with pytest.raises(ValueError, match="subject 'user000' image 'img000' appears twice"):
            classify.run_protocol(GazeDataset(items=(data.items[0], repeated, *data.items[2:])), "bayes-markov")

    def test_thread_count_does_not_change_results(self):
        data = small_cohort()
        protocol = EvalProtocol(n_splits=3, seed=9, max_k=2)
        r1 = classify.run_protocol(data, "bayes-markov", protocol, threads=1)
        r2 = classify.run_protocol(data, "bayes-markov", protocol, threads=3)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_scenewalk_results_do_not_depend_on_threads(self):
        data = small_cohort(n_users=3, n_images=4, T=6, seed=5, family="scenewalk")
        protocol = EvalProtocol(n_splits=2, seed=0, max_k=1, c_grid=(1.0,), scenewalk_max_iter=8)
        for family in ("fisher-svm-scenewalk", "bayes-scenewalk"):
            results = [classify.run_protocol(data, family, protocol, threads=t).to_json_dict() for t in (1, 2, 3)]
            assert results[1] == results[0] and results[2] == results[0], family
            assert multiprocessing.active_children() == []

    def test_sweep_error_on_a_worker_matches_serial(self, monkeypatch):
        # The last viewer's paths fall in the last worker's share; a sweep
        # of one of them at c_f < 0.25 raises, as an overflow would, and the
        # fit's line search backs off from it wherever it was raised.
        data = small_cohort(n_users=3, n_images=4, T=6, seed=5, family="scenewalk")
        protocol = EvalProtocol(n_splits=2, seed=0, max_k=1, c_grid=(1.0,), scenewalk_max_iter=8)
        clean = classify.run_protocol(data, "fisher-svm-scenewalk", protocol).to_json_dict()
        sweep, raised = scenewalk.loglik_and_grad, []

        def failing(path, saliency, params):
            if path.subject_id == data.subjects[-1] and params.c_f < 0.25:
                raised.append(path.image_id)
                raise FloatingPointError("injected")
            return sweep(path, saliency, params)

        monkeypatch.setattr(scenewalk, "loglik_and_grad", failing)
        serial = classify.run_protocol(data, "fisher-svm-scenewalk", protocol, threads=1).to_json_dict()
        assert raised and serial != clean
        assert classify.run_protocol(data, "fisher-svm-scenewalk", protocol, threads=3).to_json_dict() == serial
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises(self, monkeypatch):
        data = small_cohort(n_users=3, n_images=4, T=6, seed=5, family="scenewalk")
        protocol = EvalProtocol(n_splits=2, seed=0, max_k=1, c_grid=(1.0,), scenewalk_max_iter=8)
        sweep = scenewalk.loglik_and_grad

        def kill_workers(path, saliency, params):
            # the first sweep of the evaluating process kills its worker
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
                child.join(timeout=10.0)
            return sweep(path, saliency, params)

        monkeypatch.setattr(scenewalk, "loglik_and_grad", kill_workers)
        with pytest.raises(RuntimeError, match=r"SceneWalk worker process \d+ exited with code -9"):
            classify.run_protocol(data, "fisher-svm-scenewalk", protocol, threads=2)
        assert multiprocessing.active_children() == []

    def test_bayes_matches_bayes_identify_composition(self):
        # Cross-module consistency: the harness's per-group predictions for
        # the markov Bayes family equal a per-group summed-likelihood oracle.
        data = small_cohort()
        protocol = EvalProtocol(n_splits=1, seed=4, max_k=2)
        result = classify.run_protocol(data, "bayes-markov", protocol)

        split = classify.make_splits(data, protocol)[0]
        models = [
            markov.fit(
                [extract_features(data.items[row].scanpath) for row in split.train[s]],
                ("amplitude", "duration"),
            )
            for s in data.subjects
        ]
        for k in (1, 2):
            correct = total = 0
            for s_idx, subject in enumerate(data.subjects):
                test = split.test[subject]
                for g in range(0, len(test) - k + 1, k):
                    group = [extract_features(data.items[row].scanpath) for row in test[g : g + k]]
                    correct += bayes_oracle(group, models) == s_idx
                    total += 1
            assert result.per_split[k][0] == pytest.approx(correct / total)

    def test_shuffled_labels_give_chance_accuracy(self):
        # Destroying the label structure must push accuracy to ~1/n_users.
        data = small_cohort(n_users=5, n_images=12, T=12, jitter=0.4, seed=1)
        rng = np.random.default_rng(0)
        labels = [item.subject_id for item in data.items]
        permuted = [labels[i] for i in rng.permutation(len(labels))]
        items = tuple(
            DatasetItem(
                subject_id=new_subject,
                image_id=f"item{i:03d}",
                scanpath=item.scanpath,
            )
            for i, (item, new_subject) in enumerate(zip(data.items, permuted))
        )
        shuffled = GazeDataset(items=items)
        protocol = EvalProtocol(n_splits=3, seed=2, max_k=1)
        result = classify.run_protocol(shuffled, "bayes-markov", protocol)
        accs = result.per_split[1]
        # 3-sigma binomial band around chance
        n_total = sum(sum(len(v) for v in s.test.values()) for s in classify.make_splits(shuffled, protocol))
        p = 1.0 / len(shuffled.subjects)
        sigma = np.sqrt(p * (1 - p) / n_total)
        assert abs(np.mean(accs) - p) <= 3 * sigma + 0.02

    def test_single_subject_warns_and_is_trivial(self):
        data = small_cohort(n_users=1, n_images=6)
        protocol = EvalProtocol(n_splits=2, seed=0, max_k=2)
        result = classify.run_protocol(data, "bayes-markov", protocol)
        assert result.warnings
        assert all(v == 1.0 for vals in result.per_split.values() for v in vals)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            classify.run_protocol(small_cohort(), "nonsense")

    @pytest.mark.parametrize("field, value, message", [
        ("scenewalk_rho", math.nan, "scenewalk_rho must be finite and non-negative, got nan"),
        ("scenewalk_rho", math.inf, "scenewalk_rho must be finite and non-negative, got inf"),
        ("scenewalk_rho", -1.0, "scenewalk_rho must be finite and non-negative, got -1.0"),
        ("scenewalk_max_iter", 0, "scenewalk_max_iter must be at least 1, got 0"),
        ("scenewalk_max_iter", -3, "scenewalk_max_iter must be at least 1, got -3"),
    ])
    def test_scenewalk_fit_options_that_do_nothing_or_mislead_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            EvalProtocol(**{field: value})
        EvalProtocol(scenewalk_rho=0.0, scenewalk_max_iter=1)  # the least usable values

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            classify.run_protocol(small_cohort(), "bayes-markov", threads=threads)

    def test_fisher_family_end_to_end(self):
        data = small_cohort(n_users=4, n_images=10, T=20, jitter=0.5, seed=3)
        protocol = EvalProtocol(
            n_splits=2, seed=1, max_k=2, c_grid=(0.1, 1.0), normalize_grid=(True,)
        )
        result = classify.run_protocol(data, "fisher-svm-markov", protocol)
        assert result.hyperparams[0] is not None
        assert result.curve.mean_at(1) > 0.5  # far above 0.25 chance
        for chosen in result.hyperparams:
            assert chosen["C"] in (0.1, 1.0)

    def test_scenewalk_bayes_family_runs(self):
        data = small_cohort(n_users=2, n_images=4, T=6, jitter=0.6, seed=5, family="scenewalk")
        protocol = EvalProtocol(n_splits=1, seed=0, max_k=1, scenewalk_max_iter=15)
        result = classify.run_protocol(data, "bayes-scenewalk", protocol)
        assert 0.0 <= result.curve.mean_at(1) <= 1.0

    def test_unconverged_scenewalk_fits_are_warned(self):
        spec = simulate.SyntheticCohortSpec(
            n_users=2, n_images=4, fixations_per_path=4, family="scenewalk",
            seed=1, grid_shape=(8, 8), extent=(8.0, 8.0),
        )
        data = simulate.generate_cohort(spec).data
        capped = EvalProtocol(
            n_splits=2, seed=0, max_k=1, c_grid=(1.0,), normalize_grid=(True,), scenewalk_max_iter=1
        )
        stopped = r"scenewalk fit{} stopped after 1 iterations without converging \(grad_norm \d\.\de[+-]\d\d\)"
        expected = {
            "fisher-svm-scenewalk": [rf"split {i}: " + stopped.format("") for i in range(2)],
            "bayes-scenewalk": [
                rf"split {i}: " + stopped.format(f" of {s}") for i in range(2) for s in data.subjects
            ],
        }
        # Uncapped, all but one bayes fit stall once f stops falling, short
        # of gtol = 1e-5 and of the cap: each stall is warned, the fit that
        # converges is not.
        uncapped = dataclasses.replace(capped, scenewalk_max_iter=200)
        stalled = (r"split \d: scenewalk fit(?: of user\d+)? stopped after (\d+) iterations without "
                   r"converging \(grad_norm (\S+)\)")
        for family, patterns in expected.items():
            warnings = classify.run_protocol(data, family, capped).warnings
            assert len(warnings) == len(patterns)
            assert all(re.fullmatch(p, w) for p, w in zip(patterns, warnings)), warnings
            warnings = classify.run_protocol(data, family, uncapped).warnings
            assert len(warnings) == len(patterns) - (family == "bayes-scenewalk")
            for w in warnings:
                match = re.fullmatch(stalled, w)
                assert match and int(match[1]) < 200 and float(match[2]) > 1e-5, w

    def test_unconverged_svm_solves_are_warned(self, monkeypatch):
        # With the iteration cap at 1 no solve can meet its tolerance: each
        # of a split's 3 CV folds x 2 C values x 1 normalization, then the
        # final model, adds one warning, in fold order and C order within.
        data = small_cohort()
        protocol = EvalProtocol(n_splits=2, seed=1, max_k=1, c_grid=(0.1, 1.0), normalize_grid=(True,))
        assert classify.run_protocol(data, "fisher-svm-markov", protocol).warnings == ()
        monkeypatch.setattr(classify, "_MAX_ITERATIONS", 1)
        result = classify.run_protocol(data, "fisher-svm-markov", protocol)
        stopped = r"split 0: svm train at C={} stopped after 1 iterations without converging \(duality gap [^)]+\)"
        cs = [0.1, 1.0] * 3 + [result.hyperparams[0]["C"]]
        split0 = [stopped.format(re.escape(f"{c:g}")) for c in cs]
        assert len(result.warnings) == 14
        assert all(re.fullmatch(p, w) for p, w in zip(split0, result.warnings)), result.warnings
        assert all(w.startswith("split 1: ") for w in result.warnings[7:])
        assert classify.run_protocol(data, "fisher-svm-markov", protocol).warnings == result.warnings

    def test_lopsided_cv_is_solved_in_stacks_of_equal_rows(self, monkeypatch):
        # user003 keeps 2 of its 8 images: its one training image is the
        # validation set of fold 0, which therefore fits 3 subjects on 6
        # rows, while folds 1 and 2 fit all 4 on 10 rows. Each row count is
        # one stack, holding every normalization of its folds.
        full = small_cohort()
        data = GazeDataset(items=tuple(
            it for it in full.items if it.subject_id != "user003" or it.image_id in ("img000", "img001")
        ))
        protocol = EvalProtocol(n_splits=2, seed=1, max_k=1, c_grid=(0.1, 1.0))
        stacks, solve_stack = [], classify._solve_stack

        def recorded(Xb, Y, C, block):
            stacks.append((Xb.shape[:2], len(Y)))
            return solve_stack(Xb, Y, C, block)

        monkeypatch.setattr(classify, "_solve_stack", recorded)
        result = classify.run_protocol(data, "fisher-svm-markov", protocol, threads=1)
        assert result.warnings == ()
        # per split: 2 normalizations x 2 C x 3 classes on 6 rows,
        # 2 x 2 folds x 2 C x 4 classes on 10 rows, then the final model
        assert stacks == [((2, 6), 12), ((4, 10), 32), ((1, 13), 4)] * 2
        assert classify.run_protocol(data, "fisher-svm-markov", protocol, threads=2).to_json_dict() == result.to_json_dict()

        # Capped at one step, every solve warns: normalization, then fold,
        # then C, then the final model, as the oracle, which solves one
        # design at a time in that order, warns.
        monkeypatch.setattr(classify, "_MAX_ITERATIONS", 1)
        capped = classify.run_protocol(data, "fisher-svm-markov", protocol)
        stopped = r"split {}: svm train at C={} stopped after 1 iterations without converging \(duality gap [^)]+\)"
        expected = [
            stopped.format(i, re.escape(f"{c:g}")) for i in range(2) for c in [0.1, 1.0] * 6 + [capped.hyperparams[i]["C"]]
        ]
        assert len(capped.warnings) == 26
        assert all(re.fullmatch(p, w) for p, w in zip(expected, capped.warnings)), capped.warnings
        monkeypatch.setattr(classify, "_train_grid", oracle_train_grid)
        assert classify.run_protocol(data, "fisher-svm-markov", protocol).warnings == capped.warnings

        monkeypatch.setattr(classify, "_MAX_ITERATIONS", 50)
        oracle = classify.run_protocol(data, "fisher-svm-markov", protocol)
        assert oracle.hyperparams == result.hyperparams and oracle.per_split == result.per_split

    def test_results_files(self, tmp_path):
        data = small_cohort()
        result = classify.run_protocol(data, "bayes-markov", EvalProtocol(n_splits=2, seed=0, max_k=2))
        classify.save_results_csv(result, tmp_path / "r.csv")
        doc = json.loads(json.dumps(result.to_json_dict()))
        assert doc["model_family"] == "bayes-markov"
        assert [row["k"] for row in doc["curve"]] == [1, 2]
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "k,mean_acc,stderr"
        assert len(lines) == 3
