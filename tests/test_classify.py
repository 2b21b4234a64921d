"""Linear classifier and the evaluation protocol harness."""

import dataclasses
import re

import numpy as np
import pytest
from scipy.optimize import minimize

from gazeid import classify, markov, simulate
from gazeid.classify import EvalProtocol
from gazeid.dataset import DatasetItem, GazeDataset


def separable_blobs(rng, n_per_class=20, gap=6.0):
    X, y = [], []
    for c, center in enumerate([(0.0, 0.0), (gap, 0.0)]):
        pts = rng.standard_normal((n_per_class, 2)) * 0.5 + np.asarray(center)
        X.append(pts)
        y += [f"c{c}"] * n_per_class
    return np.vstack(X), y


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
        rng = np.random.default_rng(0)
        X = 3.0 * rng.standard_normal((60, 4))
        X[:, 0] += np.arange(60) % 3
        y = [f"c{i % 3}" for i in range(60)]
        C = 100.0
        model = classify.train(X, y, C=C)
        assert model.report.converged

        Xb = np.hstack([X, np.ones((60, 1))])
        n, d = Xb.shape

        def primal(w, yk):
            return 0.5 * w @ w + C * np.maximum(0.0, 1.0 - yk * (Xb @ w)).sum()

        got = reference = 0.0
        for w, cls in zip(model.weights, model.classes):
            yk = np.where(np.array(y) == cls, 1.0, -1.0)
            # z = (w, slack); the objective is divided by C for conditioning.
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
            got += primal(w, yk)
            reference += primal(res.x[:d], yk)
        assert got == pytest.approx(reference, rel=1e-6)

    def test_single_class_rejected(self, rng):
        with pytest.raises(ValueError):
            classify.train(rng.standard_normal((5, 2)), ["a"] * 5)


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
                assert not set(split.train[subject]) & set(split.test[subject])
                assert set(split.train[subject]) | set(split.test[subject]) == set(
                    data.images_of(subject)
                )

    def test_deterministic_given_seed(self):
        data = small_cohort()
        a = classify.make_splits(data, EvalProtocol(n_splits=3, seed=5))
        b = classify.make_splits(data, EvalProtocol(n_splits=3, seed=5))
        assert a == b

    def test_subject_with_one_image_rejected(self):
        data = small_cohort()
        extra = GazeDataset(
            items=data.items + (DatasetItem("lonely", "only", data.items[0].scanpath, data.items[0].features),),
        )
        with pytest.raises(ValueError, match="lonely"):
            classify.make_splits(extra, EvalProtocol())


class TestRunProtocol:
    def test_reproducible_bit_for_bit(self):
        data = small_cohort()
        protocol = EvalProtocol(n_splits=2, seed=9, max_k=3)
        r1 = classify.run_protocol(data, "bayes-markov", protocol)
        r2 = classify.run_protocol(data, "bayes-markov", protocol)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_thread_count_does_not_change_results(self):
        data = small_cohort()
        protocol = EvalProtocol(n_splits=3, seed=9, max_k=2)
        r1 = classify.run_protocol(data, "bayes-markov", protocol, threads=1)
        r2 = classify.run_protocol(data, "bayes-markov", protocol, threads=3)
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_bayes_matches_bayes_identify_composition(self):
        # Cross-module consistency: the harness's per-group predictions for
        # the markov Bayes family equal direct bayes_identify calls.
        data = small_cohort()
        protocol = EvalProtocol(n_splits=1, seed=4, max_k=2)
        result = classify.run_protocol(data, "bayes-markov", protocol)

        split = classify.make_splits(data, protocol)[0]
        index = {(i.subject_id, i.image_id): i for i in data.items}
        models = [
            markov.fit(
                [list(index[(s, img)].features) for img in split.train[s]],
                ("amplitude", "duration"),
            )
            for s in data.subjects
        ]
        for k in (1, 2):
            correct = total = 0
            for s_idx, subject in enumerate(data.subjects):
                test = split.test[subject]
                for g in range(0, len(test) - k + 1, k):
                    group = [list(index[(subject, img)].features) for img in test[g : g + k]]
                    correct += markov.bayes_identify(group, models) == s_idx
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
                features=item.features,
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
        converging = dataclasses.replace(capped, scenewalk_max_iter=200)
        for family, patterns in expected.items():
            warnings = classify.run_protocol(data, family, capped).warnings
            assert len(warnings) == len(patterns)
            assert all(re.fullmatch(p, w) for p, w in zip(patterns, warnings)), warnings
            assert classify.run_protocol(data, family, converging).warnings == ()

    def test_results_files(self, tmp_path):
        data = small_cohort()
        result = classify.run_protocol(data, "bayes-markov", EvalProtocol(n_splits=2, seed=0, max_k=2))
        classify.save_results_json(result, tmp_path / "r.json")
        classify.save_results_csv(result, tmp_path / "r.csv")
        import json

        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["model_family"] == "bayes-markov"
        assert [row["k"] for row in doc["curve"]] == [1, 2]
        lines = (tmp_path / "r.csv").read_text().strip().splitlines()
        assert lines[0] == "k,mean_acc,stderr"
        assert len(lines) == 3
