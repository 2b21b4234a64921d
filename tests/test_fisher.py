"""Fisher scores, information matrix, whitening, and kernel identities."""

import numpy as np
import pytest

from gazeid import fisher, markov
from gazeid.core import BASE_CHANNELS


def random_scores(rng, n, dim, tag="test"):
    return [fisher.FisherScore(g=rng.standard_normal(dim), model_tag=tag) for _ in range(n)]


class TestComputeScores:
    def test_mle_stationarity_on_training_data(self):
        # At the pooled MLE the Gamma-block score coordinates sum to ~0
        # over the training set, and the pi block sums to the type counts
        # divided by the fitted probabilities.
        params_true = markov.default_params(BASE_CHANNELS)
        rng = np.random.default_rng(0)
        data = [markov.sample_scanpath(params_true, 60, seed_or_rng=rng)[1] for _ in range(30)]
        fit = markov.fit(data, BASE_CHANNELS)
        scores = fisher.compute_scores(data, lambda f: markov.grad_loglik(f, fit), "markov")
        total = np.sum([s.g for s in scores], axis=0)
        block = 1 + 2 * len(BASE_CHANNELS)
        counts = np.zeros(4)
        for path in data:
            for u in path.types:
                counts[u - 1] += 1
        for u in range(4):
            np.testing.assert_allclose(total[u * block], counts[u] / fit.pi[u], rtol=1e-12)
            scale = max(abs(counts[u]), 1.0)
            for j in range(1, block):
                assert abs(total[u * block + j]) <= 1e-6 * scale

    def test_empty_items(self):
        assert fisher.compute_scores([], lambda x: np.zeros(3), "m") == []

    def test_duplicates_identical(self):
        params = markov.default_params(BASE_CHANNELS)
        feats = markov.sample_scanpath(params, 20, seed_or_rng=1)[1]
        scores = fisher.compute_scores([feats, feats], lambda f: markov.grad_loglik(f, params), "m")
        np.testing.assert_array_equal(scores[0].g, scores[1].g)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fisher.compute_scores([0], lambda x: np.array([1.0, np.inf]), "m")


class TestInformation:
    def test_single_score_rank_one(self, rng):
        g = rng.standard_normal(6)
        info = fisher.estimate_information([fisher.FisherScore(g=g, model_tag="m")], 1e-3)
        np.testing.assert_allclose(info.matrix, np.outer(g, g), rtol=1e-13)
        # regularized factorization reproduces matrix + ridge * I
        recon = info.factor @ info.factor.T
        np.testing.assert_allclose(
            recon, info.matrix + info.ridge * np.eye(6), rtol=0, atol=1e-9 * info.ridge + 1e-12
        )

    def test_basis_vectors_give_scaled_identity(self):
        dim = 4
        scores = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = 1.0
            scores.append(fisher.FisherScore(g=e, model_tag="m"))
            scores.append(fisher.FisherScore(g=-e, model_tag="m"))
        info = fisher.estimate_information(scores, 1e-3)
        np.testing.assert_allclose(info.matrix, np.eye(dim) / dim, atol=1e-15)

    def test_minimum_eigenvalue_bound(self, rng):
        scores = random_scores(rng, 30, 8)
        eps = 1e-3
        info = fisher.estimate_information(scores, eps)
        reg = info.matrix + info.ridge * np.eye(8)
        min_eig = float(np.linalg.eigvalsh(reg).min())
        assert min_eig >= info.ridge * (1.0 - 1e-9)

    def test_symmetry(self, rng):
        info = fisher.estimate_information(random_scores(rng, 20, 5), 1e-3)
        np.testing.assert_allclose(info.matrix, info.matrix.T, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        scores = random_scores(rng, 3, 4) + random_scores(rng, 1, 5)
        with pytest.raises(ValueError):
            fisher.estimate_information(scores, 1e-3)

    def test_needs_positive_ridge_and_scores(self, rng):
        with pytest.raises(ValueError):
            fisher.estimate_information([], 1e-3)
        with pytest.raises(ValueError):
            fisher.estimate_information(random_scores(rng, 2, 3), 0.0)
        zeros = [fisher.FisherScore(g=np.zeros(3), model_tag="m")] * 2
        with pytest.raises(ValueError):
            fisher.estimate_information(zeros, 1e-3)


class TestKernel:
    def test_identity_information_gives_dot_product(self, rng):
        dim = 5
        scores = []
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = np.sqrt(dim)
            scores.append(fisher.FisherScore(g=e, model_tag="m"))
            scores.append(fisher.FisherScore(g=-e, model_tag="m"))
        # second moment = identity; tiny ridge keeps the inverse ~identity
        info = fisher.estimate_information(scores, 1e-12)
        a, b = rng.standard_normal(dim), rng.standard_normal(dim)
        assert fisher.kernel(a, b, info) == pytest.approx(float(a @ b), rel=1e-9)

    def test_kernel_equals_feature_map_dot(self, rng):
        scores = random_scores(rng, 25, 6)
        info = fisher.estimate_information(scores, 1e-3)
        for i in (0, 3, 7):
            for j in (1, 4, 9):
                k_direct = fisher.kernel(scores[i], scores[j], info)
                phi_i = fisher.feature_map(scores[i], info)
                phi_j = fisher.feature_map(scores[j], info)
                assert k_direct == pytest.approx(float(phi_i @ phi_j), rel=1e-9)

    def test_kernel_symmetric(self, rng):
        scores = random_scores(rng, 10, 6)
        info = fisher.estimate_information(scores, 1e-3)
        for i in range(3):
            for j in range(3):
                assert abs(
                    fisher.kernel(scores[i], scores[j], info)
                    - fisher.kernel(scores[j], scores[i], info)
                ) < 1e-12

    def test_self_kernel_non_negative(self, rng):
        scores = random_scores(rng, 15, 7)
        info = fisher.estimate_information(scores, 1e-3)
        for s in scores:
            assert fisher.kernel(s, s, info) >= 0.0

    def test_gram_matrix_psd(self, rng):
        scores = random_scores(rng, 50, 9)
        info = fisher.estimate_information(scores, 1e-3)
        phi = np.array([fisher.feature_map(s, info) for s in scores])
        gram = phi @ phi.T
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8 * eigs.max()

    def test_normalized_feature_map_unit_norm(self, rng):
        scores = random_scores(rng, 12, 5)
        info = fisher.estimate_information(scores, 1e-3)
        phi = fisher.feature_map(scores[0], info, normalize=True)
        assert np.linalg.norm(phi) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_stacked_feature_map_matches_rows(self, rng, normalize):
        scores = random_scores(rng, 40, 7)
        G = np.array([s.g for s in scores])
        info = fisher.estimate_information(scores, 1e-3)
        stacked = fisher.feature_map(G, info, normalize)
        rows = np.array([fisher.feature_map(s, info, normalize) for s in scores])
        assert stacked.shape == (40, 7)
        np.testing.assert_allclose(stacked, rows, rtol=1e-12, atol=1e-12 * np.abs(rows).max())

    def test_information_from_matrix_matches_scores(self, rng):
        scores = random_scores(rng, 30, 6)
        from_scores = fisher.estimate_information(scores, 1e-3)
        from_matrix = fisher.estimate_information(np.array([s.g for s in scores]), 1e-3)
        assert from_matrix.n_scores == 30
        np.testing.assert_allclose(from_matrix.matrix, from_scores.matrix, rtol=1e-12)
        with pytest.raises(ValueError):
            fisher.estimate_information(np.array([[1.0, np.nan]]), 1e-3)

    def test_whitening_sanity(self, rng):
        # With a vanishing ridge on a full-rank score set, the whitened
        # scores' empirical second moment is the identity.
        scores = random_scores(rng, 5000, 6)
        info = fisher.estimate_information(scores, 1e-14)
        phi = np.array([fisher.feature_map(s, info) for s in scores])
        second_moment = phi.T @ phi / len(scores)
        assert np.linalg.norm(second_moment - np.eye(6)) < 1e-6


class TestExport:
    def test_round_trip(self, rng, tmp_path):
        # ids may hold commas, which the csv module quotes
        ids = [(f"s{i % 2}", f"i{i}" if i else "a,b") for i in range(6)]
        G = rng.standard_normal((6, 4))
        phi = fisher.feature_map(G, fisher.estimate_information(G, 1e-3))
        fisher.export_features_csv(ids, phi, tmp_path / "phi.csv")
        subjects, images, X = fisher.load_features_csv(tmp_path / "phi.csv")
        assert list(zip(subjects, images)) == ids
        np.testing.assert_array_equal(X, phi)

    def test_malformed_row_detected(self, tmp_path):
        (tmp_path / "phi.csv").write_text("subject_id,image_id,phi_1\ns0,i0,1.0\ns1,i1\n")
        with pytest.raises(ValueError, match="row 3"):
            fisher.load_features_csv(tmp_path / "phi.csv")
