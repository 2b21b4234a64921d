"""Synthetic cohort generation and dataset persistence."""

import dataclasses
import json
import re

import numpy as np
import pytest

from gazeid import markov, simulate
from gazeid.core import CHANNEL_ROWS, extract_features
from gazeid.dataset import DatasetItem, GazeDataset, load_dataset, save_dataset
from gazeid.simulate import SyntheticCohortSpec, generate_cohort


class TestSpec:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            SyntheticCohortSpec.from_json_dict({"n_users": 2, "n_images": 2, "fixations_per_path": 5, "bogus": 1})

    def test_json_round_trip(self):
        spec = SyntheticCohortSpec(n_users=3, n_images=4, fixations_per_path=6, jitter=0.2, seed=9)
        again = SyntheticCohortSpec.from_json_dict(spec.to_json_dict())
        assert again == spec

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCohortSpec(n_users=0, n_images=2, fixations_per_path=5)
        with pytest.raises(ValueError):
            SyntheticCohortSpec(n_users=2, n_images=2, fixations_per_path=1)
        with pytest.raises(ValueError):
            SyntheticCohortSpec(n_users=2, n_images=2, fixations_per_path=5, jitter=-0.1)
        with pytest.raises(ValueError):
            SyntheticCohortSpec(n_users=2, n_images=2, fixations_per_path=5, family="bogus")


class TestGenerateCohort:
    def test_zero_jitter_shares_parameters(self):
        spec = SyntheticCohortSpec(n_users=4, n_images=2, fixations_per_path=8, jitter=0.0, seed=3)
        cohort = generate_cohort(spec)
        docs = [markov.params_to_json_dict(p) for p in cohort.user_params.values()]
        assert all(doc == docs[0] for doc in docs)

    def test_deterministic(self):
        spec = SyntheticCohortSpec(n_users=3, n_images=3, fixations_per_path=10, jitter=0.3, seed=11)
        a = generate_cohort(spec)
        b = generate_cohort(spec)
        for ia, ib in zip(a.data.items, b.data.items):
            np.testing.assert_array_equal(ia.scanpath.positions, ib.scanpath.positions)
            np.testing.assert_array_equal(ia.scanpath.durations, ib.scanpath.durations)

    def test_scanpaths_satisfy_invariants(self):
        spec = SyntheticCohortSpec(n_users=3, n_images=3, fixations_per_path=12, jitter=0.3, seed=1)
        cohort = generate_cohort(spec)
        assert len(cohort.data.items) == 9
        for item in cohort.data.items:
            assert len(item.scanpath) == 12
            assert np.all(item.scanpath.durations > 0)
            assert np.all(np.isfinite(item.scanpath.positions))
            feats = extract_features(item.scanpath)
            assert len(feats) == 11

    def test_refit_recovers_per_user_amplitude_ordering(self):
        # With a large jitter the per-user mean amplitudes differ; refitting
        # each user's own data must recover their ordering.
        spec = SyntheticCohortSpec(n_users=4, n_images=12, fixations_per_path=60, jitter=0.5, seed=7)
        cohort = generate_cohort(spec)

        def mean_amplitude(params):
            pi = params.pi / params.pi.sum()
            return float(
                sum(pi[u] * params.channels["amplitude"][u].mean for u in range(4))
            )

        true_means = {s: mean_amplitude(p) for s, p in cohort.user_params.items()}
        fit_means = {}
        for subject in cohort.data.subjects:
            feats = [extract_features(i.scanpath) for i in cohort.data.items if i.subject_id == subject]
            fit_means[subject] = mean_amplitude(markov.fit(feats, ("amplitude", "duration")))
        order_true = sorted(true_means, key=true_means.get)
        order_fit = sorted(fit_means, key=fit_means.get)
        assert order_true == order_fit

    def test_scenewalk_cohort_has_saliency(self):
        spec = SyntheticCohortSpec(
            n_users=2, n_images=3, fixations_per_path=5, family="scenewalk",
            jitter=0.2, seed=2, grid_shape=(24, 24), extent=(16.0, 16.0),
        )
        cohort = generate_cohort(spec)
        assert set(cohort.data.saliency) == {"img000", "img001", "img002"}
        for sal in cohort.data.saliency.values():
            assert abs(sal.grid.sum() - 1.0) < 1e-9
        for item in cohort.data.items:
            assert item.features is None
            assert len(item.scanpath) == 5


class TestDatasetRoundTrip:
    @pytest.mark.parametrize("family", ["markov-dyn", "scenewalk", "markov"])
    def test_save_load(self, tmp_path, family):
        spec = SyntheticCohortSpec(
            n_users=2, n_images=2, fixations_per_path=6, family=family,
            jitter=0.3, seed=5, grid_shape=(16, 16), extent=(16.0, 16.0),
        )
        data = generate_cohort(spec).data
        save_dataset(data, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert len(loaded.items) == len(data.items)
        for a, b in zip(loaded.items, data.items):
            assert (a.subject_id, a.image_id) == (b.subject_id, b.image_id)
            np.testing.assert_array_equal(a.scanpath.positions, b.scanpath.positions)
            if b.features is not None:
                np.testing.assert_array_equal(a.features.types, b.features.types)
                vigor_x = CHANNEL_ROWS["vigor_x"]
                np.testing.assert_array_equal(a.features.values[vigor_x], b.features.values[vigor_x])
        if family == "scenewalk":
            for image_id, sal in data.saliency.items():
                np.testing.assert_array_equal(loaded.saliency[image_id].grid, sal.grid)
        if family == "markov":
            # the base model reads amplitudes and durations from the scanpaths
            assert not (tmp_path / "d" / "features").exists()
            assert json.loads((tmp_path / "d" / "manifest.json").read_text())["has_features"] is False

    @pytest.mark.parametrize(
        "ids",
        [
            [("a__b", "c"), ("a", "b__c")],
            [("a_", "b"), ("a", "_b")],
            [("s0", "../x")],
            [("s0", "")],
        ],
    )
    def test_ids_that_collide_or_escape_are_rejected(self, tmp_path, ids):
        spec = SyntheticCohortSpec(
            n_users=1, n_images=1, fixations_per_path=4, family="scenewalk",
            jitter=0.3, seed=5, grid_shape=(8, 8), extent=(8.0, 8.0),
        )
        cohort = generate_cohort(spec).data
        path, saliency = cohort.items[0].scanpath, next(iter(cohort.saliency.values()))
        items = tuple(DatasetItem(subject, image, path) for subject, image in ids)
        with pytest.raises(ValueError, match="cannot name a dataset file"):
            save_dataset(GazeDataset(items=items), tmp_path / "d")
        # the same ids as saliency keys, and in a manifest written by hand
        with pytest.raises(ValueError, match="cannot name a dataset file"):
            save_dataset(
                GazeDataset(items=cohort.items, saliency={image: saliency for _, image in ids}),
                tmp_path / "sal",
            )
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "manifest.json").write_text(json.dumps({
            "items": [{"subject_id": s, "image_id": i} for s, i in ids],
            "has_features": False, "saliency_images": [],
        }))
        with pytest.raises(ValueError, match="cannot name a dataset file"):
            load_dataset(tmp_path / "m")

    def test_repeated_item_is_rejected(self, tmp_path):
        data = generate_cohort(SyntheticCohortSpec(n_users=1, n_images=2, fixations_per_path=4, seed=5)).data
        first, second = data.items
        repeated = dataclasses.replace(second, image_id=first.image_id)
        with pytest.raises(ValueError, match="subject 'user000' image 'img000' appears twice"):
            save_dataset(GazeDataset(items=(first, repeated)), tmp_path / "d")
        assert not (tmp_path / "d").exists()
        save_dataset(data, tmp_path / "m")
        manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
        manifest["items"].append(manifest["items"][0])
        (tmp_path / "m" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="subject 'user000' image 'img000' appears twice"):
            load_dataset(tmp_path / "m")

    def test_image_ids_with_a_dot_keep_their_own_saliency(self, tmp_path):
        spec = SyntheticCohortSpec(
            n_users=1, n_images=2, fixations_per_path=4, family="scenewalk",
            jitter=0.3, seed=5, grid_shape=(8, 8), extent=(8.0, 8.0),
        )
        data = generate_cohort(spec).data
        names = {image: f"img.{i}" for i, image in enumerate(data.saliency)}
        dotted = GazeDataset(
            items=tuple(dataclasses.replace(it, image_id=names[it.image_id]) for it in data.items),
            saliency={names[image]: sal for image, sal in data.saliency.items()},
        )
        save_dataset(dotted, tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert sorted(loaded.saliency) == ["img.0", "img.1"]
        for image, sal in dotted.saliency.items():
            np.testing.assert_array_equal(loaded.saliency[image].grid, sal.grid)
        assert sorted(p.name for p in (tmp_path / "d" / "saliency").iterdir()) == [
            "img.0.csv", "img.0.json", "img.1.csv", "img.1.json"
        ]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    def test_missing_feature_file_is_an_error(self, tmp_path):
        # The manifest says the dataset has features, so an item whose file
        # is gone must not load as one without features.
        data = generate_cohort(SyntheticCohortSpec(n_users=3, n_images=6, fixations_per_path=8, family="markov-dyn", seed=5)).data
        save_dataset(data, tmp_path / "d")
        missing = tmp_path / "d" / "features" / "user001__img002.csv"
        missing.unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            load_dataset(tmp_path / "d")

    def test_features_on_only_some_items_are_rejected(self, tmp_path):
        spec = SyntheticCohortSpec(n_users=1, n_images=2, fixations_per_path=4, family="markov-dyn", seed=5)
        data = generate_cohort(spec).data
        first, second = data.items
        with pytest.raises(ValueError, match="subject 'user000' image 'img001' has no features while other items do"):
            save_dataset(GazeDataset(items=(first, dataclasses.replace(second, features=None))), tmp_path / "d")
        assert not (tmp_path / "d").exists()
