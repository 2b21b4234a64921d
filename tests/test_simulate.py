"""Synthetic cohort generation and dataset persistence."""

import dataclasses
import json
import re

import numpy as np
import pytest

from gazeid import markov, simulate
from gazeid.core import BASE_CHANNELS, DYNAMICS_CHANNELS, SaccadeTable, Scanpath, extract_features
from gazeid.dataset import DatasetItem, GazeDataset, load_dataset, save_dataset
from gazeid.distributions import GammaParams
from gazeid.simulate import SyntheticCohortSpec, generate_cohort
from conftest import item_tables
from test_acceptance import random_markov_params
from test_markov import assert_arrays_bit_equal
from test_scenewalk import _UNPICKLED, _Unpicklable


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


    @pytest.mark.parametrize("family", ["markov", "scenewalk"])
    @pytest.mark.parametrize("key, value, kind", [
        ("grid_shape", [8], "positive ints"),
        ("grid_shape", [8.5, 8], "positive ints"),
        ("grid_shape", [8, 0], "positive ints"),
        ("grid_shape", [8, 8, 8], "positive ints"),
        ("grid_shape", [True, 8], "positive ints"),
        ("grid_shape", 8, "positive ints"),
        ("extent", [-4, 8], "finite positive numbers"),
        ("extent", [8.0, 0.0], "finite positive numbers"),
        ("extent", [float("inf"), 8.0], "finite positive numbers"),
        ("extent", [float("nan"), 8.0], "finite positive numbers"),
        ("extent", ["8", 8], "finite positive numbers"),
        ("extent", [8.0], "finite positive numbers"),
    ])
    def test_bad_grid_shape_or_extent_names_the_key(self, family, key, value, kind):
        doc = {"n_users": 2, "n_images": 2, "fixations_per_path": 5, "family": family, key: value}
        with pytest.raises(ValueError, match=re.escape(f"{key} must be two {kind}, got {value!r}")):
            SyntheticCohortSpec.from_json_dict(doc)

    def test_json_dict_lists_every_field_and_names_an_unknown_key(self):
        spec = SyntheticCohortSpec(
            n_users=2, n_images=3, fixations_per_path=7, family="scenewalk", jitter=0.25, seed=11,
            grid_shape=(16, 8), extent=(12.0, 6.5),
        )
        doc = spec.to_json_dict()
        assert json.dumps(doc) == (
            '{"n_users": 2, "n_images": 3, "fixations_per_path": 7, "family": "scenewalk", "jitter": 0.25,'
            ' "seed": 11, "grid_shape": [16, 8], "extent": [12.0, 6.5]}'
        )
        assert SyntheticCohortSpec.from_json_dict(doc) == spec
        with pytest.raises(ValueError, match=re.escape("unknown cohort spec keys: ['grid', 'users']")):
            SyntheticCohortSpec.from_json_dict({**doc, "users": 2, "grid": [8, 8]})

    def test_grid_shape_and_extent_lists_become_tuples(self):
        spec = SyntheticCohortSpec(n_users=1, n_images=1, fixations_per_path=3, grid_shape=[16, 8], extent=[8, 4.5])
        assert (spec.grid_shape, spec.extent) == ((16, 8), (8, 4.5))
        assert spec == SyntheticCohortSpec.from_json_dict(spec.to_json_dict())


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
        assert cohort.data.features is None
        for item in cohort.data.items:
            assert len(item.scanpath) == 5


def oracle_jitter_markov_params(base, jitter, rng):
    """The jitter drawn one cell at a time: pi, then per channel and per
    type the shape's and the scale's factor."""
    pi = base.pi * np.exp(jitter * rng.standard_normal(base.pi.size))
    channels = {
        ch: tuple(
            GammaParams(
                shape=cell.shape * float(np.exp(jitter * rng.standard_normal())),
                scale=cell.scale * float(np.exp(jitter * rng.standard_normal())),
            )
            for cell in cells
        )
        for ch, cells in base.channels.items()
    }
    return markov.MarkovModelParams(pi=pi / pi.sum(), channels=channels)


class TestJitter:
    @pytest.mark.parametrize("channels", [BASE_CHANNELS, DYNAMICS_CHANNELS])
    def test_equals_per_cell_draws_bit_for_bit(self, channels):
        bases = (markov.default_params(channels), random_markov_params(np.random.default_rng(71), channels))
        for base in bases:
            for seed in (0, 3, 4, 2024):
                for jitter in (0.0, 0.05, 0.3, 1.5):
                    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = simulate.jitter_markov_params(base, jitter, rng)
                    want = oracle_jitter_markov_params(base, jitter, oracle_rng)
                    assert_arrays_bit_equal(got, want)
                    assert got.channel_names == channels
                    # both consumed the same draws, so the paths drawn next are the same
                    assert rng.standard_normal() == oracle_rng.standard_normal()


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
        assert loaded == data
        assert loaded.items == data.items
        for a, b in zip(loaded.items, data.items):
            assert (a.subject_id, a.image_id) == (b.subject_id, b.image_id)
            np.testing.assert_array_equal(a.scanpath.positions, b.scanpath.positions)
        assert (loaded.features is None) == (family != "markov-dyn")
        if family == "markov-dyn":
            np.testing.assert_array_equal(loaded.features.types, data.features.types)
            vigor_x = DYNAMICS_CHANNELS.index("vigor_x")
            np.testing.assert_array_equal(loaded.features.values[vigor_x], data.features.values[vigor_x])
        if family == "scenewalk":
            for image_id, sal in data.saliency.items():
                np.testing.assert_array_equal(loaded.saliency[image_id].grid, sal.grid)
        if family == "markov":
            # the base model reads amplitudes and durations from the scanpaths
            assert not (tmp_path / "d" / "types.npy").exists() and not (tmp_path / "d" / "features.npy").exists()
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
            "img.0.json", "img.0.npy", "img.1.json", "img.1.npy"
        ]

    def test_dataset_with_an_old_csv_saliency_map_is_rejected(self, tmp_path):
        spec = SyntheticCohortSpec(
            n_users=1, n_images=2, fixations_per_path=4, family="scenewalk",
            jitter=0.3, seed=5, grid_shape=(8, 8), extent=(8.0, 8.0),
        )
        save_dataset(generate_cohort(spec).data, tmp_path / "d")
        npy = tmp_path / "d" / "saliency" / "img001.npy"
        grid = np.load(npy)
        npy.unlink()
        npy.with_suffix(".csv").write_text("".join(",".join(map(repr, row)) + "\r\n" for row in grid.tolist()))
        with pytest.raises(ValueError, match=r"img001\.csv: saliency maps are now stored as \.npy files"):
            load_dataset(tmp_path / "d")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("text, message", [
        ('{"has_features": false}', "expected an object with an items list"),
        ('{"items": {"subject_id": "s0", "image_id": "i0"}}', "expected an object with an items list"),
        ("[]", "expected an object with an items list"),
        ('{"items": [{"subject_id": "s0"}]}',
         "item 0 is not an object with string subject_id and image_id: {'subject_id': 's0'}"),
        ('{"items": [{"subject_id": "s0", "image_id": "i0"}, ["s0", "i1"]]}',
         "item 1 is not an object with string subject_id and image_id: ['s0', 'i1']"),
        ('{"items": [{"subject_id": "s0", "image_id": 3}]}',
         "item 0 is not an object with string subject_id and image_id: {'subject_id': 's0', 'image_id': 3}"),
        ('{"items": [', "JSONDecodeError: Expecting value"),
        ('{"items": [], "has_features": "false"}', "has_features must be true or false, got 'false'"),
        ('{"items": [], "has_features": 0}', "has_features must be true or false, got 0"),
        ('{"items": [], "saliency_images": "img000"}', "saliency_images must be a list of image ids, got 'img000'"),
        ('{"items": [], "saliency_images": ["img000", 1]}',
         "saliency_images must be a list of image ids, got ['img000', 1]"),
    ])
    def test_malformed_manifest_names_the_file(self, tmp_path, text, message):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'manifest.json'}: {message}")):
            load_dataset(tmp_path)

    def test_missing_feature_file_is_an_error(self, tmp_path):
        # The manifest says the dataset has features, so a dataset whose
        # feature file is gone must not load as one without features.
        data = generate_cohort(SyntheticCohortSpec(n_users=3, n_images=6, fixations_per_path=8, family="markov-dyn", seed=5)).data
        save_dataset(data, tmp_path / "d")
        missing = tmp_path / "d" / "features.npy"
        missing.unlink()
        with pytest.raises(FileNotFoundError, match=re.escape(str(missing))):
            load_dataset(tmp_path / "d")


COLUMNS = ("scanpaths.npy", "lengths.npy", "types.npy", "features.npy")


def saved_cohort(tmp_path, family="markov-dyn"):
    """A saved cohort of 6 items of 5 fixations: 30 scanpath rows and, for
    markov-dyn, 24 saccades."""
    spec = SyntheticCohortSpec(n_users=2, n_images=3, fixations_per_path=5, family=family, seed=5)
    save_dataset(generate_cohort(spec).data, tmp_path / "d")
    return tmp_path / "d"


class TestDatasetColumns:
    def test_columns_are_exact_npy_in_item_order(self, tmp_path):
        spec = SyntheticCohortSpec(n_users=2, n_images=3, fixations_per_path=5, family="markov-dyn", seed=5)
        data = generate_cohort(spec).data
        items, tables = data.items, item_tables(data)
        d = saved_cohort(tmp_path)
        headers = {}
        for name in COLUMNS:
            with open(d / name, "rb") as fh:
                assert np.lib.format.read_magic(fh) == (1, 0)
                headers[name] = np.lib.format.read_array_header_1_0(fh)
        assert headers == {
            "scanpaths.npy": ((30, 3), False, np.dtype("<f8")),
            "lengths.npy": ((6,), False, np.dtype("<i8")),
            "types.npy": ((24,), False, np.dtype("<i8")),
            "features.npy": ((24, 8), False, np.dtype("<f8")),
        }
        scan = np.concatenate([np.column_stack([it.scanpath.positions, it.scanpath.durations]) for it in items])
        assert np.load(d / "scanpaths.npy").tobytes() == scan.tobytes()
        assert np.load(d / "lengths.npy").tolist() == [5] * 6
        assert np.load(d / "types.npy").tolist() == [u for t in tables for u in t.types.tolist()]
        assert np.load(d / "features.npy").tobytes() == np.concatenate([t.values.T for t in tables]).tobytes()

    def test_eleven_feature_columns_are_rejected(self, tmp_path):
        # the layout before the columns became the Markov channels: three
        # more columns, at 2, 5 and 6, that no model read
        d = saved_cohort(tmp_path)
        np.save(d / "features.npy", np.insert(np.load(d / "features.npy"), [2, 4, 4], np.nan, axis=1))
        with pytest.raises(ValueError, match=re.escape(
            f"{d / 'features.npy'}: expected dtype float64 and shape (24, 8), got float64 and (24, 11)"
        )):
            load_dataset(d)

    def test_old_per_item_csv_layout_is_rejected(self, tmp_path):
        d = saved_cohort(tmp_path)
        for name in COLUMNS:
            (d / name).unlink()
        for kind, header in (("scanpaths", "fix_index,x_deg,y_deg,dur_ms"), ("features", "saccade_index,type")):
            (d / kind).mkdir()
            (d / kind / "user000__img000.csv").write_text(f"{header}\r\n")
        with pytest.raises(
            ValueError,
            match=re.escape(f"{d / 'scanpaths'}: the per-item CSV layout is gone")
            + r".*re-run `gazeid simulate` or `gazeid detect`",
        ):
            load_dataset(d)

    @pytest.mark.parametrize("name", COLUMNS)
    def test_object_array_is_rejected_without_unpickling(self, tmp_path, name):
        d = saved_cohort(tmp_path)
        np.save(d / name, np.array([_Unpicklable()], dtype=object), allow_pickle=True)
        with pytest.raises(ValueError, match=re.escape(f"{d / name}: Object arrays cannot be loaded")):
            load_dataset(d)
        assert _UNPICKLED == []

    @pytest.mark.parametrize("name", COLUMNS)
    @pytest.mark.parametrize("keep, message", [
        (lambda data: data[:-5], r"could only read \d+ elements"),
        (lambda data: data[:40], r"EOF: reading array header"),
        (lambda data: b"", r"EOF: reading magic string"),
    ], ids=["body", "header", "empty"])
    def test_truncated_file_names_the_file(self, tmp_path, name, keep, message):
        d = saved_cohort(tmp_path)
        (d / name).write_bytes(keep((d / name).read_bytes()))
        with pytest.raises(ValueError, match=re.escape(f"{d / name}: ") + ".*" + message):
            load_dataset(d)

    @pytest.mark.parametrize("name, array, message", [
        ("scanpaths.npy", np.ones((30, 3), np.float32), "expected dtype float64 and shape ('*', 3), got float32 and (30, 3)"),
        ("scanpaths.npy", np.ones(90), "expected dtype float64 and shape ('*', 3), got float64 and (90,)"),
        ("scanpaths.npy", np.ones((30, 4)), "expected dtype float64 and shape ('*', 3), got float64 and (30, 4)"),
        ("lengths.npy", np.full(6, 5.0), "expected dtype int64 and shape (6,), got float64 and (6,)"),
        ("lengths.npy", np.full((6, 1), 5), "expected dtype int64 and shape (6,), got int64 and (6, 1)"),
        ("types.npy", np.ones(24, np.int32), "expected dtype int64 and shape (24,), got int32 and (24,)"),
        ("features.npy", np.ones((24, 8), ">f8"), "expected dtype float64 and shape (24, 8), got >f8 and (24, 8)"),
        ("features.npy", np.ones((24, 8, 1)), "expected dtype float64 and shape (24, 8), got float64 and (24, 8, 1)"),
    ])
    def test_wrong_dtype_or_shape_names_the_file(self, tmp_path, name, array, message):
        d = saved_cohort(tmp_path)
        np.save(d / name, array)
        with pytest.raises(ValueError, match=re.escape(f"{d / name}: {message}")):
            load_dataset(d)

    @pytest.mark.parametrize("family, lengths, message", [
        ("markov", [5, 5, -1, 11, 5, 5], "lengths must be at least 0, got -1"),
        ("markov-dyn", [5, 5, -1, 11, 5, 5], "lengths must be at least 1, got -1"),
        ("markov-dyn", [5, 5, 0, 10, 5, 5], "lengths must be at least 1, got 0"),
        ("markov", [5, 5, 5, 5, 10], r"expected dtype int64 and shape \(6,\), got int64 and \(5,\)"),
        ("markov-dyn", [5, 5, 5, 5, 5, 6], r"lengths sum to 31, but .*scanpaths\.npy has 30 rows"),
    ])
    def test_bad_lengths_name_the_file(self, tmp_path, family, lengths, message):
        d = saved_cohort(tmp_path, family)
        np.save(d / "lengths.npy", np.array(lengths, dtype=np.int64))
        with pytest.raises(ValueError, match=re.escape(f"{d / 'lengths.npy'}: ") + message):
            load_dataset(d)

    @pytest.mark.parametrize("name, change, message", [
        ("types.npy", lambda a: a[:-1], "expected dtype int64 and shape (24,), got int64 and (23,)"),
        ("types.npy", lambda a: np.concatenate([a, a[:1]]), "expected dtype int64 and shape (24,), got int64 and (25,)"),
        ("features.npy", lambda a: a[:-1], "expected dtype float64 and shape (24, 8), got float64 and (23, 8)"),
        ("features.npy", lambda a: a[:, :7], "expected dtype float64 and shape (24, 8), got float64 and (24, 7)"),
    ])
    def test_feature_rows_that_do_not_fit_name_the_file(self, tmp_path, name, change, message):
        d = saved_cohort(tmp_path)
        np.save(d / name, change(np.load(d / name)))
        with pytest.raises(ValueError, match=re.escape(f"{d / name}: {message}")):
            load_dataset(d)

    @pytest.mark.parametrize("cell, value, message", [
        ((7, 0), np.nan, "scanpath entries must be finite"),
        ((7, 1), np.inf, "scanpath entries must be finite"),
        ((7, 2), 0.0, "all fixation durations must be positive"),
    ])
    def test_bad_scanpath_value_names_the_file_and_item(self, tmp_path, cell, value, message):
        d = saved_cohort(tmp_path)
        rows = np.load(d / "scanpaths.npy")
        rows[cell] = value
        np.save(d / "scanpaths.npy", rows)
        with pytest.raises(
            ValueError, match=re.escape(f"{d / 'scanpaths.npy'}: subject 'user000' image 'img001': {message}")
        ):
            load_dataset(d)

    def test_table_of_another_length_is_rejected(self):
        # an item of T fixations owns T - 1 saccades: 2 items of 4 own 6
        spec = SyntheticCohortSpec(n_users=1, n_images=2, fixations_per_path=4, family="markov-dyn", seed=5)
        data = generate_cohort(spec).data
        t = data.features
        longer = SaccadeTable(types=np.r_[t.types, 1], values=np.c_[t.values, t.values[:, :1]])
        for table, n in ((SaccadeTable(types=t.types[:-1], values=t.values[:, :-1]), 5), (longer, 7)):
            with pytest.raises(ValueError, match=re.escape(
                f"the feature table has {n} saccades, but the items have 6: an item of T >= 1 fixations owns T - 1"
            )):
                GazeDataset(items=data.items, features=table)
        # items of 4 and 0 fixations: their counts 3 and -1 sum to the table's 2, but an item needs a fixation
        empty = dataclasses.replace(data.items[1], scanpath=Scanpath(np.empty((0, 2)), np.empty(0)))
        with pytest.raises(ValueError, match=re.escape("the feature table has 2 saccades, but the items have 2: an item of T >= 1")):
            GazeDataset(items=(data.items[0], empty), features=SaccadeTable(t.types[:2], t.values[:, :2]))
