"""Command-line interface: pipelines, determinism, error reporting."""

import argparse
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from gazeid import classify, cli, fisher, markov, scenewalk, simulate
from gazeid.cli import main
from gazeid.core import GazeRecording, detect_saccades, load_recording_csv, save_recording_csv
from gazeid.dataset import GazeDataset, load_dataset, save_dataset
from test_classify import overlapping_classes


# the JSON of a base Markov model that reads back as it was written
MARKOV_DOC = {"model": "markov", **markov.params_to_json_dict(markov.default_params())}


def write_spec(path, **overrides):
    spec = {
        "n_users": 4,
        "n_images": 6,
        "fixations_per_path": 12,
        "family": "markov",
        "jitter": 0.4,
        "seed": 5,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return spec


def tree_bytes(root):
    """Map of relative path -> file bytes for a directory tree."""
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestSimulateEval:
    def test_end_to_end_results(self, tmp_path, capsys):
        write_spec(tmp_path / "spec.json")
        assert main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == 0
        assert main([
            "eval", "--data", str(tmp_path / "data"), "--family", "fisher-svm-markov",
            "--out", str(tmp_path / "res"), "--splits", "2", "--max-k", "3", "--threads", "1",
        ]) == 0
        doc = json.loads((tmp_path / "res" / "results.json").read_text())
        assert doc["model_family"] == "fisher-svm-markov"
        assert [row["k"] for row in doc["curve"]] == [1, 2, 3]
        assert all(0.0 <= row["mean_acc"] <= 1.0 for row in doc["curve"])
        assert doc["provenance"]["seed"] is None or isinstance(doc["provenance"]["seed"], int)
        assert "config_hash" in doc["provenance"]

    def test_provenance_records_the_seed_drawn_from(self, tmp_path):
        write_spec(tmp_path / "spec.json", seed=7)
        assert main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == 0
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        assert manifest["meta"]["provenance"]["seed"] == 7
        assert main([
            "eval", "--data", str(tmp_path / "data"), "--family", "bayes-markov",
            "--out", str(tmp_path / "res"), "--splits", "2", "--threads", "1",
        ]) == 0
        doc = json.loads((tmp_path / "res" / "results.json").read_text())
        assert doc["provenance"]["seed"] == classify.EvalProtocol().seed

    def test_eval_matches_in_process_run(self, tmp_path):
        write_spec(tmp_path / "spec.json")
        main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")])
        main([
            "eval", "--data", str(tmp_path / "data"), "--family", "bayes-markov",
            "--out", str(tmp_path / "res"), "--splits", "2", "--seed", "3", "--threads", "1",
        ])
        doc = json.loads((tmp_path / "res" / "results.json").read_text())

        cohort = simulate.generate_cohort(simulate.SyntheticCohortSpec(
            n_users=4, n_images=6, fixations_per_path=12, family="markov", jitter=0.4, seed=5))
        protocol = classify.EvalProtocol(n_splits=2, seed=3)
        result = classify.run_protocol(cohort.data, "bayes-markov", protocol)
        expected = result.to_json_dict()
        assert doc["curve"] == expected["curve"]
        assert doc["per_split"] == expected["per_split"]

    def test_byte_identical_reruns_and_thread_independence(self, tmp_path):
        import shutil

        write_spec(tmp_path / "spec.json")
        sim_cmd = ["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]
        eval_cmd = [
            "eval", "--data", str(tmp_path / "data"), "--family", "bayes-markov",
            "--out", str(tmp_path / "res"), "--splits", "2", "--seed", "1", "--threads", "1",
        ]
        main(sim_cmd)
        main(eval_cmd)
        first = (tree_bytes(tmp_path / "data"), tree_bytes(tmp_path / "res"))
        shutil.rmtree(tmp_path / "data")
        shutil.rmtree(tmp_path / "res")
        main(sim_cmd)
        main(eval_cmd)
        second = (tree_bytes(tmp_path / "data"), tree_bytes(tmp_path / "res"))
        # identical invocation -> byte-identical artifacts, provenance included
        assert first == second

        # a different thread count is echoed in provenance but must not
        # change the scientific outputs
        main([
            "eval", "--data", str(tmp_path / "data"), "--family", "bayes-markov",
            "--out", str(tmp_path / "res3"), "--splits", "2", "--seed", "1", "--threads", "3",
        ])
        r3 = tree_bytes(tmp_path / "res3")
        assert r3["results.csv"] == first[1]["results.csv"]
        j1, j3 = json.loads(first[1]["results.json"]), json.loads(r3["results.json"])
        assert j1["curve"] == j3["curve"] and j1["per_split"] == j3["per_split"]


class TestFitScoresTrainIdentify:
    def make_data(self, tmp_path):
        write_spec(tmp_path / "spec.json", n_users=3, n_images=5, jitter=0.5)
        main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")])
        return str(tmp_path / "data")

    def test_full_pipeline(self, tmp_path):
        data = self.make_data(tmp_path)
        assert main(["fit", "--data", data, "--model", "markov", "--out", str(tmp_path / "m.json")]) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["model"] == "markov" and len(doc["pi"]) == 4

        assert main([
            "scores", "--data", data, "--model-json", str(tmp_path / "m.json"),
            "--out", str(tmp_path / "phi.csv"),
        ]) == 0
        assert main([
            "train", "--features", str(tmp_path / "phi.csv"), "--out", str(tmp_path / "clf.json"),
            "--C", "1.0",
        ]) == 0
        assert main([
            "identify", "--features", str(tmp_path / "phi.csv"),
            "--classifier", str(tmp_path / "clf.json"), "--out", str(tmp_path / "pred.csv"),
        ]) == 0
        rows = (tmp_path / "pred.csv").read_text().strip().splitlines()
        assert rows[0] == "subject_id,group_first_image,predicted,correct"
        assert len(rows) == 16  # 3 users x 5 images + header

    def test_classifier_json_carries_solver_report(self, tmp_path):
        data = self.make_data(tmp_path)
        main(["fit", "--data", data, "--model", "markov", "--out", str(tmp_path / "m.json")])
        main(["scores", "--data", data, "--model-json", str(tmp_path / "m.json"), "--out", str(tmp_path / "phi.csv")])
        assert main(["train", "--features", str(tmp_path / "phi.csv"), "--out", str(tmp_path / "clf.json")]) == 0
        solver = json.loads((tmp_path / "clf.json").read_text())["solver"]
        assert set(solver) == {"iterations", "primal", "duality_gap", "converged"}
        assert solver["converged"] is True and solver["iterations"] > 0
        assert solver["primal"] > solver["duality_gap"] >= 0.0

    def test_solver_report_shows_a_gap_near_the_primal(self, tmp_path):
        # 30 x 4 Gaussian features times 1e6 at C = 100: the weights carry a
        # rounding error that the stop rule counts as unresolvable, so the
        # solve ends converged with a duality gap of the size of the primal.
        # The primal in the report shows the gap for what it is: the 1e3-
        # scaled data's primal, which bounds the optimum from above, is more
        # than 15% below it.
        X = np.random.default_rng(12345).standard_normal((30, 4))
        subjects = [f"s{i % 3}" for i in range(30)]
        rows = "".join(f"{s},img{i},{','.join(repr(float(v)) for v in x * 1e6)}\n" for i, (s, x) in enumerate(zip(subjects, X)))
        (tmp_path / "phi.csv").write_text("subject_id,image_id,phi_1,phi_2,phi_3,phi_4\n" + rows)
        assert main(["train", "--features", str(tmp_path / "phi.csv"), "--out", str(tmp_path / "clf.json"), "--C", "100"]) == 0
        solver = json.loads((tmp_path / "clf.json").read_text())["solver"]
        assert solver["converged"] is True
        assert solver["primal"] == classify.train(X * 1e6, subjects, C=100.0).report.primal
        assert 0.25 * solver["primal"] < solver["duality_gap"] < solver["primal"]
        assert classify.train(X * 1e3, subjects, C=100.0).report.primal < 0.85 * solver["primal"]

    def test_train_warns_when_the_solve_stops_short(self, tmp_path, capsys):
        # C = 1e6 on the overlapping classes stops at the step cap.
        X, subjects = overlapping_classes()
        rows = "".join(f"{s},img{i},{','.join(repr(float(v)) for v in x)}\n" for i, (s, x) in enumerate(zip(subjects, X)))
        (tmp_path / "phi.csv").write_text("subject_id,image_id,phi_1,phi_2,phi_3,phi_4\n" + rows)
        assert main(["train", "--features", str(tmp_path / "phi.csv"), "--out", str(tmp_path / "clf.json"), "--C", "1e6"]) == 0
        solver = json.loads((tmp_path / "clf.json").read_text())["solver"]
        assert solver["converged"] is False
        err = capsys.readouterr().err
        assert err == (
            f"warning: svm train at C=1e+06 stopped after {solver['iterations']} iterations without "
            f"converging (duality gap {solver['duality_gap']:.1e})\n"
        )

    def write_overlapping_features(self, path):
        X, subjects = overlapping_classes()
        rows = "".join(f"{s},img{i},{','.join(repr(float(v)) for v in x)}\n" for i, (s, x) in enumerate(zip(subjects, X)))
        path.write_text("subject_id,image_id,phi_1,phi_2,phi_3,phi_4\n" + rows)

    @pytest.mark.parametrize("C", ["-1", "0", "nan", "inf"])
    def test_train_rejects_C_that_is_not_finite_and_positive(self, tmp_path, capsys, C):
        self.write_overlapping_features(tmp_path / "phi.csv")
        assert main(["train", "--features", str(tmp_path / "phi.csv"), "--out", str(tmp_path / "clf.json"), "--C", C]) == 2
        assert f"C must be finite and positive, got {float(C)}" in capsys.readouterr().err
        assert not (tmp_path / "clf.json").exists()

    @pytest.mark.parametrize("k", [0, -1])
    def test_identify_rejects_group_k_below_one(self, tmp_path, capsys, k):
        self.write_overlapping_features(tmp_path / "phi.csv")
        assert main(["train", "--features", str(tmp_path / "phi.csv"), "--out", str(tmp_path / "clf.json")]) == 0
        assert main([
            "identify", "--features", str(tmp_path / "phi.csv"), "--classifier", str(tmp_path / "clf.json"),
            "--out", str(tmp_path / "pred.csv"), "--group-k", str(k),
        ]) == 2
        assert f"group_k must be at least 1, got {k}" in capsys.readouterr().err
        assert not (tmp_path / "pred.csv").exists()

    def test_scores_info_in_reproduces_features(self, tmp_path):
        data = self.make_data(tmp_path)
        main(["fit", "--data", data, "--model", "markov", "--out", str(tmp_path / "m.json")])
        scores = ["scores", "--data", data, "--model-json", str(tmp_path / "m.json"), "--normalize"]
        assert main(scores + ["--out", str(tmp_path / "phi.csv")]) == 0
        assert main(scores + [
            "--out", str(tmp_path / "again.csv"), "--info-in", str(tmp_path / "phi.info.json"),
        ]) == 0
        assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "phi.csv").read_bytes()

    def test_scores_config_normalize_equals_the_flag(self, tmp_path):
        # --normalize has no ``type``: its JSON bool is taken as it is
        data = self.make_data(tmp_path)
        main(["fit", "--data", data, "--model", "markov", "--out", str(tmp_path / "m.json")])
        (tmp_path / "cfg.json").write_text(json.dumps({"normalize": True}))
        scores = ["scores", "--data", data, "--model-json", str(tmp_path / "m.json")]
        assert main(scores + ["--normalize", "--out", str(tmp_path / "flag.csv")]) == 0
        assert main(scores + ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "cfg.csv")]) == 0
        assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()
        assert json.loads((tmp_path / "cfg.info.json").read_text())["normalize"] is True
        args = cli.build_parser().parse_args(["scores", "--config", str(tmp_path / "cfg.json")])
        assert cli._effective_config(args)["normalize"] is True

    def test_identify_rejects_classifier_of_other_width(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        main(["fit", "--data", data, "--model", "markov", "--out", str(tmp_path / "m.json")])
        main(["scores", "--data", data, "--model-json", str(tmp_path / "m.json"),
              "--out", str(tmp_path / "phi.csv")])
        width = len((tmp_path / "phi.csv").read_text().splitlines()[0].split(",")) - 2
        (tmp_path / "clf.json").write_text(json.dumps(
            {"classes": ["a", "b"], "weights": [[0.0] * (width + 2)] * 2, "C": 1.0}
        ))
        code = main([
            "identify", "--features", str(tmp_path / "phi.csv"),
            "--classifier", str(tmp_path / "clf.json"), "--out", str(tmp_path / "pred.csv"),
        ])
        assert code != 0
        assert f"feature dimension {width} does not match model ({width + 1})" in capsys.readouterr().err

    def test_fit_empty_dir_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["fit", "--data", str(empty), "--model", "markov", "--out", str(tmp_path / "m.json")])
        captured = capsys.readouterr()
        assert code != 0
        assert "no scanpaths found" in captured.err
        assert "\n" not in captured.err.strip()  # single-line error

    def test_config_file_with_flag_override(self, tmp_path):
        data = self.make_data(tmp_path)
        config = {"data": data, "model": "markov", "out": str(tmp_path / "from_config.json")}
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        out_flag = str(tmp_path / "from_flag.json")
        assert main(["fit", "--config", str(tmp_path / "cfg.json"), "--data", data, "--out", out_flag]) == 0
        assert (tmp_path / "from_flag.json").exists()
        assert not (tmp_path / "from_config.json").exists()

    def test_unknown_config_keys_rejected(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"data": data, "bogus_key": 1}))
        code = main(["fit", "--config", str(tmp_path / "cfg.json"), "--model", "markov", "--out", str(tmp_path / "m.json")])
        assert code != 0
        assert "bogus_key" in capsys.readouterr().err


# Each subcommand's config keys: its flags' dests, in the order provenance
# records them.
CONFIG_KEYS = {
    "detect": ["raw", "out", "multiplier", "min_dur"],
    "fit": ["data", "model", "out", "rho", "max_iter"],
    "scores": ["data", "model_json", "out", "eps_reg", "normalize", "info_in", "info_out"],
    "train": ["features", "out", "C"],
    "identify": ["features", "classifier", "out", "group_k"],
    "simulate": ["spec", "out"],
    "eval": ["data", "family", "out", "seed", "threads", "splits", "cv_folds", "train_fraction", "max_k",
             "scenewalk_rho", "scenewalk_max_iter"],
}


@pytest.mark.parametrize("command, deleted", [
    ("detect", "seed"), ("fit", "seed"), ("scores", "seed"), ("train", "seed"), ("identify", "seed"),
    ("simulate", "grid"), ("eval", "model"),
])
def test_config_keys_are_the_flags_dests(tmp_path, command, deleted):
    keys = CONFIG_KEYS[command]
    parser = cli.build_parser()
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.dest for a in subparsers.choices[command]._actions if a.dest not in ("help", "config")] == keys
    cfg = tmp_path / "cfg.json"
    # a distinct value per key, of its flag's type: ``--normalize`` stores True
    values = {key: True if key == "normalize" else i for i, key in enumerate(keys)}
    cfg.write_text(json.dumps(values))
    args = parser.parse_args([command, "--config", str(cfg)])
    assert list(cli._effective_config(args).items()) == list(values.items())
    cfg.write_text(json.dumps({deleted: 0}))
    with pytest.raises(ValueError, match=re.escape(f"unknown config keys: ['{deleted}']")):
        cli._effective_config(args)


@pytest.mark.parametrize("key, value, expected", [
    ("splits", "2", "int"), ("splits", 2.0, "int"), ("splits", True, "int"),
    ("train_fraction", "0.5", "float"), ("scenewalk_max_iter", [10], "int"),
    ("normalize", "false", "bool"), ("normalize", 0, "bool"),
])
def test_config_values_must_be_of_their_flags_type(tmp_path, capsys, key, value, expected):
    cfg = tmp_path / "cfg.json"
    if key == "normalize":  # a flag of ``scores`` that stores True
        cfg.write_text(json.dumps({"data": str(tmp_path), "model_json": str(tmp_path / "m.json"), key: value}))
        assert main(["scores", "--config", str(cfg), "--out", str(tmp_path / "phi.csv")]) == 2
    else:
        cfg.write_text(json.dumps({"data": str(tmp_path), "family": "bayes-markov", "out": str(tmp_path / "res"), key: value}))
        assert main(["eval", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: ValueError: config key {key!r} must be {expected}, got {value!r}\n"
    # a JSON int stands for a float, and reaches the config unchanged
    cfg.write_text(json.dumps({"train_fraction": 1, "scenewalk_rho": 2}))
    config = cli._effective_config(cli.build_parser().parse_args(["eval", "--config", str(cfg)]))
    assert [(config[k], type(config[k])) for k in ("train_fraction", "scenewalk_rho")] == [(1, int), (2, int)]
    cfg.write_text(json.dumps({"normalize": False}))
    assert cli._effective_config(cli.build_parser().parse_args(["scores", "--config", str(cfg)]))["normalize"] is False


TINY_COHORTS = {
    "markov": {"family": "markov"},
    "markov-dyn": {"family": "markov-dyn"},
    "scenewalk": {"family": "scenewalk", "grid_shape": [8, 8], "extent": [8.0, 8.0]},
}


def simulate_tiny(tmp_path, model):
    """A 2-viewer x 3-image cohort of 5-fixation paths of the model's family."""
    write_spec(tmp_path / "spec.json", n_users=2, n_images=3, fixations_per_path=5, **TINY_COHORTS[model])
    assert main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "data"


class TestOneCodePath:
    """``fit`` and ``scores`` run the evaluation's model operations."""

    @pytest.mark.parametrize("model", ["markov", "markov-dyn", "scenewalk"])
    def test_fit_and_scores_equal_the_family_ops(self, tmp_path, model):
        data_dir = simulate_tiny(tmp_path, model)
        fit = ["fit", "--data", str(data_dir), "--model", model, "--out", str(tmp_path / "m.json"), "--max-iter", "50"]
        assert main(fit) == 0
        assert main(["scores", "--data", str(data_dir), "--model-json", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "phi.csv")]) == 0

        data = load_dataset(data_dir)
        protocol = classify.EvalProtocol(scenewalk_max_iter=50)
        with classify._FamilyOps(data, model, protocol, threads=1) as ops:
            [(params, result)] = ops.fit([range(len(data.items))])
            G = ops.grads(range(len(data.items)), params)
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["model"] == model
        if model == "scenewalk":
            assert doc["params"] == dict(zip(scenewalk.PARAM_NAMES, params.to_vector().tolist()))
            assert doc["iterations"] == result.iterations and doc["converged"] == result.converged
        else:
            np.testing.assert_array_equal(
                markov.params_to_vector(markov.params_from_json_dict(doc)), markov.params_to_vector(params)
            )
        subjects, images, X = fisher.load_features_csv(tmp_path / "phi.csv")
        assert list(zip(subjects, images)) == [(it.subject_id, it.image_id) for it in data.items]
        np.testing.assert_array_equal(X, fisher.feature_map(G, fisher.estimate_information(G)))

    def test_fit_warns_when_the_scenewalk_fit_stops_short(self, tmp_path, capsys):
        data_dir = simulate_tiny(tmp_path, "scenewalk")
        capsys.readouterr()
        fit = ["fit", "--data", str(data_dir), "--model", "scenewalk", "--out", str(tmp_path / "m.json"), "--max-iter", "3"]
        assert main(fit) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        assert doc["converged"] is False
        assert capsys.readouterr().err == (
            f"warning: scenewalk fit stopped after {doc['iterations']} iterations without "
            f"converging (grad_norm {doc['grad_norm']:.1e})\n"
        )

    def test_scores_rejects_a_model_whose_channels_are_not_its_kind(self, tmp_path, capsys):
        data_dir = simulate_tiny(tmp_path, "markov-dyn")
        assert main(["fit", "--data", str(data_dir), "--model", "markov-dyn", "--out", str(tmp_path / "m.json")]) == 0
        doc = json.loads((tmp_path / "m.json").read_text())
        (tmp_path / "m.json").write_text(json.dumps({**doc, "model": "markov"}))
        assert main(["scores", "--data", str(data_dir), "--model-json", str(tmp_path / "m.json"),
                     "--out", str(tmp_path / "phi.csv")]) == 2
        assert "a markov model cannot have the channels ['amplitude', 'duration', 'velocity'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--family", "fisher-svm-scenewalk", "--scenewalk-max-iter", "-3"], "scenewalk_max_iter must be at least 1, got -3"),
        (["eval", "--family", "bayes-scenewalk", "--scenewalk-max-iter", "0"], "scenewalk_max_iter must be at least 1, got 0"),
        (["eval", "--family", "bayes-scenewalk", "--scenewalk-rho", "nan"], "scenewalk_rho must be finite and non-negative, got nan"),
        (["eval", "--family", "bayes-markov", "--scenewalk-rho", "-1"], "scenewalk_rho must be finite and non-negative, got -1.0"),
        (["fit", "--model", "scenewalk", "--max-iter", "-2"], "scenewalk_max_iter must be at least 1, got -2"),
        (["fit", "--model", "markov", "--rho", "inf"], "scenewalk_rho must be finite and non-negative, got inf"),
    ])
    def test_scenewalk_fit_options_that_do_nothing_or_mislead_rejected(self, tmp_path, capsys, argv, message):
        data_dir = simulate_tiny(tmp_path, "scenewalk")
        capsys.readouterr()
        assert main([*argv, "--data", str(data_dir), "--out", str(tmp_path / "out")]) == 2
        assert f"error: ValueError: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, doc, message", [
        ("--model-json", {**MARKOV_DOC, "pi": [3, 1, 1, 1]}, "ValueError: pi must sum to 1 within 1e-12, got sum 6.0"),
        ("--model-json", {**MARKOV_DOC, "pi": [True, 1e-9, 1e-9, 1e-9]}, "ValueError: pi values must be numbers, got True"),
        ("--model-json", {**MARKOV_DOC, "channels": {**MARKOV_DOC["channels"], "duration": [{"alpha": True, "beta": 30.0}] * 4}},
         "ValueError: alpha values must be numbers, got True"),
        ("--model-json", {**MARKOV_DOC, "channels": {**MARKOV_DOC["channels"], "amplitude": [{"alpha": 2.0, "beta": False}] * 4}},
         "ValueError: beta values must be numbers, got False"),
        *(("--info-in", {"matrix": [[1.0]], "eps_reg": 1e-6, "n_scores": n}, f"ValueError: n_scores must be an int of at least 1, got {n!r}")
          for n in ("abc", 0, -3, True, 2.5)),
        ("--model-json", {"model": "markov"}, "KeyError: 'channels'"),
        ("--model-json", {"model": "scenewalk", "params": {"zeta": 0.5}}, "KeyError: 'c_f'"),
        ("--model-json", [1, 2], "AttributeError: 'list' object has no attribute 'get'"),
        ("--model-json", {"model": "markov", "pi": [0.25] * 4, "channels": {"amplitude": [{"alpha": 2.0, "beta": 1.0}] * 4}},
         "ValueError: channels must be ['amplitude', 'duration'] or ['amplitude', 'duration', 'velocity',"),
        ("--model-json", {"model": "bogus"}, "ValueError: unknown or missing model kind 'bogus'"),
        ("--info-in", {"eps_reg": 1e-6}, "KeyError: 'matrix'"),
        ("--info-in", {"matrix": [[1.0]], "eps_reg": 1e-6}, "KeyError: 'n_scores'"),
        ("--model-json", {"model": "scenewalk", "params": {
            "zeta": 0.1, "c_f": math.inf, "lam": 1.0, "gamma": 1.0, "omega_a": 1.0, "omega_f": 0.5, "sigma_a": 2.5,
            "sigma_f": 1.5}}, "ValueError: c_f must be non-negative and finite, got inf"),
        ("--info-in", {"matrix": [[1.0, math.nan], [0.0, 1.0]], "eps_reg": 1e-6, "n_scores": 2},
         "ValueError: information matrix entries must be finite, got nan at [0, 1]"),
        ("--info-in", {"matrix": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "eps_reg": 1e-6, "n_scores": 2},
         "ValueError: information matrix must be square, got shape (2, 3)"),
        ("--info-in", {"matrix": [[1.0, 0.5], [0.0, 1.0]], "eps_reg": 1e-6, "n_scores": 2},
         "ValueError: information matrix must be symmetric, got 0.5 at [0, 1] and 0.0 at [1, 0]"),
        ("--info-in", {"matrix": [[1.0, 0.0], [0.0, 1.0]], "eps_reg": math.inf, "n_scores": 2},
         "ValueError: eps_reg must be positive and finite, got inf"),
    ])
    def test_scores_names_a_malformed_json_input(self, tmp_path, capsys, option, doc, message):
        data_dir = simulate_tiny(tmp_path, "markov")
        assert main(["fit", "--data", str(data_dir), "--model", "markov", "--out", str(tmp_path / "m.json")]) == 0
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        inputs = {"--model-json": str(tmp_path / "m.json"), option: str(tmp_path / "bad.json")}
        capsys.readouterr()
        assert main(["scores", "--data", str(data_dir), *(x for kv in inputs.items() for x in kv),
                     "--out", str(tmp_path / "phi.csv")]) == 2
        assert f"error: ValueError: {tmp_path / 'bad.json'}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "phi.csv").exists()

    def test_scores_names_both_files_when_the_information_has_another_dim(self, tmp_path, capsys):
        data_dir = simulate_tiny(tmp_path, "markov")
        model, info, out = tmp_path / "m.json", tmp_path / "info.json", tmp_path / "phi.csv"
        assert main(["fit", "--data", str(data_dir), "--model", "markov", "--out", str(model)]) == 0
        info.write_text(json.dumps({"matrix": [[1.0, 0.0], [0.0, 1.0]], "eps_reg": 1e-6, "n_scores": 2}))
        capsys.readouterr()
        assert main(["scores", "--data", str(data_dir), "--model-json", str(model), "--info-in", str(info),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: ValueError: {info}: information dim 2 does not match the 20 scores per item"
            f" of the model in {model}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ({"classes": ["a"], "C": 1.0}, "KeyError: 'weights'"),
        ({"classes": ["a"], "weights": [[0.0, 0.0]]}, "KeyError: 'C'"),
        ({"classes": ["a", "b"], "weights": [[0.0, 0.0]], "C": 1.0}, "ValueError: weights must have one row per class"),
        ("weights", "TypeError: string indices must be integers"),
    ])
    def test_identify_names_a_malformed_classifier(self, tmp_path, capsys, doc, message):
        (tmp_path / "phi.csv").write_text("subject_id,image_id,phi_1\ns0,i0,0.5\n")
        (tmp_path / "clf.json").write_text(json.dumps(doc))
        assert main(["identify", "--features", str(tmp_path / "phi.csv"), "--classifier", str(tmp_path / "clf.json"),
                     "--out", str(tmp_path / "pred.csv")]) == 2
        assert f"error: ValueError: {tmp_path / 'clf.json'}: {message}" in capsys.readouterr().err

    def test_simulate_names_a_bad_grid_shape(self, tmp_path, capsys):
        write_spec(tmp_path / "spec.json", family="scenewalk", grid_shape=[8])
        assert main(["simulate", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "data")]) == 2
        assert "error: ValueError: grid_shape must be two positive ints, got [8]" in capsys.readouterr().err
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("model", ["markov", "scenewalk"])
    def test_an_item_of_one_fixation_is_named(self, tmp_path, capsys, model):
        data = load_dataset(simulate_tiny(tmp_path, model))
        first = data.items[1]
        short = dataclasses.replace(first.scanpath, positions=first.scanpath.positions[:1],
                                    durations=first.scanpath.durations[:1])
        items = (data.items[0], dataclasses.replace(first, scanpath=short), *data.items[2:])
        save_dataset(GazeDataset(items, data.saliency, data.meta), tmp_path / "cut")
        for family in (f"bayes-{model}", f"fisher-svm-{model}"):
            argv = ["eval", "--data", str(tmp_path / "cut"), "--family", family, "--out", str(tmp_path / "res"),
                    "--threads", "1"]
            assert main(argv) == 2
            assert (f"error: ValueError: scanpath must contain at least 2 fixations; subject "
                    f"{first.subject_id!r} image {first.image_id!r} has 1") in capsys.readouterr().err

    def test_dynamics_without_feature_files_is_named(self, tmp_path, capsys):
        data = load_dataset(simulate_tiny(tmp_path, "markov-dyn"))
        save_dataset(dataclasses.replace(data, features=None), tmp_path / "stripped")
        stripped = str(tmp_path / "stripped")
        for argv in (
            ["eval", "--data", stripped, "--family", "bayes-markov-dyn", "--out", str(tmp_path / "res"), "--threads", "1"],
            ["eval", "--data", stripped, "--family", "fisher-svm-markov-dyn", "--out", str(tmp_path / "res")],
            ["fit", "--data", stripped, "--model", "markov-dyn", "--out", str(tmp_path / "m.json")],
        ):
            assert main(argv) == 2
            assert "dynamics channels unavailable: dataset carries no per-saccade feature files" in capsys.readouterr().err


class TestAtomicWrites:
    def test_a_raising_writer_leaves_no_dot_file(self, tmp_path):
        def write(tmp):
            with open(tmp, "w") as fh:
                fh.write("partial")
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            cli._atomic_write(tmp_path / "out" / "x.csv", write)
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["eval", "scores"])
    def test_failed_csv_writes_leave_no_dot_file(self, tmp_path, monkeypatch, command):
        data = str(simulate_tiny(tmp_path, "markov"))

        def fail(*args, **kwargs):
            raise OSError("disk full")

        if command == "eval":
            monkeypatch.setattr(classify, "save_results_csv", fail)
            argv = ["eval", "--data", data, "--family", "bayes-markov", "--out", str(tmp_path / "res"), "--splits", "1"]
            out_dir = tmp_path / "res"
        else:
            assert main(["fit", "--data", data, "--model", "markov", "--out", str(tmp_path / "m.json")]) == 0
            monkeypatch.setattr(fisher, "export_features_csv", fail)
            argv = ["scores", "--data", data, "--model-json", str(tmp_path / "m.json"),
                    "--out", str(tmp_path / "res" / "phi.csv")]
            out_dir = tmp_path / "res"
        assert main(argv) == 2
        assert [p.name for p in out_dir.iterdir() if p.name.startswith(".")] == []


def write_recordings(raw, ids):
    """One 1000 Hz recording with a single 5-degree saccade per (subject, image)."""
    raw.mkdir()
    rng = np.random.default_rng(0)
    for k, (subject, image) in enumerate(ids):
        n_still = 200
        xs = [0.0] * n_still
        for i in range(1, 21):
            xs.append(5.0 * i / 20)
        xs += [5.0] * n_still
        xs = np.asarray(xs) + 0.01 * rng.standard_normal(len(xs))
        ys = 0.01 * rng.standard_normal(len(xs))
        rec = GazeRecording(
            t_ms=np.arange(len(xs), dtype=float),
            x_deg=xs,
            y_deg=ys,
            sampling_rate=1000.0,
            subject_id=subject,
            image_id=image,
        )
        save_recording_csv(rec, raw / f"rec{k}.csv")


class TestDetect:
    def test_detect_to_dataset(self, tmp_path):
        raw = tmp_path / "raw"
        write_recordings(raw, [("s0", "img0"), ("s1", "img0")])
        assert main(["detect", "--raw", str(raw), "--out", str(tmp_path / "ds")]) == 0
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert len(manifest["items"]) == 2
        loaded = load_dataset(tmp_path / "ds")
        assert [(it.subject_id, it.image_id) for it in loaded.items] == [("s0", "img0"), ("s1", "img0")]
        for k, it in enumerate(loaded.items):
            assert it.scanpath == detect_saccades(load_recording_csv(raw / f"rec{k}.csv"), 6.0, 6.0)
            assert len(it.scanpath) == 2
        assert loaded.features is None

    @pytest.mark.parametrize(
        "ids", [[("a__b", "c"), ("a", "b__c")], [("s0", "../escaped")]]
    )
    def test_ids_that_collide_or_escape_are_rejected(self, tmp_path, capsys, ids):
        raw = tmp_path / "raw"
        write_recordings(raw, ids)
        assert main(["detect", "--raw", str(raw), "--out", str(tmp_path / "ds")]) != 0
        assert "cannot name a dataset file" in capsys.readouterr().err

    def test_unusable_multiplier_rejected(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        write_recordings(raw, [("s0", "img0")])
        assert main(["detect", "--raw", str(raw), "--out", str(tmp_path / "ds"), "--multiplier", "-6"]) == 2
        assert "velocity threshold multiplier must be finite and positive, got -6.0" in capsys.readouterr().err
        assert not (tmp_path / "ds").exists()

    def test_detect_no_files(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        assert main(["detect", "--raw", str(raw), "--out", str(tmp_path / "ds")]) != 0
        assert "no recording CSVs" in capsys.readouterr().err
