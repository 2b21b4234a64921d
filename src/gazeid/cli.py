"""Command-line entry point: reproducible experiment pipelines.

One binary with subcommands (detect, fit, scores, train, identify,
simulate, eval). Options come from an optional JSON config file plus
flags; flags win. Each option is declared once, as a flag, and its dest
is its config key. Every artifact embeds the tool version, a hash of the
effective configuration, and the seed (``eval``'s; ``simulate`` takes
its seed from the cohort spec), so results are attributable to an exact
invocation. Outputs are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, classify, fisher, markov, scenewalk, simulate
from .core import detect_saccades, load_recording_csv
from .dataset import DatasetItem, GazeDataset, load_dataset, save_dataset


def _effective_config(args: argparse.Namespace, required: tuple[str, ...] = ()) -> dict:
    """Merge the JSON config file with CLI flags; flags win.

    The config keys are the subcommand's option dests, in the order they
    are declared. Unknown keys are rejected, and so is a value not of its
    flag's type: int, float (an int may stand for one) or, for a flag that
    stores True, bool; options in ``required`` must be present after the merge.
    """
    keys = [key for key in vars(args) if key not in ("command", "func", "parser", "config")]
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        unknown = set(config) - set(keys)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        types = {action.dest: action.type or type(action.const) for action in args.parser._actions}
        for key, value in config.items():
            typed = types[key] in (int, float, bool) and value is not None
            if typed and (isinstance(value, bool) != (types[key] is bool) or not isinstance(value, (int, types[key]))):
                raise ValueError(f"config key {key!r} must be {types[key].__name__}, got {value!r}")
    merged = {}
    for key in keys:
        flag_val = getattr(args, key)
        merged[key] = flag_val if flag_val is not None else config.get(key)
    missing = [key for key in required if merged.get(key) is None]
    if missing:
        raise ValueError(f"missing required options: {missing} (flag or config file)")
    return merged


def _provenance(config: dict, seed: int | None = None) -> dict:
    """Tool version, config and its hash, and the seed drawn from (``eval``'s or ``simulate``'s spec's)."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return {
        "tool_version": __version__,
        "config_hash": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "config": config,
    }


def _atomic_write(path: Path, write: Callable[[str], None]) -> None:
    """Create ``path`` by ``write(tmp)`` on a dot-file beside it and a
    rename, so readers never see a partial file; the dot-file is removed
    if ``write`` or the rename fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _protocol(config: dict, defaults: classify.EvalProtocol, **options: str) -> classify.EvalProtocol:
    """``defaults`` with each field named in ``options`` replaced by the
    value of its config key, where that key is set."""
    return dataclasses.replace(defaults, **{f: config[key] for f, key in options.items() if config[key] is not None})


def _write_json(path: Path, doc: dict) -> None:
    _atomic_write(path, lambda tmp: Path(tmp).write_text(json.dumps(doc, indent=2) + "\n"))


def _default_threads() -> int:
    """The cores this process may run on (under a cpuset fewer than
    ``os.cpu_count``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_detect(args) -> int:
    config = _effective_config(args, required=("raw", "out"))
    raw_dir = Path(config["raw"])
    out_dir = Path(config["out"])
    multiplier = config["multiplier"] if config["multiplier"] is not None else 6.0
    min_dur = config["min_dur"] if config["min_dur"] is not None else 6.0

    csv_files = sorted(p for p in raw_dir.glob("*.csv"))
    if not csv_files:
        raise ValueError(f"no recording CSVs found in {raw_dir}")
    scanpaths = [detect_saccades(load_recording_csv(p), multiplier, min_dur) for p in csv_files]
    items = tuple(DatasetItem(sp.subject_id, sp.image_id, sp) for sp in scanpaths)
    save_dataset(GazeDataset(items=items, meta={"provenance": _provenance(config)}), out_dir)
    print(f"detected {len(items)} scanpaths -> {out_dir}")
    return 0


def _load_dataset_or_fail(data_dir: str) -> GazeDataset:
    data = load_dataset(data_dir)
    if not data.items:
        raise ValueError(f"no scanpaths found in {data_dir}")
    return data


def cmd_fit(args) -> int:
    config = _effective_config(args, required=("data", "model", "out"))
    data = _load_dataset_or_fail(config["data"])
    protocol = _protocol(
        config, classify.EvalProtocol(scenewalk_max_iter=500), scenewalk_rho="rho", scenewalk_max_iter="max_iter"
    )
    with classify._FamilyOps(data, config["model"], protocol, threads=1) as ops:
        [(params, result)] = ops.fit([range(len(data.items))])
    for note in classify._unconverged(result):
        print(f"warning: {note}", file=sys.stderr)
    if result is None:
        doc = {"model": config["model"], **markov.params_to_json_dict(params)}
    else:
        doc = {"model": "scenewalk", **result.to_json_dict()}
    doc["provenance"] = _provenance(config)
    _write_json(Path(config["out"]), doc)
    print(f"fitted {config['model']} on {len(data.items)} scanpaths -> {config['out']}")
    return 0


def _read_input_json(path: str, build: Callable[[dict], object]):
    """``build`` of the JSON document at ``path``. A malformed document (a
    missing key, a value of the wrong type or range) raises ValueError
    naming the file."""
    try:
        with open(path) as fh:
            return build(json.load(fh))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from None


def _model_from_json(doc: dict):
    kind = doc.get("model")
    if kind in ("markov", "markov-dyn"):
        params = markov.params_from_json_dict(doc)
        if params.config != ("base" if kind == "markov" else "dynamics"):
            raise ValueError(f"a {kind} model cannot have the channels {list(params.channel_names)}")
        return kind, params
    if kind == "scenewalk":
        return kind, scenewalk.SceneWalkParams.from_vector(
            [doc["params"][name] for name in scenewalk.PARAM_NAMES]
        )
    raise ValueError(f"unknown or missing model kind {kind!r}")


def cmd_scores(args) -> int:
    config = _effective_config(args, required=("data", "model_json", "out"))
    data = _load_dataset_or_fail(config["data"])
    kind, params = _read_input_json(config["model_json"], _model_from_json)
    eps = config["eps_reg"] if config["eps_reg"] is not None else fisher.DEFAULT_RIDGE
    normalize = bool(config["normalize"])  # None when neither the flag nor the config sets it

    with classify._FamilyOps(data, kind, classify.EvalProtocol(), threads=1) as ops:
        scores = ops.grads(range(len(data.items)), params)
    if config["info_in"]:
        info = _read_input_json(config["info_in"], lambda doc: fisher.FisherInformation(
            matrix=doc["matrix"], eps_reg=doc["eps_reg"], n_scores=doc["n_scores"]
        ))
        if info.dim != scores.shape[1]:
            raise ValueError(
                f"{config['info_in']}: information dim {info.dim} does not match the"
                f" {scores.shape[1]} scores per item of the model in {config['model_json']}"
            )
    else:
        info = fisher.estimate_information(scores, eps)

    out = Path(config["out"])
    phi = fisher.feature_map(scores, info, normalize)
    _atomic_write(out, lambda tmp: fisher.export_features_csv([(it.subject_id, it.image_id) for it in data.items], phi, tmp))

    info_out = config["info_out"] or str(out.with_suffix(".info.json"))
    _write_json(
        Path(info_out),
        {
            "eps_reg": info.eps_reg,
            "n_scores": info.n_scores,
            "matrix": [[float(v) for v in row] for row in info.matrix],
            "normalize": normalize,
            "provenance": _provenance(config),
        },
    )
    _write_json(out.with_suffix(".provenance.json"), _provenance(config))
    print(f"scored {len(scores)} items -> {out}")
    return 0


def cmd_train(args) -> int:
    config = _effective_config(args, required=("features", "out"))
    subjects, _, X = fisher.load_features_csv(config["features"])
    C = config["C"] if config["C"] is not None else 1.0
    model = classify.train(X, subjects, C=C)
    for note in classify._unconverged_train(model):
        print(f"warning: {note}", file=sys.stderr)
    _write_json(
        Path(config["out"]),
        {
            "classes": list(model.classes),
            "weights": [[float(v) for v in row] for row in model.weights],
            "C": model.C,
            "solver": dataclasses.asdict(model.report),
            "provenance": _provenance(config),
        },
    )
    print(f"trained {len(model.classes)}-class linear model -> {config['out']}")
    return 0


def cmd_identify(args) -> int:
    config = _effective_config(args, required=("features", "classifier", "out"))
    k = config["group_k"] if config["group_k"] is not None else 1
    if k < 1:
        raise ValueError(f"group_k must be at least 1, got {k}")
    subjects, images, X = fisher.load_features_csv(config["features"])
    model = _read_input_json(config["classifier"], lambda doc: classify.LinearModel(
        weights=np.asarray(doc["weights"], dtype=float),
        classes=tuple(doc["classes"]),
        C=float(doc["C"]),
    ))

    rows = []
    by_subject: dict[str, list[int]] = {}
    for idx, s in enumerate(subjects):
        by_subject.setdefault(s, []).append(idx)
    for subject, idxs in by_subject.items():
        for g in range(0, len(idxs) - k + 1, k):
            group = idxs[g : g + k]
            predicted = classify.identify(model, X[group])
            rows.append((subject, images[group[0]], predicted, predicted == subject))

    def write(tmp):
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "group_first_image", "predicted", "correct"])
            writer.writerows([*row[:3], int(row[3])] for row in rows)

    out = Path(config["out"])
    _atomic_write(out, write)
    _write_json(out.with_suffix(".provenance.json"), _provenance(config))
    accuracy = float(np.mean([r[3] for r in rows])) if rows else float("nan")
    print(f"identified {len(rows)} groups (k={k}), accuracy {accuracy:.4f} -> {out}")
    return 0


def cmd_simulate(args) -> int:
    config = _effective_config(args, required=("spec", "out"))
    with open(config["spec"]) as fh:
        spec = simulate.SyntheticCohortSpec.from_json_dict(json.load(fh))
    cohort = simulate.generate_cohort(spec)
    out_dir = Path(config["out"])
    data = dataclasses.replace(cohort.data, meta={**(cohort.data.meta or {}), "provenance": _provenance(config, spec.seed)})
    save_dataset(data, out_dir)
    print(f"simulated {len(data.items)} scanpaths -> {out_dir}")
    return 0


def cmd_eval(args) -> int:
    config = _effective_config(args, required=("data", "family", "out"))
    if config["family"] not in classify.FAMILIES:
        raise ValueError(f"family must be one of {classify.FAMILIES}")
    data = _load_dataset_or_fail(config["data"])
    protocol = _protocol(
        config, classify.EvalProtocol(), train_fraction="train_fraction", n_splits="splits", cv_folds="cv_folds",
        max_k="max_k", seed="seed", scenewalk_rho="scenewalk_rho", scenewalk_max_iter="scenewalk_max_iter",
    )
    threads = config["threads"] if config["threads"] is not None else _default_threads()
    result = classify.run_protocol(data, config["family"], protocol, threads=threads)

    out_dir = Path(config["out"])
    doc = result.to_json_dict()
    doc["provenance"] = _provenance(config, protocol.seed)
    _write_json(out_dir / "results.json", doc)
    _atomic_write(out_dir / "results.csv", lambda tmp: classify.save_results_csv(result, tmp))
    k1 = result.curve.mean_at(1) if result.curve.entries else float("nan")
    print(f"evaluated {config['family']}: k=1 accuracy {k1:.4f} -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazeid", description="Viewer identification from eye-gaze scanpaths."
    )
    parser.add_argument("--version", action="version", version=f"gazeid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        """A subcommand that runs ``func``; its options after ``--config``
        are its config keys (``_effective_config``)."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.set_defaults(func=func, parser=p)
        return p

    p = command("detect", cmd_detect, "raw recording CSVs -> scanpath dataset")
    p.add_argument("--raw", default=None, help="directory of recording CSVs + sidecar JSON")
    p.add_argument("--out", default=None)
    p.add_argument("--multiplier", type=float, default=None, help="velocity threshold multiplier")
    p.add_argument("--min-dur", dest="min_dur", type=float, default=None, help="min saccade ms")

    p = command("fit", cmd_fit, "fit a generative model on a dataset")
    p.add_argument("--data", default=None, help="dataset directory")
    p.add_argument("--model", choices=["markov", "markov-dyn", "scenewalk"], default=None)
    p.add_argument("--out", default=None, help="output model JSON")
    p.add_argument("--rho", type=float, default=None, help="scenewalk regularization")
    p.add_argument("--max-iter", dest="max_iter", type=int, default=None)

    p = command("scores", cmd_scores, "Fisher feature matrix from a fitted model")
    p.add_argument("--data", default=None)
    p.add_argument("--model-json", dest="model_json", default=None)
    p.add_argument("--out", default=None, help="output feature CSV")
    p.add_argument("--eps-reg", dest="eps_reg", type=float, default=None)
    p.add_argument("--normalize", action="store_const", const=True, default=None)
    p.add_argument("--info-in", dest="info_in", default=None, help="reuse a stored information matrix")
    p.add_argument("--info-out", dest="info_out", default=None)

    p = command("train", cmd_train, "train the linear classifier on features")
    p.add_argument("--features", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--C", type=float, default=None)

    p = command("identify", cmd_identify, "predict viewers for feature groups")
    p.add_argument("--features", default=None)
    p.add_argument("--classifier", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--group-k", dest="group_k", type=int, default=None)

    p = command("simulate", cmd_simulate, "generate a synthetic cohort dataset")
    p.add_argument("--spec", default=None, help="cohort spec JSON")
    p.add_argument("--out", default=None)

    p = command("eval", cmd_eval, "run the evaluation protocol on a dataset")
    p.add_argument("--data", default=None)
    p.add_argument("--family", default=None, help="|".join(classify.FAMILIES))
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None, help="split seed")
    p.add_argument("--threads", type=int, default=None, help="spread SceneWalk sweeps over N - 1 forked"
                   " workers (default: the usable cores); Markov families ignore it")
    p.add_argument("--splits", type=int, default=None)
    p.add_argument("--cv-folds", dest="cv_folds", type=int, default=None)
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=None)
    p.add_argument("--max-k", dest="max_k", type=int, default=None)
    p.add_argument("--scenewalk-rho", dest="scenewalk_rho", type=float, default=None)
    p.add_argument("--scenewalk-max-iter", dest="scenewalk_max_iter", type=int, default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # single-line machine-parsable failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
