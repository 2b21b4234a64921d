"""Labeled scanpath datasets and their on-disk layout.

A dataset directory contains a ``manifest.json`` that lists the items'
(subject, image) ids, the scanpaths of all items as whole-dataset ``.npy``
columns in manifest item order, optional saccade-feature columns, and
optional per-image saliency grids:

    manifest.json
    scanpaths.npy    float64 (fixations, 3): x_deg, y_deg, dur_ms
    lengths.npy      int64 (items,): fixations per item
    types.npy        int64 (saccades,)                         with features
    features.npy     float64 (saccades, 8): DYNAMICS_CHANNELS  with features
    saliency/<image>.npy + <image>.json      (np.save grid + extent_deg)

An item of T fixations has T - 1 saccades, so ``lengths.npy`` locates both.
In memory the features are one ``SaccadeTable``, ``GazeDataset.features``,
as on disk: its rows are ``features.npy``'s columns, one per
``core.DYNAMICS_CHANNELS`` entry, and each item owns the next T - 1 of its
saccades in item order. Only markov-dyn's dynamics channels need
features, so ``simulate`` writes them for markov-dyn cohorts only. The
other models read scanpaths and ignore the features that ``load_dataset``
reads all the same.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import DYNAMICS_CHANNELS, SaccadeTable, Scanpath
from .scenewalk import SaliencyMap, load_saliency, save_saliency


@dataclass(frozen=True)
class DatasetItem:
    """One viewing: a scanpath by one subject on one image."""

    subject_id: str
    image_id: str
    scanpath: Scanpath


@dataclass(frozen=True)
class GazeDataset:
    """Viewings in a fixed order; the evaluation names each by its row in
    ``items``, so a (subject, image) pair may appear only once. ``features``
    is one table of every item's saccades in item order: an item of T
    fixations owns the next T - 1."""

    items: tuple[DatasetItem, ...]
    saliency: dict[str, SaliencyMap] | None = None
    meta: dict | None = None
    features: SaccadeTable | None = None

    def __post_init__(self):
        _check_unique([(it.subject_id, it.image_id) for it in self.items])
        if self.features is not None:
            n = sum(len(it.scanpath) - 1 for it in self.items)
            if len(self.features) != n or any(len(it.scanpath) < 1 for it in self.items):
                raise ValueError(f"the feature table has {len(self.features)} saccades, but the items have {n}:"
                                 " an item of T >= 1 fixations owns T - 1")

    @property
    def subjects(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for item in self.items:
            seen.setdefault(item.subject_id)
        return tuple(seen)

    def images_of(self, subject_id: str) -> tuple[str, ...]:
        return tuple(i.image_id for i in self.items if i.subject_id == subject_id)


def _checked_id(kind: str, value: str) -> str:
    """``value``, if it can name a dataset file. Image ids name saliency
    files, so an empty id, ``.``, ``..`` or an id with a path separator
    would not name a file inside its directory. Both ids also keep
    ``<subject>__<image>`` unambiguous, so an id may not contain ``__`` or
    begin or end with ``_``: (``a__b``, ``c``) and (``a``, ``b__c``), or
    (``a_``, ``b``) and (``a``, ``_b``), would read as one item."""
    if value in ("", ".", "..") or value.strip("_") != value or any(
        part in value for part in ("__", "/", "\\")
    ):
        raise ValueError(f"{kind} id {value!r} cannot name a dataset file")
    return value


def _check_pairs(pairs: list[tuple[str, str]]) -> None:
    """Reject an id that ``_checked_id`` rejects."""
    for subject_id, image_id in pairs:
        _checked_id("subject", subject_id)
        _checked_id("image", image_id)


def _check_unique(pairs: list[tuple[str, str]]) -> None:
    """Reject a (subject, image) pair that appears twice."""
    seen = set()
    for pair in pairs:
        if pair in seen:
            raise ValueError(f"subject {pair[0]!r} image {pair[1]!r} appears twice")
        seen.add(pair)


def _write_column(path: Path, array: np.ndarray) -> None:
    with open(path, "wb") as fh:
        np.lib.format.write_array(fh, np.ascontiguousarray(array), allow_pickle=False)


def _read_column(path: Path, dtype: type, shape: tuple[int | None, ...]) -> np.ndarray:
    """The array ``_write_column`` wrote, never unpickled, if it has
    ``dtype`` and ``shape`` (None for a dimension of any size). An object
    array, a truncated file and another dtype or shape raise ValueError
    naming the file."""
    with open(path, "rb") as fh:
        try:
            array = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if array.dtype != dtype or array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        want = tuple("*" if n is None else n for n in shape)
        raise ValueError(f"{path}: expected dtype {np.dtype(dtype)} and shape {want}, got {array.dtype} and {array.shape}")
    return array


def save_dataset(data: GazeDataset, out_dir: str | Path) -> None:
    _check_pairs([(it.subject_id, it.image_id) for it in data.items])
    for image_id in data.saliency or {}:
        _checked_id("image", image_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "items": [
            {"subject_id": it.subject_id, "image_id": it.image_id} for it in data.items
        ],
        "has_features": data.features is not None,
        "saliency_images": sorted(data.saliency) if data.saliency else [],
        "meta": data.meta or {},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    paths = [it.scanpath for it in data.items]
    _write_column(
        out / "scanpaths.npy",
        np.concatenate([np.empty((0, 3)), *(np.column_stack([p.positions, p.durations]) for p in paths)]),
    )
    _write_column(out / "lengths.npy", np.array([len(p) for p in paths], dtype=np.int64))
    if data.features is not None:
        _write_column(out / "types.npy", data.features.types)
        _write_column(out / "features.npy", data.features.values.T)
    if data.saliency:
        (out / "saliency").mkdir(exist_ok=True)
        for image_id, sal in data.saliency.items():
            save_saliency(sal, out / "saliency" / image_id)


def load_dataset(in_dir: str | Path) -> GazeDataset:
    root = Path(in_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no scanpaths found in {root}: no manifest.json; not a dataset directory")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{manifest_path}: {type(exc).__name__}: {exc}") from None
    entries = manifest.get("items") if isinstance(manifest, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{manifest_path}: expected an object with an items list")
    for k, entry in enumerate(entries):
        if not (isinstance(entry, dict) and all(isinstance(entry.get(key), str) for key in ("subject_id", "image_id"))):
            raise ValueError(f"{manifest_path}: item {k} is not an object with string subject_id and image_id: {entry!r}")
    has_features, saliency_images = manifest.get("has_features", False), manifest.get("saliency_images", [])
    if not isinstance(has_features, bool):
        raise ValueError(f"{manifest_path}: has_features must be true or false, got {has_features!r}")
    if not (isinstance(saliency_images, list) and all(isinstance(image_id, str) for image_id in saliency_images)):
        raise ValueError(f"{manifest_path}: saliency_images must be a list of image ids, got {saliency_images!r}")
    pairs = [(entry["subject_id"], entry["image_id"]) for entry in entries]
    _check_pairs(pairs)
    _check_unique(pairs)  # before the columns, whose lengths would not match a repeated item
    scan_path, lengths_path = root / "scanpaths.npy", root / "lengths.npy"
    if not scan_path.exists() and (root / "scanpaths").is_dir():
        raise ValueError(
            f"{root / 'scanpaths'}: the per-item CSV layout is gone, datasets are stored as .npy columns;"
            " re-run `gazeid simulate` or `gazeid detect`"
        )
    rows = _read_column(scan_path, np.float64, (None, 3))
    lengths = _read_column(lengths_path, np.int64, (len(pairs),)).tolist()
    least = 1 if has_features else 0  # an item of T fixations has T - 1 saccades
    if lengths and min(lengths) < least:
        raise ValueError(f"{lengths_path}: lengths must be at least {least}, got {min(lengths)}")
    if sum(lengths) != len(rows):
        raise ValueError(f"{lengths_path}: lengths sum to {sum(lengths)}, but {scan_path} has {len(rows)} rows")
    features = None
    if has_features:
        n_saccades = len(rows) - len(lengths)
        features = SaccadeTable(
            types=_read_column(root / "types.npy", np.int64, (n_saccades,)),
            values=_read_column(root / "features.npy", np.float64, (n_saccades, len(DYNAMICS_CHANNELS))).T,
        )

    items = []
    for (subject_id, image_id), end, n in zip(pairs, itertools.accumulate(lengths), lengths):
        fixations = rows[end - n : end]
        try:
            path = Scanpath(fixations[:, :2], fixations[:, 2], subject_id=subject_id, image_id=image_id)
        except ValueError as exc:
            raise ValueError(f"{scan_path}: subject {subject_id!r} image {image_id!r}: {exc}") from None
        items.append(DatasetItem(subject_id=subject_id, image_id=image_id, scanpath=path))

    saliency = None
    if saliency_images:
        saliency = {
            image_id: load_saliency(root / "saliency" / _checked_id("image", image_id))
            for image_id in saliency_images
        }
    return GazeDataset(items=tuple(items), saliency=saliency, meta=manifest.get("meta") or {}, features=features)
