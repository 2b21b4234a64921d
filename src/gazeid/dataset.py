"""Labeled scanpath datasets and their on-disk layout.

A dataset directory contains a ``manifest.json``, one scanpath CSV per
(subject, image) item, optional per-item saccade-feature CSVs, and
optional per-image saliency grids:

    manifest.json
    scanpaths/<subject>__<image>.csv
    features/<subject>__<image>.csv
    saliency/<image>.csv + <image>.json

Only markov-dyn's dynamics channels need feature files, so ``simulate``
writes them for markov-dyn cohorts only. The other models read scanpaths
and ignore the feature files that ``load_dataset`` parses all the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import (
    SaccadeTable,
    Scanpath,
    load_features_csv,
    load_scanpath_csv,
    save_features_csv,
    save_scanpath_csv,
)
from .scenewalk import SaliencyMap, load_saliency, save_saliency


@dataclass(frozen=True)
class DatasetItem:
    """One viewing: a scanpath by one subject on one image."""

    subject_id: str
    image_id: str
    scanpath: Scanpath
    features: SaccadeTable | None = None


@dataclass(frozen=True)
class GazeDataset:
    items: tuple[DatasetItem, ...]
    saliency: dict[str, SaliencyMap] | None = None
    meta: dict | None = None

    @property
    def subjects(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for item in self.items:
            seen.setdefault(item.subject_id)
        return tuple(seen)

    def images_of(self, subject_id: str) -> tuple[str, ...]:
        return tuple(i.image_id for i in self.items if i.subject_id == subject_id)


def _checked_id(kind: str, value: str) -> str:
    """``value``, if it can name a dataset file. ``__`` separates the two
    ids of a stem, so an id that contains it, or begins or ends with ``_``,
    could give two items one file: (``a__b``, ``c``) and (``a``, ``b__c``),
    or (``a_``, ``b``) and (``a``, ``_b``). An empty id, ``.``, ``..`` or an
    id with a path separator would not name a file inside its directory."""
    if value in ("", ".", "..") or value.strip("_") != value or any(
        part in value for part in ("__", "/", "\\")
    ):
        raise ValueError(f"{kind} id {value!r} cannot name a dataset file")
    return value


def _item_stems(pairs: list[tuple[str, str]]) -> list[str]:
    """File stems ``<subject>__<image>`` of the items. A (subject, image)
    pair that appears twice would give two items one file."""
    stems = [f"{_checked_id('subject', s)}__{_checked_id('image', i)}" for s, i in pairs]
    seen = set()
    for (subject_id, image_id), stem in zip(pairs, stems):
        if stem in seen:
            raise ValueError(f"subject {subject_id!r} image {image_id!r} appears twice")
        seen.add(stem)
    return stems


def save_dataset(data: GazeDataset, out_dir: str | Path) -> None:
    stems = _item_stems([(it.subject_id, it.image_id) for it in data.items])
    for image_id in data.saliency or {}:
        _checked_id("image", image_id)
    has_features = any(item.features is not None for item in data.items)
    for it in data.items:
        if has_features and it.features is None:
            # the manifest records features for the whole dataset, so a
            # loader could not tell this item's absent file from a lost one
            raise ValueError(
                f"subject {it.subject_id!r} image {it.image_id!r} has no features while other items do"
            )
    out = Path(out_dir)
    (out / "scanpaths").mkdir(parents=True, exist_ok=True)
    if has_features:
        (out / "features").mkdir(exist_ok=True)
    if data.saliency:
        (out / "saliency").mkdir(exist_ok=True)

    manifest = {
        "items": [
            {"subject_id": it.subject_id, "image_id": it.image_id} for it in data.items
        ],
        "has_features": has_features,
        "saliency_images": sorted(data.saliency) if data.saliency else [],
        "meta": data.meta or {},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    for it, stem in zip(data.items, stems):
        save_scanpath_csv(it.scanpath, out / "scanpaths" / f"{stem}.csv")
        if it.features is not None:
            save_features_csv(it.features, out / "features" / f"{stem}.csv")
    if data.saliency:
        for image_id, sal in data.saliency.items():
            save_saliency(sal, out / "saliency" / image_id)


def load_dataset(in_dir: str | Path) -> GazeDataset:
    root = Path(in_dir)
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"{root}: no manifest.json; not a dataset directory")
    with open(manifest_path) as fh:
        manifest = json.load(fh)

    pairs = [(entry["subject_id"], entry["image_id"]) for entry in manifest["items"]]
    scan_dir, feat_dir = root / "scanpaths", root / "features"
    items = []
    for (subject_id, image_id), stem in zip(pairs, _item_stems(pairs)):
        path = load_scanpath_csv(scan_dir / f"{stem}.csv", subject_id=subject_id, image_id=image_id)
        features = None
        if manifest.get("has_features"):
            feat_path = feat_dir / f"{stem}.csv"
            if not feat_path.exists():
                raise FileNotFoundError(f"{feat_path}: missing, but the manifest says the dataset has features")
            features = load_features_csv(feat_path)
        items.append(
            DatasetItem(subject_id=subject_id, image_id=image_id, scanpath=path, features=features)
        )

    saliency = None
    if manifest.get("saliency_images"):
        saliency = {
            image_id: load_saliency(root / "saliency" / _checked_id("image", image_id))
            for image_id in manifest["saliency_images"]
        }
    return GazeDataset(items=tuple(items), saliency=saliency, meta=manifest.get("meta") or {})
