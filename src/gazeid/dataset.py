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
In memory a dataset holds the same columns. Its items are an
``ItemColumns``: the ids as tuples, the fixations of every item as one
positions and one durations array, and the lengths. Indexing or iterating
it gives ``DatasetItem``s whose ``Scanpath`` is a view of the columns,
built on each access; code that needs only ids or fixations reads the
columns. The features are one ``SaccadeTable``, ``GazeDataset.features``:
its rows are ``features.npy``'s columns, one per ``core.DYNAMICS_CHANNELS``
entry, and each item owns the next T - 1 of its saccades in item order.
Only markov-dyn's dynamics channels need features, so ``simulate`` writes
them for markov-dyn cohorts only. The other models read scanpaths and
ignore the features that ``load_dataset`` reads all the same.
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import DYNAMICS_CHANNELS, SaccadeTable, Scanpath, _eq_by_value
from .scenewalk import SaliencyMap, load_saliency, save_saliency


@dataclass(frozen=True)
class DatasetItem:
    """One viewing: a scanpath by one subject on one image."""

    subject_id: str
    image_id: str
    scanpath: Scanpath


@dataclass(frozen=True)
class ItemColumns:
    """A dataset's items as columns: item k is (``subject_ids[k]``,
    ``image_ids[k]``) with the next ``lengths[k]`` (int64) rows of the
    float64 ``positions`` (fixations, 2) and ``durations`` (fixations,).
    A position or duration that is not finite, or a duration that is not
    positive, raises ValueError naming the first such item with
    ``Scanpath``'s message. ``self[k]``, a slice (a tuple) and iteration
    give ``DatasetItem``s whose scanpath views the columns, built on each
    access."""

    subject_ids: tuple[str, ...]
    image_ids: tuple[str, ...]
    positions: np.ndarray
    durations: np.ndarray
    lengths: np.ndarray
    _bounds: list[int] = field(init=False, repr=False, compare=False)  # item k owns rows _bounds[k]:_bounds[k + 1]

    __eq__ = _eq_by_value

    def __post_init__(self):
        bounds = [0, *itertools.accumulate(self.lengths.tolist())]
        object.__setattr__(self, "_bounds", bounds)
        pos, dur = self.positions, self.durations
        bad = ~(np.isfinite(pos).all(axis=1) & np.isfinite(dur) & (dur > 0))
        if bad.any():
            k = bisect.bisect_right(bounds, int(bad.argmax())) - 1
            try:
                self[k]  # its Scanpath check raises the message
            except ValueError as exc:
                raise ValueError(f"subject {self.subject_ids[k]!r} image {self.image_ids[k]!r}: {exc}") from None

    @classmethod
    def of(cls, items: Iterable[DatasetItem]) -> "ItemColumns":
        """The columns of ``items``, in order."""
        items = tuple(items)
        paths = [it.scanpath for it in items]
        return cls(
            subject_ids=tuple(it.subject_id for it in items),
            image_ids=tuple(it.image_id for it in items),
            positions=np.concatenate([np.empty((0, 2)), *(p.positions for p in paths)]),
            durations=np.concatenate([np.empty(0), *(p.durations for p in paths)]),
            lengths=np.array([len(p) for p in paths], dtype=np.int64),
        )

    def __len__(self) -> int:
        return len(self.subject_ids)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k = range(len(self))[k]
        a, b = self._bounds[k], self._bounds[k + 1]
        subject_id, image_id = self.subject_ids[k], self.image_ids[k]
        path = Scanpath(self.positions[a:b], self.durations[a:b], subject_id=subject_id, image_id=image_id)
        return DatasetItem(subject_id, image_id, path)

    def __iter__(self) -> Iterator[DatasetItem]:
        return map(self.__getitem__, range(len(self)))


@dataclass(frozen=True)
class GazeDataset:
    """Viewings in a fixed order; the evaluation names each by its row in
    ``items``, so a (subject, image) pair may appear only once. ``items``
    may be given as DatasetItems, which become one ``ItemColumns``.
    ``features`` is one table of every item's saccades in item order: an
    item of T fixations owns the next T - 1."""

    items: ItemColumns
    saliency: dict[str, SaliencyMap] | None = None
    meta: dict | None = None
    features: SaccadeTable | None = None

    def __post_init__(self):
        if not isinstance(self.items, ItemColumns):
            object.__setattr__(self, "items", ItemColumns.of(self.items))
        items = self.items
        _check_unique(zip(items.subject_ids, items.image_ids))
        if self.features is not None:
            n = int(items.lengths.sum()) - len(items)
            if len(self.features) != n or (items.lengths < 1).any():
                raise ValueError(f"the feature table has {len(self.features)} saccades, but the items have {n}:"
                                 " an item of T >= 1 fixations owns T - 1")

    @property
    def subjects(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(self.items.subject_ids))

    def images_of(self, subject_id: str) -> tuple[str, ...]:
        return tuple(i for s, i in zip(self.items.subject_ids, self.items.image_ids) if s == subject_id)


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


def _check_pairs(pairs: Iterable[tuple[str, str]]) -> None:
    """Reject an id that ``_checked_id`` rejects."""
    for subject_id, image_id in pairs:
        _checked_id("subject", subject_id)
        _checked_id("image", image_id)


def _check_unique(pairs: Iterable[tuple[str, str]]) -> None:
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
    items = data.items
    _check_pairs(zip(items.subject_ids, items.image_ids))
    for image_id in data.saliency or {}:
        _checked_id("image", image_id)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {
        "items": [
            {"subject_id": subject_id, "image_id": image_id}
            for subject_id, image_id in zip(items.subject_ids, items.image_ids)
        ],
        "has_features": data.features is not None,
        "saliency_images": sorted(data.saliency) if data.saliency else [],
        "meta": data.meta or {},
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)

    _write_column(out / "scanpaths.npy", np.column_stack([items.positions, items.durations]))
    _write_column(out / "lengths.npy", items.lengths)
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
    subject_ids = tuple(entry["subject_id"] for entry in entries)
    image_ids = tuple(entry["image_id"] for entry in entries)
    pairs = list(zip(subject_ids, image_ids))
    _check_pairs(pairs)
    _check_unique(pairs)  # before the columns, whose lengths would not match a repeated item
    scan_path, lengths_path = root / "scanpaths.npy", root / "lengths.npy"
    if not scan_path.exists() and (root / "scanpaths").is_dir():
        raise ValueError(
            f"{root / 'scanpaths'}: the per-item CSV layout is gone, datasets are stored as .npy columns;"
            " re-run `gazeid simulate` or `gazeid detect`"
        )
    rows = _read_column(scan_path, np.float64, (None, 3))
    lengths_column = _read_column(lengths_path, np.int64, (len(pairs),))
    lengths = lengths_column.tolist()
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

    try:
        items = ItemColumns(subject_ids, image_ids, rows[:, :2], rows[:, 2], lengths_column)
    except ValueError as exc:
        raise ValueError(f"{scan_path}: {exc}") from None

    saliency = None
    if saliency_images:
        saliency = {
            image_id: load_saliency(root / "saliency" / _checked_id("image", image_id))
            for image_id in saliency_images
        }
    return GazeDataset(items=items, saliency=saliency, meta=manifest.get("meta") or {}, features=features)
