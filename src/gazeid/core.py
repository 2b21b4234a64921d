"""Core gaze data types, saccade detection, and per-saccade features.

Positions are degrees of visual angle, timestamps and durations are
milliseconds, velocities deg/s, accelerations deg/s^2 throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Feature channels in their fixed model order: the rows of
# ``SaccadeTable.values`` and the columns of a dataset's ``features.npy``.
# All eight form the saccade-dynamics configuration, the first two the base.
DYNAMICS_CHANNELS = (
    "amplitude",
    "duration",
    "velocity",
    "acceleration",
    "ratio_x",
    "ratio_y",
    "vigor_x",
    "vigor_y",
)
BASE_CHANNELS = DYNAMICS_CHANNELS[:2]


class DegenerateRecordingError(ValueError):
    """Recording yields fewer than two fixations."""


@dataclass(frozen=True)
class GazeRecording:
    """Raw eye-tracker samples for one trial."""

    t_ms: np.ndarray
    x_deg: np.ndarray
    y_deg: np.ndarray
    sampling_rate: float
    subject_id: str = ""
    image_id: str = ""

    def __post_init__(self):
        t = np.asarray(self.t_ms, dtype=float)
        x = np.asarray(self.x_deg, dtype=float)
        y = np.asarray(self.y_deg, dtype=float)
        object.__setattr__(self, "t_ms", t)
        object.__setattr__(self, "x_deg", x)
        object.__setattr__(self, "y_deg", y)
        if not (t.ndim == 1 and t.shape == x.shape == y.shape):
            raise ValueError("t_ms, x_deg, y_deg must be 1-D arrays of equal length")
        if t.size == 0:
            raise ValueError("recording has no samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("recording contains non-finite samples; reject NaN rows at load time")
        if np.any(np.diff(t) <= 0):
            raise ValueError("timestamps must be strictly increasing")
        if not self.sampling_rate > 0:
            raise ValueError("sampling_rate must be positive")

    def __len__(self) -> int:
        return self.t_ms.size


def _eq_by_value(self, other) -> bool:
    """``==`` of dataclasses with array fields: the same type and equal
    compared fields, arrays by value (NaN equal to NaN). The generated
    ``__eq__`` raises on arrays of more than one element."""
    if type(self) is not type(other):
        return NotImplemented
    return all(
        np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
        for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self) if f.compare)
    )


@dataclass(frozen=True)
class Scanpath:
    """Ordered fixations: positions (T, 2) in degrees, durations (T,) in ms."""

    positions: np.ndarray
    durations: np.ndarray
    subject_id: str = ""
    image_id: str = ""

    __eq__ = _eq_by_value

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        dur = np.asarray(self.durations, dtype=float)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "durations", dur)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError("positions must have shape (T, 2)")
        if dur.shape != (pos.shape[0],):
            raise ValueError("durations must have shape (T,)")
        if not (np.isfinite(pos).all() and np.isfinite(dur).all()):
            raise ValueError("scanpath entries must be finite")
        if (dur <= 0).any():
            raise ValueError("all fixation durations must be positive")

    def __len__(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SaccadeTable:
    """Per-saccade features of one scanpath: ``types`` (S,) in 1..4 and
    ``values`` (len(DYNAMICS_CHANNELS), S), one row per channel.

    ``duration`` is the duration of the fixation *following* the
    saccade. Values that could not be computed (the dynamics rows of a table
    extracted from a scanpath, an undefined ratio, a zero displacement)
    are NaN and get skipped by model likelihoods.
    """

    types: np.ndarray
    values: np.ndarray

    __eq__ = _eq_by_value

    def __post_init__(self):
        types = np.asarray(self.types, dtype=int)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "values", values)
        if types.ndim != 1 or values.shape != (len(DYNAMICS_CHANNELS), types.size):
            raise ValueError(f"saccade table needs types (S,) and values ({len(DYNAMICS_CHANNELS)}, S)")

    def __len__(self) -> int:
        return self.types.size

    @staticmethod
    def concat(tables: Sequence["SaccadeTable"]) -> "SaccadeTable":
        """The saccades of several tables, in order, as one table."""
        return SaccadeTable(
            types=np.concatenate([t.types for t in tables]),
            values=np.concatenate([t.values for t in tables], axis=1),
        )


def wrap_angle_deg(angle):
    """Wrap an angle (degrees) into (-180, 180]."""
    wrapped = (np.asarray(angle, dtype=float) + 180.0) % 360.0 - 180.0
    return np.where(wrapped == -180.0, 180.0, wrapped)


def classify_saccade_type(delta_deg: float) -> int:
    """Map a direction change in (-180, 180] to a type in {1, 2, 3, 4}.

    Boundary rule: exactly +/-45 counts as maintain, exactly -135 as right
    and +135 as left, so the four bins partition the circle.
    """
    d = float(delta_deg)
    if abs(d) <= 45.0:
        return 1
    if -135.0 <= d < -45.0:
        return 2
    if 45.0 < d <= 135.0:
        return 3
    return 4


def smoothed_velocity(x: np.ndarray, y: np.ndarray, sampling_rate: float) -> np.ndarray:
    """Moving-average-smoothed central-difference velocity, deg/s, one row per axis.

    Interior samples use the 5-point window
    v[k] = rate/6 * (p[k+2] + p[k+1] - p[k-1] - p[k-2]); the two samples
    next to each border fall back to plain central differences and the
    borders themselves are zero.
    """
    n = x.size
    v = np.zeros((2, n))
    vx, vy = v
    if n >= 5:
        vx[2 : n - 2] = sampling_rate / 6.0 * (x[4:] + x[3:-1] - x[1:-3] - x[:-4])
        vy[2 : n - 2] = sampling_rate / 6.0 * (y[4:] + y[3:-1] - y[1:-3] - y[:-4])
    if n >= 3:
        vx[1] = sampling_rate / 2.0 * (x[2] - x[0])
        vy[1] = sampling_rate / 2.0 * (y[2] - y[0])
        vx[n - 2] = sampling_rate / 2.0 * (x[n - 1] - x[n - 3])
        vy[n - 2] = sampling_rate / 2.0 * (y[n - 1] - y[n - 3])
    return v


def _median_based_sd(v: np.ndarray) -> np.ndarray:
    """Per row of a (2, n) velocity stack free of NaN, sqrt(median((v - median(v))^2)),
    or the ordinary deviation where that is below 1e-10. Each median is the mean of the
    middle elements ``np.median`` takes: the upper one from one partition of both rows at
    n // 2, for even n the lower one as the largest left of it. NaN deviations (from an infinite
    median) are at least half a row and sort last: the spread is NaN where ``np.median``'s is."""
    n = v.shape[1]
    h = n // 2

    def median(a):
        part = np.partition(a, h, axis=1)  # one kth: with two, numpy 2.4 partitions 3-4x slower
        return part[:, h] if n % 2 else (part[:, :h].max(axis=1) + part[:, h]) / 2

    msd = np.sqrt(median((v - median(v)[:, None]) ** 2))
    still = msd < 1e-10
    if still.any():
        # Degenerate median spread; fall back to the ordinary deviation.
        msd[still] = np.sqrt(np.maximum(np.mean(v[still] ** 2, axis=1) - np.mean(v[still], axis=1) ** 2, 0.0))
    return msd


def detect_saccades(
    rec: GazeRecording,
    vel_threshold_multiplier: float = 6.0,
    min_saccade_duration_ms: float = 6.0,
) -> Scanpath:
    """Velocity-threshold saccade detection; returns the fixation sequence.

    Per-axis thresholds are ``multiplier`` times a median-based velocity
    standard deviation; samples where the elliptic criterion
    (vx/eta_x)^2 + (vy/eta_y)^2 > 1 holds in runs of at least
    ``min_saccade_duration_ms`` form saccades, and the spans between them
    fixations. Fixations take the mean sample position over their span and
    the span length (in ms) as duration.

    The multiplier must be finite and positive and the minimum duration
    finite and non-negative (ValueError). Velocities are differences by
    sample index at the nominal rate, so a recording whose consecutive
    timestamps differ by more than 1.5 sample periods (samples dropped at
    load time, say) raises ValueError. Raises DegenerateRecordingError,
    naming the recording, if fewer than two fixations are found.
    """
    if not (math.isfinite(vel_threshold_multiplier) and vel_threshold_multiplier > 0):
        raise ValueError(f"velocity threshold multiplier must be finite and positive, got {vel_threshold_multiplier!r}")
    if not (math.isfinite(min_saccade_duration_ms) and min_saccade_duration_ms >= 0):
        raise ValueError(f"minimum saccade duration must be finite and >= 0 ms, got {min_saccade_duration_ms!r}")
    n = len(rec)
    if n < 3:
        raise ValueError("saccade detection needs at least 3 samples")
    dt_nominal = 1000.0 / rec.sampling_rate
    steps = np.diff(rec.t_ms)
    gaps = np.flatnonzero(steps > 1.5 * dt_nominal)
    if gaps.size:
        k = int(gaps[0])
        raise ValueError(
            f"recording subject {rec.subject_id!r} image {rec.image_id!r}: timestamps jump by "
            f"{float(steps[k])!r} ms between samples {k} and {k + 1}, more than 1.5 sample "
            f"periods of {dt_nominal!r} ms; split the recording at the gap"
        )
    v = smoothed_velocity(rec.x_deg, rec.y_deg, rec.sampling_rate)
    sd = _median_based_sd(v)
    if (sd < 1e-10).any():
        # Zero velocity spread on an axis: nothing can cross the threshold.
        criterion = np.zeros(n, dtype=bool)
    else:
        q = (v / (vel_threshold_multiplier * sd)[:, None]) ** 2
        criterion = q[0] + q[1] > 1.0

    min_samples = max(1, int(round(min_saccade_duration_ms * rec.sampling_rate / 1000.0)))
    # [start, stop) of each run over threshold, then of the fixations that
    # fill [0, n) around the runs kept as saccades. Runs are separated and the
    # border velocities are zero, so no fixation span is empty.
    runs = np.flatnonzero(np.diff(np.concatenate(([False], criterion, [False])))).reshape(-1, 2)
    kept = runs[runs[:, 1] - runs[:, 0] >= min_samples]
    spans = np.concatenate(([0], kept.ravel(), [n])).reshape(-1, 2)

    if len(spans) < 2:
        raise DegenerateRecordingError(
            f"recording subject {rec.subject_id!r} image {rec.image_id!r} produced "
            f"{len(spans)} fixation(s); need at least 2"
        )
    xy = np.stack((rec.x_deg, rec.y_deg))
    return Scanpath(
        positions=[xy[:, s:t].sum(axis=1) / (t - s) for s, t in spans.tolist()],
        durations=rec.t_ms[spans[:, 1] - 1] - rec.t_ms[spans[:, 0]] + dt_nominal,
        subject_id=rec.subject_id,
        image_id=rec.image_id,
    )


def extract_features(path: Scanpath) -> SaccadeTable:
    """Per-saccade feature table of a scanpath of T >= 2 fixations.

    Saccade t runs from fixation t to fixation t+1 and is paired with the
    duration of fixation t+1. Its type is classified from the direction
    change relative to the previous saccade; the first saccade's reference
    direction is the positive x axis. A scanpath gives the amplitude and
    duration rows; the dynamics rows stay NaN, because they come only from
    a dataset's stored features (``dataset.load_dataset``).
    """
    T = len(path)
    if T < 2:
        raise ValueError("scanpath must contain at least 2 fixations")
    steps = np.diff(path.positions, axis=0)
    amplitudes = np.hypot(steps[:, 0], steps[:, 1])
    directions = np.degrees(np.arctan2(steps[:, 1], steps[:, 0]))

    values = np.full((len(DYNAMICS_CHANNELS), T - 1), math.nan)
    values[0] = np.where(amplitudes > 0, amplitudes, math.nan)
    values[1] = path.durations[1:]
    deltas = wrap_angle_deg(np.diff(directions, prepend=0.0))
    return SaccadeTable(types=[classify_saccade_type(d) for d in deltas], values=values)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _write_csv(csv_path: str | Path, header: Sequence[str], rows: Iterable[str]) -> None:
    """Write the header and the given row strings in one pass, with the
    CRLF line ends of ``csv.writer``. Callers format floats with ``repr``,
    which reads back to the same float."""
    with open(csv_path, "w", newline="") as fh:
        fh.write("".join(f"{line}\r\n" for line in (",".join(header), *rows)))


# Bytes of the cells that ``repr`` writes (digits, signs, exponents, nan,
# inf, infinity) and of the commas between them.
_NUMERIC_BYTES = b"0123456789+-.eEnNaAiIfFtTyY,"


def _read_csv(csv_path: str | Path, header: Sequence[str]) -> np.ndarray:
    """The rows of a numeric CSV file under exactly ``header``, as one
    (rows, columns) float array. A wrong header, a row whose cell count
    differs from the header's and a cell that ``float`` cannot read each
    raise ValueError naming the file (and the row, counted from the file's
    first line).

    The body is parsed by one ``np.fromstring`` call when it holds only
    ``_NUMERIC_BYTES``; any other body (cells padded with spaces, say) is
    read cell by cell with ``float``, which also finds the row of a bad
    cell."""
    with open(csv_path, "rb") as fh:
        head, *lines = fh.read().splitlines() or [b""]
    head = head.decode(errors="replace")
    if head.split(",") != list(header):
        raise ValueError(f"{csv_path}: expected header {','.join(header)}, got {head!r}")
    n_columns = len(header)
    commas = [line.count(b",") for line in lines]
    if commas.count(n_columns - 1) != len(lines):
        bad = next(i for i, n in enumerate(commas) if n != n_columns - 1)
        raise ValueError(
            f"{csv_path}: row {bad + 2} has {commas[bad] + 1} columns, expected {n_columns}"
        )
    body = b",".join(lines)
    if not body.translate(None, _NUMERIC_BYTES):
        try:
            cells = np.fromstring(body, sep=",")
        except ValueError:
            cells = None
        if cells is not None and cells.size == len(lines) * n_columns:
            return cells.reshape(len(lines), n_columns)
    rows = []
    for lineno, line in enumerate(lines, start=2):
        try:
            rows.append([float(cell) for cell in line.decode(errors="replace").split(",")])
        except ValueError as exc:
            raise ValueError(f"{csv_path}: row {lineno}: {exc}") from None
    return np.array(rows, dtype=float).reshape(len(lines), n_columns)


_RECORDING_COLUMNS = ("t_ms", "x_deg", "y_deg")


def save_recording_csv(rec: GazeRecording, csv_path: str | Path) -> None:
    """Write samples as ``t_ms,x_deg,y_deg`` plus a metadata sidecar JSON."""
    csv_path = Path(csv_path)
    samples = np.column_stack([rec.t_ms, rec.x_deg, rec.y_deg]).tolist()
    _write_csv(csv_path, _RECORDING_COLUMNS, (",".join(map(repr, row)) for row in samples))
    sidecar = csv_path.with_suffix(".json")
    with open(sidecar, "w") as fh:
        json.dump(
            {
                "subject_id": rec.subject_id,
                "image_id": rec.image_id,
                "sampling_rate": rec.sampling_rate,
            },
            fh,
            indent=2,
        )


def load_recording_csv(csv_path: str | Path) -> GazeRecording:
    """Read a recording CSV and its sidecar JSON (same stem, ``.json``);
    rows with a NaN (blinks) are dropped. A sidecar that does not parse, or
    lacks a positive numeric ``sampling_rate``, raises ValueError naming it."""
    csv_path = Path(csv_path)
    sidecar = csv_path.with_suffix(".json")
    with open(sidecar) as fh:
        try:
            meta = json.load(fh)
            rate = meta["sampling_rate"]
            if isinstance(rate, bool):
                raise TypeError(f"a JSON boolean is not a rate: {rate!r}")
            sampling_rate = float(rate)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{sidecar}: expected a numeric sampling_rate ({type(exc).__name__}: {exc})") from None
    if not sampling_rate > 0:
        raise ValueError(f"{sidecar}: sampling_rate must be positive, got {sampling_rate!r}")
    arr = _read_csv(csv_path, _RECORDING_COLUMNS)
    arr = arr[~np.isnan(arr).any(axis=1)]
    if arr.size == 0:
        raise ValueError(f"{csv_path}: no valid samples")
    return GazeRecording(
        t_ms=arr[:, 0],
        x_deg=arr[:, 1],
        y_deg=arr[:, 2],
        sampling_rate=sampling_rate,
        subject_id=str(meta.get("subject_id", "")),
        image_id=str(meta.get("image_id", "")),
    )
