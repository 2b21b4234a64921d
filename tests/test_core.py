"""Saccade detection, feature extraction, recording CSVs and dataset files."""

import copy
import csv
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import item_tables
from hypothesis import strategies as st

from gazeid.core import (
    DYNAMICS_CHANNELS,
    _median_based_sd,
    DegenerateRecordingError,
    GazeRecording,
    SaccadeTable,
    Scanpath,
    classify_saccade_type,
    detect_saccades,
    extract_features,
    load_recording_csv,
    save_recording_csv,
    smoothed_velocity,
    wrap_angle_deg,
)
from gazeid.dataset import DatasetItem, GazeDataset, load_dataset, save_dataset
from gazeid.fisher import load_features_csv as load_phi_csv
from gazeid.scenewalk import SaliencyMap
from gazeid.simulate import SyntheticCohortSpec, generate_cohort

RATE = 1000.0


def ramp_recording(segments, rate=RATE, noise=0.0, seed=0):
    """Build a recording from (duration_ms, x_target, y_target) segments.

    Each segment moves linearly from the previous endpoint to the target
    over its duration (a still segment targets the current position).
    """
    rng = np.random.default_rng(seed)
    xs, ys = [0.0], [0.0]
    x = y = 0.0
    for dur_ms, tx, ty in segments:
        n = int(round(dur_ms * rate / 1000.0))
        for k in range(1, n + 1):
            xs.append(x + (tx - x) * k / n)
            ys.append(y + (ty - y) * k / n)
        x, y = tx, ty
    xs = np.asarray(xs) + noise * rng.standard_normal(len(xs))
    ys = np.asarray(ys) + noise * rng.standard_normal(len(ys))
    t = np.arange(len(xs)) * 1000.0 / rate
    return GazeRecording(t_ms=t, x_deg=xs, y_deg=ys, sampling_rate=rate)


class TestSaccadeTypes:
    def test_maintain(self):
        assert classify_saccade_type(0.0) == 1

    def test_left_turn(self):
        # heading 0 then 90 degrees: positive turn of 90 -> left
        assert classify_saccade_type(90.0) == 3

    def test_right_turn(self):
        assert classify_saccade_type(-90.0) == 2

    def test_reverse_wrap(self):
        # heading 10 then -170: delta -180 wraps to +180 -> reverse
        delta = float(wrap_angle_deg(-170.0 - 10.0))
        assert delta == 180.0
        assert classify_saccade_type(delta) == 4

    def test_boundaries(self):
        assert classify_saccade_type(45.0) == 1
        assert classify_saccade_type(-45.0) == 1
        assert classify_saccade_type(135.0) == 3
        assert classify_saccade_type(-135.0) == 2

    @given(st.floats(min_value=-180.0, max_value=180.0, exclude_min=True))
    @settings(max_examples=300, deadline=None)
    def test_partition(self, delta):
        # Exactly one of the four type predicates holds on (-180, 180].
        u = classify_saccade_type(delta)
        predicates = [
            abs(delta) <= 45.0,
            -135.0 <= delta < -45.0,
            45.0 < delta <= 135.0,
            delta > 135.0 or delta < -135.0,
        ]
        assert sum(predicates) == 1
        assert predicates[u - 1]


class TestDetectSaccades:
    def test_constant_recording_degenerate(self):
        rec = GazeRecording(
            t_ms=np.arange(300.0), x_deg=np.zeros(300), y_deg=np.zeros(300), sampling_rate=RATE
        )
        with pytest.raises(DegenerateRecordingError):
            detect_saccades(rec)

    def test_single_ramp(self):
        # 200 ms still, 20 ms ramp to (5, 0) at 250 deg/s, 200 ms still.
        rec = ramp_recording([(200, 0.0, 0.0), (20, 5.0, 0.0), (200, 5.0, 0.0)], noise=0.01)
        path = detect_saccades(rec)
        assert len(path) == 2
        amplitude = float(np.hypot(*(path.positions[1] - path.positions[0])))
        assert amplitude == pytest.approx(5.0, abs=0.1)

    def test_velocity_trace_oracle(self):
        # Hand-computed velocity: the ramp moves 5 deg in 20 ms = 250 deg/s;
        # the smoothed trace must peak near 250 and stay ~0 elsewhere.
        rec = ramp_recording([(200, 0.0, 0.0), (20, 5.0, 0.0), (200, 5.0, 0.0)])
        vx, _ = smoothed_velocity(rec.x_deg, rec.y_deg, rec.sampling_rate)
        assert vx.max() == pytest.approx(250.0, rel=0.02)
        assert abs(vx[:150]).max() < 1e-9

    def test_two_ramps(self):
        rec = ramp_recording(
            [(200, 0.0, 0.0), (20, 5.0, 0.0), (300, 5.0, 0.0), (20, 5.0, 4.0), (200, 5.0, 4.0)],
            noise=0.01,
        )
        path = detect_saccades(rec)
        assert len(path) == 3

    def test_translation_invariance(self):
        rec = ramp_recording(
            [(200, 0.0, 0.0), (20, 5.0, 0.0), (300, 5.0, 0.0), (20, 5.0, 4.0), (200, 5.0, 4.0)],
            noise=0.02,
        )
        shifted = GazeRecording(
            t_ms=rec.t_ms,
            x_deg=rec.x_deg + 3.7,
            y_deg=rec.y_deg - 2.2,
            sampling_rate=rec.sampling_rate,
        )
        a = detect_saccades(rec)
        b = detect_saccades(shifted)
        assert len(a) == len(b)
        np.testing.assert_allclose(
            np.diff(a.positions, axis=0), np.diff(b.positions, axis=0), atol=1e-9
        )
        np.testing.assert_array_equal(a.durations, b.durations)

    def test_deterministic(self):
        rec = ramp_recording([(200, 0.0, 0.0), (20, 5.0, 0.0), (200, 5.0, 0.0)], noise=0.02)
        a = detect_saccades(rec)
        b = detect_saccades(rec)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.durations, b.durations)

    def test_timestamp_gap_rejected(self, tmp_path):
        # 30 samples inside the second fixation are NaN (a blink), so the
        # loaded recording jumps from t = 299 to 330 ms; velocities taken by
        # sample index would read the jump as one sample.
        rec = ramp_recording([(200, 0.0, 0.0), (20, 5.0, 0.0), (200, 5.0, 0.0)], noise=0.01)
        x = rec.x_deg.copy()
        x[300:330] = np.nan
        rows = "".join(f"{t!r},{xi!r},{yi!r}\n" for t, xi, yi in zip(rec.t_ms.tolist(), x.tolist(), rec.y_deg.tolist()))
        (tmp_path / "rec.csv").write_text("t_ms,x_deg,y_deg\n" + rows)
        (tmp_path / "rec.json").write_text('{"subject_id": "s01", "image_id": "img2", "sampling_rate": 1000}')
        cut = load_recording_csv(tmp_path / "rec.csv")
        assert len(cut) == len(rec) - 30
        with pytest.raises(ValueError, match=r"subject 's01' image 'img2': timestamps jump by 31\.0 ms between samples 299 and 300"):
            detect_saccades(cut)
        # a jitter of up to 1.5 sample periods is not a gap
        jittered = GazeRecording(
            t_ms=rec.t_ms + np.where(np.arange(len(rec)) % 2, 0.25, 0.0),
            x_deg=rec.x_deg,
            y_deg=rec.y_deg,
            sampling_rate=RATE,
        )
        assert len(detect_saccades(jittered)) == 2


TWO_RAMPS = [(200, 0.0, 0.0), (20, 5.0, 0.0), (300, 5.0, 0.0), (20, 5.0, 4.0), (200, 5.0, 4.0)]


class TestDetectionInputs:
    @pytest.mark.parametrize(
        "kwargs, shown",
        [
            ({"vel_threshold_multiplier": -6.0}, "-6.0"),  # the criterion squares it: it would act as 6
            ({"vel_threshold_multiplier": math.nan}, "nan"),  # no sample crosses a NaN threshold
            ({"vel_threshold_multiplier": 0.0}, "0.0"),  # the criterion divides by it
            ({"vel_threshold_multiplier": math.inf}, "inf"),
            ({"min_saccade_duration_ms": -5.0}, "-5.0"),  # would round up to one sample
            ({"min_saccade_duration_ms": math.nan}, "nan"),  # has no sample count
            ({"min_saccade_duration_ms": math.inf}, "inf"),
        ],
    )
    def test_unusable_thresholds_rejected(self, kwargs, shown):
        rec = ramp_recording(TWO_RAMPS, noise=0.01)
        with pytest.raises(ValueError, match=re.escape(f"got {shown}")) as excinfo:
            detect_saccades(rec, **kwargs)
        assert excinfo.type is ValueError

    def test_zero_minimum_duration_accepted(self):
        rec = ramp_recording(TWO_RAMPS, noise=0.01)
        assert len(detect_saccades(rec, min_saccade_duration_ms=0.0)) >= 3

    def test_degenerate_error_names_the_recording(self):
        rec = GazeRecording(
            t_ms=np.arange(300.0), x_deg=np.zeros(300), y_deg=np.zeros(300), sampling_rate=RATE,
            subject_id="s01", image_id="img2",
        )
        with pytest.raises(
            DegenerateRecordingError,
            match=r"^recording subject 's01' image 'img2' produced 1 fixation\(s\); need at least 2$",
        ):
            detect_saccades(rec)


# The velocity-threshold detector as a loop over the runs, before it ran in
# array operations: the oracle the array version must equal bit for bit.
def ref_smoothed_velocity(x, y, sampling_rate):
    n = x.size
    vx = np.zeros(n)
    vy = np.zeros(n)
    if n >= 5:
        vx[2 : n - 2] = sampling_rate / 6.0 * (x[4:] + x[3:-1] - x[1:-3] - x[:-4])
        vy[2 : n - 2] = sampling_rate / 6.0 * (y[4:] + y[3:-1] - y[1:-3] - y[:-4])
    if n >= 3:
        vx[1] = sampling_rate / 2.0 * (x[2] - x[0])
        vy[1] = sampling_rate / 2.0 * (y[2] - y[0])
        vx[n - 2] = sampling_rate / 2.0 * (x[n - 1] - x[n - 3])
        vy[n - 2] = sampling_rate / 2.0 * (y[n - 1] - y[n - 3])
    return vx, vy


def ref_median_based_sd(v):
    med = np.median(v)
    msd = math.sqrt(float(np.median((v - med) ** 2)))
    if msd < 1e-10:
        # Degenerate median spread; fall back to the ordinary deviation.
        msd = math.sqrt(max(float(np.mean(v**2) - np.mean(v) ** 2), 0.0))
    return msd


def ref_detect_saccades(rec, vel_threshold_multiplier=6.0, min_saccade_duration_ms=6.0):
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
    vx, vy = ref_smoothed_velocity(rec.x_deg, rec.y_deg, rec.sampling_rate)
    sd_x = ref_median_based_sd(vx)
    sd_y = ref_median_based_sd(vy)
    if sd_x < 1e-10 or sd_y < 1e-10:
        # Zero velocity spread on an axis: nothing can cross the threshold.
        criterion = np.zeros(n, dtype=bool)
    else:
        eta_x, eta_y = vel_threshold_multiplier * sd_x, vel_threshold_multiplier * sd_y
        criterion = (vx / eta_x) ** 2 + (vy / eta_y) ** 2 > 1.0

    min_samples = max(1, int(round(min_saccade_duration_ms * rec.sampling_rate / 1000.0)))
    padded = np.concatenate(([False], criterion, [False]))
    edges = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    fix_spans = []
    cursor = 0
    for s, e in zip(starts.tolist(), ends.tolist()):
        if e - s + 1 < min_samples:
            continue
        if s > cursor:
            fix_spans.append((cursor, s - 1))
        cursor = e + 1
    if cursor <= n - 1:
        fix_spans.append((cursor, n - 1))

    if len(fix_spans) < 2:
        raise DegenerateRecordingError(f"recording produced {len(fix_spans)} fixation(s); need at least 2")
    positions = []
    durations = []
    for s, e in fix_spans:
        positions.append((float(np.mean(rec.x_deg[s : e + 1])), float(np.mean(rec.y_deg[s : e + 1]))))
        durations.append(float(rec.t_ms[e] - rec.t_ms[s]) + dt_nominal)
    return Scanpath(
        positions=np.array(positions),
        durations=np.array(durations),
        subject_id=rec.subject_id,
        image_id=rec.image_id,
    )


@st.composite
def detection_cases(draw):
    """A ramp recording of still segments and ramps in any order, so a
    ramp may start at the first sample or end at the last, ramps may be
    shorter than the minimum duration, the y axis may be noise-free, still
    for most samples (the fallback spread) or still throughout, and the
    timestamps may be jittered."""
    rate = draw(st.sampled_from([250.0, 500.0, 1000.0]))
    dt = 1000.0 / rate
    still_y = draw(st.booleans())
    x = y = 0.0
    segments = []
    for ramp in draw(st.lists(st.booleans(), min_size=1, max_size=8).filter(any)):
        if ramp:
            x += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(2.0, 10.0))
            y += draw(st.floats(-8.0, 8.0))
            segments.append((dt * draw(st.integers(1, 12)), x, y))
        else:
            segments.append((dt * draw(st.integers(1, 150)), x, y))
    n = 1 + sum(int(round(d / dt)) for d, _, _ in segments)
    if n % 2 != draw(st.integers(0, 1)):
        segments.append((dt, x, y))
    noise = draw(st.sampled_from([0.0, 0.002, 0.02]))
    seed = draw(st.integers(0, 2**16))
    rec = ramp_recording(segments, rate=rate, noise=noise, seed=seed)
    y = ramp_recording(segments, rate=rate).y_deg if still_y else rec.y_deg
    # timestamps late by up to 0.4 sample periods: off the millisecond grid, never a gap
    jitter = draw(st.sampled_from([0.0, 0.4])) * dt * np.random.default_rng(seed).random(len(rec))
    rec = GazeRecording(rec.t_ms + jitter, rec.x_deg, y, rate)
    return rec, draw(st.sampled_from([6.0, 3.0, 10.0])), draw(st.floats(0.0, 20.0))


def outcome(detect, *args):
    try:
        return detect(*args)
    except Exception as exc:  # the type is compared
        return type(exc)


def infinite_rows(n, seed):
    """Two rows of n normal draws; 20, 50, 60 or 70% (by seed) of the first
    is +inf, and as much of the second is -inf or +inf, two to one."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((2, n))
    for row, values in zip(rows, ([math.inf], [-math.inf, -math.inf, math.inf])):
        cut = rng.permutation(n)[: int((0.2, 0.5, 0.6, 0.7)[seed] * n)]
        row[cut] = rng.choice(values, cut.size)
    return rows.tolist()


class TestDetectionParity:
    @given(detection_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_loop_oracle(self, case):
        got, want = outcome(detect_saccades, *case), outcome(ref_detect_saccades, *case)
        if isinstance(want, type):
            assert got is want
        else:
            assert np.array_equal(got.positions, want.positions)
            assert np.array_equal(got.durations, want.durations)

    def test_velocity_equals_per_axis_oracle(self):
        rec = ramp_recording(TWO_RAMPS, noise=0.01)
        v = smoothed_velocity(rec.x_deg, rec.y_deg, rec.sampling_rate)
        assert np.array_equal(v, np.stack(ref_smoothed_velocity(rec.x_deg, rec.y_deg, rec.sampling_rate)))

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.3, -1.2, 4.0, 2.2, -0.7, 0.1, 9.5], [1.0, 2.0, -3.0, 0.5, 0.25, -8.0, 4.0]],  # odd
            [[0.3, -1.2, 4.0, 2.2, -0.7, 0.1, 9.5, 5.0], [1.0, 2.0, -3.0, 0.5, 0.25, -8.0, 4.0, 0.0]],  # even
            [[2.5] * 6, [0.0, 1.0, 0.0, 0.0, 3.0, 0.0]],  # constant, and mostly still: both fall back
            [[0.3, -1.2, 4.0, math.inf, -0.7, 0.1], [1.0, -math.inf, -3.0, 0.5, 0.25, -8.0]],  # finite medians
            [[math.inf] * 5 + [0.3, -1.2, 4.0], [-math.inf] * 4 + [1.0, 2.0, -3.0, 0.5]],  # inf - inf
            [[-math.inf] * 3 + [math.inf] * 3, [math.inf] * 3 + [1.0, 2.0, -3.0]],  # inf + -inf
            *[infinite_rows(n, seed) for n in (101, 100) for seed in range(4)],
        ],
    )
    def test_spreads_equal_median_formula(self, rows):
        v = np.array(rows)
        with np.errstate(invalid="ignore"):
            want = [ref_median_based_sd(row) for row in v]
            got = _median_based_sd(v)
            infinite_median = ~np.isfinite(np.median(v, axis=1))
        assert np.array_equal(got, want, equal_nan=True)
        # an infinite or NaN median leaves NaN deviations in the middle
        assert np.array_equal(np.isnan(got), infinite_median)


class TestExtractFeatures:
    def path_of(self, points, durations=None):
        points = np.asarray(points, dtype=float)
        if durations is None:
            durations = np.full(len(points), 200.0)
        return Scanpath(positions=points, durations=np.asarray(durations, dtype=float))

    def test_count_is_t_minus_one(self):
        path = self.path_of([(0, 0), (1, 0), (2, 0), (3, 1)])
        assert len(extract_features(path)) == 3

    def test_collinear_maintain(self):
        feats = extract_features(self.path_of([(0, 0), (1, 0), (2, 0)]))
        assert feats.types[1] == 1

    def test_left_turn(self):
        feats = extract_features(self.path_of([(0, 0), (1, 0), (1, 1)]))
        assert feats.types[1] == 3

    def test_reverse_wrap(self):
        # First saccade heading ~10 degrees, second ~-170: wraps to +180.
        p1 = (math.cos(math.radians(10.0)), math.sin(math.radians(10.0)))
        p2 = (p1[0] + math.cos(math.radians(-170.0)), p1[1] + math.sin(math.radians(-170.0)))
        feats = extract_features(self.path_of([(0, 0), p1, p2]))
        assert feats.types[1] == 4

    def test_first_saccade_reference_is_positive_x(self):
        # A first saccade heading straight up is a +90 turn -> left.
        feats = extract_features(self.path_of([(0, 0), (0, 1)]))
        assert feats.types[0] == 3
        # Heading along +x is maintain.
        feats = extract_features(self.path_of([(0, 0), (1, 0)]))
        assert feats.types[0] == 1

    def test_duration_pairs_with_following_fixation(self):
        path = self.path_of([(0, 0), (1, 0), (2, 0)], durations=[100.0, 150.0, 250.0])
        feats = extract_features(path)
        assert feats.values[DYNAMICS_CHANNELS.index("duration")][0] == 150.0
        assert feats.values[DYNAMICS_CHANNELS.index("duration")][1] == 250.0


def oracle_extract(path):
    """(type, amplitude, duration) per saccade from the per-saccade loop
    the table replaced."""
    steps = np.diff(path.positions, axis=0)
    amplitudes = np.hypot(steps[:, 0], steps[:, 1])
    directions = np.degrees(np.arctan2(steps[:, 1], steps[:, 0]))
    out, prev = [], 0.0
    for t in range(len(path) - 1):
        delta = float(wrap_angle_deg(directions[t] - prev))
        prev = directions[t]
        amplitude = float(amplitudes[t]) if amplitudes[t] > 0 else math.nan
        out.append((classify_saccade_type(delta), amplitude, float(path.durations[t + 1])))
    return out


class TestSaccadeTable:
    def test_extract_features_equals_per_saccade_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            positions = np.round(rng.uniform(0, 4, (n, 2)), 0)  # repeats give zero-length steps
            path = Scanpath(positions=positions, durations=rng.uniform(50, 400, n))
            table = extract_features(path)
            want = np.array(oracle_extract(path)).T
            np.testing.assert_array_equal(table.types, want[0])
            np.testing.assert_array_equal(table.values[:2], want[1:])
            assert np.isnan(table.values[2:]).all()

    def test_batch_equals_per_saccade_loop_path_by_path(self):
        # Exact direction changes: (1, 1), (1, -1), (-1, -1), (-1, 1) and
        # (-1, 0) after a step along +x turn by +45, -45, -135, +135 and 180.
        exact = [
            [(0, 0), (1, 0), (2, 1)],
            [(0, 0), (1, 0), (2, -1)],
            [(0, 0), (1, 0), (0, -1)],
            [(0, 0), (1, 0), (0, 1)],
            [(0, 0), (1, 0), (0, 0)],
            [(5, 5), (5, 6)],  # after a path ending at 180: still +90 from +x, type 3
            [(0, 0), (0, 0), (1, 0)],  # a zero-length first step
            [(2, 2), (2, 2)],  # a 2-fixation path of one zero-length step
        ]
        rng = np.random.default_rng(7)
        paths = [Scanpath(positions=p, durations=rng.uniform(50, 400, len(p)), subject_id=f"s{i}") for i, p in enumerate(exact)]
        for i in range(60):
            n = int(rng.integers(2, 12))
            positions = np.round(rng.uniform(0, 3, (n, 2)), 0)  # repeats give zero-length steps
            paths.append(Scanpath(positions=positions, durations=rng.uniform(50, 400, n)))
        table = extract_features(paths)
        want = np.concatenate([np.array(oracle_extract(p)) for p in paths]).T
        np.testing.assert_array_equal(table.types, want[0])
        np.testing.assert_array_equal(table.values[:2], want[1:])
        assert np.isnan(table.values[2:]).all()
        np.testing.assert_array_equal(table.types[:11], [1, 1, 1, 1, 1, 2, 1, 3, 1, 4, 3])
        assert table == SaccadeTable.concat([extract_features(p) for p in paths])

    def test_a_short_path_in_a_batch_is_named(self):
        paths = [
            Scanpath(positions=[[0, 0], [1, 0]], durations=[100, 200], subject_id="s01", image_id="img1"),
            Scanpath(positions=[[3, 3]], durations=[100], subject_id="s02", image_id="img7"),
        ]
        with pytest.raises(
            ValueError, match=r"^scanpath must contain at least 2 fixations; subject 's02' image 'img7' has 1$"
        ):
            extract_features(paths)
        with pytest.raises(ValueError, match="subject 's02' image 'img7' has 1"):
            extract_features(paths[1])
        with pytest.raises(ValueError, match="no scanpaths"):
            extract_features([])

    def test_shapes_checked(self):
        with pytest.raises(ValueError, match="saccade table"):
            SaccadeTable(types=[1, 2], values=np.zeros((len(DYNAMICS_CHANNELS), 3)))
        with pytest.raises(ValueError, match="saccade table"):
            SaccadeTable(types=[1], values=np.zeros((len(DYNAMICS_CHANNELS) - 1, 1)))

    def test_concat_keeps_saccade_order(self):
        a = extract_features(Scanpath(positions=[[0, 0], [1, 0], [1, 1]], durations=[100, 200, 300]))
        b = extract_features(Scanpath(positions=[[0, 0], [0, 2]], durations=[100, 400]))
        both = SaccadeTable.concat([a, b])
        assert len(both) == 3
        np.testing.assert_array_equal(both.types, [1, 3, 3])
        np.testing.assert_array_equal(both.values[DYNAMICS_CHANNELS.index("duration")], [200, 300, 400])


class TestValueEquality:
    def test_deep_copies_are_equal_and_one_changed_value_is_not(self):
        data = generate_cohort(SyntheticCohortSpec(
            n_users=1, n_images=1, fixations_per_path=6, family="markov-dyn", seed=3
        )).data
        [item] = data.items
        data.features.values[[2, 5], [0, 3]] = [np.nan, np.inf]  # simulation draws every channel
        grid = np.full((3, 4), 1.0 / 12)
        cases = [
            (data, lambda d: dataclasses.replace(d, features=None)),
            (item, lambda it: DatasetItem(it.subject_id, "other", it.scanpath)),
            (item.scanpath, lambda sp: Scanpath(sp.positions + 1e-9, sp.durations)),
            (data.features, lambda t: SaccadeTable(t.types, np.where(np.isnan(t.values), 1.0, t.values))),
            (SaliencyMap(grid=grid, extent=(4.0, 3.0)), lambda m: SaliencyMap(grid=m.grid, extent=(4.0, 3.5))),
        ]
        for value, changed in cases:
            assert value == copy.deepcopy(value)
            assert not value != copy.deepcopy(value)
            assert value != changed(value)
        assert item != item.scanpath and item.scanpath != data.features
        assert Scanpath([[0.0, 0.0], [1.0, 1.0]], [100.0, 200.0]) != Scanpath([[0.0, 0.0], [1.0, 1.0]], [100.0, 201.0])


class TestPersistence:
    def test_recording_round_trip(self, tmp_path):
        rec = ramp_recording([(50, 0.0, 0.0), (20, 5.0, 0.0), (50, 5.0, 0.0)], noise=0.01)
        rec = GazeRecording(
            t_ms=rec.t_ms,
            x_deg=rec.x_deg,
            y_deg=rec.y_deg,
            sampling_rate=rec.sampling_rate,
            subject_id="s01",
            image_id="img2",
        )
        save_recording_csv(rec, tmp_path / "rec.csv")
        loaded = load_recording_csv(tmp_path / "rec.csv")
        np.testing.assert_array_equal(loaded.t_ms, rec.t_ms)
        np.testing.assert_array_equal(loaded.x_deg, rec.x_deg)
        assert loaded.subject_id == "s01" and loaded.image_id == "img2"

    def test_nan_rows_dropped(self, tmp_path):
        (tmp_path / "rec.csv").write_text(
            "t_ms,x_deg,y_deg\n0.0,0.0,0.0\n1.0,nan,0.0\n2.0,1.0,1.0\n3.0,2.0,2.0\n"
        )
        (tmp_path / "rec.json").write_text('{"subject_id": "s", "image_id": "i", "sampling_rate": 1000}')
        rec = load_recording_csv(tmp_path / "rec.csv")
        assert len(rec) == 3

    @pytest.mark.parametrize("sidecar, message", [
        ('{"subject_id": "s"}', "expected a numeric sampling_rate (KeyError: 'sampling_rate')"),
        ('{"sampling_rate": 1000,\n', "expected a numeric sampling_rate (JSONDecodeError: Expecting"),
        ('{"sampling_rate": "fast"}',
         "expected a numeric sampling_rate (ValueError: could not convert string to float: 'fast')"),
        ("[1000]", "expected a numeric sampling_rate (TypeError: list indices must be integers"),
        ('{"sampling_rate": true}', "expected a numeric sampling_rate (TypeError: a JSON boolean is not a rate: True)"),
        ('{"sampling_rate": 0}', "sampling_rate must be positive, got 0.0"),
        ('{"sampling_rate": -250}', "sampling_rate must be positive, got -250.0"),
        ('{"sampling_rate": NaN}', "sampling_rate must be positive, got nan"),
    ])
    def test_malformed_sidecar_names_it(self, tmp_path, sidecar, message):
        (tmp_path / "rec.csv").write_text("t_ms,x_deg,y_deg\n0.0,0.0,0.0\n1.0,0.5,0.5\n")
        (tmp_path / "rec.json").write_text(sidecar)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'rec.json'}: {message}")):
            load_recording_csv(tmp_path / "rec.csv")

    def test_malformed_row_names_location(self, tmp_path):
        (tmp_path / "rec.csv").write_text("t_ms,x_deg,y_deg\n0.0,0.0,0.0\n1.0,oops,0.0\n")
        (tmp_path / "rec.json").write_text('{"sampling_rate": 1000}')
        with pytest.raises(ValueError, match="row 3"):
            load_recording_csv(tmp_path / "rec.csv")

    def test_scanpath_round_trip(self, tmp_path):
        path = Scanpath(
            positions=np.array([[0.1, 0.2], [1.3, 2.4], [3.5, 4.6]]),
            durations=np.array([120.5, 233.25, 310.0]),
            subject_id="s01",
            image_id="img2",
        )
        save_dataset(GazeDataset(items=(DatasetItem("s01", "img2", path),)), tmp_path / "d")
        loaded = load_dataset(tmp_path / "d").items[0].scanpath
        np.testing.assert_array_equal(loaded.positions, path.positions)
        np.testing.assert_array_equal(loaded.durations, path.durations)
        assert loaded.subject_id == "s01" and loaded.image_id == "img2"


def csv_module_write(csv_path, header, rows):
    """The ``csv.writer`` code the one-pass writers replaced, as an oracle
    for their bytes."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def dynamics_data(seed=6):
    """A dynamics cohort whose feature table also carries NaN, inf, zero
    and negative cells, which simulation never draws."""
    spec = SyntheticCohortSpec(
        n_users=2, n_images=3, fixations_per_path=12, family="markov-dyn", jitter=0.3, seed=seed
    )
    data = generate_cohort(spec).data
    rng = np.random.default_rng(seed)
    for table in item_tables(data):  # views of data.features
        values = table.values
        cells = rng.integers(0, values.shape[0], 5), rng.integers(0, values.shape[1], 5)
        values[cells] = [np.nan, np.inf, -np.inf, 0.0, -2.5]
    return data


class TestCsvFiles:
    def test_writers_write_the_csv_module_bytes(self, tmp_path):
        rec = ramp_recording([(50, 0.0, 0.0), (20, 5.0, 0.0), (50, 5.0, 0.0)], noise=0.01)
        save_recording_csv(rec, tmp_path / "r.csv")
        csv_module_write(
            tmp_path / "r_ref.csv",
            ["t_ms", "x_deg", "y_deg"],
            [[repr(float(t)), repr(float(x)), repr(float(y))] for t, x, y in zip(rec.t_ms, rec.x_deg, rec.y_deg)],
        )
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "r_ref.csv").read_bytes()

    def test_load_then_save_is_byte_identical(self, tmp_path):
        data = dynamics_data()
        items, features = data.items, data.features
        assert np.isnan(features.values).any() and np.isinf(features.values).any()
        save_dataset(GazeDataset(items=items, features=features), tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        assert [(it.subject_id, it.image_id) for it in loaded.items] == [(it.subject_id, it.image_id) for it in items]
        pairs = [(loaded.features.types, features.types), (loaded.features.values, features.values)]
        for a, b in zip(loaded.items, items):
            pairs += [(a.scanpath.positions, b.scanpath.positions), (a.scanpath.durations, b.scanpath.durations)]
        for x, y in pairs:
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        save_dataset(GazeDataset(items=loaded.items, features=loaded.features), tmp_path / "again")
        files = sorted(f.name for f in (tmp_path / "d").iterdir())
        assert files == ["features.npy", "lengths.npy", "manifest.json", "scanpaths.npy", "types.npy"]
        assert sorted(f.name for f in (tmp_path / "again").iterdir()) == files
        for name in files:
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "d" / name).read_bytes()
        rec = ramp_recording([(50, 0.0, 0.0), (20, 5.0, 0.0), (50, 5.0, 0.0)], noise=0.01)
        save_recording_csv(rec, tmp_path / "r.csv")
        save_recording_csv(load_recording_csv(tmp_path / "r.csv"), tmp_path / "r2.csv")
        assert (tmp_path / "r2.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()

    def test_cells_padded_with_spaces_read_as_float_reads_them(self, tmp_path):
        (tmp_path / "rec.csv").write_text("t_ms,x_deg,y_deg\n0, 1.5,2.0 \n1_0,2e1,2.5E2\n")
        (tmp_path / "rec.json").write_text('{"sampling_rate": 1000}')
        loaded = load_recording_csv(tmp_path / "rec.csv")
        np.testing.assert_array_equal(loaded.t_ms, [0.0, 10.0])
        np.testing.assert_array_equal(loaded.x_deg, [1.5, 20.0])
        np.testing.assert_array_equal(loaded.y_deg, [2.0, 250.0])


def load_phi_matrix(csv_path):
    return load_phi_csv(csv_path)[2]


READERS = {
    "recording": (load_recording_csv, "t_ms,x_deg,y_deg", "0.0,0.0,0.0\n1.0,0.5,0.5\n2.0,1.0,1.0\n"),
    "features": (load_phi_matrix, "subject_id,image_id,phi_1,phi_2", "s0,i0,0.0,0.0\ns1,i0,0.5,0.5\ns2,i1,1.0,nan\n"),
}


def second_row_with(body, change):
    lines = body.splitlines()
    lines[1] = change(lines[1])
    return "\n".join(lines) + "\n"


class TestReaderRejections:
    def write(self, tmp_path, header, body):
        (tmp_path / "f.csv").write_text(f"{header}\n{body}")
        (tmp_path / "f.json").write_text('{"sampling_rate": 1000}')
        return tmp_path / "f.csv"

    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_good_file_reads(self, tmp_path, kind):
        reader, header, body = READERS[kind]
        assert len(reader(self.write(tmp_path, header, body))) == 3

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize(
        "defect, change",
        [
            ("one cell too many", lambda row: row + ",7.0"),
            ("one cell too few", lambda row: row.rsplit(",", 1)[0]),
        ],
    )
    def test_ragged_row_rejected_with_its_number(self, tmp_path, kind, defect, change):
        reader, header, body = READERS[kind]
        path = self.write(tmp_path, header, second_row_with(body, change))
        with pytest.raises(ValueError, match=r"f\.csv: row 3 has \d+ columns, expected"):
            reader(path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("cell", ["oops", "", " ", "1.0.0", "0x10"])
    def test_unparseable_cell_rejected_with_its_row(self, tmp_path, kind, cell):
        reader, header, body = READERS[kind]
        path = self.write(tmp_path, header, second_row_with(body, lambda row: row.rsplit(",", 1)[0] + "," + cell))
        with pytest.raises(ValueError, match=r"f\.csv: row 3: could not convert"):
            reader(path)

    @pytest.mark.parametrize("kind", sorted(READERS))
    @pytest.mark.parametrize("change", [lambda h: h + ",extra", lambda h: h.replace("_", "-"), lambda h: ""])
    def test_wrong_header_rejected(self, tmp_path, kind, change):
        reader, header, body = READERS[kind]
        path = self.write(tmp_path, change(header), body)
        with pytest.raises(ValueError, match=r"f\.csv: expected header"):
            reader(path)
