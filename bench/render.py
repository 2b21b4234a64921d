"""Raw-gaze renderer: turns a scanpath into a 500 Hz recording.

Each fixation holds its position for its duration; each saccade moves to
the next fixation along a minimum-jerk position profile lasting
21 + 2.2 * amplitude ms (the main sequence). Every sample carries
independent Gaussian noise. The renderer belongs to the benchmark, not to
gazeid, so that a change to gazeid cannot change its inputs.
"""

from __future__ import annotations

import numpy as np

from gazeid.core import GazeRecording, Scanpath

SAMPLING_RATE_HZ = 500.0
NOISE_DEG = 0.01


def saccade_duration_ms(amplitude_deg: float) -> float:
    return 21.0 + 2.2 * amplitude_deg


def render_recording(path: Scanpath, rng: np.random.Generator) -> GazeRecording:
    """One recording whose fixations are those of ``path``."""
    dt = 1000.0 / SAMPLING_RATE_HZ
    pos, dur = path.positions, path.durations
    xs, ys = [], []
    for i in range(len(path)):
        n_fix = max(int(round(dur[i] / dt)), 1)
        xs.append(np.full(n_fix, pos[i, 0]))
        ys.append(np.full(n_fix, pos[i, 1]))
        if i + 1 < len(path):
            step = pos[i + 1] - pos[i]
            n_sac = max(int(round(saccade_duration_ms(float(np.hypot(*step))) / dt)), 1)
            tau = np.arange(1, n_sac + 1) / (n_sac + 1)
            profile = tau**3 * (10.0 - 15.0 * tau + 6.0 * tau**2)
            xs.append(pos[i, 0] + step[0] * profile)
            ys.append(pos[i, 1] + step[1] * profile)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    x += NOISE_DEG * rng.standard_normal(x.size)
    y += NOISE_DEG * rng.standard_normal(y.size)
    return GazeRecording(
        t_ms=np.arange(x.size) * dt,
        x_deg=x,
        y_deg=y,
        sampling_rate=SAMPLING_RATE_HZ,
        subject_id=path.subject_id,
        image_id=path.image_id,
    )
