"""Markov scanpath model: a multinomial over saccade types plus per-type
Gamma channels, with fitting, log-likelihood, analytic gradient, and
generative sampling.

The base configuration models saccade amplitude and the following fixation
duration; the saccade-dynamics configuration adds mean velocity, mean
absolute acceleration, per-axis acceleration ratios, and per-axis vigor.
All channel blocks share one structure, so the two configurations differ
only in their channel set. A saccade table's rows are ``DYNAMICS_CHANNELS``
in order, so a configuration's channels are its first rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np
from scipy.special import digamma, gammaln

from .core import BASE_CHANNELS, DYNAMICS_CHANNELS, SaccadeTable, Scanpath, _eq_by_value
from .distributions import (
    GammaParams,
    N_SACCADE_TYPES,
    as_rng,
    checked_gamma,
    floored_multinomial,
    gamma_logpdf,  # noqa: F401  (unused; the benchmark's tracer test patches it through markov)
    gamma_mle_from_sums,
)

# Row u - 1 holds the (low, high) direction change (degrees) drawn for a
# sampled saccade of type u; the 1e-9 inset keeps drawn angles strictly
# inside the half-open classification bins.
_TYPE_BINS = np.array([[-45.0, 45.0], [-135.0, -45.0], [45.0, 135.0], [135.0, 225.0]]) + [1e-9, -1e-9]


def canonical_channels(channels: Sequence[str]) -> tuple[str, ...]:
    """``BASE_CHANNELS`` or ``DYNAMICS_CHANNELS``, whichever has exactly
    the given names, in any order."""
    for config in (BASE_CHANNELS, DYNAMICS_CHANNELS):
        if sorted(channels) == sorted(config):
            return config
    raise ValueError(
        f"channels must be {list(BASE_CHANNELS)} or {list(DYNAMICS_CHANNELS)}, got {list(channels)}"
    )


@dataclass(frozen=True)
class MarkovFitReport:
    """Cells that fell back to the channel's pooled-across-types fit."""

    fallback_cells: tuple[tuple[str, int], ...] = ()
    skipped_values: int = 0


@dataclass(frozen=True, init=False)
class MarkovModelParams:
    """Type probabilities ``pi`` plus the Gamma ``shapes`` and ``scales``,
    (channels, types) arrays in ``channel_names`` order. The constructor
    takes, and ``channels`` gives, the cells as GammaParams per channel;
    ``from_arrays`` takes the arrays.

    ``pi`` is stored as a raw positive vector rather than a strict
    MultinomialParams: gradient checks probe the likelihood at perturbed,
    unrenormalized pi coordinates (the scores are the unconstrained
    categorical derivatives K_u / pi_u). Fitted models always carry a
    proper probability vector.
    """

    pi: np.ndarray
    channel_names: tuple[str, ...]
    shapes: np.ndarray
    scales: np.ndarray
    fit_report: MarkovFitReport | None = field(default=None, compare=False)

    __eq__ = _eq_by_value

    def __init__(self, pi, channels: Mapping[str, Sequence[GammaParams]], fit_report: MarkovFitReport | None = None):
        names = canonical_channels(channels)
        for ch in names:
            if len(channels[ch]) != N_SACCADE_TYPES:
                raise ValueError(f"channel {ch!r} needs {N_SACCADE_TYPES} Gamma cells")
        cells = np.array([[(g.shape, g.scale) for g in channels[ch]] for ch in names], dtype=float)
        self._set(pi, names, cells[..., 0], cells[..., 1], fit_report)

    @classmethod
    def from_arrays(cls, pi, channel_names: Sequence[str], shapes, scales, fit_report=None) -> MarkovModelParams:
        """The model of these arrays, whose rows follow ``channel_names``:
        a configuration in its canonical order."""
        names = canonical_channels(channel_names)
        if names != tuple(channel_names):
            raise ValueError(f"channel_names must be in the order {list(names)}, got {list(channel_names)}")
        params = object.__new__(cls)
        params._set(pi, names, shapes, scales, fit_report)
        return params

    def _set(self, pi, names, shapes, scales, fit_report) -> None:
        grid = (len(names), N_SACCADE_TYPES)
        for key, value, shape in (("pi", pi, grid[1:]), ("shapes", shapes, grid), ("scales", scales, grid)):
            value = np.array(value, dtype=float)
            if value.shape != shape:
                raise ValueError(f"{key} must have shape {shape}, got {value.shape}")
            bad = np.argwhere(~(np.isfinite(value) & (value > 0)))
            if len(bad):
                where = bad[0].tolist()
                raise ValueError(f"{key} entries must be positive and finite, got {value[tuple(where)]} at {where}")
            object.__setattr__(self, key, value)
        object.__setattr__(self, "channel_names", names)
        object.__setattr__(self, "fit_report", fit_report)

    @property
    def channels(self) -> dict[str, tuple[GammaParams, ...]]:
        cells = zip(self.channel_names, self.shapes.tolist(), self.scales.tolist())
        return {ch: tuple(map(GammaParams, a, b)) for ch, a, b in cells}

    @property
    def config(self) -> str:
        return "base" if self.channel_names == BASE_CHANNELS else "dynamics"

    @property
    def dim(self) -> int:
        """Gradient/parameter vector length: 4 + 8 * number of channels."""
        return N_SACCADE_TYPES * (1 + 2 * len(self.channel_names))


def params_to_vector(params: MarkovModelParams) -> np.ndarray:
    """Flatten to per-type blocks [pi_u, (alpha, beta) per channel]."""
    return _per_type_blocks(params.pi, params.shapes, params.scales)


def vector_to_params(vec: np.ndarray, channel_names: Sequence[str]) -> MarkovModelParams:
    names = canonical_channels(channel_names)
    vec = np.asarray(vec, dtype=float)
    size = N_SACCADE_TYPES * (1 + 2 * len(names))
    if vec.shape != (size,):
        raise ValueError(f"expected vector of length {size}, got {vec.shape}")
    blocks = vec.reshape(N_SACCADE_TYPES, -1)
    cells = blocks[:, 1:].reshape(N_SACCADE_TYPES, len(names), 2)
    return MarkovModelParams.from_arrays(blocks[:, 0], names, cells[..., 0].T, cells[..., 1].T)


def _per_type_blocks(first: np.ndarray, shapes: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Interleave into the ``params_to_vector`` layout; (..., channels, types) shapes and scales."""
    out = np.empty(first.shape + (1 + 2 * shapes.shape[-2],))
    out[..., 0] = first
    out[..., 1::2] = np.swapaxes(shapes, -1, -2)
    out[..., 2::2] = np.swapaxes(scales, -1, -2)
    return out.reshape(first.shape[:-1] + (-1,))


def statistics(features: SaccadeTable, channels: Sequence[str], lengths: Sequence[int] | None = None) -> np.ndarray:
    """Sufficient-statistics row of one scanpath's saccade table, on which
    alone ``loglik``, ``grad_loglik`` and ``fit`` depend: ``[K_1..K_4 | for
    each channel, for each type: n, sum x, sum ln x]``. K_u counts type-u
    saccades; the channel sums skip values that are not finite and
    positive. The row of a concatenation is the sum of the rows.

    With ``lengths``, the table is several items' tables concatenated, the
    i-th of ``lengths[i]`` saccades, and the result is the (items, row)
    matrix. Every sum is one ``np.bincount`` bin per (channel, term, item,
    type), and a bin adds its values in saccade order, so every row equals
    the row of its item's table alone, bit for bit."""
    single = lengths is None
    lengths = [len(features)] if single else list(lengths)
    if not lengths or min(lengths) < 1:
        raise ValueError("features must be non-empty")
    if sum(lengths) != len(features):
        raise ValueError(f"lengths sum to {sum(lengths)}, but the table has {len(features)} saccades")
    names = canonical_channels(channels)
    types = features.types
    # a type outside 1..4 would fall into a neighbouring item's bin
    if types.min() < 1 or types.max() > N_SACCADE_TYPES:
        raise ValueError(f"saccade types must lie in 1..{N_SACCADE_TYPES}")
    values = features.values[: len(names)]
    valid = np.isfinite(values) & (values > 0)
    x = np.where(valid, values, 1.0)
    terms = np.stack([valid, valid * x, np.log(x)], axis=1).reshape(-1, len(types))  # (channel, term) rows
    n_cells = len(lengths) * N_SACCADE_TYPES
    cell = np.repeat(np.arange(0, n_cells, N_SACCADE_TYPES), lengths) + types - 1  # 4 * item + type - 1
    bins = np.arange(len(terms))[:, None] * n_cells + cell
    sums = np.bincount(bins.ravel(), terms.ravel(), minlength=len(terms) * n_cells)
    counts = np.bincount(cell, minlength=n_cells).reshape(len(lengths), N_SACCADE_TYPES)
    sums = sums.reshape(len(names), 3, len(lengths), N_SACCADE_TYPES).transpose(2, 0, 3, 1)
    rows = np.concatenate([counts, sums.reshape(len(lengths), -1)], axis=1)
    return rows[0] if single else rows


def _unpack(rows: np.ndarray, n_channels: int) -> tuple[np.ndarray, np.ndarray]:
    """Type counts K and cell statistics, shaped (..., channels, types,
    [n, sum x, sum ln x]), of one row or a stack of rows."""
    rows = np.asarray(rows, dtype=float)
    shape = rows.shape[:-1] + (n_channels, N_SACCADE_TYPES, 3)
    return rows[..., :N_SACCADE_TYPES], rows[..., N_SACCADE_TYPES:].reshape(shape)


def coef(params: MarkovModelParams) -> np.ndarray:
    """Vector c with ``loglik(features, params) == statistics(features,
    params.channel_names) @ c``: ``[ln pi_u | for each channel, for each
    type: -(ln Gamma(a) + a ln b), -1/b, a - 1]``."""
    a, b = params.shapes, params.scales
    cells = np.stack([-(gammaln(a) + a * np.log(b)), -1.0 / b, a - 1.0], axis=-1)
    return np.concatenate([np.log(params.pi), cells.ravel()])


def fit_from_statistics(rows: np.ndarray, channels: Sequence[str]) -> MarkovModelParams | list[MarkovModelParams]:
    """``fit`` from the summed ``statistics`` rows of the training scanpaths.
    A (models, row) stack of such sums gives one model per row, with every
    Gamma cell of every model in one batched Newton iteration."""
    names = canonical_channels(channels)
    rows = np.asarray(rows, dtype=float)
    counts, stats = _unpack(np.atleast_2d(rows), len(names))
    # each channel's pooled-across-types cell, summed in type order, is its fallback
    pooled = stats.sum(axis=-2, keepdims=True)
    shape, scale, ok = gamma_mle_from_sums(*np.moveaxis(np.concatenate([stats, pooled], axis=-2), -1, 0))
    fallback = ~ok[..., :N_SACCADE_TYPES]
    for m, c in zip(*np.nonzero(fallback.any(axis=-1))):
        checked_gamma(shape[m, c, -1], scale[m, c, -1], ok[m, c, -1])  # a failed pooled fit raises
    shapes, scales = (np.where(fallback, v[..., -1:], v[..., :N_SACCADE_TYPES]) for v in (shape, scale))
    skipped = counts.sum(axis=-1) * len(names) - stats[..., 0].sum(axis=(-2, -1))
    pis = floored_multinomial(counts)
    models = [
        MarkovModelParams.from_arrays(
            pis[m], names, shapes[m], scales[m],
            fit_report=MarkovFitReport(
                fallback_cells=tuple((names[c], int(u) + 1) for c, u in zip(*np.nonzero(fallback[m]))),
                skipped_values=int(skipped[m]),
            ),
        )
        for m in range(len(counts))
    ]
    return models if rows.ndim == 2 else models[0]


def fit(data: Sequence[SaccadeTable], channels: Sequence[str] = BASE_CHANNELS) -> MarkovModelParams:
    """Factorized maximum likelihood over pooled training scanpaths.

    Type probabilities come from pooled type counts; each (channel, type)
    cell gets its own Gamma MLE. A cell with fewer than two usable samples
    (or a degenerate one) falls back to the channel's pooled-across-types
    fit, recorded in the fit report.
    """
    if not sum(len(t) for t in data):
        raise ValueError("no saccades in training data")
    return fit_from_statistics(statistics(SaccadeTable.concat(data), channels), channels)


def loglik(features: SaccadeTable, params: MarkovModelParams) -> float:
    """Scanpath log-likelihood under the factorized model.

    Uses the categorical form sum_t ln pi_{u_t}; the parameter-free
    multinomial coefficient is omitted, so values are comparable across
    parameter settings but are not normalized counts-likelihoods.
    """
    return float(statistics(features, params.channel_names) @ coef(params))


def grad_from_statistics(rows: np.ndarray, params: MarkovModelParams) -> np.ndarray:
    """``grad_loglik`` as a linear map of one ``statistics`` row, or of
    each row of a stack (one gradient per row)."""
    counts, stats = _unpack(rows, len(params.channel_names))
    n, sum_x, sum_log_x = np.moveaxis(stats, -1, 0)
    a, b = params.shapes, params.scales
    d_shape = sum_log_x - n * (digamma(a) + np.log(b))
    return _per_type_blocks(counts / params.pi, d_shape, (sum_x / b - n * a) / b)


def grad_loglik(features: SaccadeTable, params: MarkovModelParams) -> np.ndarray:
    """Gradient of ``loglik`` with respect to the flattened parameter vector.

    Layout matches ``params_to_vector``: per-type blocks of [K_u / pi_u, then
    per channel d/d shape = sum ln x - n (psi(a) + ln b) and d/d scale =
    (sum x / b - n a) / b]. The pi coordinates are the unconstrained
    categorical derivatives. Values skipped by ``loglik`` are excluded.
    """
    return grad_from_statistics(statistics(features, params.channel_names), params)


def sample_scanpath(
    params: MarkovModelParams,
    n_fixations: int,
    start: tuple[float, float] = (0.0, 0.0),
    seed_or_rng=0,
    subject_id: str = "",
    image_id: str = "",
) -> tuple[Scanpath, SaccadeTable]:
    """Draw a scanpath of ``n_fixations`` fixations from the model.

    Draws, in this order: the first fixation's type and duration, every
    saccade's type, every saccade's direction change (one uniform call,
    each angle strictly inside its type's bin), and every channel's values
    (one Gamma call). The position trace then turns the previous direction
    by each change, wrapped to (-180, 180], and steps by the amplitude, so
    re-extracting features recovers the drawn types, amplitudes and
    durations. Channel values without a spatial footprint (velocities,
    ratios, vigor) are carried in the returned saccade table only.
    Deterministic for a given seed.
    """
    if n_fixations < 2:
        raise ValueError("need at least 2 fixations")
    rng = as_rng(seed_or_rng)
    n_sacc = n_fixations - 1

    pi, shapes, scales = params.pi, params.shapes, params.scales
    first = int(rng.choice(N_SACCADE_TYPES, p=pi / pi.sum()))
    first_duration = float(rng.gamma(shapes[1, first], scales[1, first]))

    types = rng.choice(N_SACCADE_TYPES, size=n_sacc, p=pi / pi.sum()) + 1
    deltas = rng.uniform(*_TYPE_BINS[types - 1].T)

    values = np.full((len(DYNAMICS_CHANNELS), n_sacc), math.nan)
    values[: len(shapes)] = rng.gamma(shapes[:, types - 1], scales[:, types - 1])

    positions = np.empty((n_fixations, 2))
    positions[0] = start
    durations = np.empty(n_fixations)
    durations[0] = first_duration
    durations[1:] = values[1]
    direction = 0.0
    for t in range(n_sacc):
        direction = float(((direction + deltas[t]) + 180.0) % 360.0 - 180.0)
        if direction == -180.0:
            direction = 180.0
        rad = math.radians(direction)
        positions[t + 1] = positions[t] + float(values[0, t]) * np.array([math.cos(rad), math.sin(rad)])
    path = Scanpath(
        positions=positions, durations=durations, subject_id=subject_id, image_id=image_id
    )
    return path, SaccadeTable(types=types, values=values)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def params_to_json_dict(params: MarkovModelParams) -> dict:
    return {
        "config": params.config,
        "pi": [float(v) for v in params.pi],
        "channels": {
            ch: [{"alpha": c.shape, "beta": c.scale} for c in cells]
            for ch, cells in params.channels.items()
        },
    }


def params_from_json_dict(doc: dict) -> MarkovModelParams:
    """The model of a ``params_to_json_dict`` document. Its ``pi`` must sum
    to 1 within 1e-12, as a fitted one does, and no value may be a JSON
    boolean, which would read as 0 or 1."""
    cells = {ch: list(dicts) for ch, dicts in doc["channels"].items()}
    values = [(key, c[key]) for cs in cells.values() for c in cs for key in ("alpha", "beta")]
    for key, value in [("pi", v) for v in doc["pi"]] + values:
        if isinstance(value, bool):
            raise ValueError(f"{key} values must be numbers, got {value!r}")
    channels = {ch: tuple(GammaParams(shape=c["alpha"], scale=c["beta"]) for c in cs) for ch, cs in cells.items()}
    params = MarkovModelParams(pi=np.asarray(doc["pi"], dtype=float), channels=channels)
    total = float(params.pi.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"pi must sum to 1 within 1e-12, got sum {total!r}")
    return params


def default_params(channels: Sequence[str] = BASE_CHANNELS) -> MarkovModelParams:
    """A plausible scene-viewing model used as a simulation baseline.

    Amplitudes of a few degrees, fixation durations around 250 ms, mean
    saccade velocities around 150 deg/s, with mild per-type variation.
    """
    names = canonical_channels(channels)
    per_type = {
        "amplitude": [(2.6, 1.6), (2.2, 1.3), (2.3, 1.4), (3.0, 1.1)],
        "duration": [(7.0, 34.0), (6.0, 40.0), (6.5, 38.0), (5.5, 44.0)],
        "velocity": [(9.0, 17.0), (8.0, 18.0), (8.5, 17.5), (10.0, 16.0)],
        "acceleration": [(6.0, 900.0), (5.5, 950.0), (5.8, 920.0), (6.5, 850.0)],
        "ratio_x": [(8.0, 0.14), (7.5, 0.15), (7.8, 0.145), (8.5, 0.13)],
        "ratio_y": [(7.0, 0.16), (6.8, 0.165), (7.2, 0.155), (7.5, 0.15)],
        "vigor_x": [(10.0, 40.0), (9.0, 44.0), (9.5, 42.0), (11.0, 38.0)],
        "vigor_y": [(9.0, 38.0), (8.5, 41.0), (9.2, 39.0), (10.0, 36.0)],
    }
    cells = np.array([per_type[ch] for ch in names])
    return MarkovModelParams.from_arrays(np.array([0.45, 0.22, 0.21, 0.12]), names, cells[..., 0], cells[..., 1])
