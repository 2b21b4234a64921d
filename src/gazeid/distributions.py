"""Gamma and multinomial primitives: log-densities, MLE, sampling.

All saccade feature channels are modeled with shape/scale Gamma
distributions; saccade types with a 4-way multinomial. This module keeps
those primitives in one place so that model code only composes them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import digamma, gammaln, polygamma

# Floor applied to multinomial entries so score terms K_u / pi_u stay
# finite when a type never occurs in training but shows up at test time.
PROB_FLOOR = 1e-6

N_SACCADE_TYPES = 4

_EPS = np.finfo(float).eps

# Relative step at which the Gamma shape Newton iteration stops.
_SHAPE_TOL = 1e-10


class DegenerateSampleError(ValueError):
    """Sample set carries no information for the requested estimate."""


class ConvergenceError(RuntimeError):
    """Iterative estimator failed to converge; carries the last iterate."""

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class GammaParams:
    """Shape/scale parameterization; mean = shape * scale."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and np.isfinite(self.shape)):
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    @property
    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class MultinomialParams:
    """Probability vector over the four saccade types."""

    pi: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if pi.shape != (N_SACCADE_TYPES,):
            raise ValueError(f"pi must have shape ({N_SACCADE_TYPES},), got {pi.shape}")
        if np.any(pi < PROB_FLOOR):
            raise ValueError(f"pi entries must be >= {PROB_FLOOR}, got {pi}")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"pi must sum to 1 within 1e-12, got sum {pi.sum()!r}")


def gamma_logpdf(x, params: GammaParams):
    """Log-density of the shape/scale Gamma at x (scalar or array), x > 0."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("gamma_logpdf requires strictly positive finite x")
    a, b = params.shape, params.scale
    return (a - 1.0) * np.log(x) - x / b - gammaln(a) - a * np.log(b)


def gamma_mle(xs, max_iter: int = 100) -> GammaParams:
    """Maximum-likelihood Gamma fit of a sample; see ``gamma_mle_from_sums``.
    Requires at least two distinct positive samples."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2:
        raise DegenerateSampleError("need at least 2 samples for a Gamma fit")
    if np.any(xs <= 0) or not np.all(np.isfinite(xs)):
        raise DegenerateSampleError("Gamma samples must be strictly positive and finite")
    return checked_gamma(*gamma_mle_from_sums(xs.size, xs.sum(), np.log(xs).sum(), max_iter))


def gamma_mle_from_sums(n, sum_x, sum_log_x, max_iter: int = 100):
    """Maximum-likelihood Gamma fits from the sufficient statistics of
    positive samples, one per cell of the broadcast arrays n (sample size),
    sum_x (sum of x) and sum_log_x (sum of ln x).

    A vectorised Newton iteration on the shapes solves the residual
    r(a) = ln(a) - psi(a) - s = 0, s = ln(mean(x)) - mean(ln x); a cell
    stops at the first step that moves its shape by less than
    tol * max(1, a), tol = ``_SHAPE_TOL``, or that is no larger than the
    step the rounding of r alone can cause,
    eps * (|ln a| + |psi(a)| + s) / |r'(a)|, and then scale = mean(x) / a.
    The second bound binds only above shapes of about 1e4, where
    ln(a) - psi(a) ~ 1/(2a) is the difference of two numbers near ln(a)
    and the steps wander by more than tol * a.
    Returns the arrays (shape, scale, converged). A degenerate cell, with
    fewer than 2 samples or samples (numerically) all identical, so that
    the shape is unidentifiable, has NaN shape and scale; a cell still
    moving after ``max_iter`` steps keeps its last shape. Neither is
    converged, and ``checked_gamma`` raises for both.
    """
    n, sum_x, sum_log_x = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (n, sum_x, sum_log_x)))
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sum_x / n
        s = np.log(mean) - sum_log_x / n
    # s -> 0 as the sample spread vanishes; the shape then diverges.
    active = np.flatnonzero((n >= 2) & np.isfinite(s) & (s > 1e-12))
    shape = np.full(n.shape, np.nan)
    converged = np.zeros(n.shape, dtype=bool)
    s = s.ravel()[active]
    a = 0.5 / s
    for _ in range(max_iter):
        if not active.size:
            break
        log_a, psi_a = np.log(a), digamma(a)
        slope = 1.0 / a - polygamma(1, a)
        step = (log_a - psi_a - s) / slope
        a_new = np.where(a - step <= 0, a / 2.0, a - step)
        rounding = _EPS * (np.abs(log_a) + np.abs(psi_a) + s) / np.abs(slope)
        done = (np.abs(a_new - a) < _SHAPE_TOL * np.maximum(1.0, a)) | (np.abs(step) <= rounding)
        shape.flat[active[done]] = a_new[done]
        converged.flat[active[done]] = True
        active, a, s = active[~done], a_new[~done], s[~done]
    shape.flat[active] = a
    return shape, mean / shape, converged


def checked_gamma(shape, scale, converged) -> GammaParams:
    """One cell of ``gamma_mle_from_sums`` as GammaParams; a cell that did
    not converge raises DegenerateSampleError or ConvergenceError."""
    if np.isnan(shape):
        raise DegenerateSampleError("fewer than 2 samples, or all (numerically) identical; shape is unidentifiable")
    if not converged:
        raise ConvergenceError(
            f"Gamma shape Newton iteration did not converge (last shape {float(shape)!r})",
            last_iterate=float(shape),
        )
    return GammaParams(shape=float(shape), scale=float(scale))


def floored_multinomial(counts) -> np.ndarray:
    """Floored multinomial MLE of each row of a (rows, 4) stack of type
    counts: pi_u = max(K_u / sum K, floor), renormalized.

    Floored entries are pinned at exactly PROB_FLOOR and the remaining mass
    is distributed proportionally over the others, so counts (5,0,0,0) map
    to (1 - 3*floor, floor, floor, floor). A row's free mass is summed with
    its floored entries as exact zeros, in type order, so every row equals
    its fit alone, bit for bit.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or counts.shape[1] != N_SACCADE_TYPES:
        raise ValueError(f"expected rows of {N_SACCADE_TYPES} counts, got shape {counts.shape}")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    total = counts.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise DegenerateSampleError("all type counts are zero")

    pi = counts / total
    floored = pi < PROB_FLOOR
    # Rescaling the free entries can push borderline ones under the floor;
    # repeat until every row's floored set is stable (at most 3 passes for 4 bins).
    while True:
        free_mass = 1.0 - PROB_FLOOR * floored.sum(axis=1, keepdims=True)
        free = np.where(floored, 0.0, pi)
        scaled = np.where(floored, PROB_FLOOR, free * free_mass / free.sum(axis=1, keepdims=True))
        newly = (scaled < PROB_FLOOR) & ~floored
        if not newly.any():
            return scaled
        floored |= newly


def multinomial_mle(counts) -> MultinomialParams:
    """``floored_multinomial`` of one row of type counts."""
    counts = np.asarray(counts, dtype=float)
    if counts.shape != (N_SACCADE_TYPES,):
        raise ValueError(f"expected {N_SACCADE_TYPES} counts, got shape {counts.shape}")
    return MultinomialParams(pi=floored_multinomial(counts[None])[0])


def as_rng(seed_or_rng) -> np.random.Generator:
    """Accept an int seed or a caller-owned Generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def gamma_sample(params: GammaParams, n: int, seed_or_rng) -> np.ndarray:
    """Draw n values; deterministic for a given seed."""
    rng = as_rng(seed_or_rng)
    return rng.gamma(shape=params.shape, scale=params.scale, size=n)
