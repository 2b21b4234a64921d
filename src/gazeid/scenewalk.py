"""Saliency-driven scanpath walk with attention and inhibition fields.

An attention field pulls gaze toward salient regions through a foveal
Gaussian window; an inhibition field suppresses recently fixated regions.
Both decay exponentially between fixations. The next-fixation distribution
mixes the normalized combined potential with a uniform component. The
likelihood is defined over grid cells; fixation positions snap to the
nearest cell center.

Everything here computes on a discretized image grid in degree
coordinates. Durations are milliseconds at the API, seconds inside the
decay terms.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .core import Scanpath
from .distributions import GammaParams, as_rng

# Canonical parameter order for vectors: gradients, fits, Fisher scores.
PARAM_NAMES = ("zeta", "c_f", "lam", "gamma", "omega_a", "omega_f", "sigma_a", "sigma_f")

SALIENCY_FLOOR = 1e-12
# Tiny uniform mass added to the floored potential before normalization so
# the log-likelihood stays finite even at zeta = 0.
POTENTIAL_EPS = 1e-12
_TINY = 1e-300


class InitPolicy(enum.Enum):
    """How the first fixation enters the likelihood."""

    EXCLUDED = "excluded"
    UNIFORM = "uniform"
    SALIENCY = "saliency"


@dataclass(frozen=True)
class SceneWalkParams:
    """The eight model parameters (decay rates 1/s, widths in degrees)."""

    omega_a: float
    omega_f: float
    sigma_a: float
    sigma_f: float
    lam: float
    gamma: float
    c_f: float
    zeta: float

    def __post_init__(self):
        for name in ("omega_a", "omega_f", "sigma_a", "sigma_f", "lam", "gamma"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.c_f < 0:
            raise ValueError("c_f must be non-negative")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in PARAM_NAMES])

    @classmethod
    def from_vector(cls, vec) -> "SceneWalkParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (len(PARAM_NAMES),):
            raise ValueError(f"expected {len(PARAM_NAMES)} parameters")
        return cls(**dict(zip(PARAM_NAMES, map(float, vec))))


def default_params() -> SceneWalkParams:
    return SceneWalkParams(
        omega_a=1.0,
        omega_f=0.5,
        sigma_a=2.5,
        sigma_f=1.5,
        lam=1.0,
        gamma=1.0,
        c_f=0.3,
        zeta=0.1,
    )


@dataclass(frozen=True)
class SaliencyMap:
    """Non-negative grid summing to one over a rectangular degree extent."""

    grid: np.ndarray
    extent: tuple[float, float]
    _centers: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "extent", (float(self.extent[0]), float(self.extent[1])))
        if grid.ndim != 2:
            raise ValueError("saliency grid must be 2-D")
        if not np.all(np.isfinite(grid)):
            raise ValueError("saliency grid must be finite")
        if np.any(grid < SALIENCY_FLOOR * (1.0 - 1e-9)):
            raise ValueError(f"saliency entries must be >= {SALIENCY_FLOOR}")
        if abs(grid.sum() - 1.0) > 1e-9:
            raise ValueError(f"saliency grid must sum to 1 within 1e-9, got {grid.sum()!r}")
        if not (self.extent[0] > 0 and self.extent[1] > 0):
            raise ValueError("extent must be positive")
        rows, cols = grid.shape
        xs = (np.arange(cols) + 0.5) * self.extent[0] / cols
        ys = (np.arange(rows) + 0.5) * self.extent[1] / rows
        xs.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "_centers", (xs, ys))

    @property
    def shape(self) -> tuple[int, int]:
        return self.grid.shape

    @property
    def n_cells(self) -> int:
        return self.grid.size

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """x centers (cols,) and y centers (rows,) in degrees; computed once
        per map and read-only."""
        return self._centers

    def cell_area(self) -> float:
        rows, cols = self.grid.shape
        return (self.extent[0] / cols) * (self.extent[1] / rows)

    def position_to_cell(self, q) -> tuple[int, int, bool]:
        """(row, col, clamped) of the cell containing position q = (x, y)."""
        rows, cols = self.grid.shape
        x, y = float(q[0]), float(q[1])
        j = int(math.floor(x / self.extent[0] * cols))
        i = int(math.floor(y / self.extent[1] * rows))
        clamped = not (0 <= j < cols and 0 <= i < rows)
        return min(max(i, 0), rows - 1), min(max(j, 0), cols - 1), clamped

    def cell_center(self, i: int, j: int) -> tuple[float, float]:
        xs, ys = self._centers
        return float(xs[j]), float(ys[i])


@dataclass
class SceneWalkState:
    """Attention/inhibition fields and their parameter partials.

    Single-owner mutable during a sequential sweep over one scanpath;
    independent scanpaths use separate states.
    """

    attention: np.ndarray
    inhibition: np.ndarray
    d_att_d_omega: np.ndarray
    d_att_d_sigma: np.ndarray
    d_inh_d_omega: np.ndarray
    d_inh_d_sigma: np.ndarray
    t: int = 0


def initial_state(saliency: SaliencyMap) -> SceneWalkState:
    """Attention starts at the saliency prior, inhibition uniform,
    all partial grids zero."""
    shape = saliency.shape
    return SceneWalkState(
        attention=saliency.grid.copy(),
        inhibition=np.full(shape, 1.0 / saliency.n_cells),
        d_att_d_omega=np.zeros(shape),
        d_att_d_sigma=np.zeros(shape),
        d_inh_d_omega=np.zeros(shape),
        d_inh_d_sigma=np.zeros(shape),
        t=0,
    )


def _window(dx2: np.ndarray, dy2: np.ndarray, sigma: float) -> np.ndarray:
    """exp(-r^2 / 2 sigma^2) on the grid, r^2 = dy2[:, None] + dx2[None, :],
    as the outer product of a column and a row exponential: exp runs on
    rows + cols values."""
    two_var = 2.0 * sigma**2
    return np.outer(np.exp(-dy2 / two_var), np.exp(-dx2 / two_var))


def gaussian_window(center, sigma: float, shape: tuple[int, int], extent) -> np.ndarray:
    """Normalized 2-D Gaussian bump (value 1/(2 pi sigma^2) at the center),
    evaluated at cell centers in degree coordinates."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    rows, cols = shape
    xs = (np.arange(cols) + 0.5) * float(extent[0]) / cols
    ys = (np.arange(rows) + 0.5) * float(extent[1]) / rows
    dx2 = (xs - float(center[0])) ** 2
    dy2 = (ys - float(center[1])) ** 2
    return _window(dx2, dy2, sigma) / (2.0 * math.pi * sigma**2)


def _normalized_with_dsigma(w: np.ndarray, r2: np.ndarray, sigma: float):
    """w / sum(w) and its derivative in sigma, for w = exp(-r2 / 2 sigma^2)
    times a weight independent of sigma: dw/dsigma = w r2 / sigma^3, so
    the derivative is (w / sum w) (r2 - E[r2]) / sigma^3 with E the mean
    under w / sum w. Constant factors of w cancel."""
    ratio = w / w.sum()
    return ratio, ratio * ((r2 - np.vdot(ratio, r2)) / sigma**3)


def _advance(state: SceneWalkState, cell, duration_ms: float, params: SceneWalkParams,
             saliency: SaliencyMap) -> SceneWalkState:
    """The field recursion past a fixation on ``cell``: both fields and
    their four parameter partials."""
    if not duration_ms > 0:
        raise ValueError("duration must be positive")
    d_s = duration_ms / 1000.0
    xs, ys = saliency.cell_centers()
    dx2 = (xs - xs[cell[1]]) ** 2
    dy2 = (ys - ys[cell[0]]) ** 2
    r2 = dy2[:, None] + dx2[None, :]
    g_hat, dg_hat = _normalized_with_dsigma(
        _window(dx2, dy2, params.sigma_a) * saliency.grid, r2, params.sigma_a
    )
    f_hat, df_hat = _normalized_with_dsigma(_window(dx2, dy2, params.sigma_f), r2, params.sigma_f)

    decay_a = math.exp(-params.omega_a * d_s)
    decay_f = math.exp(-params.omega_f * d_s)
    att_gap = state.attention - g_hat
    inh_gap = state.inhibition - f_hat
    new = SceneWalkState(
        attention=g_hat + decay_a * att_gap,
        inhibition=f_hat + decay_f * inh_gap,
        d_att_d_omega=decay_a * (state.d_att_d_omega - d_s * att_gap),
        d_att_d_sigma=dg_hat * (1.0 - decay_a) + decay_a * state.d_att_d_sigma,
        d_inh_d_omega=decay_f * (state.d_inh_d_omega - d_s * inh_gap),
        d_inh_d_sigma=df_hat * (1.0 - decay_f) + decay_f * state.d_inh_d_sigma,
        t=state.t + 1,
    )
    if not (np.all(np.isfinite(new.attention)) and np.all(np.isfinite(new.inhibition))):
        raise FloatingPointError(f"non-finite field update for parameters {params}")
    return new


@dataclass(frozen=True)
class _TargetDistribution:
    """Potential, its positive part and normalization, and the pieces
    gradients reuse. ``a`` and ``f`` are the fields floored at _TINY."""

    a: np.ndarray
    f: np.ndarray
    log_a: np.ndarray
    log_f: np.ndarray
    a_pow: np.ndarray
    f_pow: np.ndarray
    a_sum: float
    f_sum: float
    a_norm: np.ndarray
    f_norm: np.ndarray
    potential: np.ndarray
    u_plus: np.ndarray
    u_sum: float
    mix_sum: float

    @property
    def p_star(self) -> np.ndarray:
        return (self.u_plus + POTENTIAL_EPS) / self.mix_sum


def _target_distribution(state: SceneWalkState, params: SceneWalkParams) -> _TargetDistribution:
    a = np.maximum(state.attention, _TINY)
    f = np.maximum(state.inhibition, _TINY)
    log_a = np.log(a)
    log_f = np.log(f)
    a_pow = np.exp(params.lam * log_a)
    f_pow = np.exp(params.gamma * log_f)
    a_sum = float(a_pow.sum())
    f_sum = float(f_pow.sum())
    if not (np.isfinite(a_sum) and a_sum > 0 and np.isfinite(f_sum) and f_sum > 0):
        raise FloatingPointError(
            f"non-finite potential normalization for parameters {params}"
        )
    a_norm = a_pow / a_sum
    f_norm = f_pow / f_sum
    potential = a_norm - params.c_f * f_norm
    u_plus = np.maximum(potential, 0.0)
    u_sum = float(u_plus.sum())
    return _TargetDistribution(
        a, f, log_a, log_f, a_pow, f_pow, a_sum, f_sum, a_norm, f_norm, potential, u_plus,
        u_sum, mix_sum=u_sum + potential.size * POTENTIAL_EPS,
    )


def step(
    state: SceneWalkState,
    q,
    duration_ms: float,
    params: SceneWalkParams,
    saliency: SaliencyMap,
) -> tuple[SceneWalkState, np.ndarray, np.ndarray]:
    """Advance the fields past the fixation at q of the given duration.

    Returns (new state, potential, next-fixation distribution). The new
    state carries the recursively updated parameter partials. The input
    state is not modified.
    """
    new = _advance(state, saliency.position_to_cell(q)[:2], duration_ms, params, saliency)
    target = _target_distribution(new, params)
    prob = (1.0 - params.zeta) * target.p_star + params.zeta / saliency.n_cells
    return new, target.potential, prob


@dataclass
class WalkDiagnostics:
    """Fixations that fell outside the grid extent and were clamped."""

    clamped: int = 0


def _sweep(
    path: Scanpath,
    saliency: SaliencyMap,
    params: SceneWalkParams,
    with_grad: bool,
    diagnostics: WalkDiagnostics | None = None,
) -> tuple[float, np.ndarray]:
    """Transition log-likelihood (first fixation excluded) and, if
    ``with_grad``, its gradient in PARAM_NAMES order, from one field sweep.

    Each partial of the potential is coef (X - norm sum X) / norm_sum for a
    grid X (a^lam ln a, f^gamma ln f, or a field partial times a^(lam-1) or
    f^(gamma-1); -f_norm for c_f). Through the positive part u (mask m, sum
    M), d ln p(obs) = (1 - zeta) coef / (p(obs) M^2 norm_sum) (m[obs] M X[obs]
    - u_obs sum_m X - (m[obs] M norm[obs] - u_obs sum_m norm) sum X), with
    u_obs = u[obs] + POTENTIAL_EPS: one product of the stacked X with [1, m]
    gives every sum.
    """
    T = len(path)
    if T < 2:
        raise ValueError("scanpath must contain at least 2 fixations")
    cells = []
    for q in path.positions:
        i, j, clamped = saliency.position_to_cell(q)
        if clamped and diagnostics is not None:
            diagnostics.clamped += 1
        cells.append((i, j))

    n = saliency.n_cells
    zeta, c_f = params.zeta, params.c_f
    total = 0.0
    grad = np.zeros(len(PARAM_NAMES))
    if with_grad:
        terms = np.empty((len(PARAM_NAMES) - 1,) + saliency.shape)
        ones_and_mask = np.ones((2, n))
        # Order of terms and of grad[1:]: c_f, lam, gamma, omega_a, omega_f, sigma_a, sigma_f.
        coef = np.array([-1.0, 1.0, -c_f, params.lam, -c_f * params.gamma, params.lam, -c_f * params.gamma])
    state = initial_state(saliency)
    for t in range(T - 1):
        state = _advance(state, cells[t], path.durations[t], params, saliency)
        target = _target_distribution(state, params)
        obs = cells[t + 1]
        u_obs = target.u_plus[obs] + POTENTIAL_EPS
        p_star_obs = u_obs / target.mix_sum
        p_obs = (1.0 - zeta) * p_star_obs + zeta / n
        total += math.log(p_obs)
        if not with_grad:
            continue

        grad[0] += (-p_star_obs + 1.0 / n) / p_obs
        a_ratio = target.a_pow / target.a
        f_ratio = target.f_pow / target.f
        terms[0] = target.f_norm
        np.multiply(target.a_pow, target.log_a, out=terms[1])
        np.multiply(target.f_pow, target.log_f, out=terms[2])
        np.multiply(a_ratio, state.d_att_d_omega, out=terms[3])
        np.multiply(f_ratio, state.d_inh_d_omega, out=terms[4])
        np.multiply(a_ratio, state.d_att_d_sigma, out=terms[5])
        np.multiply(f_ratio, state.d_inh_d_sigma, out=terms[6])
        np.greater(target.potential.ravel(), 0.0, out=ones_and_mask[1])
        full, masked = ones_and_mask @ terms.reshape(len(coef), n).T

        # Where the potential is positive, a_norm = u_plus + c_f f_norm.
        f_masked = masked[0]
        a_masked = target.u_sum + c_f * f_masked
        obs_mix = target.mix_sum if target.potential[obs] > 0.0 else 0.0
        a_centre = obs_mix * target.a_norm[obs] - u_obs * a_masked
        f_centre = obs_mix * target.f_norm[obs] - u_obs * f_masked
        centre = np.array([0.0, a_centre, f_centre, a_centre, f_centre, a_centre, f_centre])
        norm_sum = np.array([1.0] + [target.a_sum, target.f_sum] * 3)
        grad[1:] += (1.0 - zeta) / (p_obs * target.mix_sum**2) * coef / norm_sum * (
            obs_mix * terms[:, obs[0], obs[1]] - u_obs * masked - centre * full
        )
    return total, grad


def loglik(
    path: Scanpath,
    saliency: SaliencyMap,
    params: SceneWalkParams,
    init: InitPolicy = InitPolicy.EXCLUDED,
    diagnostics: WalkDiagnostics | None = None,
) -> float:
    """Sum over transitions of the log next-fixation probability.

    The first-fixation term follows ``init``: excluded (default, matching
    the gradient which sums over transitions only), uniform, or saliency.
    """
    total, _ = _sweep(path, saliency, params, with_grad=False, diagnostics=diagnostics)
    if init is InitPolicy.UNIFORM:
        return -math.log(saliency.n_cells) + total
    if init is InitPolicy.SALIENCY:
        return math.log(saliency.grid[saliency.position_to_cell(path.positions[0])[:2]]) + total
    return total


def grad_loglik(path: Scanpath, saliency: SaliencyMap, params: SceneWalkParams) -> np.ndarray:
    """Analytic gradient of ``loglik`` (first fixation excluded), in
    PARAM_NAMES order (zeta, c_f, lam, gamma, omega_a, omega_f, sigma_a,
    sigma_f)."""
    return _sweep(path, saliency, params, with_grad=True)[1]


def loglik_and_grad(
    path: Scanpath, saliency: SaliencyMap, params: SceneWalkParams
) -> tuple[float, np.ndarray]:
    """``loglik`` (first fixation excluded) and ``grad_loglik`` from one
    sweep over the transitions."""
    return _sweep(path, saliency, params, with_grad=True)


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneWalkFitResult:
    params: SceneWalkParams
    objective: float
    grad_norm: float
    iterations: int
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "params": dict(zip(PARAM_NAMES, map(float, self.params.to_vector()))),
            "objective": self.objective,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "converged": self.converged,
        }


_LOGIT_CLIP = 1e-9
_UNEVALUABLE = 1e30


def _to_unconstrained(params: SceneWalkParams) -> np.ndarray:
    vec = params.to_vector()
    out = np.empty_like(vec)
    z = min(max(vec[0], _LOGIT_CLIP), 1.0 - _LOGIT_CLIP)
    out[0] = math.log(z / (1.0 - z))
    out[1:] = np.log(np.maximum(vec[1:], 1e-300))
    return out


def _from_unconstrained(x: np.ndarray) -> tuple[SceneWalkParams, np.ndarray]:
    """Parameters and the Jacobian diagonal d theta / d x."""
    x = np.clip(x, -40.0, 40.0)
    zeta = 1.0 / (1.0 + math.exp(-x[0]))
    theta = np.concatenate(([zeta], np.exp(x[1:])))
    jac = np.concatenate(([zeta * (1.0 - zeta)], theta[1:]))
    return SceneWalkParams.from_vector(theta), jac


def fit(
    data: Sequence[tuple[Scanpath, SaliencyMap]],
    init: SceneWalkParams | None = None,
    rho: float = 1.0,
    max_iter: int = 500,
    gtol: float = 1e-5,
) -> SceneWalkFitResult:
    """Regularized maximum likelihood over scanpath/saliency pairs.

    Maximizes sum of log-likelihoods minus rho * ||theta||^2 with the
    analytic gradient, running L-BFGS-B in a transformed space (log for
    positive parameters, logit for the mixture weight). Convergence is a
    projected-gradient infinity norm below ``gtol`` in the transformed
    space; otherwise the best iterate is returned flagged non-converged.
    Raises FloatingPointError when the objective cannot be evaluated at
    ``init``.
    """
    if not data:
        raise ValueError("need at least one scanpath")
    if rho < 0:
        raise ValueError("rho must be non-negative")
    if init is None:
        init = default_params()

    def negative_objective(x):
        try:
            params, jac = _from_unconstrained(x)
            total = 0.0
            grad = np.zeros(len(PARAM_NAMES))
            for path, saliency in data:
                value, path_grad = loglik_and_grad(path, saliency, params)
                total += value
                grad += path_grad
            theta = params.to_vector()
            total -= rho * float(theta @ theta)
            grad -= 2.0 * rho * theta
        except FloatingPointError:
            total = math.nan
        if not np.isfinite(total):
            # A value no accepted iterate can have: the line search backs
            # off from it, and only a start that fails ends on it.
            return _UNEVALUABLE, np.zeros(len(PARAM_NAMES))
        return -total, -(grad * jac)

    res = minimize(
        negative_objective,
        _to_unconstrained(init),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "gtol": gtol, "ftol": 1e-14},
    )
    if not res.fun < _UNEVALUABLE:
        raise FloatingPointError(f"SceneWalk objective cannot be evaluated at the initial parameters {init}")
    params, _ = _from_unconstrained(res.x)
    return SceneWalkFitResult(
        params=params,
        objective=float(-res.fun),
        grad_norm=float(np.max(np.abs(res.jac))),
        iterations=int(res.nit),
        converged=bool(res.success) or float(np.max(np.abs(res.jac))) < gtol,
    )


# ---------------------------------------------------------------------------
# Sampling and saliency estimation
# ---------------------------------------------------------------------------


def sample_scanpath(
    saliency: SaliencyMap,
    params: SceneWalkParams,
    n_fixations: int,
    start,
    durations,
    seed_or_rng=0,
    subject_id: str = "",
    image_id: str = "",
) -> Scanpath:
    """Iteratively sample fixations from the next-fixation distribution.

    ``durations`` supplies fixation durations in ms: a scalar constant, a
    sequence of length ``n_fixations``, or GammaParams to draw from.
    Deterministic for a given seed.
    """
    if n_fixations < 2:
        raise ValueError("need at least 2 fixations")
    rng = as_rng(seed_or_rng)
    if isinstance(durations, GammaParams):
        durs = rng.gamma(durations.shape, durations.scale, size=n_fixations)
    elif np.isscalar(durations):
        durs = np.full(n_fixations, float(durations))
    else:
        durs = np.asarray(durations, dtype=float)
        if durs.shape != (n_fixations,):
            raise ValueError("durations sequence must have length n_fixations")
    if np.any(durs <= 0):
        raise ValueError("durations must be positive")

    rows, cols = saliency.shape
    i, j, _ = saliency.position_to_cell(start)
    positions = np.empty((n_fixations, 2))
    positions[0] = saliency.cell_center(i, j)
    state = initial_state(saliency)
    for t in range(n_fixations - 1):
        state, _, prob = step(state, positions[t], durs[t], params, saliency)
        flat = prob.ravel()
        idx = int(rng.choice(flat.size, p=flat / flat.sum()))
        i, j = divmod(idx, cols)
        positions[t + 1] = saliency.cell_center(i, j)
    return Scanpath(positions=positions, durations=durs, subject_id=subject_id, image_id=image_id)


def estimate_saliency(
    fixations,
    shape: tuple[int, int] = (128, 128),
    extent: tuple[float, float] = (32.0, 32.0),
) -> SaliencyMap:
    """Gaussian kernel density of pooled fixations on the grid.

    Per-axis bandwidths follow Scott's rule for two dimensions,
    h_k = std_k * n^(-1/6). Entries are floored at the saliency floor and
    renormalized.
    """
    pts = np.asarray(fixations, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least 2 fixation positions of shape (n, 2)")
    n = pts.shape[0]
    sd = pts.std(axis=0, ddof=1)
    if np.any(sd <= 0):
        raise ValueError("fixations are coincident along an axis; bandwidth is degenerate")
    h = sd * n ** (-1.0 / 6.0)

    rows, cols = shape
    xs = (np.arange(cols) + 0.5) * float(extent[0]) / cols
    ys = (np.arange(rows) + 0.5) * float(extent[1]) / rows
    # (rows, cols) accumulation of separable Gaussian kernels.
    kx = np.exp(-((xs[None, :] - pts[:, 0][:, None]) ** 2) / (2.0 * h[0] ** 2))
    ky = np.exp(-((ys[None, :] - pts[:, 1][:, None]) ** 2) / (2.0 * h[1] ** 2))
    grid = ky.T @ kx
    grid /= grid.sum()
    grid = np.maximum(grid, SALIENCY_FLOOR)
    grid /= grid.sum()
    grid = np.maximum(grid, SALIENCY_FLOOR)
    return SaliencyMap(grid=grid, extent=extent)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_saliency(saliency: SaliencyMap, base_path: str | Path) -> None:
    """Write ``<base>.csv`` (row-major grid) and ``<base>.json`` header.
    The suffixes are appended, so a base name may contain dots."""
    base = Path(base_path)
    with open(base.with_name(base.name + ".json"), "w") as fh:
        json.dump(
            {
                "rows": saliency.shape[0],
                "cols": saliency.shape[1],
                "extent_deg": list(saliency.extent),
            },
            fh,
            indent=2,
        )
    with open(base.with_name(base.name + ".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in saliency.grid:
            writer.writerow([repr(float(v)) for v in row])


def load_saliency(base_path: str | Path) -> SaliencyMap:
    base = Path(base_path)
    with open(base.with_name(base.name + ".json")) as fh:
        meta = json.load(fh)
    grid = []
    with open(base.with_name(base.name + ".csv"), newline="") as fh:
        for row in csv.reader(fh):
            grid.append([float(v) for v in row])
    grid = np.asarray(grid)
    if grid.shape != (meta["rows"], meta["cols"]):
        raise ValueError(
            f"{base}: grid shape {grid.shape} does not match header "
            f"({meta['rows']}, {meta['cols']})"
        )
    return SaliencyMap(grid=grid, extent=tuple(meta["extent_deg"]))
