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

import contextlib
import json
import math
import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.optimize import minimize

from .core import Scanpath, _eq_by_value
from .distributions import GammaParams, as_rng

# Canonical parameter order for vectors: gradients, fits, Fisher scores.
PARAM_NAMES = ("zeta", "c_f", "lam", "gamma", "omega_a", "omega_f", "sigma_a", "sigma_f")

SALIENCY_FLOOR = 1e-12
# Tiny uniform mass added to the floored potential before normalization so
# the log-likelihood stays finite even at zeta = 0.
POTENTIAL_EPS = 1e-12
_TINY = 1e-300


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
    """Non-negative float64 grid (C order) summing to one over a rectangular degree extent."""

    grid: np.ndarray
    extent: tuple[float, float]
    _centers: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    __eq__ = _eq_by_value

    def __post_init__(self):
        grid = np.ascontiguousarray(self.grid, dtype=float)
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
    """Attention/inhibition fields and their parameter partials, the rows of
    one (2, 3, rows, cols) array: [attention, inhibition] by [field,
    d/d omega, d/d sigma].

    ``step`` returns a new state and leaves its input as it is; a sweep
    over a scanpath advances a ``_Walk`` in place instead.
    """

    fields: np.ndarray

    attention = property(lambda self: self.fields[0, 0])
    d_att_d_omega = property(lambda self: self.fields[0, 1])
    d_att_d_sigma = property(lambda self: self.fields[0, 2])
    inhibition = property(lambda self: self.fields[1, 0])
    d_inh_d_omega = property(lambda self: self.fields[1, 1])
    d_inh_d_sigma = property(lambda self: self.fields[1, 2])


def initial_state(saliency: SaliencyMap) -> SceneWalkState:
    """Attention starts at the saliency prior, inhibition uniform,
    all partial grids zero."""
    fields = np.zeros((2, 3) + saliency.shape)
    fields[0, 0] = saliency.grid
    fields[1, 0] = 1.0 / saliency.n_cells
    return SceneWalkState(fields)


def _separable_factors(i, j, params: SceneWalkParams, saliency: SaliencyMap):
    """The window factors that depend only on a fixated row or column:
    for rows ``i`` the squared distances dy^2 (I, rows) and the row
    exponentials ey (I, 2, rows) of both fields, for columns ``j`` dx^2
    (J, cols), ex (J, 2, cols) and the normaliser's column moments c (J,
    2 fields, 2 moments, rows): c0 = W ex and c1 = W (ex dx^2)."""
    xs, ys = saliency.cell_centers()
    dx2 = (xs - xs[j, None]) ** 2
    dy2 = (ys - ys[i, None]) ** 2
    neg_two_var = np.array([[-2.0 * params.sigma_a**2], [-2.0 * params.sigma_f**2]])
    ex = np.exp(dx2[:, None] / neg_two_var)
    ey = np.exp(dy2[:, None] / neg_two_var)
    moments = np.stack([ex, ex * dx2[:, None]], axis=2)
    c = np.empty(moments.shape[:3] + ys.shape)
    np.matmul(moments[:, 0], saliency.grid.T, out=c[:, 0])
    c[:, 1] = moments[:, 1].sum(axis=-1, keepdims=True)
    return dy2, ey, dx2, ex, c


def _windows(cells: np.ndarray, durations_ms, params: SceneWalkParams, saliency: SaliencyMap):
    """Factors of the field updates past fixations on ``cells`` (K, 2) of
    the given durations, all K at once.

    The attention target is S * outer(ey, ex) / Z and the inhibition
    target outer(ey, ex) / Z, with ey, ex the window's row and column
    exponentials exp(-d^2 / 2 sigma^2) and Z its normaliser: ey . W ex, with
    W = S for attention and all ones for inhibition. A target's sigma
    partial is target (r^2 - E[r^2]) / sigma^3, with r^2 = dy^2 + dx^2 and
    E the mean under the target, and the update weighs it by 1 - decay: it
    is target times the outer sum of wy = (dy^2 - E[r^2]) (1 - decay) /
    sigma^3 and wx = dx^2 (1 - decay) / sigma^3.

    Returns (ey / Z, ex, decay, wy, wx, duration in s), the arguments of
    ``_Walk.advance`` indexed by k: the factors of both fields are (2,
    rows, 1) or (2, 1, cols) and the decays (2, 1, 1, 1). Finite factors
    keep a finite state finite.
    """
    d_s = np.asarray(durations_ms, dtype=float) / 1000.0
    if not (d_s > 0).all():
        raise ValueError("duration must be positive")
    dy2, ey, dx2, ex, c = _separable_factors(cells[:, 0], cells[:, 1], params, saliency)
    # sum w = ey . c0 and sum w r^2 = ey . (dy^2 c0 + c1).
    z = (ey * c[:, :, 0]).sum(axis=-1)
    mean_r2 = (ey * (dy2[:, None] * c[:, :, 0] + c[:, :, 1])).sum(axis=-1) / z
    decay = np.exp(np.multiply.outer(d_s, [-params.omega_a, -params.omega_f]))
    weight = ((1.0 - decay) / [params.sigma_a**3, params.sigma_f**3])[:, :, None]
    rows, d_rows = ey / z[:, :, None], (dy2[:, None] - mean_r2[:, :, None]) * weight
    d_cols = dx2[:, None] * weight
    # ex is finite where ey is: any NaN or inf reaches one of these sums.
    if not math.isfinite(rows.sum() + d_rows.sum() + d_cols.sum()):
        raise FloatingPointError(f"non-finite field update for parameters {params}")
    return (rows[..., None], ex[:, :, None], decay[:, :, None, None, None],
            d_rows[..., None], d_cols[:, :, None], d_s)


class _Walk:
    """One walk's work arrays, allocated once as one block and updated in
    place.

    The fields (a copy of the given ones: (2, 3, rows, cols) with their
    partials, or (2, 1, rows, cols) values only), the two update targets,
    scratch space, the potential and its positive mask m, and per field the
    ``powers`` [a^lam, m a^lam] and the gradient ``factors`` [1, ln a,
    (dA/d omega) / a, (dA/d sigma) / a], with a the attention A floored at
    _TINY; likewise with f, gamma and the inhibition F. ``powers @
    factors.T`` gives the full and masked sums of every gradient term.
    """

    def __init__(self, fields: np.ndarray, saliency: SaliencyMap, params: SceneWalkParams,
                 with_grad: bool):
        shape = saliency.shape
        n_fields = fields.shape[1]
        work = np.empty((2 * n_fields + 18,) + shape)
        self.fields = work[:2 * n_fields].reshape(fields.shape)
        self.fields[...] = fields
        work = work[2 * n_fields:]
        self.target, self.scratch = work[0:2], work[2:4]
        self.potential, self.mask = work[4], work[5]
        self.powers = work[6:10].reshape((2, 2) + shape)
        self.factors = work[10:].reshape((2, 4) + shape)
        if with_grad:
            self.factors[:, 0] = 1.0
        self.params = params
        self.partials = n_fields > 1
        self.with_grad = with_grad
        self.saliency = saliency
        self.exponents = np.array([params.lam, params.gamma])[:, None, None]
        self.weights = np.array([1.0, -params.c_f])

    def advance(self, rows, cols, decay, d_rows=None, d_cols=None, d_s=None) -> None:
        """The field recursion past one fixation, from its ``_windows``
        factors: both fields and, if the walk carries them, their four
        parameter partials (which need the last three factors)."""
        fields, target, scratch = self.fields, self.target, self.scratch
        np.multiply(rows, cols, out=target)
        target[0] *= self.saliency.grid
        values = fields[:, 0]
        values -= target
        if self.partials:
            np.multiply(values, d_s, out=scratch)
            fields[:, 1] -= scratch
        fields *= decay
        values += target
        if self.partials:
            np.add(d_rows, d_cols, out=scratch)
            scratch *= target
            fields[:, 2] += scratch

    def next_fixation(self) -> np.ndarray:
        """The next-fixation distribution of the current fields, (1 - zeta)
        (u + eps) / (sum u + n eps) + zeta / n with u the potential's
        positive part, in the mask's buffer."""
        _, u_sum = self.distribution()
        n, zeta = self.potential.size, self.params.zeta
        scale = (1.0 - zeta) / (u_sum + n * POTENTIAL_EPS)
        prob = np.maximum(self.potential, 0.0, out=self.mask)
        prob *= scale
        prob += scale * POTENTIAL_EPS + zeta / n
        return prob

    def distribution(self) -> tuple[np.ndarray, float]:
        """Fill the potential a^lam / sum a^lam - c_f f^gamma / sum f^gamma,
        its mask and the powers (with gradient also the masked powers and
        the factors). Returns (sum a^lam, sum f^gamma) and the sum of the
        potential's positive part."""
        fields, powers, factors = self.fields, self.powers, self.factors
        log = factors[:, 1]
        np.maximum(fields[:, 0], _TINY, out=log)
        if self.with_grad:
            np.divide(fields[:, 1:], log[:, None], out=factors[:, 2:])
        np.log(log, out=log)
        np.multiply(log, self.exponents, out=powers[:, 0])
        np.exp(powers[:, 0], out=powers[:, 0])
        sums = powers[:, 0].sum(axis=(1, 2))
        a_sum, f_sum = sums.tolist()
        if not (0.0 < a_sum < math.inf and 0.0 < f_sum < math.inf):
            raise FloatingPointError(
                f"non-finite potential normalization for parameters {self.params}"
            )
        np.matmul(self.weights / sums, powers[:, 0].reshape(2, -1), out=self.potential.reshape(-1))
        np.greater(self.potential, 0.0, out=self.mask)
        if self.with_grad:
            np.multiply(powers[:, 0], self.mask, out=powers[:, 1])
        return sums, float(np.vdot(self.potential, self.mask))


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
    walk = _Walk(state.fields, saliency, params, with_grad=False)
    cell = np.array([saliency.position_to_cell(q)[:2]])
    (window,) = zip(*_windows(cell, [duration_ms], params, saliency))
    walk.advance(*window)
    prob = walk.next_fixation()
    return SceneWalkState(walk.fields), walk.potential, prob


# grad[1:] (c_f, lam, gamma, omega_a, omega_f, sigma_a, sigma_f) as the
# (field, factor) entries of the sweep's gradient terms.
_GRAD_FIELD = [1, 0, 1, 0, 1, 0, 1]
_GRAD_FACTOR = [0, 1, 1, 2, 2, 3, 3]


def _sweep(
    path: Scanpath,
    saliency: SaliencyMap,
    params: SceneWalkParams,
    with_grad: bool,
) -> tuple[float, np.ndarray]:
    """Transition log-likelihood (first fixation excluded) and, if
    ``with_grad``, its gradient in PARAM_NAMES order, from one field sweep.

    Each partial of the potential is coef (X - norm sum X) / norm_sum for a
    grid X (a^lam ln a, f^gamma ln f, or a field partial times a^(lam-1) or
    f^(gamma-1); -f_norm for c_f). Through the positive part u (mask m, sum
    M), d ln p(obs) = (1 - zeta) coef / (p(obs) M^2 norm_sum) (m[obs] M X[obs]
    - u_obs sum_m X - (m[obs] M norm[obs] - u_obs sum_m norm) sum X), with
    u_obs = u[obs] + POTENTIAL_EPS. Each transition keeps the scalars and
    one product of the walk's powers and factors, which gives every sum;
    the gradient is then formed for all transitions at once.
    """
    T = len(path)
    if T < 2:
        raise ValueError(
            f"scanpath must contain at least 2 fixations; subject {path.subject_id!r} image "
            f"{path.image_id!r} has {T}"
        )
    cells = np.array([saliency.position_to_cell(q)[:2] for q in path.positions])

    windows = _windows(cells[:-1], path.durations[:-1], params, saliency)
    walk = _Walk(initial_state(saliency).fields, saliency, params, with_grad)
    sums = np.empty((T - 1, 2))
    positive_sum = np.empty(T - 1)
    potential_obs = np.empty(T - 1)
    if with_grad:
        # Per transition: (field, [full, masked], factor) sums and (field, factor) terms at obs.
        products = np.empty((T - 1, 2, 2, 4))
        at_obs = np.empty((T - 1, 2, 4))
        powers, factors = walk.powers.reshape(2, 2, -1), walk.factors.reshape(2, 4, -1).transpose(0, 2, 1)
    for k, ((i, j), window) in enumerate(zip(cells[1:].tolist(), zip(*windows))):
        walk.advance(*window)
        sums[k], positive_sum[k] = walk.distribution()
        potential_obs[k] = walk.potential[i, j]
        if with_grad:
            np.matmul(powers, factors, out=products[k])
            np.multiply(walk.factors[:, :, i, j], walk.powers[:, 0, i, j, None], out=at_obs[k])

    n = saliency.n_cells
    zeta = params.zeta
    u_obs = np.maximum(potential_obs, 0.0) + POTENTIAL_EPS
    mix_sum = positive_sum + n * POTENTIAL_EPS
    p_star_obs = u_obs / mix_sum
    p_obs = (1.0 - zeta) * p_star_obs + zeta / n
    total = float(np.log(p_obs).sum())
    grad = np.zeros(len(PARAM_NAMES))
    if not with_grad:
        return total, grad

    grad[0] = ((-p_star_obs + 1.0 / n) / p_obs).sum()
    full, masked = products[:, :, 0], products[:, :, 1]
    obs_mix = np.where(potential_obs > 0.0, mix_sum, 0.0)[:, None]
    u_obs = u_obs[:, None]
    # With norm = powers / sums, factor 0 (ones) gives norm[obs] and sum_m norm.
    centre = (obs_mix * at_obs[:, :, 0] - u_obs * masked[:, :, 0]) / sums
    terms = obs_mix[:, :, None] * at_obs - u_obs[:, :, None] * masked
    terms[:, :, 1:] -= centre[:, :, None] * full[:, :, 1:]
    terms /= sums[:, :, None]
    coef = np.array([-1.0, 1.0, -params.c_f, params.lam, -params.c_f * params.gamma,
                     params.lam, -params.c_f * params.gamma])
    scale = (1.0 - zeta) / (p_obs * mix_sum**2)
    grad[1:] = coef * (scale[:, None] * terms[:, _GRAD_FIELD, _GRAD_FACTOR]).sum(axis=0)
    return total, grad


def loglik(path: Scanpath, saliency: SaliencyMap, params: SceneWalkParams) -> float:
    """Sum over transitions of the log next-fixation probability; the first
    fixation is excluded, as in the gradient."""
    return _sweep(path, saliency, params, with_grad=False)[0]


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
    """A fit's parameters and objective, and how L-BFGS-B ended: its
    iterations, its objective evaluations and its stop message."""

    params: SceneWalkParams
    objective: float
    grad_norm: float
    iterations: int
    converged: bool
    evaluations: int
    stop_reason: str

    def to_json_dict(self) -> dict:
        return {
            "params": dict(zip(PARAM_NAMES, map(float, self.params.to_vector()))),
            "objective": self.objective,
            "grad_norm": self.grad_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "evaluations": self.evaluations,
            "stop_reason": self.stop_reason,
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
    sweeps: Callable[[SceneWalkParams], Iterable[tuple[float, np.ndarray]]] | None = None,
) -> SceneWalkFitResult:
    """Regularized maximum likelihood over scanpath/saliency pairs.

    Maximizes sum of log-likelihoods minus rho * ||theta||^2 with the
    analytic gradient, running L-BFGS-B in a transformed space (log for
    positive parameters, logit for the mixture weight). Converged means a
    projected-gradient infinity norm of at most ``gtol`` in the transformed
    space; otherwise (an iteration cap, or a stall that L-BFGS-B reports as
    success once f stops falling) the best iterate is returned flagged
    non-converged, and ``stop_reason`` says why it stopped. ``sweeps(params)``,
    if given, yields each pair's ``loglik_and_grad`` in data order (a
    ``SweepPool``'s, say); by default they run here. Raises
    FloatingPointError when the objective cannot be evaluated at ``init``.
    """
    if not data:
        raise ValueError("need at least one scanpath")
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be finite and non-negative, got {rho!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    if init is None:
        init = default_params()
    if sweeps is None:
        def sweeps(params):
            return (loglik_and_grad(path, saliency, params) for path, saliency in data)

    def negative_objective(x):
        try:
            params, jac = _from_unconstrained(x)
            total = 0.0
            grad = np.zeros(len(PARAM_NAMES))
            for value, path_grad in sweeps(params):
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
    grad_norm = float(np.max(np.abs(res.jac)))
    return SceneWalkFitResult(
        params=params,
        objective=float(-res.fun),
        grad_norm=grad_norm,
        iterations=int(res.nit),
        converged=grad_norm <= gtol,
        evaluations=int(res.nfev),
        stop_reason=str(res.message),
    )


# ---------------------------------------------------------------------------
# Sweeps over many paths
# ---------------------------------------------------------------------------


class SweepPool:
    """Sweeps over a fixed list of (scanpath, saliency) pairs, spread over
    this process and ``workers`` forked worker processes.

    The workers are forked once and inherit the pairs, so each call sends
    them only the parameters and item indices and gets back each path's
    (value, gradient). A call splits its indices into one contiguous share
    per process and returns the results in index order, so they do not
    depend on ``workers``. Once this process has done its own share, it
    sweeps a worker's share itself, one path at a time, until the worker's
    answer comes, so a worker whose CPU is taken by other programs makes a
    call no slower than sweeping it here alone; a worker skips the requests
    that newer ones replaced.
    Without POSIX fork, or with no workers, every sweep runs here. An error
    that a sweep raises is raised here, the one of the first failing index,
    once every share is in; a worker that dies raises RuntimeError with its
    exit code. ``close`` stops and joins the workers.
    """

    def __init__(self, pairs: Sequence[tuple[Scanpath, SaliencyMap]], workers: int):
        self.pairs = list(pairs)
        self._workers: list[tuple[multiprocessing.Process, object]] = []
        self._calls = 0
        if workers < 1 or "fork" not in multiprocessing.get_all_start_methods():
            return
        context = multiprocessing.get_context("fork")
        try:
            for _ in range(workers):
                mine, theirs = context.Pipe()
                process = context.Process(target=_serve, args=(theirs, self.pairs), daemon=True)
                process.start()
                theirs.close()  # so that the worker's exit reads as end of file
                self._workers.append((process, mine))
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        for _, conn in self._workers:
            with contextlib.suppress(OSError):
                conn.send(None)
            conn.close()
        for process, _ in self._workers:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join()
        self._workers = []

    def sweeps(
        self, params: SceneWalkParams, indices: Sequence[int], with_grad: bool = True
    ) -> list[tuple[float, np.ndarray | None]]:
        """(``loglik``, gradient) of each indexed pair, in index order; the
        gradient is None without ``with_grad``."""
        self._calls += 1
        own, *shares = np.array_split(np.asarray(indices, dtype=int), len(self._workers) + 1)
        asked = [(worker, share.tolist()) for worker, share in zip(self._workers, shares) if share.size]
        for (_, conn), share in asked:
            with contextlib.suppress(OSError):  # a dead worker: its poll below reads end of file
                conn.send((self._calls, params, share, with_grad))
        replies = [_sweep_share(self.pairs, params, own.tolist(), with_grad)]
        replies += [self._answer(worker, share, params, with_grad) for worker, share in asked]
        results = []
        for reply in replies:
            if isinstance(reply, Exception):
                raise reply
            results += reply
        return results

    def _answer(self, worker, share: list[int], params: SceneWalkParams, with_grad: bool):
        """The worker's answer to this call, or its share swept here one path
        at a time until that answer comes; answers to earlier calls are
        dropped."""
        process, conn = worker
        done: list = []
        while True:
            while conn.poll():
                try:
                    call, reply = conn.recv()
                except (EOFError, OSError):
                    process.join()
                    return RuntimeError(f"SceneWalk worker process {process.pid} exited with code {process.exitcode}")
                if call == self._calls:
                    return reply
            if len(done) == len(share):
                return done
            reply = _sweep_share(self.pairs, params, share[len(done):len(done) + 1], with_grad)
            if isinstance(reply, Exception):
                return reply
            done += reply


def _sweep_share(pairs, params: SceneWalkParams, indices: list[int], with_grad: bool):
    """Each indexed pair's (loglik, gradient or None), or the first error
    raised, which the caller raises once every share is in."""
    try:
        if with_grad:
            return [loglik_and_grad(*pairs[i], params) for i in indices]
        return [(loglik(*pairs[i], params), None) for i in indices]
    except Exception as exc:
        return exc


def _serve(conn, pairs) -> None:
    """A worker: answer the newest (call, params, indices, with_grad) request
    with (call, its ``_sweep_share``), skipping requests that a newer one
    replaced, until the pool sends None or goes away."""
    with contextlib.suppress(EOFError, BrokenPipeError):
        while True:
            request = conn.recv()
            while request is not None and conn.poll():
                request = conn.recv()
            if request is None:
                return
            call, *args = request
            conn.send((call, _sweep_share(pairs, *args)))


# ---------------------------------------------------------------------------
# Sampling and saliency estimation
# ---------------------------------------------------------------------------


def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """An index drawn with probabilities ``p`` (1-D, summing to one), as
    ``rng.choice(p.size, p=p)`` draws it: the same random double and the
    same index. The cumulative sum overwrites ``p``."""
    cdf = np.cumsum(p, out=p)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), "right"))


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
    """Iteratively sample fixations from the next-fixation distribution,
    advancing one walk of the two value fields in place (the field
    recursion of ``step``, from window factors tabled once per path for
    every row and column) and drawing each cell as ``rng.choice`` would.

    ``start`` is the first fixation's position, inside the saliency extent;
    it snaps to its cell's center. ``durations`` supplies fixation
    durations in ms: a scalar constant, a sequence of length
    ``n_fixations``, or GammaParams to draw from. Deterministic for a given
    seed.
    """
    if n_fixations < 2:
        raise ValueError("need at least 2 fixations")
    x, y = float(start[0]), float(start[1])
    width, height = saliency.extent
    if not (0.0 <= x <= width and 0.0 <= y <= height):
        raise ValueError(
            f"start {(x, y)} must be finite and lie within the saliency extent "
            f"[0, {width}] x [0, {height}]"
        )
    rng = as_rng(seed_or_rng)
    if isinstance(durations, GammaParams):
        durs = rng.gamma(durations.shape, durations.scale, size=n_fixations)
    elif np.isscalar(durations):
        durs = np.full(n_fixations, float(durations))
    else:
        durs = np.asarray(durations, dtype=float)
        if durs.shape != (n_fixations,):
            raise ValueError("durations sequence must have length n_fixations")
    if not (durs > 0).all():
        raise ValueError("durations must be positive")

    rows, cols = saliency.shape
    i, j, _ = saliency.position_to_cell((x, y))
    positions = np.empty((n_fixations, 2))
    positions[0] = saliency.cell_center(i, j)
    # _windows' factors for every fixated row i and column j: Z = ey[i] . c[j].
    # Copying c0 frees the full moments at once: a path that holds less heap
    # keeps glibc from trimming it and faulting it back in on the next path.
    _, ey, _, ex, c = _separable_factors(np.arange(rows), np.arange(cols), params, saliency)
    ex, c = ex[:, :, None], c[:, :, 0].copy()
    decay = np.exp(np.multiply.outer(durs[:-1] / 1000.0, [-params.omega_a, -params.omega_f]))
    decay = decay[:, :, None, None, None]
    walk = _Walk(initial_state(saliency).fields[:, :1], saliency, params, with_grad=False)
    p = walk.scratch[0].reshape(-1)
    for t in range(n_fixations - 1):
        z = (ey[i] * c[j]).sum(axis=-1)
        walk.advance((ey[i] / z[:, None])[..., None], ex[j], decay[t])
        flat = walk.next_fixation().ravel()
        i, j = divmod(_draw(rng, np.divide(flat, flat.sum(), out=p)), cols)
        positions[t + 1] = saliency.cell_center(i, j)
    return Scanpath(positions=positions, durations=durs, subject_id=subject_id, image_id=image_id)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_saliency(saliency: SaliencyMap, base_path: str | Path) -> None:
    """Write ``<base>.npy`` (the grid, float64 in C order, by ``np.save``)
    and ``<base>.json`` (``extent_deg``). The suffixes are appended, so a
    base name may contain dots."""
    base = Path(base_path)
    with open(base.with_name(base.name + ".json"), "w") as fh:
        json.dump({"extent_deg": list(saliency.extent)}, fh, indent=2)
    with open(base.with_name(base.name + ".npy"), "wb") as fh:
        np.save(fh, saliency.grid, allow_pickle=False)


def load_saliency(base_path: str | Path) -> SaliencyMap:
    """The map ``save_saliency`` wrote, its ``.npy`` never unpickled. A grid that is
    no 2-D float64 saliency map (an object array, a truncated file), an old
    ``<base>.csv`` map and a sidecar without a positive ``extent_deg`` raise ValueError naming it."""
    base = Path(base_path)
    json_path, grid_path, old_path = (base.with_name(base.name + suffix) for suffix in (".json", ".npy", ".csv"))
    if not grid_path.exists() and old_path.exists():
        raise ValueError(f"{old_path}: saliency maps are now stored as .npy files; re-run `gazeid simulate`")
    with open(json_path) as fh:
        try:
            x, y = (float(v) for v in json.load(fh)["extent_deg"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{json_path}: expected extent_deg as two numbers ({type(exc).__name__}: {exc})") from None
    if not (x > 0 and y > 0):
        raise ValueError(f"{json_path}: extent_deg must be positive, got [{x!r}, {y!r}]")
    with open(grid_path, "rb") as fh:
        try:
            grid = np.lib.format.read_array(fh, allow_pickle=False)
            if grid.ndim != 2 or grid.dtype.kind != "f" or grid.dtype.itemsize != 8:
                raise ValueError(f"expected a 2-D float64 grid, got a {grid.ndim}-D {grid.dtype} array")
            return SaliencyMap(grid=grid, extent=(x, y))
        except ValueError as exc:
            raise ValueError(f"{grid_path}: {exc}") from None
