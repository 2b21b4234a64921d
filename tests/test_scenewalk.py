"""Saliency-walk model: fields, distribution, gradient, fit, sampling.

The likelihood oracle here is a deliberately naive re-implementation that
recomputes the field recursions from the full fixation history at every
step, sharing no state with the incremental implementation.
"""

import json
import math
import multiprocessing
import os
import re
import signal
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import make_path, make_saliency, make_walk_params
from gazeid import scenewalk as sw
from gazeid.core import Scanpath
from gazeid.distributions import GammaParams


def naive_fields(path_cells, durations_ms, params, saliency, upto):
    """From-scratch unroll of the attention/inhibition recursions
    (including all four parameter partials) through step ``upto``."""
    rows, cols = saliency.shape
    xs = (np.arange(cols) + 0.5) * saliency.extent[0] / cols
    ys = (np.arange(rows) + 0.5) * saliency.extent[1] / rows
    A = saliency.grid.copy()
    F = np.full(saliency.shape, 1.0 / saliency.n_cells)
    dA_w = np.zeros(saliency.shape)
    dA_s = np.zeros(saliency.shape)
    dF_w = np.zeros(saliency.shape)
    dF_s = np.zeros(saliency.shape)
    for t in range(upto):
        i, j = path_cells[t]
        cx, cy = xs[j], ys[i]
        r2 = (ys[:, None] - cy) ** 2 + (xs[None, :] - cx) ** 2
        d = durations_ms[t] / 1000.0

        ga = np.exp(-r2 / (2 * params.sigma_a**2)) / (2 * math.pi * params.sigma_a**2)
        dga = np.exp(-r2 / (2 * params.sigma_a**2)) * (
            r2 / (2 * math.pi * params.sigma_a**5) - 1.0 / (math.pi * params.sigma_a**3)
        )
        w = ga * saliency.grid
        dw = dga * saliency.grid
        ghat = w / w.sum()
        dghat = (dw * w.sum() - w * dw.sum()) / w.sum() ** 2

        gf = np.exp(-r2 / (2 * params.sigma_f**2)) / (2 * math.pi * params.sigma_f**2)
        dgf = np.exp(-r2 / (2 * params.sigma_f**2)) * (
            r2 / (2 * math.pi * params.sigma_f**5) - 1.0 / (math.pi * params.sigma_f**3)
        )
        fhat = gf / gf.sum()
        dfhat = (dgf * gf.sum() - gf * dgf.sum()) / gf.sum() ** 2

        ea = math.exp(-params.omega_a * d)
        ef = math.exp(-params.omega_f * d)
        dA_w = ea * (dA_w - d * (A - ghat))
        dA_s = dghat * (1 - ea) + ea * dA_s
        dF_w = ef * (dF_w - d * (F - fhat))
        dF_s = dfhat * (1 - ef) + ef * dF_s
        A = ghat + ea * (A - ghat)
        F = fhat + ef * (F - fhat)
    return A, F, dA_w, dA_s, dF_w, dF_s


def naive_loglik(path, saliency, params):
    """Direct re-evaluation of the model equations without carried state."""
    T = len(path)
    cells = [saliency.position_to_cell(path.positions[t])[:2] for t in range(T)]
    n = saliency.n_cells
    total = 0.0
    for t in range(T - 1):
        A, F, *_ = naive_fields(cells, path.durations, params, saliency, upto=t + 1)
        a_pow = A**params.lam
        f_pow = F**params.gamma
        U = a_pow / a_pow.sum() - params.c_f * f_pow / f_pow.sum()
        u_plus = np.maximum(U, 0.0)
        p_star = (u_plus + 1e-12) / (u_plus.sum() + n * 1e-12)
        p = (1 - params.zeta) * p_star + params.zeta / n
        total += math.log(p[cells[t + 1]])
    return total


# The per-transition implementation the fused sweep replaced, kept as the
# reference it is checked against: every transition runs the field update
# and builds the target distribution twice, and each gradient term is a
# masked full grid.


@dataclass
class RefState:
    attention: np.ndarray
    inhibition: np.ndarray
    d_att_d_omega: np.ndarray
    d_att_d_sigma: np.ndarray
    d_inh_d_omega: np.ndarray
    d_inh_d_sigma: np.ndarray


def ref_window_with_dsigma(center, sigma, shape, extent):
    rows, cols = shape
    xs = (np.arange(cols) + 0.5) * float(extent[0]) / cols
    ys = (np.arange(rows) + 0.5) * float(extent[1]) / rows
    r2 = (ys - float(center[1]))[:, None] ** 2 + (xs - float(center[0]))[None, :] ** 2
    e = np.exp(-r2 / (2.0 * sigma**2))
    g = e / (2.0 * math.pi * sigma**2)
    dg = e * (r2 / (2.0 * math.pi * sigma**5) - 1.0 / (math.pi * sigma**3))
    return g, dg


def ref_normalized_ratio_and_dsigma(w, dw):
    s = w.sum()
    return w / s, (dw * s - w * dw.sum()) / (s * s)


def ref_target(state, params):
    a = np.maximum(state.attention, 1e-300)
    f = np.maximum(state.inhibition, 1e-300)
    t = {"log_a": np.log(a), "log_f": np.log(f)}
    t["a_pow"] = np.exp(params.lam * t["log_a"])
    t["f_pow"] = np.exp(params.gamma * t["log_f"])
    t["a_sum"], t["f_sum"] = float(t["a_pow"].sum()), float(t["f_pow"].sum())
    t["a_norm"], t["f_norm"] = t["a_pow"] / t["a_sum"], t["f_pow"] / t["f_sum"]
    t["potential"] = t["a_norm"] - params.c_f * t["f_norm"]
    t["u_plus"] = np.maximum(t["potential"], 0.0)
    n = a.size
    t["mix_sum"] = float(t["u_plus"].sum()) + n * sw.POTENTIAL_EPS
    t["p_star"] = (t["u_plus"] + sw.POTENTIAL_EPS) / t["mix_sum"]
    t["prob"] = (1.0 - params.zeta) * t["p_star"] + params.zeta / n
    t["positive_mask"] = t["potential"] > 0.0
    return t


def ref_step(state, q, duration_ms, params, saliency):
    d_s = duration_ms / 1000.0
    i, j, _ = saliency.position_to_cell(q)
    center = saliency.cell_center(i, j)
    ga, dga = ref_window_with_dsigma(center, params.sigma_a, saliency.shape, saliency.extent)
    gf, dgf = ref_window_with_dsigma(center, params.sigma_f, saliency.shape, saliency.extent)
    g_hat, dg_hat = ref_normalized_ratio_and_dsigma(ga * saliency.grid, dga * saliency.grid)
    f_hat, df_hat = ref_normalized_ratio_and_dsigma(gf, dgf)
    decay_a = math.exp(-params.omega_a * d_s)
    decay_f = math.exp(-params.omega_f * d_s)
    new = RefState(
        attention=g_hat + decay_a * (state.attention - g_hat),
        inhibition=f_hat + decay_f * (state.inhibition - f_hat),
        d_att_d_omega=decay_a * (state.d_att_d_omega - d_s * (state.attention - g_hat)),
        d_att_d_sigma=dg_hat * (1.0 - decay_a) + decay_a * state.d_att_d_sigma,
        d_inh_d_omega=decay_f * (state.d_inh_d_omega - d_s * (state.inhibition - f_hat)),
        d_inh_d_sigma=df_hat * (1.0 - decay_f) + decay_f * state.d_inh_d_sigma,
    )
    target = ref_target(new, params)
    return new, target["potential"], target["prob"]


def ref_loglik(path, saliency, params):
    cells = [saliency.position_to_cell(q)[:2] for q in path.positions]
    total = 0.0
    state = sw.initial_state(saliency)
    for t in range(len(path) - 1):
        state, _, prob = ref_step(
            state, saliency.cell_center(*cells[t]), path.durations[t], params, saliency
        )
        total += math.log(prob[cells[t + 1]])
    return total


def ref_observation_gradient(target, params, state, obs):
    n = target["prob"].size
    p_obs = target["prob"][obs]
    grad = np.empty(len(sw.PARAM_NAMES))
    grad[0] = (-target["p_star"][obs] + 1.0 / n) / p_obs
    a = np.maximum(state.attention, 1e-300)
    f = np.maximum(state.inhibition, 1e-300)
    t1 = target["a_pow"] * target["log_a"]
    t2 = target["f_pow"] * target["log_f"]
    a_norm, f_norm, a_sum, f_sum = target["a_norm"], target["f_norm"], target["a_sum"], target["f_sum"]
    du = {
        "c_f": -f_norm,
        "lam": (t1 - a_norm * t1.sum()) / a_sum,
        "gamma": -params.c_f * (t2 - f_norm * t2.sum()) / f_sum,
    }
    pa_omega = params.lam * target["a_pow"] / a * state.d_att_d_omega
    pa_sigma = params.lam * target["a_pow"] / a * state.d_att_d_sigma
    pf_omega = params.gamma * target["f_pow"] / f * state.d_inh_d_omega
    pf_sigma = params.gamma * target["f_pow"] / f * state.d_inh_d_sigma
    du["omega_a"] = (pa_omega - a_norm * pa_omega.sum()) / a_sum
    du["sigma_a"] = (pa_sigma - a_norm * pa_sigma.sum()) / a_sum
    du["omega_f"] = -params.c_f * (pf_omega - f_norm * pf_omega.sum()) / f_sum
    du["sigma_f"] = -params.c_f * (pf_sigma - f_norm * pf_sigma.sum()) / f_sum
    scale = (1.0 - params.zeta) / p_obs
    mix_sum = target["mix_sum"]
    u_obs = target["u_plus"][obs] + sw.POTENTIAL_EPS
    for k, name in enumerate(sw.PARAM_NAMES[1:], start=1):
        du_plus = np.where(target["positive_mask"], du[name], 0.0)
        grad[k] = scale * (du_plus[obs] * mix_sum - u_obs * du_plus.sum()) / mix_sum**2
    return grad


def ref_grad_loglik(path, saliency, params):
    cells = [saliency.position_to_cell(path.positions[t])[:2] for t in range(len(path))]
    grad = np.zeros(len(sw.PARAM_NAMES))
    state = sw.initial_state(saliency)
    for t in range(len(path) - 1):
        state, _, _ = ref_step(
            state, saliency.cell_center(*cells[t]), path.durations[t], params, saliency
        )
        grad += ref_observation_gradient(ref_target(state, params), params, state, cells[t + 1])
    return grad


class TestSaliencyMap:
    def test_cell_centers_computed_once_and_read_only(self, rng):
        sal = make_saliency(rng, shape=(6, 8), extent=(16.0, 12.0))
        xs, ys = sal.cell_centers()
        assert sal.cell_centers()[0] is xs and sal.cell_centers()[1] is ys
        np.testing.assert_array_equal(xs, (np.arange(8) + 0.5) * 2.0)
        np.testing.assert_array_equal(ys, (np.arange(6) + 0.5) * 2.0)
        assert sal.cell_center(2, 5) == (11.0, 5.0)
        with pytest.raises(ValueError):
            xs[0] = 0.0


def gaussian_window(center, sigma, shape, extent):
    """Normalized 2-D Gaussian bump (value 1/(2 pi sigma^2) at the center),
    evaluated at cell centers in degree coordinates."""
    rows, cols = shape
    xs = (np.arange(cols) + 0.5) * float(extent[0]) / cols
    ys = (np.arange(rows) + 0.5) * float(extent[1]) / rows
    two_var = 2.0 * sigma**2
    bump = np.outer(np.exp(-((ys - center[1]) ** 2) / two_var), np.exp(-((xs - center[0]) ** 2) / two_var))
    return bump / (2.0 * math.pi * sigma**2)


def applied_window(sal, q, sigma):
    """The inhibition window that ``step`` applies past a fixation at q: with
    omega_f * d = 50 the inhibition field is that window to within about
    exp(-50) / n_cells."""
    params = sw.SceneWalkParams(
        omega_a=1.0, omega_f=200.0, sigma_a=2.0, sigma_f=sigma, lam=1.0, gamma=1.0, c_f=0.3, zeta=0.1
    )
    state, _, _ = sw.step(sw.initial_state(sal), q, 250.0, params, sal)
    return state.inhibition


class TestGaussianWindow:
    def test_center_value(self, rng):
        sal = make_saliency(rng)
        w = applied_window(sal, (8.25, 8.25), 2.0)
        # (8.25, 8.25) is exactly a cell center on this grid, so the window
        # peaks there at exp(0) over the grid sum of exp(-r^2 / 2 sigma^2)
        i, j, _ = sal.position_to_cell((8.25, 8.25))
        xs, ys = sal.cell_centers()
        r2 = (ys[:, None] - 8.25) ** 2 + (xs[None, :] - 8.25) ** 2
        assert w.max() == w[i, j] == pytest.approx(1.0 / np.exp(-r2 / 8.0).sum(), rel=1e-12)

    def test_radial_symmetry(self, rng):
        w = applied_window(make_saliency(rng), (8.25, 8.25), 1.5)
        i, j = np.unravel_index(np.argmax(w), w.shape)
        assert w[i + 3, j] == pytest.approx(w[i - 3, j], rel=1e-12)
        assert w[i, j + 5] == pytest.approx(w[i, j - 5], rel=1e-12)
        assert w[i + 2, j] == pytest.approx(w[i, j + 2], rel=1e-12)

    def test_riemann_integral_near_one(self, rng):
        # The window is the Gaussian density normalized over the grid; its
        # peak is the density's times the cell area, within the Riemann
        # sum's error.
        sal = make_saliency(rng, shape=(64, 64), extent=(32.0, 32.0))
        w = applied_window(sal, (16.0, 16.0), 1.2)
        assert w.sum() == pytest.approx(1.0, rel=1e-12)
        cell_area = (32.0 / 64) ** 2
        assert w.max() * 2 * math.pi * 1.2**2 / cell_area == pytest.approx(1.0, rel=0.01)

    def test_sigma_must_be_positive(self, rng):
        with pytest.raises(ValueError, match="sigma_f must be positive"):
            applied_window(make_saliency(rng, shape=(8, 8), extent=(4.0, 4.0)), (1.0, 1.0), 0.0)


class TestStep:
    def test_zeta_one_gives_exact_uniform(self, rng):
        sal = make_saliency(rng)
        params = sw.SceneWalkParams(
            omega_a=1.0, omega_f=1.0, sigma_a=2.0, sigma_f=1.5, lam=1.0, gamma=1.0, c_f=0.3, zeta=1.0
        )
        _, _, prob = sw.step(sw.initial_state(sal), (8.0, 6.0), 250.0, params, sal)
        assert np.all(prob == 1.0 / sal.n_cells)

    def test_distribution_sums_to_one(self, rng):
        sal = make_saliency(rng)
        state = sw.initial_state(sal)
        for _ in range(6):
            params = make_walk_params(rng)
            q = (rng.uniform(0, 16), rng.uniform(0, 16))
            state, _, prob = sw.step(state, q, rng.uniform(100, 400), params, sal)
            assert abs(prob.sum() - 1.0) <= 1e-9
            assert np.all(prob >= 0.0)

    def test_fast_decay_limit_reaches_windowed_saliency(self, rng):
        sal = make_saliency(rng)
        params = sw.SceneWalkParams(
            omega_a=200.0, omega_f=1.0, sigma_a=2.0, sigma_f=1.5, lam=1.0, gamma=1.0, c_f=0.3, zeta=0.1
        )
        # omega_a * d = 200 * 0.25 = 50
        state, _, _ = sw.step(sw.initial_state(sal), (8.0, 6.0), 250.0, params, sal)
        i, j, _ = sal.position_to_cell((8.0, 6.0))
        ga = gaussian_window(sal.cell_center(i, j), 2.0, sal.shape, sal.extent)
        ghat = ga * sal.grid
        ghat /= ghat.sum()
        assert np.max(np.abs(state.attention - ghat)) < 1e-15

    def test_field_mass_conserved(self, rng):
        sal = make_saliency(rng)
        params = make_walk_params(rng)
        state = sw.initial_state(sal)
        for _ in range(8):
            q = (rng.uniform(0, 16), rng.uniform(0, 16))
            state, _, _ = sw.step(state, q, rng.uniform(100, 400), params, sal)
            assert abs(state.attention.sum() - 1.0) <= 1e-9
            assert abs(state.inhibition.sum() - 1.0) <= 1e-9

    def test_duration_must_be_positive(self, rng):
        sal = make_saliency(rng)
        with pytest.raises(ValueError):
            sw.step(sw.initial_state(sal), (1.0, 1.0), 0.0, make_walk_params(rng), sal)


class TestLoglik:
    def test_zeta_one_value(self, rng):
        sal = make_saliency(rng)
        path = make_path(rng, n_fixations=5)
        params = sw.SceneWalkParams(
            omega_a=1.0, omega_f=1.0, sigma_a=2.0, sigma_f=1.5, lam=1.0, gamma=1.0, c_f=0.3, zeta=1.0
        )
        assert sw.loglik(path, sal, params) == pytest.approx(
            4 * math.log(1.0 / sal.n_cells), abs=1e-12
        )

    def test_matches_naive_reference(self, rng):
        sal = make_saliency(rng)
        for _ in range(3):
            params = make_walk_params(rng)
            path = make_path(rng, n_fixations=6)
            fast = sw.loglik(path, sal, params)
            slow = naive_loglik(path, sal, params)
            assert fast == pytest.approx(slow, rel=1e-12)

    def test_mirror_symmetry(self, rng):
        # Mirroring both the saliency map and the fixation sequence about
        # the vertical midline leaves the likelihood unchanged.
        sal = make_saliency(rng)
        mirrored = sw.SaliencyMap(grid=sal.grid[:, ::-1].copy(), extent=sal.extent)
        params = make_walk_params(rng)
        path = make_path(rng, n_fixations=6)
        flipped = Scanpath(
            positions=np.column_stack(
                [sal.extent[0] - path.positions[:, 0], path.positions[:, 1]]
            ),
            durations=path.durations,
        )
        assert sw.loglik(path, sal, params) == pytest.approx(
            sw.loglik(flipped, mirrored, params), rel=1e-12
        )

    def test_out_of_extent_clamped_and_counted(self, rng):
        sal = make_saliency(rng)
        params = make_walk_params(rng)
        path = Scanpath(
            positions=np.array([[8.0, 8.0], [99.0, -5.0], [4.0, 4.0]]),
            durations=np.array([200.0, 220.0, 240.0]),
        )
        assert np.isfinite(sw.loglik(path, sal, params))
        assert [sal.position_to_cell(q)[2] for q in path.positions] == [False, True, False]

    def test_a_path_of_one_fixation_is_named(self, rng):
        path = Scanpath(positions=[[8.0, 8.0]], durations=[200.0], subject_id="s03", image_id="img4")
        message = r"^scanpath must contain at least 2 fixations; subject 's03' image 'img4' has 1$"
        for sweep in (sw.loglik, sw.grad_loglik, sw.loglik_and_grad):
            with pytest.raises(ValueError, match=message):
                sweep(path, make_saliency(rng), make_walk_params(rng))


class TestIncrementalState:
    def test_equals_from_scratch_recomputation(self, rng):
        sal = make_saliency(rng)
        params = make_walk_params(rng)
        path = make_path(rng, n_fixations=7)
        cells = [sal.position_to_cell(path.positions[t])[:2] for t in range(7)]
        state = sw.initial_state(sal)
        for t in range(6):
            state, _, _ = sw.step(
                state, sal.cell_center(*cells[t]), path.durations[t], params, sal
            )
            A, F, dA_w, dA_s, dF_w, dF_s = naive_fields(
                cells, path.durations, params, sal, upto=t + 1
            )
            np.testing.assert_allclose(state.attention, A, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.inhibition, F, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.d_att_d_omega, dA_w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.d_att_d_sigma, dA_s, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.d_inh_d_omega, dF_w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(state.d_inh_d_sigma, dF_s, rtol=0, atol=1e-12)


def fd_gradient(path, sal, params, h=1e-5):
    vec = params.to_vector()
    fd = np.zeros_like(vec)
    for k in range(len(vec)):
        step = h * max(1.0, abs(vec[k]))
        vp, vm = vec.copy(), vec.copy()
        vp[k] += step
        vm[k] -= step
        fd[k] = (
            sw.loglik(path, sal, sw.SceneWalkParams.from_vector(vp))
            - sw.loglik(path, sal, sw.SceneWalkParams.from_vector(vm))
        ) / (2 * step)
    return fd


class TestGradient:
    def test_matches_finite_differences(self, rng):
        sal = make_saliency(rng)
        for _ in range(5):
            params = make_walk_params(rng)
            path = make_path(rng, n_fixations=6)
            g = sw.grad_loglik(path, sal, params)
            fd = fd_gradient(path, sal, params)
            np.testing.assert_allclose(g, fd, rtol=1e-3, atol=1e-6)

    def test_matches_finite_differences_small_grid_tight(self, rng):
        # Tighter bound on a 16x16 grid with a smaller step.
        sal = make_saliency(rng, shape=(16, 16))
        for _ in range(5):
            params = make_walk_params(rng)
            path = make_path(rng, n_fixations=6)
            g = sw.grad_loglik(path, sal, params)
            fd = fd_gradient(path, sal, params, h=1e-6)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-6)

    def test_zero_inhibition_weight_kills_gamma_partial(self, rng):
        sal = make_saliency(rng)
        p = make_walk_params(rng)
        params = sw.SceneWalkParams(
            omega_a=p.omega_a, omega_f=p.omega_f, sigma_a=p.sigma_a, sigma_f=p.sigma_f,
            lam=p.lam, gamma=p.gamma, c_f=0.0, zeta=p.zeta,
        )
        g = sw.grad_loglik(make_path(rng, n_fixations=6), sal, params)
        gamma_idx = sw.PARAM_NAMES.index("gamma")
        assert g[gamma_idx] == 0.0

    def test_zeta_partial_formula_at_uniform_mixture(self, rng):
        # At zeta = 1 the analytic formula reduces to
        # sum_t (1/p)(-p_star(obs) + 1/N); verify the implementation
        # reproduces it and matches one-sided finite differences.
        sal = make_saliency(rng)
        p = make_walk_params(rng)
        params = sw.SceneWalkParams(
            omega_a=p.omega_a, omega_f=p.omega_f, sigma_a=p.sigma_a, sigma_f=p.sigma_f,
            lam=p.lam, gamma=p.gamma, c_f=p.c_f, zeta=1.0,
        )
        path = make_path(rng, n_fixations=5)
        g = sw.grad_loglik(path, sal, params)

        n = sal.n_cells
        cells = [sal.position_to_cell(path.positions[t])[:2] for t in range(5)]
        state = sw.initial_state(sal)
        expected = 0.0
        for t in range(4):
            state, potential, prob = sw.step(
                state, sal.cell_center(*cells[t]), path.durations[t], params, sal
            )
            u_plus = np.maximum(potential, 0.0)
            p_star = (u_plus + sw.POTENTIAL_EPS) / (u_plus.sum() + n * sw.POTENTIAL_EPS)
            expected += (-p_star[cells[t + 1]] + 1.0 / n) / prob[cells[t + 1]]
        assert g[0] == pytest.approx(expected, rel=1e-12)

        h = 1e-6
        vm = params.to_vector().copy()
        vm[0] -= h
        fd = (sw.loglik(path, sal, params) - sw.loglik(path, sal, sw.SceneWalkParams.from_vector(vm))) / h
        assert g[0] == pytest.approx(fd, rel=1e-3)


def parity_cases(rng, shape, extent):
    """(label, params, path) draws for the sweep-vs-reference checks."""
    cases = []
    for k in range(3):
        cases.append((f"random{k}", make_walk_params(rng), make_path(rng, extent, n_fixations=7)))
    base = make_walk_params(rng).to_vector()
    for label, name, value in (("zeta0", "zeta", 0.0), ("zeta1", "zeta", 1.0), ("c_f0", "c_f", 0.0)):
        vec = np.where(np.array(sw.PARAM_NAMES) == name, value, base)
        cases.append((label, sw.SceneWalkParams.from_vector(vec), make_path(rng, extent, n_fixations=7)))
    path = make_path(rng, extent, n_fixations=7)
    positions = path.positions.copy()
    positions[3] = (extent[0] + 3.0, -2.0)
    cases.append(("clamped", make_walk_params(rng), Scanpath(positions=positions, durations=path.durations)))
    cases.append(("two fixations", make_walk_params(rng), make_path(rng, extent, n_fixations=2)))
    return cases


# The non-square grid (12 rows of 0.75 deg, 20 columns of 1 deg) catches a
# row/column mix-up in the separable window sums.
@pytest.mark.parametrize(
    "shape, extent", [((16, 16), (16.0, 16.0)), ((64, 64), (32.0, 32.0)), ((12, 20), (20.0, 9.0))]
)
class TestFusedSweepParity:
    def test_loglik_and_grad_match_reference(self, rng, shape, extent):
        sal = make_saliency(rng, shape=shape, extent=extent)
        for label, params, path in parity_cases(rng, shape, extent):
            ref_value = ref_loglik(path, sal, params)
            ref_grad = ref_grad_loglik(path, sal, params)
            value, grad = sw.loglik_and_grad(path, sal, params)
            atol = 1e-12 * np.max(np.abs(ref_grad))
            assert value == pytest.approx(ref_value, rel=1e-12), label
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=atol, err_msg=label)
            np.testing.assert_allclose(
                sw.grad_loglik(path, sal, params), ref_grad, rtol=1e-10, atol=atol, err_msg=label
            )
            assert sw.loglik(path, sal, params) == pytest.approx(ref_value, rel=1e-12), label
            clamped = any(sal.position_to_cell(q)[2] for q in path.positions)
            assert clamped == (label == "clamped")

    def test_step_matches_reference(self, rng, shape, extent):
        sal = make_saliency(rng, shape=shape, extent=extent)
        for label, params, path in parity_cases(rng, shape, extent):
            state = ref_state = sw.initial_state(sal)
            for t in range(len(path) - 1):
                state, potential, prob = sw.step(state, path.positions[t], path.durations[t], params, sal)
                ref_state, ref_potential, ref_prob = ref_step(
                    ref_state, path.positions[t], path.durations[t], params, sal
                )
                pairs = [(getattr(state, name), getattr(ref_state, name), name) for name in (
                    "attention", "inhibition", "d_att_d_omega", "d_att_d_sigma",
                    "d_inh_d_omega", "d_inh_d_sigma",
                )]
                pairs += [(potential, ref_potential, "potential"), (prob, ref_prob, "prob")]
                for got, want, name in pairs:
                    np.testing.assert_allclose(
                        got, want, rtol=1e-10, atol=1e-12 * np.max(np.abs(want)), err_msg=f"{label} {name}"
                    )


class TestFit:
    def make_training(self, rng, n_paths=6, n_fix=7):
        sal = make_saliency(rng, shape=(16, 16))
        params = sw.default_params()
        paths = [
            sw.sample_scanpath(
                sal, params, n_fix, (8.0, 8.0), GammaParams(7.0, 34.0), seed_or_rng=rng
            )
            for _ in range(n_paths)
        ]
        return sal, params, paths

    def test_refit_dominates_truth_on_training_data(self, rng):
        sal, true, paths = self.make_training(rng)
        rho = 1.0
        result = sw.fit([(p, sal) for p in paths], rho=rho, max_iter=80)
        true_objective = sum(sw.loglik(p, sal, true) for p in paths) - rho * float(
            true.to_vector() @ true.to_vector()
        )
        assert result.objective >= true_objective - 1e-6

    def test_rho_shrinks_parameters_monotonically(self, rng):
        sal, _, paths = self.make_training(rng, n_paths=4, n_fix=6)
        data = [(p, sal) for p in paths]
        norms = []
        for rho in (0.0, 1.0, 10.0, 100.0):
            result = sw.fit(data, rho=rho, max_iter=120)
            norms.append(float(np.linalg.norm(result.params.to_vector())))
        assert all(b <= a + 1e-6 for a, b in zip(norms, norms[1:]))

    def test_fit_deterministic(self, rng):
        sal, _, paths = self.make_training(rng, n_paths=3, n_fix=5)
        data = [(p, sal) for p in paths]
        r1 = sw.fit(data, rho=1.0, max_iter=30)
        r2 = sw.fit(data, rho=1.0, max_iter=30)
        np.testing.assert_array_equal(r1.params.to_vector(), r2.params.to_vector())
        assert r1.objective == r2.objective

    def test_fit_matches_oracle_sweep(self, rng, monkeypatch):
        sal, _, paths = self.make_training(rng, n_paths=4, n_fix=6)
        data = [(p, sal) for p in paths]
        result = sw.fit(data, rho=1.0, max_iter=25)
        monkeypatch.setattr(sw, "loglik_and_grad", lambda path, saliency, params: (
            ref_loglik(path, saliency, params), ref_grad_loglik(path, saliency, params)
        ))
        oracle = sw.fit(data, rho=1.0, max_iter=25)
        assert (result.iterations, result.evaluations) == (oracle.iterations, oracle.evaluations)
        assert result.stop_reason == oracle.stop_reason
        assert result.objective == pytest.approx(oracle.objective, rel=1e-12)
        doc = result.to_json_dict()
        assert (doc["evaluations"], doc["stop_reason"]) == (result.evaluations, result.stop_reason)

    def test_unevaluable_start_raises(self, rng):
        # a^500 underflows to zero on every cell, so the potential cannot be
        # normalized at the start; L-BFGS-B would read the failure value's
        # zero gradient as a stationary point.
        sal, params, paths = self.make_training(rng, n_paths=2, n_fix=4)
        start = sw.SceneWalkParams.from_vector(
            np.where(np.array(sw.PARAM_NAMES) == "lam", 500.0, params.to_vector())
        )
        with pytest.raises(FloatingPointError, match="initial parameters"):
            sw.fit([(p, sal) for p in paths], init=start)

    @pytest.mark.parametrize("kwargs, message", [
        ({"rho": math.nan}, "rho must be finite and non-negative, got nan"),
        ({"rho": -math.inf}, "rho must be finite and non-negative, got -inf"),
        ({"rho": -0.5}, "rho must be finite and non-negative, got -0.5"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"max_iter": -2}, "max_iter must be at least 1, got -2"),
    ])
    def test_options_that_do_nothing_or_mislead_rejected(self, rng, kwargs, message):
        sal = make_saliency(rng, shape=(8, 8))
        with pytest.raises(ValueError, match=re.escape(message)):
            sw.fit([(make_path(rng), sal)], **kwargs)

    def test_stall_on_ftol_is_not_converged(self, rng):
        # L-BFGS-B reports success once f stops falling, whatever the
        # gradient; these paths stall there far above gtol.
        sal, _, paths = self.make_training(rng, n_paths=4, n_fix=6)
        data = [(p, sal) for p in paths]
        stalled = sw.fit(data, rho=1.0)
        assert "RELATIVE REDUCTION OF F" in stalled.stop_reason
        assert stalled.grad_norm > 1e-5 and not stalled.converged
        loose = sw.fit(data, rho=1.0, gtol=1.0)
        assert loose.grad_norm <= 1.0 and loose.converged


class TestSweepPool:
    def test_stopped_worker_share_is_swept_here(self, rng):
        # A stopped worker never answers: the pool sweeps its share in this
        # process, and drops the late answer once the worker runs again.
        sal = make_saliency(rng)
        pairs = [(make_path(rng), sal) for _ in range(5)]
        params = [make_walk_params(rng) for _ in range(3)]
        serial = [[sw.loglik_and_grad(path, saliency, p) for path, saliency in pairs] for p in params]
        pool = sw.SweepPool(pairs, 1)
        try:
            [worker] = multiprocessing.active_children()
            os.kill(worker.pid, signal.SIGSTOP)
            try:
                got = [pool.sweeps(params[0], range(5))]
            finally:
                os.kill(worker.pid, signal.SIGCONT)
            got += [pool.sweeps(p, range(5)) for p in params[1:]]
        finally:
            pool.close()
        assert multiprocessing.active_children() == []
        for want, have in zip(serial, got):
            assert [v for v, _ in have] == [v for v, _ in want]
            np.testing.assert_array_equal([g for _, g in have], [g for _, g in want])


def oracle_sample_scanpath(saliency, params, n_fixations, start, durations, seed):
    """Positions, durations and the normalised next-fixation distribution
    of each draw from the sampler without window tables: one six-grid
    ``step`` per fixation (``_windows`` each time) and ``rng.choice`` on the
    normalised distribution."""
    rng = np.random.default_rng(seed)
    if isinstance(durations, GammaParams):
        durs = rng.gamma(durations.shape, durations.scale, size=n_fixations)
    else:
        durs = np.broadcast_to(np.asarray(durations, dtype=float), (n_fixations,))
    i, j, _ = saliency.position_to_cell(start)
    positions = np.empty((n_fixations, 2))
    positions[0] = saliency.cell_center(i, j)
    state = sw.initial_state(saliency)
    probs = []
    for t in range(n_fixations - 1):
        state, _, prob = sw.step(state, positions[t], durs[t], params, saliency)
        flat = prob.ravel()
        probs.append(flat / flat.sum())
        i, j = divmod(int(rng.choice(flat.size, p=probs[-1])), saliency.shape[1])
        positions[t + 1] = saliency.cell_center(i, j)
    return positions, durs, probs


class TestSampling:
    def test_zeta_one_uniform_frequencies(self, rng):
        sal = make_saliency(rng, shape=(8, 8))
        params = sw.SceneWalkParams(
            omega_a=1.0, omega_f=1.0, sigma_a=2.0, sigma_f=1.5, lam=1.0, gamma=1.0, c_f=0.3, zeta=1.0
        )
        n_draws = 100_000
        path = sw.sample_scanpath(
            sal, params, n_draws + 1, (8.0, 8.0), 250.0, seed_or_rng=123
        )
        cells = [sal.position_to_cell(q)[:2] for q in path.positions[1:]]
        counts = np.zeros(64)
        for i, j in cells:
            counts[i * 8 + j] += 1
        p = 1.0 / 64
        sigma = math.sqrt(n_draws * p * (1 - p))
        assert np.all(np.abs(counts - n_draws * p) <= 4 * sigma)

    def test_inhibition_reduces_refixations(self, rng):
        # Inhibition must be the sharper field (sigma_f < sigma_a) for the
        # suppression to act on the currently fixated cell.
        sal = make_saliency(rng, shape=(16, 16))
        base = dict(omega_a=1.0, omega_f=0.3, sigma_a=3.0, sigma_f=1.0, lam=1.0, gamma=1.0, zeta=0.05)
        free = sw.SceneWalkParams(c_f=0.0, **base)
        inhibited = sw.SceneWalkParams(c_f=2.0, **base)

        def refix_count(params, seed):
            path = sw.sample_scanpath(sal, params, 10_001, (8.0, 8.0), 200.0, seed_or_rng=seed)
            cells = [sal.position_to_cell(q)[:2] for q in path.positions]
            return sum(a == b for a, b in zip(cells, cells[1:]))

        assert refix_count(inhibited, 7) < refix_count(free, 7)

    def test_deterministic(self, rng):
        sal = make_saliency(rng)
        params = make_walk_params(rng)
        a = sw.sample_scanpath(sal, params, 12, (8.0, 8.0), 200.0, seed_or_rng=99)
        b = sw.sample_scanpath(sal, params, 12, (8.0, 8.0), 200.0, seed_or_rng=99)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_gamma_durations(self, rng):
        sal = make_saliency(rng)
        params = make_walk_params(rng)
        path = sw.sample_scanpath(
            sal, params, 50, (8.0, 8.0), GammaParams(7.0, 34.0), seed_or_rng=5
        )
        assert np.all(path.durations > 0)
        assert path.durations.std() > 0

    # The non-square grid (12 rows of 0.75 deg, 20 columns of 1 deg) catches
    # a row/column mix-up in the per-path window tables.
    @pytest.mark.parametrize("shape, extent, n_fixations", [
        ((8, 8), (16.0, 16.0), 40), ((16, 16), (16.0, 16.0), 40),
        ((12, 20), (20.0, 9.0), 40), ((64, 64), (32.0, 32.0), 15),
    ])
    def test_matches_six_grid_sampler(self, rng, monkeypatch, shape, extent, n_fixations):
        # Each draw's distribution, copied before _draw's cumulative sum
        # overwrites it, must equal the oracle's in every bit: a position
        # moves only when the random double falls within a few ulps of a
        # cell's cumulative bound, so positions alone miss last-bit changes.
        drawn, draw = [], sw._draw

        def recording_draw(rng, p):
            drawn.append(p.copy())
            return draw(rng, p)

        monkeypatch.setattr(sw, "_draw", recording_draw)
        sal = make_saliency(rng, shape=shape, extent=extent)
        base = make_walk_params(rng).to_vector()
        for label, name, value in (("random", None, None), ("zeta0", "zeta", 0.0),
                                   ("zeta1", "zeta", 1.0), ("c_f0", "c_f", 0.0)):
            params = sw.SceneWalkParams.from_vector(np.where(np.array(sw.PARAM_NAMES) == name, value, base))
            for durations in (250.0, rng.uniform(120.0, 400.0, n_fixations), GammaParams(7.0, 34.0)):
                start = (rng.uniform(0.0, extent[0]), rng.uniform(0.0, extent[1]))
                seed = int(rng.integers(2**31))
                drawn.clear()
                path = sw.sample_scanpath(sal, params, n_fixations, start, durations, seed_or_rng=seed)
                positions, durs, probs = oracle_sample_scanpath(sal, params, n_fixations, start, durations, seed)
                np.testing.assert_array_equal(path.positions, positions, err_msg=label)
                np.testing.assert_array_equal(path.durations, durs, err_msg=label)
                np.testing.assert_array_equal(drawn, probs, err_msg=label)

    def test_long_path_matches_six_grid_sampler(self, rng):
        sal = make_saliency(rng, shape=(8, 8))
        params = make_walk_params(rng)
        path = sw.sample_scanpath(sal, params, 10_000, (3.0, 11.0), GammaParams(7.0, 34.0), seed_or_rng=31)
        positions, durs, _ = oracle_sample_scanpath(sal, params, 10_000, (3.0, 11.0), GammaParams(7.0, 34.0), 31)
        np.testing.assert_array_equal(path.positions, positions)
        np.testing.assert_array_equal(path.durations, durs)

    @pytest.mark.parametrize("start", [
        (40.0, -5.0), (-0.5, 8.0), (8.0, 16.5), (math.nan, 8.0), (8.0, math.inf), (-math.inf, 2.0),
    ])
    def test_start_outside_extent_rejected(self, rng, start):
        sal = make_saliency(rng, shape=(8, 8))
        with pytest.raises(ValueError, match=r"start .* saliency extent \[0, 16.0\] x \[0, 16.0\]"):
            sw.sample_scanpath(sal, make_walk_params(rng), 5, start, 200.0)

    def test_start_on_extent_edge_snaps_to_corner_cell(self, rng):
        sal = make_saliency(rng, shape=(8, 8))
        path = sw.sample_scanpath(sal, make_walk_params(rng), 3, (16.0, 0.0), 200.0)
        assert tuple(path.positions[0]) == sal.cell_center(0, 7)


class TestPersistence:
    def test_saliency_round_trip(self, rng, tmp_path):
        sal = make_saliency(rng, shape=(20, 24), extent=(24.0, 20.0))
        sw.save_saliency(sal, tmp_path / "sal")
        loaded = sw.load_saliency(tmp_path / "sal")
        np.testing.assert_array_equal(loaded.grid, sal.grid)
        assert loaded.extent == sal.extent

    def test_saliency_files_are_exact_npy(self, rng, tmp_path):
        grid = make_saliency(rng, shape=(20, 24), extent=(24.0, 20.0)).grid.copy()
        floor = np.zeros(grid.shape, dtype=bool)
        floor[:3, :5] = floor[-1] = True
        grid[floor] = sw.SALIENCY_FLOOR
        grid[~floor] *= (1.0 - floor.sum() * sw.SALIENCY_FLOOR) / grid[~floor].sum()
        sal = sw.SaliencyMap(grid=grid, extent=(24.0, 20.0))
        sw.save_saliency(sal, tmp_path / "sal")
        assert json.loads((tmp_path / "sal.json").read_text()) == {"extent_deg": [24.0, 20.0]}
        with open(tmp_path / "sal.npy", "rb") as fh:
            assert np.lib.format.read_magic(fh) == (1, 0)
            assert np.lib.format.read_array_header_1_0(fh) == ((20, 24), False, np.dtype("<f8"))
        loaded = sw.load_saliency(tmp_path / "sal")
        assert loaded.grid.dtype == np.float64 and loaded.grid.flags.c_contiguous
        assert loaded.grid.tobytes() == sal.grid.tobytes()
        assert np.all(loaded.grid[floor] == sw.SALIENCY_FLOOR)
        assert loaded == sal
        # Re-runs write the same bytes (Criterion 9), whatever the grid's
        # memory order, and a loaded map saves back to the bytes it came from.
        for name, again in [
            ("twice", sal),
            ("fortran", sw.SaliencyMap(grid=np.asfortranarray(grid), extent=sal.extent)),
            ("loaded", loaded),
        ]:
            sw.save_saliency(again, tmp_path / name)
            for suffix in (".npy", ".json"):
                assert (tmp_path / f"{name}{suffix}").read_bytes() == (tmp_path / f"sal{suffix}").read_bytes()

    @pytest.mark.parametrize("array, message", [
        (np.zeros((2, 3, 4)) + 1 / 24, r"expected a 2-D float64 grid, got a 3-D float64 array"),
        (np.full(12, 1 / 12), r"expected a 2-D float64 grid, got a 1-D float64 array"),
        (np.ones((3, 4), dtype=np.int64), r"expected a 2-D float64 grid, got a 2-D int64 array"),
        (np.full((3, 4), 1 / 12, dtype=np.float32), r"expected a 2-D float64 grid, got a 2-D float32 array"),
        (np.full((3, 4), 1 / 6), r"saliency grid must sum to 1 within 1e-9, got np\.float64\(2\.0\)"),
    ])
    def test_array_that_is_not_a_grid_names_the_file(self, rng, tmp_path, array, message):
        sw.save_saliency(make_saliency(rng, shape=(3, 4)), tmp_path / "sal")
        np.save(tmp_path / "sal.npy", array)
        with pytest.raises(ValueError, match=r"sal\.npy: " + message):
            sw.load_saliency(tmp_path / "sal")

    def test_object_array_is_rejected_without_unpickling(self, rng, tmp_path):
        sw.save_saliency(make_saliency(rng, shape=(3, 4)), tmp_path / "sal")
        np.save(tmp_path / "sal.npy", np.array([[_Unpicklable()]], dtype=object), allow_pickle=True)
        with pytest.raises(ValueError, match=r"sal\.npy: Object arrays cannot be loaded"):
            sw.load_saliency(tmp_path / "sal")
        assert _UNPICKLED == []

    @pytest.mark.parametrize("keep, message", [
        (lambda data: data[:-5], r"could only read 11 elements"),
        (lambda data: data[:40], r"EOF: reading array header"),
        (lambda data: b"", r"EOF: reading magic string"),
    ])
    def test_truncated_file_names_the_file(self, rng, tmp_path, keep, message):
        sw.save_saliency(make_saliency(rng, shape=(3, 4)), tmp_path / "sal")
        (tmp_path / "sal.npy").write_bytes(keep((tmp_path / "sal.npy").read_bytes()))
        with pytest.raises(ValueError, match=r"sal\.npy: .*" + message):
            sw.load_saliency(tmp_path / "sal")

    @pytest.mark.parametrize("sidecar, message", [
        ("{}", r"KeyError: 'extent_deg'"),
        ("{bad", r"JSONDecodeError: Expecting property name"),
        ("[]", r"TypeError: list indices must be integers"),
        ('{"extent_deg": [8.0]}', r"ValueError: not enough values to unpack"),
        ('{"extent_deg": ["wide", 8.0]}', r"ValueError: could not convert string to float"),
    ])
    def test_bad_sidecar_names_the_file(self, rng, tmp_path, sidecar, message):
        sw.save_saliency(make_saliency(rng, shape=(3, 4)), tmp_path / "sal")
        (tmp_path / "sal.json").write_text(sidecar)
        with pytest.raises(ValueError, match=r"sal\.json: expected extent_deg as two numbers \(" + message):
            sw.load_saliency(tmp_path / "sal")

    @pytest.mark.parametrize("extent", ["[-4.0, 3.0]", "[4.0, 0.0]", "[NaN, 3.0]"])
    def test_non_positive_extent_names_the_sidecar(self, rng, tmp_path, extent):
        sw.save_saliency(make_saliency(rng, shape=(3, 4)), tmp_path / "sal")
        (tmp_path / "sal.json").write_text(f'{{"extent_deg": {extent}}}')
        with pytest.raises(ValueError, match=r"sal\.json: extent_deg must be positive, got \["):
            sw.load_saliency(tmp_path / "sal")

    def test_old_csv_map_names_the_file(self, rng, tmp_path):
        sal = make_saliency(rng, shape=(3, 4))
        sw.save_saliency(sal, tmp_path / "sal")
        (tmp_path / "sal.npy").unlink()
        (tmp_path / "sal.csv").write_text("".join(",".join(map(repr, row)) + "\r\n" for row in sal.grid.tolist()))
        with pytest.raises(ValueError, match=r"sal\.csv: saliency maps are now stored as \.npy files; re-run `gazeid simulate`"):
            sw.load_saliency(tmp_path / "sal")


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(True)


class _Unpicklable:
    """An object whose unpickling would be seen in ``_UNPICKLED``."""

    def __reduce__(self):
        return _record_unpickling, ()
