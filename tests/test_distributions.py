"""Gamma/multinomial primitives against independent numeric oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, polygamma

from gazeid import markov
from gazeid.core import DYNAMICS_CHANNELS, SaccadeTable
from gazeid.distributions import (
    ConvergenceError,
    DegenerateSampleError,
    GammaParams,
    MultinomialParams,
    PROB_FLOOR,
    floored_multinomial,
    gamma_logpdf,
    gamma_mle,
    gamma_mle_from_sums,
    gamma_sample,
    multinomial_mle,
)

EULER_GAMMA = 0.5772156649015329

PARAM_GRID = [
    GammaParams(shape=a, scale=b) for a in (0.5, 1.0, 2.0, 5.0) for b in (0.5, 1.0, 3.0)
]
X_GRID = (0.1, 1.0, 10.0)


def gamma_score(x, params: GammaParams):
    """(d/d shape, d/d scale) of the Gamma log-density at one x, read from
    the only implementation of that score: the amplitude block of
    ``markov.grad_loglik`` of a base model for a single type-1 saccade of
    amplitude x (its duration NaN, so skipped)."""
    values = np.full((len(DYNAMICS_CHANNELS), 1), np.nan)
    values[0, 0] = x
    model = markov.MarkovModelParams(
        pi=np.full(4, 0.25), channels={"amplitude": (params,) * 4, "duration": (params,) * 4}
    )
    g = markov.grad_loglik(SaccadeTable(types=[1], values=values), model)
    return g[1], g[2]


def sample_types(params: MultinomialParams, n: int, seed_or_rng) -> np.ndarray:
    """n saccade types in {1, 2, 3, 4}, drawn by ``markov.sample_scanpath``
    under ``params.pi``."""
    model = markov.MarkovModelParams(
        pi=params.pi, channels=markov.default_params(("amplitude", "duration")).channels
    )
    return markov.sample_scanpath(model, n + 1, seed_or_rng=seed_or_rng)[1].types


class TestGammaLogpdf:
    def test_unit_exponential(self):
        # shape 1, scale 1 is Exp(1): pdf(1) = e^{-1}
        assert gamma_logpdf(1.0, GammaParams(1.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_shape_two(self):
        # pdf = x e^{-x} at x=1
        assert gamma_logpdf(1.0, GammaParams(2.0, 1.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_value_against_quadrature_normalization(self):
        # Oracle: normalize the unnormalized density numerically, then
        # compare the density value at x=2.
        a, b = 2.5, 1.3
        unnorm = lambda x: x ** (a - 1.0) * math.exp(-x / b)
        z, _ = quad(unnorm, 0, np.inf)
        expected = math.log(unnorm(2.0) / z)
        assert gamma_logpdf(2.0, GammaParams(a, b)) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_integrates_to_one(self, params):
        val, _ = quad(lambda x: math.exp(gamma_logpdf(x, params)), 0, np.inf, limit=200)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma_logpdf(0.0, GammaParams(2.0, 1.0))
        with pytest.raises(ValueError):
            gamma_logpdf(-1.0, GammaParams(2.0, 1.0))


class TestGammaScore:
    def test_unit_point(self):
        # psi(1) = -EulerGamma, so d/d shape at x=1, (1,1) is +EulerGamma.
        ds, db = gamma_score(1.0, GammaParams(1.0, 1.0))
        assert ds == pytest.approx(EULER_GAMMA, abs=1e-7)
        assert db == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("params", PARAM_GRID)
    @pytest.mark.parametrize("x", X_GRID)
    def test_matches_finite_differences(self, params, x):
        h = 1e-6
        ds, db = gamma_score(x, params)
        fd_shape = (
            gamma_logpdf(x, GammaParams(params.shape + h, params.scale))
            - gamma_logpdf(x, GammaParams(params.shape - h, params.scale))
        ) / (2 * h)
        fd_scale = (
            gamma_logpdf(x, GammaParams(params.shape, params.scale + h))
            - gamma_logpdf(x, GammaParams(params.shape, params.scale - h))
        ) / (2 * h)
        assert ds == pytest.approx(fd_shape, rel=1e-6, abs=1e-6)
        assert db == pytest.approx(fd_scale, rel=1e-6, abs=1e-6)

    def test_scale_score_zero_at_mean(self):
        p = GammaParams(3.7, 0.9)
        _, db = gamma_score(p.mean, p)
        assert db == pytest.approx(0.0, abs=1e-14)

    def test_specific_point_against_finite_differences(self):
        p = GammaParams(3.0, 0.5)
        h = 1e-6
        ds, db = gamma_score(2.0, p)
        fd = (gamma_logpdf(2.0, GammaParams(3.0 + h, 0.5)) - gamma_logpdf(2.0, GammaParams(3.0 - h, 0.5))) / (2 * h)
        assert ds == pytest.approx(fd, rel=1e-7)


def oracle_gamma_from_sums(n, sum_x, sum_log_x, tol=1e-10, max_iter=100):
    """The scalar Newton iteration that the vectorised one replaced."""
    if n < 2:
        raise DegenerateSampleError("need at least 2 samples for a Gamma fit")
    mean = sum_x / n
    s = np.log(mean) - sum_log_x / n
    if not np.isfinite(s) or s <= 1e-12:
        raise DegenerateSampleError("samples are (numerically) all identical")
    a = 0.5 / s
    for _ in range(max_iter):
        f = np.log(a) - digamma(a) - s
        fprime = 1.0 / a - polygamma(1, a)
        step = f / fprime
        a_new = a - step
        if a_new <= 0:
            a_new = a / 2.0
        rounding = np.finfo(float).eps * (abs(np.log(a)) + abs(digamma(a)) + s) / abs(fprime)
        if abs(a_new - a) < tol * max(1.0, a) or abs(step) <= rounding:
            return GammaParams(shape=float(a_new), scale=float(mean / a_new))
        a = a_new
    raise ConvergenceError("did not converge", last_iterate=a)


class TestGammaMleFromSums:
    def test_batch_matches_scalar_oracle(self):
        # 3200 cells of samples of 0-60 values over five decades of scale,
        # with all-equal samples, at the default cap and at a cap of 3
        # steps, where many cells stop unconverged
        rng = np.random.default_rng(7)
        cells = []
        for _ in range(3200):
            xs = rng.gamma(rng.uniform(0.3, 30.0), 10 ** rng.uniform(-3, 2), int(rng.integers(0, 60)))
            if rng.random() < 0.05:
                xs[:] = 1.7
            cells.append((xs.size, xs.sum(), np.log(xs).sum()))
        n, sum_x, sum_log_x = np.array(cells).T
        for max_iter in (100, 3):
            shape, scale, converged = gamma_mle_from_sums(n, sum_x, sum_log_x, max_iter=max_iter)
            kinds = set()
            for i, cell in enumerate(cells):
                try:
                    want = oracle_gamma_from_sums(*cell, max_iter=max_iter)
                except DegenerateSampleError:
                    kinds.add("degenerate")
                    assert np.isnan(shape[i]) and np.isnan(scale[i]) and not converged[i]
                except ConvergenceError as exc:
                    kinds.add("unconverged")
                    assert shape[i] == exc.last_iterate and not converged[i]
                else:
                    kinds.add("fitted")
                    assert converged[i] and (shape[i], scale[i]) == (want.shape, want.scale)
            assert {"degenerate", "fitted"} <= kinds
        assert "unconverged" in kinds

    def test_large_shape_stops_at_rounding_limit(self):
        # Two nearly equal samples: ln a - psi(a) ~ 1/(2a) is a difference of
        # two numbers near ln a, so above a ~ 1e4 the Newton steps wander by
        # more than tol * a. The fit still ends at the root of the
        # asymptotic expansion ln a - psi(a) = 1/(2a) + 1/(12 a^2) + O(a^-4).
        for xs in ([1.0, 1.003], [1.0, 1.01]):
            fit = gamma_mle(xs)
            s = np.log(np.mean(xs)) - np.mean(np.log(xs))
            assert fit.shape == pytest.approx(0.5 / s + 1.0 / 6.0, rel=1e-8)
            assert fit.mean == pytest.approx(np.mean(xs), rel=1e-12)

    def test_gamma_mle_raises_for_unfitted_cells(self):
        with pytest.raises(ConvergenceError) as info:
            gamma_mle([1.0, 2.0, 3.5], max_iter=1)
        assert info.value.last_iterate > 0
        with pytest.raises(DegenerateSampleError):
            gamma_mle([2.0, 2.0, 2.0])


class TestGammaMle:
    def test_recovers_generating_parameters(self):
        params = GammaParams(2.5, 1.3)
        xs = gamma_sample(params, 100_000, 2024)
        fit = gamma_mle(xs)
        assert fit.shape == pytest.approx(2.5, rel=0.02)
        assert fit.scale == pytest.approx(1.3, rel=0.02)

    def test_constant_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            gamma_mle([3.0, 3.0])

    def test_too_few_or_invalid(self):
        with pytest.raises(DegenerateSampleError):
            gamma_mle([1.0])
        with pytest.raises(DegenerateSampleError):
            gamma_mle([1.0, -2.0, 3.0])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=3, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_moment_identity(self, xs):
        # For the shape/scale parameterization the MLE matches the sample
        # mean exactly: shape * scale = mean(x).
        xs = np.asarray(xs)
        try:
            fit = gamma_mle(xs)
        except (DegenerateSampleError, ConvergenceError):
            return
        assert fit.mean == pytest.approx(float(xs.mean()), rel=1e-9)


class TestMultinomial:
    def test_score_direct(self):
        # the type block of markov's gradient is K_u / pi_u
        params = markov.MarkovModelParams(
            pi=np.full(4, 0.25), channels=markov.default_params(("amplitude", "duration")).channels
        )
        row = np.zeros(4 + 4 * 3 * 2)
        row[:4] = [2.0, 1.0, 1.0, 0.0]
        score = markov.grad_from_statistics(row, params)[::5]
        np.testing.assert_allclose(score, [8.0, 4.0, 4.0, 0.0])

    def test_mle_symmetric(self):
        fit = multinomial_mle([10, 10, 10, 10])
        np.testing.assert_allclose(fit.pi, 0.25)

    def test_mle_floor_rule(self):
        fit = multinomial_mle([5, 0, 0, 0])
        np.testing.assert_allclose(
            fit.pi, [1.0 - 3 * PROB_FLOOR, PROB_FLOOR, PROB_FLOOR, PROB_FLOOR]
        )

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateSampleError):
            multinomial_mle([0, 0, 0, 0])

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_score_identity_at_unfloored_mle(self, counts):
        # sum_u pi_u * (K_u / pi_u) = sum K at the unfloored MLE.
        counts = np.asarray(counts, dtype=float)
        if counts.sum() == 0 or np.any((counts > 0) & (counts / counts.sum() < PROB_FLOOR)):
            return
        fit = multinomial_mle(counts)
        if np.any(counts == 0):
            return  # floored entries perturb the identity by design
        assert float(fit.pi @ (counts / fit.pi)) == pytest.approx(
            counts.sum(), rel=1e-12
        )

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_mle_respects_floor_and_simplex(self, counts):
        if sum(counts) == 0:
            return
        fit = multinomial_mle(counts)
        assert np.all(fit.pi >= PROB_FLOOR)
        assert fit.pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stack_equals_row_by_row_fits(self):
        rng = np.random.default_rng(2)
        # [1, 0, 0, n] with n in {999998, 999999}: the 1 is at or above the floor
        # before the two zeros are floored and below it after the rescaling
        counts = np.array(
            [[5, 0, 0, 0], [1, 0, 0, 999998], [1, 0, 0, 999999], [0, 3, 0, 1], [1, 1, 1, 1]]
            + rng.integers(0, 40, (30, 4)).tolist()
            + (rng.integers(0, 3, (30, 4)) * 10 ** rng.integers(0, 7, (30, 4))).tolist(),
            dtype=float,
        )
        counts = counts[counts.sum(axis=1) > 0]
        for row in counts[1:3]:
            assert (row / row.sum() < PROB_FLOOR).sum() == 2
            assert (oracle_multinomial_mle(row) == PROB_FLOOR).sum() == 3
        stack = floored_multinomial(counts)
        np.testing.assert_array_equal(stack, [oracle_multinomial_mle(row) for row in counts])
        np.testing.assert_array_equal(stack, [multinomial_mle(row).pi for row in counts])

    def test_stack_rejects_what_a_row_fit_rejects(self):
        with pytest.raises(DegenerateSampleError):
            floored_multinomial([[1, 2, 3, 4], [0, 0, 0, 0]])
        with pytest.raises(ValueError, match="non-negative"):
            floored_multinomial([[1, -2, 3, 4]])
        with pytest.raises(ValueError, match="rows of 4 counts"):
            floored_multinomial([1, 2, 3, 4])


def oracle_multinomial_mle(counts):
    """The per-row loop that ``floored_multinomial`` replaced."""
    pi = counts / counts.sum()
    floored = pi < PROB_FLOOR
    while True:
        free_mass = 1.0 - PROB_FLOOR * floored.sum()
        scaled = pi.copy()
        scaled[floored] = PROB_FLOOR
        scaled[~floored] = pi[~floored] * free_mass / pi[~floored].sum()
        newly = (scaled < PROB_FLOOR) & ~floored
        if not newly.any():
            return scaled
        floored |= newly


class TestSampling:
    def test_gamma_sample_mean(self):
        xs = gamma_sample(GammaParams(2.0, 3.0), 200_000, 77)
        assert xs.mean() == pytest.approx(6.0, rel=0.01)

    def test_gamma_sample_deterministic(self):
        a = gamma_sample(GammaParams(2.0, 3.0), 1000, 5)
        b = gamma_sample(GammaParams(2.0, 3.0), 1000, 5)
        np.testing.assert_array_equal(a, b)

    def test_multinomial_sample_near_degenerate(self):
        params = multinomial_mle([100, 0, 0, 0])
        rng = np.random.default_rng(3)
        draws = sample_types(params, 5000, rng)
        assert np.mean(draws == 1) >= 1.0 - 4 * PROB_FLOOR - 0.01

    def test_multinomial_sample_deterministic(self):
        params = MultinomialParams(pi=np.array([0.4, 0.3, 0.2, 0.1]))
        a = sample_types(params, 5, np.random.default_rng(9))
        b = sample_types(params, 5, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_multinomial_sample_frequencies(self):
        params = MultinomialParams(pi=np.array([0.4, 0.3, 0.2, 0.1]))
        rng = np.random.default_rng(11)
        draws = sample_types(params, 40_000, rng)
        freqs = np.bincount(draws - 1, minlength=4) / draws.size
        np.testing.assert_allclose(freqs, params.pi, atol=0.01)
