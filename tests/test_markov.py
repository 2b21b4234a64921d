"""Markov scanpath model: fit recovery, likelihood, gradient, sampling."""

import collections
import json
import math
import re
from operator import attrgetter

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from conftest import item_tables
from test_acceptance import random_markov_params
from test_distributions import oracle_gamma_from_sums

from gazeid import markov, simulate
from gazeid.core import (
    BASE_CHANNELS,
    DYNAMICS_CHANNELS,
    SaccadeTable,
    extract_features,
)
from gazeid.dataset import DatasetItem, GazeDataset, load_dataset, save_dataset
from gazeid.distributions import (
    PROB_FLOOR,
    ConvergenceError,
    DegenerateSampleError,
    GammaParams,
    gamma_logpdf,
    gamma_mle,
    multinomial_mle,
)


def gamma_entropy(p: GammaParams) -> float:
    """Differential entropy of the shape/scale Gamma (closed form)."""
    a, b = p.shape, p.scale
    return a + math.log(b) + float(gammaln(a)) + (1.0 - a) * float(digamma(a))


def finite_difference_gradient(features, params, channels, h=1e-6):
    vec = markov.params_to_vector(params)
    fd = np.zeros_like(vec)
    for i in range(len(vec)):
        step = h * max(1.0, abs(vec[i]))
        vp, vm = vec.copy(), vec.copy()
        vp[i] += step
        vm[i] -= step
        fd[i] = (
            markov.loglik(features, markov.vector_to_params(vp, channels))
            - markov.loglik(features, markov.vector_to_params(vm, channels))
        ) / (2 * step)
    return fd


def sample_features(params, n_paths, n_fixations, seed):
    rng = np.random.default_rng(seed)
    return [
        markov.sample_scanpath(params, n_fixations, seed_or_rng=rng)[1] for _ in range(n_paths)
    ]


def make_table(types, **channels):
    """A saccade table of the given types and channel values; the other
    rows are NaN."""
    values = np.full((len(DYNAMICS_CHANNELS), len(types)), math.nan)
    for ch, vals in channels.items():
        values[DYNAMICS_CHANNELS.index(ch)] = vals
    return SaccadeTable(types=types, values=values)


def subset(features, keep):
    """The saccades of a table where ``keep`` holds."""
    return SaccadeTable(types=features.types[keep], values=features.values[:, keep])


def corrupt(features, rng, fraction=0.2):
    """A copy of the table with about ``fraction`` of the channel values
    replaced by NaN, inf, zero or a negative number."""
    values = features.values.copy()
    for t in range(len(features)):
        for row in range(len(DYNAMICS_CHANNELS)):
            if rng.random() < fraction:
                values[row, t] = float(rng.choice([math.nan, math.inf, 0.0, -1.5]))
    return SaccadeTable(types=features.types, values=values)


# Per-type mask loops over raw channel values: the likelihood, gradient and
# fit that the statistics row replaced, kept as oracles.


def oracle_values(features, names):
    types = features.types
    values = features.values[[DYNAMICS_CHANNELS.index(ch) for ch in names]]
    return types, values, np.isfinite(values) & (values > 0)


def oracle_loglik(features, params):
    names = params.channel_names
    types, values, valid = oracle_values(features, names)
    total = float(np.sum(np.log(params.pi[types - 1])))
    skipped = {}
    for i, ch in enumerate(names):
        if values.shape[1] - valid[i].sum():
            skipped[ch] = int(values.shape[1] - valid[i].sum())
        for u in range(1, 5):
            mask = valid[i] & (types == u)
            if mask.any():
                total += float(np.sum(gamma_logpdf(values[i][mask], params.channels[ch][u - 1])))
    return total, skipped


def skipped_per_channel(features, channels):
    """Values of each channel that the ``statistics`` row leaves out: the
    saccades less the channel's n, summed over types."""
    names = markov.canonical_channels(channels)
    n = markov.statistics(features, names)[4:].reshape(len(names), 4, 3)[..., 0].sum(axis=1)
    return {ch: len(features) - int(kept) for ch, kept in zip(names, n) if kept < len(features)}


def bayes_oracle(tables, models):
    """Index of the model with the largest summed log-likelihood of the
    tables (per-table rows @ coefficients, summed); ties go to the lowest."""
    rows = np.array([markov.statistics(t, models[0].channel_names) for t in tables])
    return int(np.argmax((rows @ np.array([markov.coef(m) for m in models]).T).sum(axis=0)))


def oracle_grad(features, params):
    names = params.channel_names
    types, values, valid = oracle_values(features, names)
    block = 1 + 2 * len(names)
    grad = np.zeros(4 * block)
    for u in range(1, 5):
        base = (u - 1) * block
        grad[base] = (types == u).sum() / params.pi[u - 1]
        for i, ch in enumerate(names):
            x = values[i][valid[i] & (types == u)]
            if x.size:
                g = params.channels[ch][u - 1]
                grad[base + 1 + 2 * i] = np.sum(np.log(x)) - x.size * (digamma(g.shape) + math.log(g.scale))
                grad[base + 2 + 2 * i] = np.sum(x / g.scale - g.shape) / g.scale
    return grad


def oracle_fit(data, names):
    types, values, valid = oracle_values(SaccadeTable.concat(data), names)
    cells, fallbacks = {}, []
    for i, ch in enumerate(names):
        per_type = []
        for u in range(1, 5):
            try:
                per_type.append(gamma_mle(values[i][valid[i] & (types == u)]))
            except (DegenerateSampleError, ConvergenceError):
                per_type.append(gamma_mle(values[i][valid[i]]))
                fallbacks.append((ch, u))
        cells[ch] = per_type
    return cells, fallbacks, int(values.size - valid.sum())


# The per-saccade records and the statistics and fit code that the saccade
# table and the batched fit replaced, kept as oracles: one 9-field record
# per saccade, taken field by field as Python numbers, and one scalar Gamma
# Newton iteration per cell.

OracleSaccade = collections.namedtuple(
    "OracleSaccade",
    "saccade_type amplitude duration mean_velocity mean_abs_acceleration "
    "accel_ratio_x accel_ratio_y vigor_x vigor_y",
)
ORACLE_ATTRS = {
    "amplitude": "amplitude",
    "duration": "duration",
    "velocity": "mean_velocity",
    "acceleration": "mean_abs_acceleration",
    "ratio_x": "accel_ratio_x",
    "ratio_y": "accel_ratio_y",
    "vigor_x": "vigor_x",
    "vigor_y": "vigor_y",
}


def oracle_records(table):
    return [OracleSaccade(int(u), *map(float, column)) for u, column in zip(table.types.tolist(), table.values.T.tolist())]


def oracle_statistics(features, channels):
    names = markov.canonical_channels(channels)
    get = attrgetter("saccade_type", *(ORACLE_ATTRS[ch] for ch in names))
    table = np.array([get(f) for f in features], dtype=float).reshape(len(features), -1)
    onehot = (table[:, 0] == np.arange(1, 5)[:, None]).astype(float)
    values = table[:, 1:].T
    valid = np.isfinite(values) & (values > 0)
    x = np.where(valid, values, 1.0)
    sums = np.stack([valid, valid * x, np.log(x)]) @ onehot.T
    return np.concatenate([onehot.sum(axis=1), sums.transpose(1, 2, 0).ravel()])


def oracle_fit_from_statistics(row, channels):
    names = markov.canonical_channels(channels)
    counts, stats = row[:4], row[4:].reshape(len(names), 4, 3)
    cells, fallbacks = {}, []
    for ch, channel_stats in zip(names, stats):
        per_type = []
        for u, cell in enumerate(channel_stats, start=1):
            try:
                per_type.append(oracle_gamma_from_sums(*cell))
            except (DegenerateSampleError, ConvergenceError):
                per_type.append(oracle_gamma_from_sums(*channel_stats.sum(axis=0)))
                fallbacks.append((ch, u))
        cells[ch] = tuple(per_type)
    report = markov.MarkovFitReport(
        fallback_cells=tuple(fallbacks),
        skipped_values=int(counts.sum() * len(names) - stats[..., 0].sum()),
    )
    return cells, report


class TestTableParity:
    @pytest.mark.parametrize("family, channels", [("markov", BASE_CHANNELS), ("markov-dyn", DYNAMICS_CHANNELS)])
    def test_rows_equal_object_oracle(self, tmp_path, family, channels):
        # the tables the family reads from a simulated cohort (a base
        # cohort's come from its scanpaths), half of them corrupted with
        # NaN, inf, zero and negative values, plus paths of other lengths;
        # saved and loaded, against records taken from the tables in memory
        spec = simulate.SyntheticCohortSpec(
            n_users=3, n_images=6, fixations_per_path=25, family=family, jitter=0.3, seed=8
        )
        data = simulate.generate_cohort(spec).data
        rng = np.random.default_rng(9)
        read = item_tables(data) if family == "markov-dyn" else [extract_features(it.scanpath) for it in data.items]
        items = list(data.items)
        tables = [corrupt(table, rng) if i % 2 else table for i, table in enumerate(read)]
        gen = markov.default_params(channels)
        for n in (2, 3, 17, 25, 40, 41):
            feats = markov.sample_scanpath(gen, n, seed_or_rng=rng)[1]
            path = markov.sample_scanpath(gen, n, seed_or_rng=0)[0]
            items.append(DatasetItem("extra", f"len{n}", path))
            tables.append(corrupt(feats, rng))
        save_dataset(GazeDataset(items=tuple(items), features=SaccadeTable.concat(tables)), tmp_path / "d")
        loaded = load_dataset(tmp_path / "d")
        want = np.array([oracle_statistics(oracle_records(t), channels) for t in tables])
        assert np.isnan(loaded.features.values[[DYNAMICS_CHANNELS.index(ch) for ch in channels]]).any()
        np.testing.assert_array_equal([markov.statistics(t, channels) for t in item_tables(loaded)], want)
        lengths = [len(t) for t in tables]
        np.testing.assert_array_equal(markov.statistics(loaded.features, channels, lengths), want)

    def test_lengths_must_cover_the_table(self):
        table = make_table([1, 2, 3], amplitude=[1.0, 2.0, 3.0], duration=[100.0, 200.0, 300.0])
        np.testing.assert_array_equal(
            markov.statistics(table, BASE_CHANNELS, [3]), [markov.statistics(table, BASE_CHANNELS)]
        )
        with pytest.raises(ValueError, match="lengths sum to 2, but the table has 3 saccades"):
            markov.statistics(table, BASE_CHANNELS, [1, 1])
        for lengths in ([3, 0], [], [4, -1]):
            with pytest.raises(ValueError, match="non-empty"):
                markov.statistics(table, BASE_CHANNELS, lengths)

    def test_fit_of_stacked_rows_equals_scalar_oracle(self):
        # per-user row sums of a dynamics cohort, and rows with a cell of
        # fewer than 2 values (type 4 seen once) and a cell of all-equal
        # values (type 3 amplitudes): both fall back to the pooled fit
        spec = simulate.SyntheticCohortSpec(
            n_users=4, n_images=5, fixations_per_path=20, family="markov-dyn", jitter=0.3, seed=3
        )
        data = simulate.generate_cohort(spec).data
        lengths = [len(it.scanpath) - 1 for it in data.items]
        item_rows = markov.statistics(data.features, DYNAMICS_CHANNELS, lengths)
        subjects = np.array([it.subject_id for it in data.items])
        rows = [item_rows[subjects == s].sum(axis=0) for s in data.subjects]
        rng = np.random.default_rng(5)
        values = rng.gamma(3.0, 2.0, (len(DYNAMICS_CHANNELS), 12))
        types = np.array([1, 1, 2, 2, 2, 3, 3, 3, 1, 2, 1, 4])
        values[0, types == 3] = 2.0
        odd = make_table(types, **dict(zip(DYNAMICS_CHANNELS, values)))
        rows.append(markov.statistics(odd, DYNAMICS_CHANNELS))
        fits = markov.fit_from_statistics(np.array(rows), DYNAMICS_CHANNELS)
        for row, fit in zip(rows, fits):
            cells, report = oracle_fit_from_statistics(row, DYNAMICS_CHANNELS)
            assert fit.channels == cells
            assert fit.fit_report == report
        assert {("amplitude", 3), ("amplitude", 4), ("velocity", 4)} <= set(fits[-1].fit_report.fallback_cells)
        single = markov.fit_from_statistics(rows[0], DYNAMICS_CHANNELS)
        assert single.channels == fits[0].channels and single.fit_report == fits[0].fit_report

    def test_degenerate_pooled_channel_raises_like_oracle(self):
        # every duration equal: each cell and the channel's pooled fit are
        # degenerate, so the fit raises instead of falling back
        table = make_table([1, 2, 2, 3, 1], amplitude=[1.0, 2.0, 3.0, 2.5, 1.5], duration=[200.0] * 5)
        row = markov.statistics(table, BASE_CHANNELS)
        with pytest.raises(DegenerateSampleError):
            oracle_fit_from_statistics(row, BASE_CHANNELS)
        with pytest.raises(DegenerateSampleError):
            markov.fit_from_statistics(np.array([row, row]), BASE_CHANNELS)
        with pytest.raises(DegenerateSampleError):
            markov.fit([table], BASE_CHANNELS)


class TestStatisticsParity:
    @pytest.mark.parametrize("channels", [BASE_CHANNELS, DYNAMICS_CHANNELS])
    @pytest.mark.parametrize("invalid", [False, True])
    def test_loglik_grad_and_skips_match_mask_loop(self, channels, invalid):
        rng = np.random.default_rng(41)
        for _ in range(30):
            gen = random_markov_params(rng, DYNAMICS_CHANNELS)
            feats = markov.sample_scanpath(gen, int(rng.integers(2, 40)), seed_or_rng=rng)[1]
            if invalid:
                feats = corrupt(feats, rng)
            params = random_markov_params(rng, channels)
            expected, expected_skipped = oracle_loglik(feats, params)
            assert markov.loglik(feats, params) == pytest.approx(expected, rel=1e-12)
            assert skipped_per_channel(feats, channels) == expected_skipped
            g, want = markov.grad_loglik(feats, params), oracle_grad(feats, params)
            np.testing.assert_allclose(g, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    def test_rows_of_a_stack_give_each_gradient(self):
        rng = np.random.default_rng(43)
        params = random_markov_params(rng, DYNAMICS_CHANNELS)
        paths = [corrupt(f, rng) for f in sample_features(params, 5, 20, 44)]
        rows = np.array([markov.statistics(f, DYNAMICS_CHANNELS) for f in paths])
        np.testing.assert_array_equal(
            markov.grad_from_statistics(rows, params),
            [markov.grad_loglik(f, params) for f in paths],
        )
        np.testing.assert_allclose(
            rows @ markov.coef(params), [markov.loglik(f, params) for f in paths], rtol=1e-12
        )

    @pytest.mark.parametrize("channels", [BASE_CHANNELS, DYNAMICS_CHANNELS])
    def test_fit_matches_raw_value_gamma_mle(self, channels):
        rng = np.random.default_rng(47)
        true = markov.MarkovModelParams(
            pi=np.array([0.6, 0.3, 0.09, 0.01]), channels=markov.default_params(DYNAMICS_CHANNELS).channels
        )
        # short, partly corrupted paths leave the rare types with fewer
        # than two usable values in some channels: pooled fallbacks
        data = [corrupt(f, rng, fraction=0.3) for f in sample_features(true, 6, 12, 48)]
        fit = markov.fit(data, channels)
        cells, fallbacks, skipped = oracle_fit(data, channels)
        assert fit.fit_report.fallback_cells == tuple(fallbacks)
        assert fallbacks
        assert fit.fit_report.skipped_values == skipped > 0
        for ch in channels:
            for got, want in zip(fit.channels[ch], cells[ch]):
                assert got.shape == pytest.approx(want.shape, rel=1e-10)
                assert got.scale == pytest.approx(want.scale, rel=1e-10)

    def test_out_of_range_type_rejected(self):
        # alone and as the second item of a table, where a type 0 would
        # otherwise count in the first item's type-4 sums
        f = markov.sample_scanpath(markov.default_params(), 3, seed_or_rng=1)[1]
        for bad_type in (5, 0, -1):
            bad = SaccadeTable(types=np.r_[bad_type, f.types], values=np.c_[f.values[:, :1], f.values])
            for features, lengths in ((bad, None), (SaccadeTable.concat([f, bad]), [len(f), len(bad)])):
                with pytest.raises(ValueError, match="saccade types"):
                    markov.statistics(features, BASE_CHANNELS, lengths)


class TestFit:
    def test_recovers_generating_parameters(self):
        # 10 paths x 2000 saccades gives every per-type cell >= ~2400
        # samples, where the Gamma-shape MLE's relative sd (~sqrt(2/n)) puts
        # the 5% tolerance at >3 sigma.
        true = markov.default_params(BASE_CHANNELS)
        data = sample_features(true, n_paths=10, n_fixations=2001, seed=42)
        fit = markov.fit(data, BASE_CHANNELS)
        for ch in BASE_CHANNELS:
            for u in range(4):
                assert fit.channels[ch][u].shape == pytest.approx(
                    true.channels[ch][u].shape, rel=0.05
                )
                assert fit.channels[ch][u].scale == pytest.approx(
                    true.channels[ch][u].scale, rel=0.05
                )
        np.testing.assert_allclose(fit.pi, true.pi / true.pi.sum(), atol=0.02)

    def test_single_type_floored(self):
        base = markov.default_params(BASE_CHANNELS)
        pooled = SaccadeTable.concat(sample_features(base, 5, 50, 1))
        feats = [subset(pooled, pooled.types == 1)]
        fit = markov.fit(feats, BASE_CHANNELS)
        assert fit.pi[0] == pytest.approx(1.0 - 3 * PROB_FLOOR)
        np.testing.assert_allclose(fit.pi[1:], PROB_FLOOR)
        # every empty cell fell back to the pooled fit
        assert len(fit.fit_report.fallback_cells) == 6

    def test_factorization_ignores_disabled_channels(self):
        true = markov.default_params(DYNAMICS_CHANNELS)
        data = sample_features(true, 5, 60, 3)
        fit_a = markov.fit(data, BASE_CHANNELS)
        perturbed = [
            make_table(
                path.types,
                amplitude=path.values[DYNAMICS_CHANNELS.index("amplitude")],
                duration=path.values[DYNAMICS_CHANNELS.index("duration")],
                velocity=path.values[DYNAMICS_CHANNELS.index("velocity")] * 7.7,
            )
            for path in data
        ]
        fit_b = markov.fit(perturbed, BASE_CHANNELS)
        assert markov.params_to_json_dict(fit_a) == markov.params_to_json_dict(fit_b)


class TestLoglik:
    def test_single_saccade_decomposition(self):
        params = markov.MarkovModelParams(
            pi=multinomial_mle([5, 0, 0, 0]).pi,
            channels={
                "amplitude": tuple(GammaParams(2.0, 1.5) for _ in range(4)),
                "duration": tuple(GammaParams(6.0, 40.0) for _ in range(4)),
            },
        )
        f = make_table([1], amplitude=[3.0], duration=[240.0])
        expected = (
            math.log(params.pi[0])
            + float(gamma_logpdf(3.0, params.channels["amplitude"][0]))
            + float(gamma_logpdf(240.0, params.channels["duration"][0]))
        )
        assert markov.loglik(f, params) == pytest.approx(expected, rel=1e-12)

    def test_additive_over_concatenation(self):
        params = markov.default_params(BASE_CHANNELS)
        a = sample_features(params, 1, 20, 5)[0]
        b = sample_features(params, 1, 25, 6)[0]
        assert markov.loglik(SaccadeTable.concat([a, b]), params) == pytest.approx(
            markov.loglik(a, params) + markov.loglik(b, params), rel=1e-12
        )

    def test_mean_loglik_matches_negative_entropy(self):
        # Large-sample oracle: E[log p] per saccade equals the negative
        # entropy of the generating model (categorical term, no
        # multinomial coefficient, matching the implementation).
        params = markov.default_params(BASE_CHANNELS)
        pi = params.pi / params.pi.sum()
        neg_entropy = float(pi @ np.log(pi))
        for ch in BASE_CHANNELS:
            neg_entropy -= float(
                sum(pi[u] * gamma_entropy(params.channels[ch][u]) for u in range(4))
            )
        feats = sample_features(params, 1, 100_001, 7)[0]
        mean_ll = markov.loglik(feats, params) / len(feats)
        assert mean_ll == pytest.approx(neg_entropy, rel=0.01)

    def test_skips_invalid_channel_values(self):
        params = markov.default_params(BASE_CHANNELS)
        good_and_bad = make_table([1, 1], amplitude=[2.0, math.nan], duration=[100.0, 100.0])
        assert skipped_per_channel(good_and_bad, BASE_CHANNELS) == {"amplitude": 1}
        assert np.isfinite(markov.loglik(good_and_bad, params))


class TestGradient:
    @pytest.mark.parametrize("channels", [BASE_CHANNELS, DYNAMICS_CHANNELS])
    def test_matches_finite_differences(self, channels):
        params = markov.default_params(channels)
        feats = sample_features(params, 1, 25, 11)[0]
        g = markov.grad_loglik(feats, params)
        fd = finite_difference_gradient(feats, params, channels)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-7)

    def test_empty_type_block_is_zero(self):
        params = markov.default_params(BASE_CHANNELS)
        feats = sample_features(params, 1, 40, 13)[0]
        feats = subset(feats, feats.types != 4)
        g = markov.grad_loglik(feats, params)
        block = 1 + 2 * len(BASE_CHANNELS)
        np.testing.assert_array_equal(g[3 * block :], 0.0)

    def test_score_zero_mean_at_generating_params(self):
        # E[grad log p] = 0 at the generating parameters; check each
        # coordinate within 3 standard errors over ~1e5 saccades.
        params = markov.default_params(BASE_CHANNELS)
        paths = sample_features(params, 200, 501, 17)
        grads = np.array([markov.grad_loglik(f, params) for f in paths])
        n_saccades = sum(len(f) for f in paths)
        per_saccade_mean = grads.sum(axis=0) / n_saccades
        per_saccade_sd = grads.std(axis=0, ddof=1) * math.sqrt(len(paths)) / n_saccades
        # the pi block has nonzero expectation T*(1) per coordinate pair
        # (unconstrained categorical score), so restrict to Gamma blocks
        block = 1 + 2 * len(BASE_CHANNELS)
        gamma_coords = [u * block + j for u in range(4) for j in range(1, block)]
        for idx in gamma_coords:
            assert abs(per_saccade_mean[idx]) <= 3.0 * per_saccade_sd[idx] + 1e-12

    def test_layout_length(self):
        assert markov.default_params(BASE_CHANNELS).dim == 20
        assert markov.default_params(DYNAMICS_CHANNELS).dim == 68

    def test_dynamics_with_base_channels_bit_identical(self):
        params = markov.default_params(BASE_CHANNELS)
        feats = sample_features(params, 1, 30, 19)[0]
        # A "dynamics" configuration restricted to {amplitude, duration} is
        # the base configuration: same params object, same code path.
        ll_base = markov.loglik(feats, params)
        g_base = markov.grad_loglik(feats, params)
        again = markov.MarkovModelParams(pi=params.pi, channels=dict(params.channels))
        assert markov.loglik(feats, again) == ll_base
        np.testing.assert_array_equal(markov.grad_loglik(feats, again), g_base)

    def test_fit_is_local_maximum(self):
        rng = np.random.default_rng(23)
        true = markov.default_params(BASE_CHANNELS)
        feats = sample_features(true, 1, 400, 29)[0]
        fit = markov.fit([feats], BASE_CHANNELS)
        base_ll = markov.loglik(feats, fit)
        vec = markov.params_to_vector(fit)
        for _ in range(100):
            delta = rng.standard_normal(vec.size) * 0.02 * np.maximum(np.abs(vec), 1e-3)
            perturbed = vec + delta
            # keep pi a simplex so the comparison is within the feasible set
            block = 1 + 2 * len(BASE_CHANNELS)
            pi_idx = [u * block for u in range(4)]
            pis = np.abs(perturbed[pi_idx])
            perturbed[pi_idx] = pis / pis.sum()
            if np.any(perturbed <= 0):
                continue
            other = markov.vector_to_params(perturbed, BASE_CHANNELS)
            assert markov.loglik(feats, other) <= base_ll + 1e-9


class TestSampling:
    def test_round_trip_recovers_drawn_values(self):
        params = markov.default_params(DYNAMICS_CHANNELS)
        path, feats = markov.sample_scanpath(params, 40, seed_or_rng=101)
        re = extract_features(path)
        np.testing.assert_array_equal(re.types, feats.types)
        amplitude, duration = DYNAMICS_CHANNELS.index("amplitude"), DYNAMICS_CHANNELS.index("duration")
        np.testing.assert_allclose(re.values[amplitude], feats.values[amplitude], rtol=1e-12)
        np.testing.assert_array_equal(re.values[duration], feats.values[duration])

    def test_maintain_only_stays_in_bin(self):
        params = markov.MarkovModelParams(
            pi=multinomial_mle([10, 0, 0, 0]).pi,
            channels=markov.default_params(BASE_CHANNELS).channels,
        )
        path, feats = markov.sample_scanpath(params, 60, seed_or_rng=5)
        re = extract_features(path)
        assert np.all(re.types == 1)

    def test_deterministic(self):
        params = markov.default_params(BASE_CHANNELS)
        p1, f1 = markov.sample_scanpath(params, 30, seed_or_rng=7)
        p2, f2 = markov.sample_scanpath(params, 30, seed_or_rng=7)
        np.testing.assert_array_equal(p1.positions, p2.positions)
        np.testing.assert_array_equal(p1.durations, p2.durations)
        np.testing.assert_array_equal(f1.values, f2.values)


class TestChannelSets:
    @pytest.mark.parametrize("channels", [
        ("amplitude",),
        ("duration", "velocity"),
        ("amplitude", "duration", "velocity"),
        ("amplitude", "amplitude", "duration"),
        ("amplitude", "speed"),
        DYNAMICS_CHANNELS[:-1],
        DYNAMICS_CHANNELS + ("duration",),
        (),
    ], ids=repr)
    def test_a_set_that_is_neither_configuration_is_rejected(self, channels):
        message = re.escape(
            f"channels must be {list(BASE_CHANNELS)} or {list(DYNAMICS_CHANNELS)}, got {list(channels)}"
        )
        for use in (markov.canonical_channels, markov.default_params):
            with pytest.raises(ValueError, match=message):
                use(channels)
        table = make_table([1, 2], amplitude=[1.0, 2.0], duration=[100.0, 200.0])
        with pytest.raises(ValueError, match=message):
            markov.statistics(table, channels)
        if len(set(channels)) == len(channels):
            cells = (GammaParams(2.0, 1.0),) * 4
            with pytest.raises(ValueError, match=message):
                markov.MarkovModelParams(pi=np.full(4, 0.25), channels=dict.fromkeys(channels, cells))

    def test_either_configuration_in_any_order(self):
        assert markov.canonical_channels(["duration", "amplitude"]) == BASE_CHANNELS
        assert markov.canonical_channels(DYNAMICS_CHANNELS[::-1]) == DYNAMICS_CHANNELS
        default = markov.default_params(DYNAMICS_CHANNELS)
        params = markov.MarkovModelParams(
            pi=default.pi, channels={ch: default.channels[ch] for ch in reversed(DYNAMICS_CHANNELS)}
        )
        assert params.channel_names == DYNAMICS_CHANNELS and params.config == "dynamics"
        assert params == default


def assert_arrays_bit_equal(got, want):
    for key in ("pi", "shapes", "scales"):
        a, b = getattr(got, key), getattr(want, key)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key


class TestArrayModel:
    @pytest.mark.parametrize("channels", [BASE_CHANNELS, DYNAMICS_CHANNELS])
    def test_vector_and_channels_views_round_trip_bit_for_bit(self, channels):
        rng = np.random.default_rng(61)
        for params in (markov.default_params(channels), random_markov_params(rng, channels)):
            assert params.shapes.shape == params.scales.shape == (len(channels), 4)
            assert [[(g.shape, g.scale) for g in cells] for cells in params.channels.values()] == [
                list(zip(a, b)) for a, b in zip(params.shapes.tolist(), params.scales.tolist())
            ]
            for again in (
                markov.vector_to_params(markov.params_to_vector(params), channels),
                markov.MarkovModelParams(pi=params.pi, channels=params.channels),
                markov.MarkovModelParams.from_arrays(params.pi, channels, params.shapes, params.scales),
            ):
                assert_arrays_bit_equal(again, params)
                assert again.channel_names == params.channel_names and again.channels == params.channels
            vec = markov.params_to_vector(params)
            again = markov.params_to_vector(markov.vector_to_params(vec, channels))
            assert (again.dtype, again.shape, again.tobytes()) == (vec.dtype, vec.shape, vec.tobytes())

    def test_independently_built_equal_models_compare_equal(self):
        first, second = markov.default_params(DYNAMICS_CHANNELS), markov.default_params(DYNAMICS_CHANNELS)
        assert first.pi is not second.pi and first.shapes is not second.shapes
        assert first == second
        assert markov.vector_to_params(markov.params_to_vector(first), DYNAMICS_CHANNELS) == first
        assert markov.MarkovModelParams(pi=first.pi.copy(), channels=dict(first.channels)) == first
        scaled = markov.MarkovModelParams.from_arrays(first.pi, DYNAMICS_CHANNELS, first.shapes, first.scales * 1.5)
        assert scaled != first and markov.default_params(BASE_CHANNELS) != first

    def test_arrays_are_copied_from_the_input(self):
        default = markov.default_params(BASE_CHANNELS)
        shapes = default.shapes.copy()
        params = markov.MarkovModelParams.from_arrays(default.pi, BASE_CHANNELS, shapes, default.scales)
        shapes[0, 0] = -1.0
        assert params == default

    @pytest.mark.parametrize("change, message", [
        (dict(pi=np.full(3, 1 / 3)), "pi must have shape (4,), got (3,)"),
        (dict(shapes=np.ones((2, 3))), "shapes must have shape (2, 4), got (2, 3)"),
        (dict(scales=np.ones((3, 4))), "scales must have shape (2, 4), got (3, 4)"),
        (dict(shapes=np.ones(8)), "shapes must have shape (2, 4), got (8,)"),
        (dict(pi=[0.5, math.nan, 0.25, 0.25]), "pi entries must be positive and finite, got nan at [1]"),
        (dict(pi=[0.5, 0.5, 0.0, 0.25]), "pi entries must be positive and finite, got 0.0 at [2]"),
        (dict(shapes=[[1.0] * 4, [1.0, 1.0, 0.0, 1.0]]), "shapes entries must be positive and finite, got 0.0 at [1, 2]"),
        (dict(shapes=[[1.0] * 4, [1.0, math.inf, 1.0, 1.0]]), "shapes entries must be positive and finite, got inf at [1, 1]"),
        (dict(scales=[[1.0, 1.0, 1.0, -2.0], [1.0] * 4]), "scales entries must be positive and finite, got -2.0 at [0, 3]"),
        (dict(scales=[[-math.inf] * 4, [1.0] * 4]), "scales entries must be positive and finite, got -inf at [0, 0]"),
        (dict(channel_names=("duration", "amplitude")),
         "channel_names must be in the order ['amplitude', 'duration'], got ['duration', 'amplitude']"),
    ])
    def test_from_arrays_rejects_a_bad_array(self, change, message):
        default = markov.default_params(BASE_CHANNELS)
        arrays = dict(pi=default.pi, channel_names=BASE_CHANNELS, shapes=default.shapes, scales=default.scales)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            markov.MarkovModelParams.from_arrays(**{**arrays, **change})

    def test_constructor_rejects_a_channel_without_four_cells(self):
        cells = markov.default_params(BASE_CHANNELS).channels
        with pytest.raises(ValueError, match=r"^channel 'duration' needs 4 Gamma cells$"):
            markov.MarkovModelParams(pi=np.full(4, 0.25), channels={**cells, "duration": cells["duration"][:3]})


def oracle_sample(params, n_fixations, start, seed):
    """``sample_scanpath``'s draws with one Gamma draw per channel, in
    channel order: (positions, durations, types, values)."""
    rng = np.random.default_rng(seed)
    shapes = np.array([[g.shape for g in cells] for cells in params.channels.values()])
    scales = np.array([[g.scale for g in cells] for cells in params.channels.values()])
    p = params.pi / params.pi.sum()
    first = int(rng.choice(4, p=p))
    durations = [float(rng.gamma(shapes[1, first], scales[1, first]))]
    types = rng.choice(4, size=n_fixations - 1, p=p) + 1
    bins = {1: (-45.0, 45.0), 2: (-135.0, -45.0), 3: (45.0, 135.0), 4: (135.0, 225.0)}
    deltas = [rng.uniform(bins[u][0] + 1e-9, bins[u][1] - 1e-9) for u in types.tolist()]
    values = np.full((len(DYNAMICS_CHANNELS), len(types)), math.nan)
    for i in range(len(params.channels)):
        values[i] = rng.gamma(shapes[i, types - 1], scales[i, types - 1])
    positions, direction = [start], 0.0
    for amplitude, delta in zip(values[0].tolist(), deltas):
        direction = (direction + delta + 180.0) % 360.0 - 180.0
        direction = 180.0 if direction == -180.0 else direction
        rad = math.radians(direction)
        positions.append((positions[-1][0] + amplitude * math.cos(rad), positions[-1][1] + amplitude * math.sin(rad)))
    return np.array(positions), np.array(durations + values[1].tolist()), types, values


class TestSamplerParity:
    @pytest.mark.parametrize("channels", [BASE_CHANNELS, DYNAMICS_CHANNELS])
    def test_one_draw_equals_per_channel_draws(self, channels):
        rng = np.random.default_rng(53)
        for seed in (0, 1, 7, 2024):
            for params in (markov.default_params(channels), random_markov_params(rng, channels)):
                n = int(rng.integers(2, 40))
                path, table = markov.sample_scanpath(params, n, start=(3.5, -1.25), seed_or_rng=seed)
                want = oracle_sample(params, n, (3.5, -1.25), seed)
                for got, expected in zip((path.positions, path.durations, table.types, table.values), want):
                    assert (got.dtype, got.shape, got.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
                assert np.isnan(table.values[len(channels):]).all() and np.isfinite(table.values[: len(channels)]).all()


class TestBayesIdentify:
    def test_single_user(self):
        params = markov.default_params(BASE_CHANNELS)
        feats = sample_features(params, 1, 10, 3)[0]
        assert bayes_oracle([feats], [params]) == 0

    def test_well_separated_users(self):
        rng = np.random.default_rng(31)
        users = []
        for u in range(5):
            scale = 1.0 + 0.8 * u
            users.append(
                markov.MarkovModelParams(
                    pi=np.array([0.4, 0.3, 0.2, 0.1]),
                    channels={
                        "amplitude": tuple(GammaParams(2.0 + u, 1.0) for _ in range(4)),
                        "duration": tuple(GammaParams(6.0, 30.0 * scale) for _ in range(4)),
                    },
                )
            )
        per_image = [
            markov.sample_scanpath(users[3], 40, seed_or_rng=rng)[1] for _ in range(3)
        ]
        assert bayes_oracle(per_image, users) == 3

    def test_permutation_equivariance(self):
        params = [markov.default_params(BASE_CHANNELS) for _ in range(3)]
        params[1] = markov.MarkovModelParams(
            pi=params[1].pi,
            channels={
                "amplitude": tuple(GammaParams(8.0, 2.0) for _ in range(4)),
                "duration": params[1].channels["duration"],
            },
        )
        feats = [markov.sample_scanpath(params[1], 30, seed_or_rng=3)[1]]
        winner = bayes_oracle(feats, params)
        order = [2, 0, 1]
        permuted = [params[i] for i in order]
        assert order[bayes_oracle(feats, permuted)] == winner


class TestPersistence:
    @pytest.mark.parametrize("channels", [BASE_CHANNELS, DYNAMICS_CHANNELS])
    def test_json_round_trip_value_exact(self, tmp_path, channels):
        true = markov.default_params(channels)
        data = sample_features(true, 3, 80, 37)
        fit = markov.fit(data, channels)
        doc = markov.params_to_json_dict(fit)
        assert "b_star" not in doc
        # older model files carry a "b_star" key that nothing reads; they load the same
        for written in (doc, {**doc, "b_star": 3.25}):
            (tmp_path / "m.json").write_text(json.dumps(written, indent=2))
            loaded = markov.params_from_json_dict(json.loads((tmp_path / "m.json").read_text()))
            np.testing.assert_array_equal(loaded.pi, fit.pi)
            assert loaded.channels == fit.channels
            assert loaded.config == fit.config
