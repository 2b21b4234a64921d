"""Shared builders for randomized model inputs."""

import numpy as np
import pytest

from gazeid import scenewalk as sw
from gazeid.core import SaccadeTable, Scanpath


def make_saliency(rng, shape=(32, 32), extent=(16.0, 16.0), n_blobs=4):
    """Random smooth saliency map (mixture of Gaussian blobs)."""
    rows, cols = shape
    xs = (np.arange(cols) + 0.5) * extent[0] / cols
    ys = (np.arange(rows) + 0.5) * extent[1] / rows
    grid = np.zeros(shape)
    for _ in range(n_blobs):
        cx = rng.uniform(0.15 * extent[0], 0.85 * extent[0])
        cy = rng.uniform(0.15 * extent[1], 0.85 * extent[1])
        width = rng.uniform(0.08, 0.2) * min(extent)
        grid += np.exp(-((xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2) / (2 * width**2))
    grid /= grid.sum()
    grid = np.maximum(grid, sw.SALIENCY_FLOOR)
    grid /= grid.sum()
    grid = np.maximum(grid, sw.SALIENCY_FLOOR)
    return sw.SaliencyMap(grid=grid, extent=extent)


def make_walk_params(rng):
    """SceneWalk parameters drawn from moderate, well-conditioned ranges."""
    return sw.SceneWalkParams(
        omega_a=rng.uniform(0.5, 4.0),
        omega_f=rng.uniform(0.3, 3.0),
        sigma_a=rng.uniform(1.0, 4.0),
        sigma_f=rng.uniform(0.8, 3.0),
        lam=rng.uniform(0.6, 1.6),
        gamma=rng.uniform(0.6, 1.6),
        c_f=rng.uniform(0.1, 0.8),
        zeta=rng.uniform(0.05, 0.5),
    )


def make_path(rng, extent=(16.0, 16.0), n_fixations=6):
    positions = np.column_stack(
        [rng.uniform(0, extent[0], n_fixations), rng.uniform(0, extent[1], n_fixations)]
    )
    durations = rng.uniform(120.0, 400.0, n_fixations)
    return Scanpath(positions=positions, durations=durations)


def item_tables(data):
    """Each item's saccade table, sliced from ``data.features``: an item of
    T fixations owns the next T - 1 saccades."""
    bounds = np.cumsum([0] + [len(it.scanpath) - 1 for it in data.items])
    return [SaccadeTable(data.features.types[a:b], data.features.values[:, a:b]) for a, b in zip(bounds, bounds[1:])]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
