"""Synthetic multi-viewer cohorts drawn from the generative models.

Each user gets a perturbed copy of a base parameter set (multiplicative
log-normal jitter keeps positivity without rejection sampling) and views a
shared set of images. The resulting datasets feed the identification
pipeline end to end, so the whole toolchain is verifiable without any
recorded human data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import markov, scenewalk
from .core import BASE_CHANNELS, DYNAMICS_CHANNELS, SaccadeTable
from .dataset import DatasetItem, GazeDataset
from .distributions import GammaParams

MODEL_FAMILIES = ("markov", "markov-dyn", "scenewalk")


@dataclass(frozen=True)
class SyntheticCohortSpec:
    """Cohort layout and the per-user parameter jitter scale."""

    n_users: int
    n_images: int
    fixations_per_path: int
    family: str = "markov"
    jitter: float = 0.3
    seed: int = 0
    grid_shape: tuple[int, int] = (64, 64)
    extent: tuple[float, float] = (32.0, 32.0)

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"family must be one of {MODEL_FAMILIES}")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.n_users < 1 or self.n_images < 1:
            raise ValueError("need at least one user and one image")
        if self.fixations_per_path < 2:
            raise ValueError("scanpaths need at least 2 fixations")
        for key, ok, kind in (
            ("grid_shape", lambda n: isinstance(n, int) and not isinstance(n, bool) and n > 0, "positive ints"),
            ("extent", lambda x: isinstance(x, (int, float)) and not isinstance(x, bool) and 0 < x < math.inf,
             "finite positive numbers"),
        ):
            value = getattr(self, key)
            if not (isinstance(value, (tuple, list)) and len(value) == 2 and all(map(ok, value))):
                raise ValueError(f"{key} must be two {kind}, got {value!r}")
            object.__setattr__(self, key, tuple(value))

    def to_json_dict(self) -> dict:
        """The fields in declaration order, tuples as lists."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in values.items()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SyntheticCohortSpec":
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown cohort spec keys: {sorted(unknown)}")
        return cls(**doc)


def jitter_markov_params(
    base: markov.MarkovModelParams, jitter: float, rng: np.random.Generator
) -> markov.MarkovModelParams:
    """Multiply every positive parameter by exp(jitter * standard normal).

    The type-probability vector is jittered the same way and renormalized.
    """
    pi = base.pi * np.exp(jitter * rng.standard_normal(base.pi.size))
    # one draw per cell, shape then scale, in channel then type order
    factors = np.exp(jitter * rng.standard_normal(base.shapes.shape + (2,)))
    return markov.MarkovModelParams.from_arrays(
        pi / pi.sum(), base.channel_names, base.shapes * factors[..., 0], base.scales * factors[..., 1]
    )


def jitter_scenewalk_params(
    base: scenewalk.SceneWalkParams, jitter: float, rng: np.random.Generator
) -> scenewalk.SceneWalkParams:
    vec = base.to_vector() * np.exp(jitter * rng.standard_normal(len(scenewalk.PARAM_NAMES)))
    vec[0] = min(max(vec[0], 1e-3), 0.999)  # zeta stays a mixture weight
    return scenewalk.SceneWalkParams.from_vector(vec)


def random_saliency(
    shape: tuple[int, int], extent: tuple[float, float], rng: np.random.Generator
) -> scenewalk.SaliencyMap:
    """Smooth random saliency: a mixture of 3 to 6 Gaussian blobs on the grid."""
    rows, cols = shape
    xs = (np.arange(cols) + 0.5) * extent[0] / cols
    ys = (np.arange(rows) + 0.5) * extent[1] / rows
    grid = np.zeros(shape)
    for _ in range(rng.integers(3, 7)):
        cx = rng.uniform(0.15 * extent[0], 0.85 * extent[0])
        cy = rng.uniform(0.15 * extent[1], 0.85 * extent[1])
        width = rng.uniform(0.05, 0.15) * min(extent)
        weight = rng.uniform(0.5, 1.5)
        grid += weight * np.exp(
            -((xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2) / (2.0 * width**2)
        )
    grid /= grid.sum()
    grid = np.maximum(grid, scenewalk.SALIENCY_FLOOR)
    grid /= grid.sum()
    grid = np.maximum(grid, scenewalk.SALIENCY_FLOOR)
    return scenewalk.SaliencyMap(grid=grid, extent=extent)


@dataclass(frozen=True)
class SyntheticCohort:
    """Generated dataset plus the ground-truth per-user parameters."""

    data: GazeDataset
    user_params: dict[str, object] = field(compare=False)


def generate_cohort(spec: SyntheticCohortSpec) -> SyntheticCohort:
    """Sample a labeled cohort; deterministic for a given spec seed. Users
    jitter the family's default parameters.

    Users are generated from independently spawned seed streams, so the
    per-user data does not depend on generation order.
    """
    root = np.random.SeedSequence(spec.seed)
    param_seeds, path_seeds, image_seed = root.spawn(3)
    user_param_seqs = param_seeds.spawn(spec.n_users)
    user_path_seqs = path_seeds.spawn(spec.n_users)

    subjects = [f"user{u:03d}" for u in range(spec.n_users)]
    images = [f"img{m:03d}" for m in range(spec.n_images)]

    saliency = None
    if spec.family == "scenewalk":
        image_rng = np.random.default_rng(image_seed)
        saliency = {
            image: random_saliency(spec.grid_shape, spec.extent, image_rng)
            for image in images
        }

    if spec.family == "markov":
        base_params = markov.default_params(BASE_CHANNELS)
    elif spec.family == "markov-dyn":
        base_params = markov.default_params(DYNAMICS_CHANNELS)
    else:
        base_params = scenewalk.default_params()

    items, tables = [], []
    user_params: dict[str, object] = {}
    for u, subject in enumerate(subjects):
        param_rng = np.random.default_rng(user_param_seqs[u])
        path_rng = np.random.default_rng(user_path_seqs[u])
        if spec.family in ("markov", "markov-dyn"):
            params = jitter_markov_params(base_params, spec.jitter, param_rng)
            user_params[subject] = params
            for image in images:
                path, feats = markov.sample_scanpath(
                    params,
                    spec.fixations_per_path,
                    start=(spec.extent[0] / 2.0, spec.extent[1] / 2.0),
                    seed_or_rng=path_rng,
                    subject_id=subject,
                    image_id=image,
                )
                items.append(DatasetItem(subject, image, path))
                tables.append(feats)
        else:
            params = jitter_scenewalk_params(base_params, spec.jitter, param_rng)
            user_params[subject] = params
            durations = GammaParams(shape=7.0, scale=34.0)
            for image in images:
                sal = saliency[image]
                start_idx = scenewalk._draw(path_rng, (sal.grid / sal.grid.sum()).ravel())
                i, j = divmod(start_idx, sal.shape[1])
                path = scenewalk.sample_scanpath(
                    sal,
                    params,
                    spec.fixations_per_path,
                    start=sal.cell_center(i, j),
                    durations=durations,
                    seed_or_rng=path_rng,
                    subject_id=subject,
                    image_id=image,
                )
                items.append(DatasetItem(subject_id=subject, image_id=image, scanpath=path))

    features = SaccadeTable.concat(tables) if spec.family == "markov-dyn" else None  # only dynamics channels read it
    data = GazeDataset(items=tuple(items), saliency=saliency, meta={"cohort_spec": spec.to_json_dict()}, features=features)
    return SyntheticCohort(data=data, user_params=user_params)
