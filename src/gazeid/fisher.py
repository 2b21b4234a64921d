"""Fisher scores, empirical Fisher information, whitened feature maps.

A fitted generative model turns each scanpath into the gradient of its
log-likelihood at the pooled maximum-likelihood estimate. The empirical
second moment of those gradients, ridge-regularized, whitens them into the
feature space whose inner product is the kernel used by the classifier.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

import numpy as np
from scipy.linalg import solve_triangular

DEFAULT_RIDGE = 1e-3


@dataclass(frozen=True)
class FisherScore:
    """Log-likelihood gradient of one item under the pooled model."""

    g: np.ndarray
    model_tag: str

    def __post_init__(self):
        g = np.asarray(self.g, dtype=float)
        object.__setattr__(self, "g", g)
        if g.ndim != 1:
            raise ValueError("score must be a vector")
        if not np.all(np.isfinite(g)):
            raise ValueError("score entries must be finite")


@dataclass(frozen=True)
class FisherInformation:
    """Empirical information (1/N) sum g g^T with a scaled ridge.

    Construction checks that the matrix is square, finite and symmetric,
    eps_reg positive and finite and n_scores a positive int, and computes
    ``factor``, the lower Cholesky factor of matrix + ridge * Id where
    ridge = eps_reg * trace / dim; whitening solves factor @ phi = g.
    """

    matrix: np.ndarray
    eps_reg: float
    n_scores: int
    factor: np.ndarray = field(init=False)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        if not (isinstance(self.n_scores, int) and not isinstance(self.n_scores, bool) and self.n_scores >= 1):
            raise ValueError(f"n_scores must be an int of at least 1, got {self.n_scores!r}")
        if not 0 < self.eps_reg < math.inf:
            raise ValueError(f"eps_reg must be positive and finite, got {self.eps_reg}")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"information matrix must be square, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            i, j = np.argwhere(~np.isfinite(matrix))[0].tolist()
            raise ValueError(f"information matrix entries must be finite, got {matrix[i, j]} at [{i}, {j}]")
        if (matrix != matrix.T).any():
            i, j = np.argwhere(matrix != matrix.T)[0].tolist()
            raise ValueError(
                f"information matrix must be symmetric, got {matrix[i, j]} at [{i}, {j}] and {matrix[j, i]} at [{j}, {i}]"
            )
        if not self.ridge > 0:
            raise ValueError("information trace is zero; all scores vanish")
        object.__setattr__(
            self, "factor", np.linalg.cholesky(matrix + self.ridge * np.eye(self.dim))
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def ridge(self) -> float:
        return self.eps_reg * float(np.trace(self.matrix)) / self.dim


def estimate_information(
    scores: Sequence[FisherScore] | np.ndarray, eps_reg: float = DEFAULT_RIDGE
) -> FisherInformation:
    """Average outer product of the scores, regularized and factorized.

    ``scores`` is a list of FisherScores or an (items, dim) matrix G; the
    matrix is G^T G / N, one product whose summation order BLAS fixes, so
    it differs from a per-item sum of outer products in the last bits.
    """
    if isinstance(scores, np.ndarray):
        G = scores
        if G.ndim != 2 or not np.all(np.isfinite(G)):
            raise ValueError("scores must be a finite (items, dim) matrix")
    else:
        dims = {s.g.size for s in scores}
        if len(dims) > 1:
            raise ValueError(f"score dimensions differ: {sorted(dims)}")
        G = np.array([s.g for s in scores])
    if len(G) == 0:
        raise ValueError("need at least one score")
    return FisherInformation(matrix=G.T @ G / len(G), eps_reg=eps_reg, n_scores=len(G))


def compute_scores(
    items: Iterable[Any], grad_fn: Callable[[Any], np.ndarray], model_tag: str
) -> list[FisherScore]:
    """One FisherScore per item via the model's log-likelihood gradient."""
    return [FisherScore(g=np.asarray(grad_fn(item), dtype=float), model_tag=model_tag) for item in items]


def feature_map(score: FisherScore | np.ndarray, info: FisherInformation, normalize: bool = False) -> np.ndarray:
    """Whitened feature vector phi = factor^{-1} g by forward substitution;
    an (items, dim) matrix of scores gives the (items, dim) matrix of their
    features in one triangular solve.

    With ``normalize`` each vector is scaled to unit L2 norm (gradient
    magnitudes grow with scanpath length, which otherwise leaks length
    into the classifier).
    """
    g = score.g if isinstance(score, FisherScore) else np.asarray(score, dtype=float)
    if g.ndim not in (1, 2) or g.shape[-1] != info.dim:
        raise ValueError(f"score shape {g.shape} does not match information dim {info.dim}")
    phi = solve_triangular(info.factor, g.T, lower=True).T
    if normalize:
        norm = np.linalg.norm(phi, axis=-1, keepdims=True)
        phi = phi / np.where(norm > 0, norm, 1.0)
    return phi


def kernel(
    score_i: FisherScore | np.ndarray,
    score_j: FisherScore | np.ndarray,
    info: FisherInformation,
    normalize: bool = False,
) -> float:
    """Inner product in the whitened space: g_i^T (I + ridge)^{-1} g_j."""
    return float(feature_map(score_i, info, normalize) @ feature_map(score_j, info, normalize))


def export_features_csv(
    ids: Sequence[tuple[str, str]], phi: np.ndarray, csv_path: str | Path
) -> None:
    """One row per item: subject_id, image_id, phi_1..phi_dim, from the
    (subject_id, image_id) of each row of the feature matrix ``phi``.

    Written with the ``csv`` module rather than ``core``'s numeric CSV
    helpers: dataset ids may contain commas, which it quotes."""
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "image_id"] + [f"phi_{k + 1}" for k in range(phi.shape[1])])
        writer.writerows([*key, *map(repr, row)] for key, row in zip(ids, phi.tolist(), strict=True))


def load_features_csv(csv_path: str | Path) -> tuple[list[str], list[str], np.ndarray]:
    """Read an exported feature matrix: (subject_ids, image_ids, matrix).
    The header must be exactly ``subject_id,image_id,phi_1..phi_dim``."""
    subjects, images, rows = [], [], []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        width = max(len(header) - 2, 0)
        expected = ["subject_id", "image_id"] + [f"phi_{k + 1}" for k in range(width)]
        if header != expected:
            raise ValueError(f"{csv_path}: expected header {','.join(expected)}, got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ValueError(
                    f"{csv_path}: row {lineno} has {len(row)} columns, expected {len(header)}"
                )
            subjects.append(row[0])
            images.append(row[1])
            try:
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise ValueError(f"{csv_path}: row {lineno}: {exc}") from exc
    return subjects, images, np.asarray(rows, dtype=float).reshape(len(rows), width)
