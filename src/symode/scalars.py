"""Base field tags and tolerance configuration shared by all modules."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class Field(str, Enum):
    """Base field of the systems under study: real or complex."""

    REAL = "real"
    COMPLEX = "complex"

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self is Field.REAL else np.complex128)


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds used throughout the kernel.

    rank_tol is a relative singular-value cutoff for rank/nullspace decisions,
    eig_cluster_tol the staircase's cut relative to ||m||_2, which decides Weyr
    characteristics and eigenvalue clusters (``linalg.eig_clustered``),
    residual_tol the target for ODE/algebraic residuals.  Invariant:
    0 < rank_tol < eig_cluster_tol < 1.
    """

    rank_tol: float = 1e-9
    eig_cluster_tol: float = 1e-7
    residual_tol: float = 1e-6

    def __post_init__(self) -> None:
        if not (0.0 < self.rank_tol < self.eig_cluster_tol < 1.0):
            raise ValueError("require 0 < rank_tol < eig_cluster_tol < 1")
        if not 0.0 < self.residual_tol < np.inf:
            raise ValueError("residual_tol must be positive and finite")


DEFAULT_TOL = ToleranceConfig()
