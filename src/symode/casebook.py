"""Golden two-variable classification cases and their symmetry data.

One concrete representative per inequivalent essential-extension case of the
two-variable table, with expected (k, dim_ess), the known symmetry fields
used by the integration procedures, and the basis matrices S1, S2, S3 of
sl(2) with [S1,S2] = -2 S1, [S2,S3] = -2 S3, [S1,S3] = -S2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauge import SystemDescriptor
from .matfun import MatrixFunction, ScalarFunction
from .scalars import Field, ToleranceConfig
from .symalg import SymmetryVectorField

S1 = np.array([[0.0, 1.0], [0.0, 0.0]])
S2 = np.array([[1.0, 0.0], [0.0, -1.0]])
S3 = np.array([[0.0, 0.0], [-1.0, 0.0]])
Z2 = np.zeros((2, 2))

DOMAIN = (-1.0, 1.0)

# generic scalar profile for the k=0 cases; no (tau, kappa) with
# tau_ttt = 0 solves tau v_t = (kappa - 2 tau_t) v for it
GENERIC_V_COEFFS = (1.0, 1.0, 0.0, 1.0)  # v(t) = 1 + t + t^3


@dataclass
class GoldenCase:
    label: str
    expected_k: int
    expected_dim_ess: int
    system: SystemDescriptor
    symmetries: list
    real_only: bool = False


def _poly_times(mat, coeffs, domain=DOMAIN):
    return MatrixFunction.polynomial([c * mat for c in coeffs], domain)


def n2_cases(field: Field = Field.COMPLEX, cfg: ToleranceConfig | None = None,
             domain=DOMAIN) -> list:
    """The classification-table representatives for n = 2.

    Complex field: cases 0-7.  Real field: the same list plus 1R, 3R, 5R.
    Parameter choices: case 3 uses (b1, b2, b3) = (0, 0, 1); case 4 uses
    (1, 0, 1); case 5 uses gamma = 1, eps = 0.
    """
    cfg = cfg or ToleranceConfig()

    def lp(v):
        return SystemDescriptor.lprime(v, field=field, cfg=cfg)

    tau1 = ScalarFunction.polynomial([1.0], domain)
    tau_t = ScalarFunction.polynomial([0.0, 1.0], domain)
    cases = [
        GoldenCase("0", 0, 1,
                   lp(MatrixFunction.polynomial([S1, S2, Z2, S3], domain)), []),
        GoldenCase("1", 0, 2, lp(_poly_times(S1, GENERIC_V_COEFFS, domain)), []),
        GoldenCase("2", 0, 2, lp(_poly_times(S2, GENERIC_V_COEFFS, domain)), []),
        GoldenCase("3", 1, 2,
                   lp(MatrixFunction.conj_exp(0.0, S1, S3, domain)),
                   [SymmetryVectorField(tau=tau1, gamma=S1)]),
        GoldenCase("4", 1, 2,
                   lp(MatrixFunction.conj_exp(0.0, S2, S1 + S3, domain)),
                   [SymmetryVectorField(tau=tau1, gamma=S2)]),
        GoldenCase("5", 1, 3,
                   lp(MatrixFunction.conj_exp(0.0, S2, S1, domain)),
                   [SymmetryVectorField(tau=tau1, gamma=S2)]),
        GoldenCase("6", 1, 3,
                   lp(MatrixFunction.conj_exp(0.0, Z2, S2, domain)),
                   [SymmetryVectorField(tau=tau1, gamma=Z2)]),
        GoldenCase("7", 2, 4,
                   lp(MatrixFunction.constant(S1, domain)),
                   [SymmetryVectorField(tau=tau1, gamma=Z2),
                    SymmetryVectorField(tau=tau_t, gamma=np.diag([1.5, -0.5]))]),
    ]
    if field is Field.REAL:
        cases += [
            GoldenCase("1R", 0, 2, lp(_poly_times(S1 + S3, GENERIC_V_COEFFS, domain)),
                       [], real_only=True),
            GoldenCase("3R", 1, 2,
                       lp(MatrixFunction.conj_exp(0.0, S1 + S3, S1 - S3, domain)),
                       [SymmetryVectorField(tau=tau1, gamma=S1 + S3)],
                       real_only=True),
            GoldenCase("5R", 1, 3,
                       lp(MatrixFunction.conj_exp(0.0, Z2, S1 + S3, domain)),
                       [SymmetryVectorField(tau=tau1, gamma=Z2)],
                       real_only=True),
        ]
    return cases
