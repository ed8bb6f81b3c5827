import numpy as np
import pytest

from symode.scalars import Field
from symode.symalg import (WITNESS_TOL, k_span_centralizer, similar_constant_coeff,
                           similar_structured)

from conftest import E2, S1, S2, S3, Z2
from oracles import kl_sequence


def make_pair(rng, cfg, with_gamma=True, nilpotent=False):
    """Construct a similar pair from seeded (alpha, M, Gamma) data."""
    if nilpotent:
        c = rng.standard_normal((2, 2)) + 2 * E2
        v0 = c @ S1 @ np.linalg.inv(c)
        ups = rng.standard_normal() * (c @ S2 @ np.linalg.inv(c))
    else:
        ups = rng.standard_normal((2, 2))
        ups -= np.trace(ups) / 2 * E2
        v0 = rng.standard_normal((2, 2))
    alpha = complex(rng.standard_normal()) + 1j * complex(rng.standard_normal())
    if abs(alpha) < 0.2:
        alpha = alpha + 0.5
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if abs(np.linalg.det(m)) < 0.3:
        m = m + 0.7 * E2
    gamma = Z2
    if with_gamma:
        s = k_span_centralizer(ups, v0, len(kl_sequence(ups, v0)), cfg)
        if s.dim:
            gamma = 0.4 * s.mats[0]
    mi = np.linalg.inv(m)
    ups_b = alpha * m @ (ups + gamma) @ mi
    v0_b = alpha ** 2 * m @ v0 @ mi
    return (ups, v0), (ups_b, v0_b), alpha


class TestExamples:
    def test_self_similarity(self, cfg):
        a = (0.2 * S2, S2 + 0.3 * S1)
        verdict = similar_structured(a, a, cfg, Field.COMPLEX)
        assert verdict.is_similar
        assert abs(verdict.alpha - 1.0) < 1e-9
        assert verdict.residual < 1e-10

    def test_time_rescale_alpha_two(self, cfg):
        verdict = similar_constant_coeff((Z2, S2), (Z2, 4.0 * S2), cfg,
                                         Field.COMPLEX)
        assert verdict.is_similar
        assert abs(verdict.alpha - 2.0) < 1e-9 or abs(verdict.alpha + 2.0) < 1e-9

    def test_nilpotent_vs_semisimple(self, cfg):
        verdict = similar_constant_coeff((Z2, S1), (Z2, S2), cfg, Field.COMPLEX)
        assert verdict.outcome == "not_similar"
        assert verdict.obstruction

    def test_structured_spectral_obstruction(self, cfg):
        verdict = similar_structured((Z2, S1), (Z2, S2), cfg, Field.COMPLEX)
        assert verdict.outcome == "not_similar"


class TestRoundTrip:
    def test_recovery_rate(self, cfg):
        rng = np.random.default_rng(821)
        ok = 0
        total = 100
        for trial in range(total):
            a, b, alpha = make_pair(rng, cfg, with_gamma=(trial % 2 == 0),
                                    nilpotent=(trial % 10 == 9))
            verdict = similar_structured(a, b, cfg, Field.COMPLEX, seed=trial)
            scale = 1.0 + np.linalg.norm(b[0]) + np.linalg.norm(b[1])
            if verdict.is_similar and verdict.residual < 1e-8 * scale:
                ok += 1
            else:
                # failures must be inconclusive, never a false obstruction
                assert verdict.outcome == "inconclusive"
        assert ok >= 95

    def test_witness_always_verified(self, cfg):
        rng = np.random.default_rng(99)
        for trial in range(20):
            a, b, _ = make_pair(rng, cfg)
            verdict = similar_structured(a, b, cfg, Field.COMPLEX, seed=trial)
            if verdict.is_similar:
                mi = np.linalg.inv(verdict.m)
                r = (np.linalg.norm(b[0] - verdict.alpha * verdict.m
                                    @ (a[0] + verdict.gamma) @ mi)
                     + np.linalg.norm(b[1] - verdict.alpha ** 2 * verdict.m
                                      @ a[1] @ mi))
                assert r < 1e-7 * (1 + np.linalg.norm(b[0]) + np.linalg.norm(b[1]))


class TestObstructions:
    def test_constructed_mismatches(self, cfg):
        rng = np.random.default_rng(555)
        hits = 0
        for trial in range(50):
            kind = trial % 3
            if kind == 0:
                # nilpotent vs invertible spectrum
                a = (Z2, S1)
                c = rng.standard_normal((2, 2)) + 2 * E2
                b = (Z2, c @ (S2 + 0.1 * trial * S1) @ np.linalg.inv(c))
            elif kind == 1:
                # incompatible invertible spectra: {1,-1} vs {mu, -2 mu}
                mu = 1.0 + 0.1 * trial
                a = (Z2, S2)
                b = (Z2, np.diag([mu, -2.0 * mu]))
            else:
                # different K-list lengths: constant vs genuinely rotating
                a = (Z2, S2)
                b = (S2, S1 + S3)
            verdict = similar_structured(a, b, cfg, Field.COMPLEX, seed=trial)
            assert verdict.outcome == "not_similar", (trial, verdict.outcome)
            hits += 1
        assert hits == 50

    def test_real_field_restricts_alpha(self, cfg):
        # spectra match only with alpha^2 = -1, impossible over the reals
        a = (Z2, S2)
        b = (Z2, -S2)
        verdict_c = similar_structured(a, b, cfg, Field.COMPLEX, seed=0)
        assert verdict_c.is_similar
        verdict_r = similar_structured(a, b, cfg, Field.REAL, seed=0)
        assert verdict_r.outcome != "similar" or abs(np.imag(verdict_r.alpha)) < 1e-12


class TestRealFieldWitness:
    """A real-field witness of real data is real: float alpha, float64 M and
    Gamma, verified within WITNESS_TOL."""

    @staticmethod
    def real_pairs():
        rng = np.random.default_rng(17)
        for n in (2, 3, 2, 3):
            ups = rng.standard_normal((n, n))
            ups -= np.trace(ups) / n * np.eye(n)
            p = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            lam = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 2.0, size=n)
            v0 = p @ np.diag(lam) @ np.linalg.inv(p)
            alpha = float(rng.uniform(0.5, 1.5))
            m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            mi = np.linalg.inv(m)
            yield (ups, v0), (alpha * m @ ups @ mi, alpha ** 2 * m @ v0 @ mi)

    def test_structured(self, cfg):
        for a, b in self.real_pairs():
            verdict = similar_structured(a, b, cfg, Field.REAL)
            assert verdict.is_similar
            assert type(verdict.alpha) is float
            assert verdict.m.dtype == verdict.gamma.dtype == np.float64
            mi = np.linalg.inv(verdict.m)
            resid = (np.linalg.norm(b[0] - verdict.alpha * verdict.m @ (a[0] + verdict.gamma) @ mi)
                     + np.linalg.norm(b[1] - verdict.alpha ** 2 * verdict.m @ a[1] @ mi))
            assert resid <= WITNESS_TOL * (1.0 + np.linalg.norm(b[0]) + np.linalg.norm(b[1]))

    def test_constant_coeff(self, cfg):
        # x_tt = A x_t + B x from each pair: Y = -A/2, V(0) = B + Y^2
        for (ups_a, v0_a), (ups_b, v0_b) in self.real_pairs():
            a = (-2.0 * ups_a, v0_a - ups_a @ ups_a)
            b = (-2.0 * ups_b, v0_b - ups_b @ ups_b)
            verdict = similar_constant_coeff(a, b, cfg, Field.REAL)
            assert verdict.is_similar
            assert type(verdict.alpha) is float
            assert verdict.m.dtype == verdict.gamma.dtype == np.float64
            assert verdict.residual <= 1e-7 * (1.0 + np.linalg.norm(b[0]) + np.linalg.norm(b[1]))


class TestAlphaMatching:
    @pytest.mark.parametrize("seed", [29, 41])
    def test_spectra_across_a_rounding_boundary(self, seed):
        # Re of the conjugate-like pair sits at the ninth decimal's rounding
        # boundary, so a sort of either side's eigenvalues by parts rounded to
        # 9 digits can order the two differently
        rng = np.random.default_rng(seed)
        d = 0.5000000005 + rng.uniform(-3e-16, 3e-16, 2)
        ev = [d[0] + 1j, d[1] - 1j, -2.0 + 0.3j]
        c = rng.standard_normal((3, 3)) + 2.0 * np.eye(3) + 1j * rng.standard_normal((3, 3))
        v0_a = c @ np.diag(ev) @ np.linalg.inv(c)
        m = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        v0_b = m @ v0_a @ np.linalg.inv(m)
        z = np.zeros((3, 3))
        verdict = similar_structured((z, v0_a), (z, v0_b), fld=Field.COMPLEX)
        assert verdict.outcome == "similar", verdict.obstruction
        assert abs(abs(verdict.alpha) - 1.0) < 1e-9


class TestConstantCoefficientConversion:
    def test_witness_converted_back(self, cfg):
        rng = np.random.default_rng(31)
        a_mat = rng.standard_normal((2, 2))
        b_mat = rng.standard_normal((2, 2))
        alpha = 1.3
        m = rng.standard_normal((2, 2)) + 2 * E2
        mi = np.linalg.inv(m)
        a2 = alpha * m @ a_mat @ mi
        b2 = alpha ** 2 * m @ b_mat @ mi
        verdict = similar_constant_coeff((a_mat, b_mat), (a2, b2), cfg,
                                         Field.COMPLEX, seed=7)
        assert verdict.is_similar
        assert verdict.residual < 1e-7 * (1 + np.linalg.norm(a2) + np.linalg.norm(b2))

    def test_identity_pair(self, cfg):
        a = (0.3 * S1, S2)
        verdict = similar_constant_coeff(a, a, cfg, Field.COMPLEX)
        assert verdict.is_similar


class TestHigherDimension:
    def test_n3_roundtrip(self, cfg):
        rng = np.random.default_rng(64)
        for trial in range(10):
            ups = rng.standard_normal((3, 3))
            ups -= np.trace(ups) / 3 * np.eye(3)
            v0 = rng.standard_normal((3, 3))
            alpha = 0.7 + 0.3j
            m = rng.standard_normal((3, 3)) + 2 * np.eye(3)
            mi = np.linalg.inv(m)
            verdict = similar_structured(
                (ups, v0), (alpha * m @ ups @ mi, alpha ** 2 * m @ v0 @ mi),
                cfg, Field.COMPLEX, seed=trial)
            assert verdict.is_similar
            assert verdict.residual < 1e-7 * (1 + np.linalg.norm(v0))
