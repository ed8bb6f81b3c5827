import json
from pathlib import Path

import numpy as np
import pytest

import symode
from symode import gauge
from symode.casebook import n2_cases
from symode.cli import EXIT_OK, main
from symode.gauge import (BARL, HOMOGENEOUS, LDOUBLEPRIME, LPRIME,
                          EquivalenceTransform, GaugeError, SystemDescriptor,
                          apply_equivalence, gauge_A_zero, gauge_f_zero,
                          gauge_traceless, reduce, singular_class_test,
                          verify_equivalence)
from symode.matfun import MatrixFunction, RepresentationError, ScalarFunction, VectorFunction
from symode.numutil import companion, uniform_grid
from symode.scalars import Field, ToleranceConfig
from symode.symalg import classify
from conftest import DOM, E2, S1, S2, S3, Z2
from oracles import (criterion_without_the_a_zero_case, trajectories_by_sweep,
                     verify_residual_by_sweep)

# tr V / n = (0.5 + 0.5j) + (0.05 + 0.1j) t: complex, so no real time map
COMPLEX_TRACE_V = [np.array([[1j, 0.3], [0.2, 0.5]]), np.array([[0.1, 0.0], [0.4, 0.2j]])]


def lprime(v, **kw):
    return SystemDescriptor.lprime(v, **kw)


def homog(a, b, **kw):
    return SystemDescriptor.homogeneous(a, b, **kw)


def barl(a, b, f, **kw):
    return SystemDescriptor.bar_l(a, b, f, **kw)


class TestApplyEquivalence:
    def test_constant_conjugation(self, rng):
        c = rng.standard_normal((2, 2)) + 2 * E2
        v = MatrixFunction.constant(S1 + 0.3 * S2, DOM)
        tr = EquivalenceTransform(T=ScalarFunction.polynomial([0.0, 1.0], DOM),
                                  H=MatrixFunction.constant(c, DOM))
        out = apply_equivalence(lprime(v), tr)
        np.testing.assert_allclose(out.V.evaluate(0.2),
                                   c @ v.evaluate(0.2) @ np.linalg.inv(c),
                                   atol=1e-10)

    def test_moebius_fixes_free_particle(self):
        grid = np.linspace(-1, 1, 4097)
        tvals = (2 * grid) / (grid + 4)
        t_fun = ScalarFunction.sampled(grid, tvals)
        t1 = t_fun.derivative(1).evaluate(grid)
        tr = EquivalenceTransform(
            T=t_fun, H=MatrixFunction.sampled(grid, np.sqrt(t1)[:, None, None] * E2))
        out = apply_equivalence(lprime(MatrixFunction.zero(2, DOM)), tr)
        assert out.V.max_norm() < 5e-6

    def test_sampled_affine_time_map_adds_no_schwarzian(self):
        # a sampled T takes the pointwise path; an affine one has {T, t} = 0,
        # up to the finite-difference noise of its third derivative
        grid = np.linspace(-1, 1, 2049)
        tr = EquivalenceTransform(
            T=ScalarFunction.sampled(grid, 0.3 + 2.0 * grid),
            H=MatrixFunction.sampled(grid, np.broadcast_to(np.sqrt(2.0) * E2, (2049, 2, 2))))
        out = apply_equivalence(lprime(MatrixFunction.constant(S1, DOM)), tr)
        vals = out.V.evaluate(np.linspace(out.domain[0], out.domain[1], 33))
        assert np.max(np.abs(vals - S1 / 4.0)) < 1e-7

    def test_moebius_time_map_adds_no_schwarzian(self):
        # T = 2t / (t + 4) has {T, t} = 0, so with H = sqrt(T_t) the constant
        # V = S1 goes to V~(T) = S1 / T_t^2 = 64 S1 / (2 - T)^4 and nothing more
        grid = np.linspace(-1, 1, 2049)
        t_fun = ScalarFunction.sampled(grid, (2 * grid) / (grid + 4))
        t1 = t_fun.derivative(1).evaluate(grid)
        tr = EquivalenceTransform(
            T=t_fun, H=MatrixFunction.sampled(grid, np.sqrt(t1)[:, None, None] * E2))
        out = apply_equivalence(lprime(MatrixFunction.constant(S1, DOM)), tr)
        tt = np.linspace(out.domain[0], out.domain[1], 33)
        np.testing.assert_allclose(out.V.evaluate(tt),
                                   (64.0 / (2.0 - tt) ** 4)[:, None, None] * S1, atol=1e-6)

    def test_exponential_time_map_schwarzian(self):
        # T = e^t has {T, t} = -1/2, so the free particle goes to
        # V~(T) = (1/2) {T, t} / T_t^2 = -1 / (4 T^2)
        grid = np.linspace(-1, 1, 4097)
        tr = EquivalenceTransform(
            T=ScalarFunction.sampled(grid, np.exp(grid)),
            H=MatrixFunction.sampled(grid, np.exp(0.5 * grid)[:, None, None] * E2))
        out = apply_equivalence(lprime(MatrixFunction.zero(2, DOM)), tr)
        tt = np.exp(np.linspace(-0.9, 0.9, 33))
        np.testing.assert_allclose(out.V.evaluate(tt),
                                   (-0.25 / tt ** 2)[:, None, None] * E2, atol=1e-6)

    def test_barl_scaling_example(self):
        sys_in = barl(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM),
                      VectorFunction.zero(2, DOM))
        tr = EquivalenceTransform(T=ScalarFunction.polynomial([0.0, 2.0], DOM),
                                  H=MatrixFunction.constant(np.sqrt(2.0) * E2, DOM))
        out = apply_equivalence(sys_in, tr)
        assert out.A.max_norm() < 1e-12
        np.testing.assert_allclose(out.B.evaluate(0.0), S1 / 4.0, atol=1e-12)
        assert verify_equivalence(sys_in, out, tr) < 1e-8

    def test_group_law_closed_subgroup(self, rng):
        # composition of affine-T/constant-H transforms agrees with the
        # successive application
        sys_in = barl(MatrixFunction.constant(0.2 * S2, DOM),
                      MatrixFunction.constant(S1 + 0.1 * S3, DOM),
                      VectorFunction.constant(np.array([0.3, -0.1]), DOM))
        a1, b1 = 2.0, 0.1
        a2, b2 = 0.5, -0.2
        h1 = rng.standard_normal((2, 2)) + 2 * E2
        h2 = rng.standard_normal((2, 2)) + 2 * E2
        tr1 = EquivalenceTransform(T=ScalarFunction.polynomial([b1, a1], DOM),
                                   H=MatrixFunction.constant(h1, DOM))
        dom1 = (a1 * DOM[0] + b1, a1 * DOM[1] + b1)
        tr2 = EquivalenceTransform(T=ScalarFunction.polynomial([b2, a2], dom1),
                                   H=MatrixFunction.constant(h2, dom1))
        step = apply_equivalence(apply_equivalence(sys_in, tr1), tr2)
        comp = EquivalenceTransform(
            T=ScalarFunction.polynomial([a2 * b1 + b2, a2 * a1], DOM),
            H=MatrixFunction.constant(h2 @ h1, DOM))
        direct = apply_equivalence(sys_in, comp)
        ts = np.linspace(step.domain[0], step.domain[1], 17)
        np.testing.assert_allclose(step.B.evaluate(ts), direct.B.evaluate(ts),
                                   atol=1e-9)
        np.testing.assert_allclose(step.A.evaluate(ts), direct.A.evaluate(ts),
                                   atol=1e-9)

    def test_conj_exp_b_with_constant_shift(self):
        # a closed transform keeps B in conj_exp form; f~ = base - B~ h then
        # has to fall back to samples
        sys_in = barl(MatrixFunction.constant(0.2 * S2, DOM),
                      MatrixFunction.conj_exp(0.3, 0.5 * S2, S1 + 0.2 * S3, DOM),
                      VectorFunction.constant(np.array([0.3, -0.1]), DOM))
        tr = EquivalenceTransform(T=ScalarFunction.polynomial([0.1, 2.0], DOM),
                                  H=MatrixFunction.constant(np.sqrt(2.0) * E2 + 0.3 * S1, DOM),
                                  h=VectorFunction.constant(np.array([0.5, 0.2]), DOM))
        out = apply_equivalence(sys_in, tr)
        assert out.B.kind == "conj_exp"
        assert verify_equivalence(sys_in, out, tr) < 1e-7

    def test_degree_zero_polynomial_h_takes_the_closed_path(self):
        # H = polynomial([C, 0]) is the constant C: A stays a degree-0
        # polynomial and B stays conj_exp, with no push onto a grid
        sys_in = homog(MatrixFunction.polynomial([0.2 * S2, Z2], DOM),
                       MatrixFunction.conj_exp(0.3, 0.5 * S2, S1 + 0.2 * S3, DOM))
        tr = EquivalenceTransform(
            T=ScalarFunction.polynomial([0.1, 2.0], DOM),
            H=MatrixFunction.polynomial([np.sqrt(2.0) * E2 + 0.3 * S1, Z2], DOM))
        out = apply_equivalence(sys_in, tr)
        assert (out.A.kind, out.A.degree(), out.B.kind) == ("polynomial", 0, "conj_exp")
        assert verify_equivalence(sys_in, out, tr) < 1e-7

    def test_vclass_rejects_vector_shift(self):
        tr = EquivalenceTransform(
            T=ScalarFunction.polynomial([0.0, 1.0], DOM),
            H=MatrixFunction.constant(E2, DOM),
            h=VectorFunction.constant(np.array([1.0, 0.0]), DOM))
        with pytest.raises(GaugeError):
            apply_equivalence(lprime(MatrixFunction.constant(S1, DOM)), tr)


class TestTimeMapIsRealAndIncreasing:
    """T is refused when it is complex (at build) and when its image on a
    non-affine push grid does not strictly increase."""

    GRID = np.linspace(-1.0, 1.0, 8193)
    B = MatrixFunction.constant(np.array([[0.3, 0.1], [0.2, -0.3]]), DOM)

    @classmethod
    def source(cls, path):
        return lprime(cls.B) if path == "V" else homog(MatrixFunction.zero(2, DOM), cls.B)

    @classmethod
    def oscillating(cls):
        # T_t = 1 + 2 cos(126 pi t) reads 3 at all 64 probes of ``validate``
        # and -1 between them
        return ScalarFunction.sampled(
            cls.GRID, cls.GRID + np.sin(126 * np.pi * cls.GRID) / (63 * np.pi))

    def test_complex_polynomial_t_refused(self):
        with pytest.raises(GaugeError, match="time map T must be real"):
            EquivalenceTransform(T=ScalarFunction.polynomial([0.0, 1.0 + 0.5j], DOM),
                                 H=MatrixFunction.constant(E2, DOM))

    def test_complex_sampled_t_refused(self):
        with pytest.raises(GaugeError, match="time map T must be real"):
            EquivalenceTransform(T=ScalarFunction.sampled(self.GRID, (1.0 + 0.5j) * self.GRID),
                                 H=MatrixFunction.constant(E2, DOM))

    @pytest.mark.parametrize("path", ["L", "V"])
    def test_complex_t_refused_by_apply_equivalence(self, path):
        with pytest.raises(GaugeError, match="time map T must be real"):
            apply_equivalence(self.source(path), EquivalenceTransform(
                T=ScalarFunction.polynomial([0.0, 1.0, 0.1j], DOM),
                H=MatrixFunction.constant(E2, DOM)))

    @pytest.mark.parametrize("path", ["L", "V"])
    def test_decreasing_image_refused(self, path):
        t_fun = self.oscillating()
        probes = np.linspace(*DOM, gauge.PROBES)
        # H = T_t^(1/2) E at the probes, where the V-class check reads it
        t1 = t_fun.derivative(1).evaluate(probes)
        h = (MatrixFunction.sampled(probes, np.sqrt(t1)[:, None, None] * E2) if path == "V"
             else MatrixFunction.constant(E2, DOM))
        with pytest.raises(GaugeError, match="time map T does not strictly increase"):
            apply_equivalence(self.source(path), EquivalenceTransform(T=t_fun, H=h))

    def test_decreasing_image_refused_by_verify_equivalence(self):
        # the image grid would be differentiated as if it were increasing
        sys_in = self.source("L")
        with pytest.raises(GaugeError, match="time map T does not strictly increase"):
            verify_equivalence(sys_in, sys_in, EquivalenceTransform(
                T=self.oscillating(), H=MatrixFunction.constant(E2, DOM)))


class TestGaugeFZero:
    def test_already_homogeneous_identity(self):
        sys_in = barl(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM),
                      VectorFunction.zero(2, DOM))
        ts = gauge_f_zero(sys_in)
        assert ts.transform.is_identity()
        assert ts.system.cls == HOMOGENEOUS

    def test_constant_force_double_quadrature(self):
        c = np.array([1.0, 2.0])
        sys_in = barl(MatrixFunction.zero(2, DOM), MatrixFunction.zero(2, DOM),
                      VectorFunction.constant(c, DOM))
        ts = gauge_f_zero(sys_in)
        # particular solution c (t - t0)^2 / 2 with zero data at the midpoint
        # t0; the transform carries its negative as the shift
        t0 = 0.5 * (DOM[0] + DOM[1])
        assert np.all(ts.transform.h.evaluate(t0) == 0.0)
        for tq in (-0.75, 0.5, 1.0):
            np.testing.assert_allclose(ts.transform.h.evaluate(tq), -c * (tq - t0) ** 2 / 2.0,
                                       atol=1e-8)
        assert verify_equivalence(sys_in, ts.system, ts.transform) < 1e-6

    def test_triangular_quadrature_example(self):
        f = VectorFunction.constant(np.array([0.0, 1.0]), DOM)
        sys_in = barl(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM), f)
        ts = gauge_f_zero(sys_in)
        # x2 = (t - t0)^2 / 2 and x1 = (t - t0)^4 / 24, zero data at t0
        t0 = 0.5 * (DOM[0] + DOM[1])
        assert np.all(ts.transform.h.evaluate(t0) == 0.0)
        t = np.linspace(-1, 1, 9)
        part = -np.stack([ts.transform.h.evaluate(tv) for tv in t])
        np.testing.assert_allclose(part[:, 1], (t - t0) ** 2 / 2.0, atol=1e-8)
        np.testing.assert_allclose(part[:, 0], (t - t0) ** 4 / 24.0, atol=1e-7)
        assert verify_equivalence(sys_in, ts.system, ts.transform) < 1e-6


class TestGaugeAZero:
    def test_zero_a_identity(self):
        sys_in = homog(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM))
        ts = gauge_A_zero(sys_in)
        assert ts.transform.is_identity()
        np.testing.assert_allclose(ts.system.V.evaluate(0.1), S1)

    def test_constant_a_conjugated_exponential(self):
        ups = 0.5 * S2 + 0.2 * S1
        b = S1 + 0.3 * S3
        sys_in = homog(MatrixFunction.constant(-2 * ups, DOM),
                       MatrixFunction.constant(b, DOM))
        ts = gauge_A_zero(sys_in)
        v = ts.system.V
        assert v.kind == "conj_exp"
        np.testing.assert_allclose(v.upsilon, ups, atol=1e-12)
        # V(t) = e^{tY}(B + Y^2)e^{-tY} up to the t0 shift in W
        w_expect = b + ups @ ups
        np.testing.assert_allclose(v.evaluate(0.0), w_expect, atol=1e-9)
        assert verify_equivalence(sys_in, ts.system, ts.transform) < 1e-6

    @pytest.mark.parametrize("rows", [1, 2])
    def test_degree_zero_polynomial_a_takes_the_closed_form(self, rows):
        # the route follows the degree: polynomial([A]) and polynomial([A, 0])
        # are the constant A above
        ups = 0.5 * S2 + 0.2 * S1
        pad = [Z2] * (rows - 1)
        sys_in = homog(MatrixFunction.polynomial([-2 * ups] + pad, DOM),
                       MatrixFunction.polynomial([S1 + 0.3 * S3] + pad, DOM))
        ts = gauge_A_zero(sys_in)
        assert ts.system.V.kind == "conj_exp"
        assert ts.transform.H.note == "closed-form exp(-(t-t0) A/2)"
        np.testing.assert_allclose(ts.system.V.upsilon, ups, atol=1e-12)

    @pytest.mark.parametrize("constant", [True, False])
    def test_h_is_the_half_a_fundamental(self, constant):
        # gauge_A_zero and integrate_singular share one solve of H_t = -H A/2
        a = np.array([[0.2, 0.1], [-0.3, 0.1]])
        a_fun = (MatrixFunction.constant(a, DOM) if constant
                 else MatrixFunction.polynomial([a, 0.5 * a.T], DOM))
        ts = gauge_A_zero(homog(a_fun, MatrixFunction.constant(S1, DOM)))
        grid = uniform_grid(*DOM, 1024)
        hs, ef, note, a_grid = gauge.half_a_fundamental(a_fun, grid)
        assert (ef is not None) is constant
        assert ts.transform.H.note == note
        np.testing.assert_array_equal(ts.transform.H.evaluate(grid), hs)
        # the RK4 route hands on A at the grid nodes, bit for bit
        if constant:
            assert a_grid is None
        else:
            np.testing.assert_array_equal(a_grid, a_fun.evaluate(grid))

    def test_textbook_shape(self):
        sys_in = homog(MatrixFunction.constant(-2 * S2, DOM),
                       MatrixFunction.constant(S1, DOM))
        v = gauge_A_zero(sys_in).system.V
        for t in (-0.5, 0.0, 0.8):
            np.testing.assert_allclose(v.evaluate(t), E2 + np.exp(2 * t) * S1,
                                       atol=1e-9)

    def test_time_dependent_a(self):
        grid = np.linspace(-1, 1, 1025)
        avals = (0.3 * np.sin(2 * grid))[:, None, None] * S2
        sys_in = homog(MatrixFunction.sampled(grid, avals),
                       MatrixFunction.constant(S1 + 0.2 * S2, DOM))
        ts = gauge_A_zero(sys_in)
        assert ts.system.cls == LPRIME
        assert verify_equivalence(sys_in, ts.system, ts.transform) < 1e-6

    def test_idempotence_on_vclass(self):
        sys_in = lprime(MatrixFunction.constant(S1, DOM))
        ts = gauge_A_zero(sys_in)
        assert ts.transform.is_identity()


class TestInvertibilityOfH:
    """H is invertible at a probe when sigma_min / sigma_max is above rank_tol:
    free of the scale of H and of n, where |det H| is not."""

    @staticmethod
    def transform(h, t=None):
        return EquivalenceTransform(T=t or ScalarFunction.polynomial([0.0, 1.0], DOM), H=h)

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("c", [1e-3, 1e-2, 1e3])
    def test_scaled_identity(self, c, n):
        v = MatrixFunction.constant(np.diag(np.arange(n) - 0.5 * (n - 1)), DOM)
        h = MatrixFunction.constant(c * np.eye(n), DOM)
        out = apply_equivalence(lprime(v), self.transform(h))
        np.testing.assert_allclose(out.V.evaluate(0.3), v.evaluate(0.3), rtol=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_exponential_time_map(self, n):
        # T = (e^{2t} - 1) / 2 and H = T_t^{1/2} E = e^t E: {T, t} = -2, so the
        # free particle goes to V~(T) = -(2 T + 1)^-2 E
        grid = np.linspace(-1, 1, 4097)
        tr = self.transform(MatrixFunction.sampled(grid, np.exp(grid)[:, None, None] * np.eye(n)),
                            ScalarFunction.sampled(grid, 0.5 * (np.exp(2 * grid) - 1)))
        out = apply_equivalence(lprime(MatrixFunction.zero(n, DOM)), tr)
        tt = np.linspace(out.domain[0], out.domain[1], 33)
        np.testing.assert_allclose(out.V.evaluate(tt),
                                   (-1.0 / (2 * tt + 1) ** 2)[:, None, None] * np.eye(n),
                                   rtol=1e-5)

    def test_fast_decaying_a_gauge(self):
        # A = 12 t E: H = e^{-3 t^2} E is perfectly conditioned, while det H
        # falls to e^{-24} at n = 8
        n = 8
        b = np.diag(np.random.default_rng(0).standard_normal(n))
        sys_in = homog(MatrixFunction.polynomial([np.zeros((n, n)), 12.0 * np.eye(n)], DOM),
                       MatrixFunction.constant(b, DOM))
        ts = gauge_A_zero(sys_in)
        np.testing.assert_allclose(ts.transform.H.evaluate(1.0), np.exp(-3.0) * np.eye(n),
                                   rtol=1e-8)
        report = classify(sys_in)
        assert (report.k, report.dim_s) == (0, 7)

    @pytest.mark.parametrize("n", [2, 8])
    def test_singular_h_refused_at_its_probe(self, n):
        # H(t) = diag(1, .., 1, t - t_j) vanishes at the probe t_j; the other
        # probes are well conditioned
        t_j = np.linspace(*DOM, gauge.PROBES)[40]
        coeffs = np.zeros((2, n, n))
        coeffs[0] = np.diag(np.r_[np.ones(n - 1), -t_j])
        coeffs[1, -1, -1] = 1.0
        with pytest.raises(GaugeError, match=f"sigma_min / sigma_max = 0 <= rank_tol = 1e-09 "
                                             f"at the probe t = {t_j:.6g}$"):
            self.transform(MatrixFunction.polynomial(coeffs, DOM)).validate(ToleranceConfig())

    @pytest.mark.parametrize("n", [2, 8])
    def test_ill_conditioned_h_refused(self, n):
        h = MatrixFunction.constant(np.diag(np.r_[np.ones(n - 1), 1e-12]), DOM)
        with pytest.raises(GaugeError, match=r"on the probe grid: sigma_min / sigma_max = 1e-12 "
                                             r"<= rank_tol = 1e-09 at the probe t = -1$"):
            apply_equivalence(lprime(MatrixFunction.zero(n, DOM)), self.transform(h))


def test_system_size_is_capped_at_eight():
    assert lprime(MatrixFunction.zero(8, DOM)).n == 8
    with pytest.raises(RepresentationError, match="n = 9 exceeds the maximum 8"):
        lprime(MatrixFunction.zero(9, DOM))


class TestGaugeTraceless:
    def test_traceless_identity(self):
        sys_in = lprime(MatrixFunction.constant(S1, DOM))
        ts = gauge_traceless(sys_in)
        assert ts.transform.is_identity()
        assert ts.system.cls == LDOUBLEPRIME

    def test_scalar_v_maps_to_free_particle(self):
        sys_in = lprime(MatrixFunction.constant(0.7 * E2, DOM))
        ts = gauge_traceless(sys_in)
        assert ts.system.V.max_norm() < 1e-8

    def test_e_plus_s1(self, cfg):
        sys_in = lprime(MatrixFunction.conj_exp(1.0, Z2, S1, DOM))
        ts = gauge_traceless(sys_in)
        v = ts.system.V
        grid_traces = np.trace(v.values, axis1=1, axis2=2)
        assert np.max(np.abs(grid_traces)) < 1e-6
        assert verify_equivalence(sys_in, ts.system, ts.transform) < 1e-6

    def test_zero_crossing_shrinks_domain(self):
        # tr V / n = 4 makes phi2 = cos(2(t - t0)) cross zero inside [-1, 1]
        sys_in = lprime(MatrixFunction.constant(-4.0 * E2 + S1, DOM))
        ts = gauge_traceless(sys_in)
        assert "shrunk" in ts.provenance
        lo, hi = ts.transform.T.domain
        assert lo > DOM[0] or hi < DOM[1]


    def test_complex_trace_names_the_cause(self):
        sys_in = lprime(MatrixFunction.polynomial(COMPLEX_TRACE_V, DOM), field=Field.COMPLEX)
        with pytest.raises(GaugeError, match=r"imaginary part of size 0\.6 .*real time map"):
            gauge_traceless(sys_in)
        # the polynomial route of classify needs no time map
        assert classify(sys_in).dim_ess == 1


    def test_small_imaginary_trace_within_tolerance(self):
        # tr V / n = 1e-3 + 2e-6j: the imaginary trace left after the real
        # gauge is within the traceless tolerance of the large V~
        v = 100.0 * S1 + 60.0 * S2 + (1e-3 + 2e-6j) * E2
        sys_in = lprime(MatrixFunction.constant(v, DOM), field=Field.COMPLEX)
        ts = gauge_traceless(sys_in)
        assert ts.system.cls == LDOUBLEPRIME
        traces = np.trace(ts.system.V.values, axis1=1, axis2=2)
        np.testing.assert_allclose(traces, 4e-6j / ts.transform.T.derivative(1).evaluate(
            ts.transform.T.grid) ** 2, rtol=1e-6)


class TestSingularClass:
    def test_scalar_profile_true(self):
        grid = np.linspace(-1, 1, 129)
        vals = np.sin(2 * grid)[:, None, None] * E2
        assert singular_class_test(lprime(MatrixFunction.sampled(grid, vals)))

    def test_s1_false(self):
        assert not singular_class_test(lprime(MatrixFunction.constant(S1, DOM)))

    def test_criterion_with_a(self):
        sys_in = homog(MatrixFunction.constant(-2 * S2, DOM),
                       MatrixFunction.constant(E2, DOM))
        assert singular_class_test(sys_in)  # B + A^2/4 = E + S2^2 = 2E

    def test_invariance_under_closed_transforms(self):
        rng = np.random.default_rng(5)
        for n, mat in ((2, S1), (3, np.diag([1.0, -1.0, 0.0]))):
            dom = DOM
            singular = SystemDescriptor.lprime(
                MatrixFunction.constant(0.4 * np.eye(n), dom))
            regular = SystemDescriptor.lprime(MatrixFunction.constant(mat, dom))
            for trial in range(25):
                a = float(rng.uniform(0.5, 2.0))
                b = float(rng.uniform(-0.3, 0.3))
                c = rng.standard_normal((n, n)) + 2 * np.eye(n)
                h_mat = np.sqrt(a) * c
                tr = EquivalenceTransform(
                    T=ScalarFunction.polynomial([b, a], dom),
                    H=MatrixFunction.constant(h_mat, dom))
                assert singular_class_test(apply_equivalence(singular, tr))
                assert not singular_class_test(apply_equivalence(regular, tr))


def decision_without_the_a_zero_case(sys_in):
    """``singular`` of a fresh copy of sys_in whose criterion is built from A
    and B, A = 0 included."""
    copy = SystemDescriptor(sys_in.cls, sys_in.n, sys_in.field, sys_in.domain, A=sys_in.A,
                            B=sys_in.B, f=sys_in.f, V=sys_in.V, cfg=sys_in.cfg)
    copy.__dict__["criterion"] = criterion_without_the_a_zero_case(copy)
    return copy.singular


class TestCriterionWithAZero:
    """With A = 0 the criterion matrix B - A_t / 2 + A^2 / 4 is B itself: the
    forced V-class system x_tt = V x + f reads B, in its own representation."""

    F = VectorFunction.polynomial([np.array([0.3, -0.2]), np.array([0.1, 0.4])], DOM)

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "conj_exp", "sampled"])
    @pytest.mark.parametrize("forced", [False, True])
    def test_b_is_the_criterion(self, kind, forced):
        grid = np.linspace(-1.0, 1.0, 129)
        b = {"constant": lambda: MatrixFunction.constant(S1 + 0.2 * S2, DOM),
             "polynomial": lambda: MatrixFunction.polynomial([S1, S2, S3], DOM),
             "conj_exp": lambda: MatrixFunction.conj_exp(0.1, 0.7 * S2, S1 + S3, DOM),
             "sampled": lambda: MatrixFunction.sampled(grid, np.cos(grid)[:, None, None] * S1
                                                       + S3)}[kind]()
        zero = MatrixFunction.zero(2, DOM)
        sys_in = barl(zero, b, self.F) if forced else homog(zero, b)
        assert gauge.criterion_matrix(sys_in) is b
        assert sys_in.criterion is b
        assert sys_in.singular is decision_without_the_a_zero_case(sys_in) is False

    def test_nonzero_a_still_builds_the_criterion(self):
        a = MatrixFunction.constant(1e-300 * S1, DOM)
        b = MatrixFunction.conj_exp(0.0, S2, S1, DOM)
        assert gauge.criterion_matrix(homog(a, b)).kind == "sampled"

    @pytest.mark.parametrize("fld", list(Field))
    def test_casebook_rows_keep_their_decision(self, fld):
        for case in n2_cases(fld):
            for sys_in in (barl(MatrixFunction.zero(2, DOM), case.system.V, self.F, field=fld),
                           homog(MatrixFunction.zero(2, DOM), case.system.V, field=fld)):
                assert sys_in.criterion is case.system.V
                assert sys_in.singular == decision_without_the_a_zero_case(sys_in), case.label

    def test_benchmark_inputs_keep_their_decision(self, monkeypatch):
        """Every system of the benchmark's integrate and gauge-verify inputs
        at seeds 0..5, the forced casebook rows with A = 0 among them."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench import docs, workloads
        count = 0
        for seed in range(6):
            documents = ([item["doc"] for item in workloads.integrate_inputs(symode, seed)]
                         + [doc for _, doc in workloads.gauge_inputs(seed)])
            for doc in documents:
                sys_in = docs.build_system(symode, doc)
                assert sys_in.singular == decision_without_the_a_zero_case(sys_in), (seed, doc)
                count += sys_in.A is not None and sys_in.criterion is sys_in.B
        assert count >= 6


class TestVerifyEquivalence:
    def test_identity_tight(self):
        sys_in = lprime(MatrixFunction.constant(S1, DOM))
        tr = EquivalenceTransform.identity(2, DOM)
        assert verify_equivalence(sys_in, sys_in, tr) < 1e-8

    def test_gauge_chain_residual(self):
        sys_in = homog(MatrixFunction.constant(-2 * S2, DOM),
                       MatrixFunction.constant(S1, DOM))
        ts = gauge_A_zero(sys_in)
        assert verify_equivalence(sys_in, ts.system, ts.transform) < 1e-6

    def test_wrong_target_detected(self):
        src = lprime(MatrixFunction.constant(S1, DOM))
        bad = lprime(MatrixFunction.constant(S1 + 0.1 * S1, DOM))
        tr = EquivalenceTransform.identity(2, DOM)
        assert verify_equivalence(src, bad, tr) > 1e-2

    @pytest.mark.parametrize("cls", [HOMOGENEOUS, LPRIME, BARL])
    def test_zero_forcing_solves_without_forcing_maps(self, cls, monkeypatch):
        # L and V-class sources (and barL with f = 0) keep no particular and
        # solve the plain companion table, and their fundamental matrices are
        # those of a build with an all-zero f column
        a = MatrixFunction.polynomial([0.2 * S2, 0.1 * S1], DOM)
        b = MatrixFunction.constant(S1 + 0.3 * S3, DOM)
        sys_in = {HOMOGENEOUS: homog(a, b), LPRIME: lprime(b),
                  BARL: barl(a, b, VectorFunction.zero(2, DOM))}[cls]
        tables = []
        solve = gauge.rk4_linear

        def recorded(m, y0, grid, i0=0):
            tables.append(m.shape)
            return solve(m, y0, grid, i0)

        monkeypatch.setattr(gauge, "rk4_linear", recorded)
        verify_equivalence(sys_in, sys_in, EquivalenceTransform.identity(2, DOM))
        assert tables == [(2049, 4, 4)]
        phi, psi = sys_in.propagator(*DOM, 1024)
        assert psi is None
        half = uniform_grid(*DOM, 2048)
        a_fun, b_fun, _ = sys_in.coefficients()
        zero_f = solve(companion(a_fun.evaluate(half), b_fun.evaluate(half),
                                 np.zeros((len(half), 2))), np.eye(5), half[::2], 512)
        assert np.all(zero_f[:, :4, 4] == 0.0)
        np.testing.assert_array_equal(phi, zero_f[:, :4, :4])


def forced_inputs(kind, field, n=3, seed=4):
    """barL systems with f != 0 and A, B, f constant, polynomial or sampled;
    complex data in the complex field."""
    rng = np.random.default_rng(seed)

    def draw(*shape):
        x = 0.5 * rng.standard_normal(shape)
        return x + 0.5j * rng.standard_normal(shape) if field is Field.COMPLEX else x

    if kind == "constant":
        a, b = MatrixFunction.constant(draw(n, n), DOM), MatrixFunction.constant(draw(n, n), DOM)
        f = VectorFunction.constant(draw(n), DOM)
    elif kind == "polynomial":
        a = MatrixFunction.polynomial([draw(n, n), draw(n, n)], DOM)
        b = MatrixFunction.polynomial([draw(n, n), draw(n, n), draw(n, n)], DOM)
        f = VectorFunction.polynomial([draw(n), draw(n)], DOM)
    else:
        t = np.linspace(*DOM, 97)
        a = MatrixFunction.sampled(t, draw(n, n) + np.sin(t)[:, None, None] * draw(n, n))
        b = MatrixFunction.sampled(t, draw(n, n) + np.cos(t)[:, None, None] * draw(n, n))
        f = VectorFunction.sampled(t, np.outer(np.exp(0.3 * t), draw(n)))
    return barl(a, b, f, field=field)


class TestPropagator:
    """``SystemDescriptor.propagator``: one solve per gauge chain and grid,
    shared by gauge_f_zero, the L system it returns, the Lprime system of the
    A-step (conjugated by its gauge) and verify_equivalence."""

    @pytest.fixture
    def tables(self, monkeypatch):
        calls = []
        build = SystemDescriptor.companion_table

        def counted(sys, ts):
            calls.append((id(sys), len(ts), ts[0], ts[-1]))
            return build(sys, ts)

        monkeypatch.setattr(SystemDescriptor, "companion_table", counted)
        return calls

    def test_chain_builds_one_table_per_system(self, tables):
        # the chain as the benchmark runs it: each step, then its verify
        src = pipeline_inputs()[BARL]
        systems, work = [src], src
        for step in (gauge_f_zero, gauge_A_zero, gauge_traceless):
            ts = step(work)
            assert verify_equivalence(work, ts.system, ts.transform) <= 10 * src.cfg.residual_tol
            work = ts.system
            systems.append(work)
        # barL builds the one table of the chain: its L system shares Phi, and
        # the Lprime system keeps Phi conjugated by the A-gauge
        assert [key[0] for key in tables] == [id(systems[0])]

    def test_reduce_then_verify_builds_one_table(self, tables):
        src = pipeline_inputs()[BARL]
        ts = reduce(src, LDOUBLEPRIME)
        assert verify_equivalence(src, ts.system, ts.transform) <= 10 * src.cfg.residual_tol
        assert [key[0] for key in tables] == [id(src)]

    def test_the_homogeneous_system_shares_phi(self):
        src = pipeline_inputs()[BARL]
        phi, psi = src.propagator(*DOM, 1024)
        out = gauge_f_zero(src).system
        assert not phi.flags.writeable and not psi.flags.writeable
        assert phi.flags.c_contiguous and psi.flags.c_contiguous
        phi_out, psi_out = out.propagator(*DOM, 1024)
        assert phi_out is phi and psi_out is None
        # zero data at the middle node
        assert np.array_equal(phi[512], np.eye(4)) and np.all(psi[512] == 0.0)

    def test_descriptor_shared_between_threads(self, tables):
        """Threads that verify against one descriptor read one residual; the
        memo is filled once per thread at most."""
        import sys as interpreter
        import threading

        ts = gauge_f_zero(pipeline_inputs()[BARL])
        shared = pipeline_inputs()[BARL]
        tables.clear()
        residuals = []
        threads = [threading.Thread(target=lambda: residuals.append(
            verify_equivalence(shared, ts.system, ts.transform))) for _ in range(4)]
        interval = interpreter.getswitchinterval()
        interpreter.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            interpreter.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(residuals) == 4 and len(set(residuals)) == 1
        assert 1 <= len(tables) <= 4 and list(shared._propagators) == [(*DOM, 1024)]

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "sampled"])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_matches_the_per_call_sweep(self, kind, field):
        src = forced_inputs(kind, field)
        rng = np.random.default_rng(11)
        z0 = rng.standard_normal((6, 3))
        if field is Field.COMPLEX:
            z0 = z0 + 1j * rng.standard_normal((6, 3))
        for sys in (src, gauge_f_zero(src).system):
            phi, psi = sys.propagator(*DOM, 1024)
            got = phi @ z0 + (0.0 if psi is None else psi[:, :, None])
            ref = trajectories_by_sweep(sys, z0, *DOM, 1024)
            assert got.dtype == ref.dtype
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "sampled"])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_lprime_keeps_the_gauged_phi(self, kind, field, tables):
        src = forced_inputs(kind, field)
        out = gauge_A_zero(gauge_f_zero(src).system).system
        phi, psi = out.propagator(*DOM, 1024)
        assert [key[0] for key in tables] == [id(src)]  # only the barL input's build
        assert psi is None and list(out._propagators) == [(*DOM, 1024)]
        assert not phi.flags.writeable and phi.flags.c_contiguous
        assert np.max(np.abs(phi[512] - np.eye(6))) <= 1e-15
        ref = trajectories_by_sweep(out, np.eye(6), *DOM, 8192)[::8]
        # sampled A: the criterion of the L system reads A_t off grid_derivative's
        # samples, so the Lprime V, read off 97 nodes, is L's gauge image to
        # about 2e-8 and its solutions are Phi' to about 2e-9
        bound = 1e-8 if kind == "sampled" else 1e-10
        assert np.max(np.abs(phi - ref)) <= bound * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["direct", "a_zero"])
    def test_no_phi_to_pass_on(self, kind, tables):
        # an L input that kept no Phi, and an A-step whose A is already zero
        # (the identity path), leave the Lprime system to build its own table
        src = pipeline_inputs()[BARL]
        if kind == "direct":
            lsys = pipeline_inputs()[HOMOGENEOUS]
        else:
            lsys = gauge_f_zero(barl(MatrixFunction.zero(2, DOM), src.B, src.f)).system
            assert lsys._propagators
        out = gauge_A_zero(lsys).system
        assert out._propagators == {}
        ts = gauge_traceless(out)
        tables.clear()
        assert verify_equivalence(out, ts.system, ts.transform) <= 10 * src.cfg.residual_tol
        assert [key[0] for key in tables] == [id(out)]

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "sampled"])
    @pytest.mark.parametrize("field", [Field.REAL, Field.COMPLEX])
    def test_verify_reads_the_per_call_residual(self, kind, field):
        src = forced_inputs(kind, field)
        ts = gauge_f_zero(src)
        # a verify at another grid builds its own entry.  At 64 steps the
        # residual is the truncation error both solves share; at 1024 it is
        # the rounding noise of the second derivative, about 2e-10, which any
        # change in the order of the products moves by as much
        got = verify_equivalence(src, ts.system, ts.transform, grid_steps=64)
        ref = verify_residual_by_sweep(src, ts.system, ts.transform, grid_steps=64)
        assert abs(got - ref) <= 1e-12
        assert sorted(src._propagators) == [(*DOM, 64), (*DOM, 1024)]
        assert verify_equivalence(src, ts.system, ts.transform) <= 1e-9
        assert verify_residual_by_sweep(src, ts.system, ts.transform) <= 1e-9


def pipeline_inputs():
    """One system per class; A != 0, f != 0 and tr V != 0 wherever the class allows."""
    a = MatrixFunction.polynomial([np.array([[0.2, 0.1], [-0.3, 0.1]]),
                                   np.array([[0.1, 0.0], [0.2, -0.1]])], DOM)
    b = MatrixFunction.constant(np.array([[0.5, 1.0], [1.0, 0.2]]), DOM)
    f = VectorFunction.constant(np.array([0.3, -0.2]), DOM)
    v = MatrixFunction.polynomial([np.array([[0.5, 1.0], [1.0, 0.2]]),
                                   np.array([[0.1, 0.0], [0.0, 0.3]])], DOM)
    return {BARL: barl(a, b, f), HOMOGENEOUS: homog(a, b), LPRIME: lprime(v),
            LDOUBLEPRIME: SystemDescriptor.ldoubleprime(
                MatrixFunction.polynomial([S1, S3], DOM))}


# the steps reduce runs for each (input class, target class)
PIPELINE_STEPS = {
    (BARL, HOMOGENEOUS): (gauge_f_zero,),
    (BARL, LPRIME): (gauge_f_zero, gauge_A_zero),
    (BARL, LDOUBLEPRIME): (gauge_f_zero, gauge_A_zero, gauge_traceless),
    (HOMOGENEOUS, LPRIME): (gauge_A_zero,),
    (HOMOGENEOUS, LDOUBLEPRIME): (gauge_A_zero, gauge_traceless),
    (LPRIME, LPRIME): (gauge_A_zero,),
    (LPRIME, LDOUBLEPRIME): (gauge_traceless,),
    (LDOUBLEPRIME, LPRIME): (gauge_A_zero,),
    (LDOUBLEPRIME, LDOUBLEPRIME): (gauge_traceless,),
}


def assert_functions_equal(f, g, ts):
    if f is None or g is None:
        assert f is g
        return
    x, y = f.evaluate(ts), g.evaluate(ts)
    assert x.dtype == y.dtype
    np.testing.assert_array_equal(x, y)


class TestReduce:
    @pytest.mark.parametrize("cls, target", sorted(PIPELINE_STEPS))
    def test_matches_the_steps_one_by_one(self, cls, target):
        src = pipeline_inputs()[cls]
        ts = reduce(src, target)
        assert verify_equivalence(src, ts.system, ts.transform) <= 10 * src.cfg.residual_tol
        chain, work = [], src
        for step in PIPELINE_STEPS[cls, target]:
            chain.append(step(work))
            work = chain[-1].system
        tr = chain[0].transform
        for step in chain[1:]:
            tr = gauge._compose(tr, step.transform, 1024)
        assert ts.provenance == "; ".join(step.provenance for step in chain)
        assert (ts.system.cls, ts.system.domain) == (work.cls, work.domain)
        grid = np.linspace(*ts.system.domain, 101)
        for name in ("A", "B", "f", "V"):
            assert_functions_equal(getattr(ts.system, name), getattr(work, name), grid)
        grid = np.linspace(*tr.T.domain, 101)
        for name in ("T", "H", "h"):
            assert_functions_equal(getattr(ts.transform, name), getattr(tr, name), grid)

    @pytest.mark.parametrize("cls", [HOMOGENEOUS, LPRIME, LDOUBLEPRIME])
    def test_target_l_needs_barl_input(self, cls):
        with pytest.raises(GaugeError, match="gauge_f_zero expects a barL system"):
            reduce(pipeline_inputs()[cls], HOMOGENEOUS)

    def test_unknown_target(self):
        with pytest.raises(GaugeError, match="unknown target class traceless"):
            reduce(pipeline_inputs()[BARL], "traceless")


class TestCriterionBuilds:
    """The criterion matrix is built once per system and handed down the chain."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = gauge.criterion_matrix

        def counted(sys):
            calls.append(sys)
            return build(sys)

        monkeypatch.setattr(gauge, "criterion_matrix", counted)
        return calls

    @staticmethod
    def sampled_a_system(f=None):
        grid = np.linspace(-1.0, 1.0, 1025)
        a = MatrixFunction.sampled(grid, np.sin(grid)[:, None, None]
                                   * np.array([[0.1, 0.3], [-0.2, 0.05]]))
        b = MatrixFunction.constant(S1, DOM)
        if f is None:
            return homog(a, b)
        return barl(a, b, VectorFunction.constant(np.array(f), DOM))

    @pytest.mark.parametrize("f", [None, (0.3, -0.2)])
    def test_classify(self, builds, f):
        classify(self.sampled_a_system(f))
        assert len(builds) == 1

    def test_gauge_a_zero(self, builds):
        gauge_A_zero(self.sampled_a_system())
        assert len(builds) == 1

    def test_gauge_f_zero(self, builds):
        gauge_f_zero(self.sampled_a_system((0.3, -0.2)))
        assert builds == []

    def test_cli_traceless_chain(self, builds, tmp_path):
        doc = {"n": 2, "field": "real", "class": "barL", "domain": [-1.0, 1.0],
               "A": {"kind": "polynomial",
                     "coeffs": [[[0.2, 0.1], [-0.3, 0.1]], [[0.1, 0.0], [0.2, -0.1]]]},
               "B": {"kind": "constant", "m": [[0.5, 1.0], [1.0, 0.2]]},
               "f": {"kind": "constant", "m": [0.3, -0.2]}}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "out.json")
        assert main(["gauge", str(path), "--target", "traceless", "--out", out]) == EXIT_OK
        assert len(builds) == 1

    def test_descriptor_shared_between_threads(self, builds):
        """Threads that classify one descriptor agree; the criterion memo is
        filled once per thread at most."""
        import sys as interpreter
        import threading

        shared = self.sampled_a_system((0.3, -0.2))
        reports = []
        threads = [threading.Thread(target=lambda: reports.append(classify(shared)))
                   for _ in range(4)]
        interval = interpreter.getswitchinterval()
        interpreter.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            interpreter.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(reports) == 4
        assert len({(r.k, r.dim_s, r.dim_ess, r.case_label, tuple(r.notes))
                    for r in reports}) == 1
        assert 1 <= len(builds) <= 4
