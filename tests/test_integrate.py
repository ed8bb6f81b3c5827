import numpy as np
import pytest

from symode import linalg
from symode.gauge import SystemDescriptor
from symode.integrate import _coefficients_on
from symode.integrate import (IntegrationError, bracket, integrate_auto,
                              integrate_one_symmetry, integrate_singular,
                              integrate_two_symmetries, residual,
                              solve_constant)
from symode.matfun import MatrixFunction, ScalarFunction, VectorFunction
from symode.numutil import uniform_grid
from symode.scalars import ToleranceConfig
from symode.symalg import SymmetryVectorField

from conftest import DOM, E2, S1, S2, S3, Z2
from oracles import richardson_error, rk4_reference


def tau_poly(coeffs, domain=DOM):
    return ScalarFunction.polynomial(coeffs, domain)


def homog(a, b, **kw):
    return SystemDescriptor.homogeneous(a, b, **kw)


def record_point_sets(monkeypatch, record):
    """Calls record(f, t) on every MatrixFunction.evaluate and jet; a jet
    gives all the derivatives it returns on one point set."""
    for name in ("evaluate", "jet"):
        def counted(self, t, *args, real=getattr(MatrixFunction, name)):
            record(self, t)
            return real(self, t, *args)
        monkeypatch.setattr(MatrixFunction, name, counted)


def column_residuals(sys_h, sol):
    return max(residual(sys_h, sol.positions[:, :, j], sol.grid)
               for j in range(sol.positions.shape[2]))


class TestSolveConstant:
    def test_free_particle_affine(self):
        sol = solve_constant(Z2, Z2, DOM)
        t = sol.grid
        np.testing.assert_allclose(sol.positions[:, 0, 0], 1.0)
        np.testing.assert_allclose(sol.positions[:, 0, 2], t - t[len(t) // 2],
                                   atol=1e-12)

    def test_triangular_quartic_coupling(self):
        sol = solve_constant(Z2, S1, DOM)
        sys_h = homog(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM))
        assert column_residuals(sys_h, sol) < 1e-8
        # closed form: column starting at x = (0, 1), v = 0:
        # x2 = 1, x1 = (t - t0)^2 / 2
        t = sol.grid - sol.t0
        np.testing.assert_allclose(sol.positions[:, 0, 1], t ** 2 / 2.0, atol=1e-10)

    def test_cosh_sinh_columns(self):
        sol = solve_constant(Z2, E2, DOM)
        t = sol.grid - sol.t0
        np.testing.assert_allclose(sol.positions[:, 0, 0], np.cosh(t), atol=1e-10)
        np.testing.assert_allclose(sol.positions[:, 0, 2], np.sinh(t), atol=1e-10)

    def test_wronskian_bounded(self):
        sol = solve_constant(0.2 * S2, S1 + E2, DOM)
        assert sol.min_abs_wronskian() > 1e-3


class TestResidual:
    def test_exact_affine_tiny(self):
        sys_h = homog(MatrixFunction.zero(2, DOM), MatrixFunction.zero(2, DOM))
        grid = np.linspace(-1, 1, 101)
        traj = np.stack([1.0 + 2.0 * grid, 0.5 - grid], axis=1)
        assert residual(sys_h, traj, grid) < 1e-10

    def test_rk4_solution_small(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 2)) * 0.5
        b = rng.standard_normal((2, 2))
        sys_h = homog(MatrixFunction.constant(a, DOM), MatrixFunction.constant(b, DOM))
        grid = np.linspace(-1, 1, 1025)
        traj = rk4_reference(lambda t: a, lambda t: b,
                             lambda t: np.zeros(2), np.array([1.0, 0, 0, 0]), grid)
        assert residual(sys_h, traj[:, :2].real, grid) < 1e-6

    def test_perturbation_detected(self):
        sys_h = homog(MatrixFunction.zero(2, DOM), MatrixFunction.zero(2, DOM))
        grid = np.linspace(-1, 1, 101)
        traj = np.stack([1.0 + 2.0 * grid + 0.01 * grid ** 3, 0.5 - grid], axis=1)
        assert residual(sys_h, traj, grid) > 1e-3

    def test_coarse_grid_rejected(self):
        sys_h = homog(MatrixFunction.zero(2, DOM), MatrixFunction.zero(2, DOM))
        with pytest.raises(IntegrationError):
            residual(sys_h, np.zeros((5, 2)), np.linspace(-1, 1, 5))


class TestBracket:
    def test_translation_dilation(self):
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=Z2)
        out = bracket(q1, q2, 2, DOM)
        np.testing.assert_allclose([complex(c) for c in out.tau.coeffs], [1.0])

    def test_matrix_fields_reverse_bracket(self):
        g1, g2 = S1, S2
        q1 = SymmetryVectorField(tau=tau_poly([0.0]), gamma=g1)
        q2 = SymmetryVectorField(tau=tau_poly([0.0]), gamma=g2)
        out = bracket(q1, q2, 2, DOM)
        np.testing.assert_allclose(out.eta_function(2, DOM).evaluate(0.0),
                                   g2 @ g1 - g1 @ g2, atol=1e-12)

    def test_p_d_normal_form(self):
        # [Lam, Y] = Y realizes [P, D] = P
        lam = np.diag([1.0, 0.0])
        ups = S1
        q_p = SymmetryVectorField(tau=tau_poly([1.0]), gamma=ups)
        q_d = SymmetryVectorField(tau=tau_poly([0.0, 1.0]),
                                  gamma=lam - np.trace(lam) / 2 * E2)
        out = bracket(q_p, q_d, 2, DOM)
        np.testing.assert_allclose([complex(c) for c in out.tau.coeffs], [1.0])
        np.testing.assert_allclose(out.eta_function(2, DOM).evaluate(0.3), ups,
                                   atol=1e-12)

    def test_antisymmetry_and_jacobi(self, rng):
        def rand_q():
            return SymmetryVectorField(
                tau=tau_poly(list(rng.standard_normal(2))),
                gamma=rng.standard_normal((2, 2)))

        ts = np.linspace(-0.9, 0.9, 7)

        def as_vals(q):
            return (np.atleast_1d(q.tau.evaluate(ts)),
                    q.eta_function(2, DOM).evaluate(ts))

        for _ in range(5):
            qa, qb, qc = rand_q(), rand_q(), rand_q()
            ab = bracket(qa, qb, 2, DOM)
            ba = bracket(qb, qa, 2, DOM)
            ta, ea = as_vals(ab)
            tb, eb = as_vals(ba)
            np.testing.assert_allclose(ta, -tb, atol=1e-9)
            np.testing.assert_allclose(ea, -eb, atol=1e-9)
            j1 = bracket(qa, bracket(qb, qc, 2, DOM), 2, DOM)
            j2 = bracket(qb, bracket(qc, qa, 2, DOM), 2, DOM)
            j3 = bracket(qc, bracket(qa, qb, 2, DOM), 2, DOM)
            tsum = sum(as_vals(j)[0] for j in (j1, j2, j3))
            esum = sum(as_vals(j)[1] for j in (j1, j2, j3))
            np.testing.assert_allclose(tsum, 0.0, atol=1e-7)
            np.testing.assert_allclose(esum, 0.0, atol=1e-7)


class TestSingular:
    def test_elementary_affine(self):
        sys_in = SystemDescriptor.bar_l(MatrixFunction.zero(2, DOM),
                                        MatrixFunction.zero(2, DOM),
                                        VectorFunction.zero(2, DOM))
        sol = integrate_singular(sys_in)
        sys_h = homog(MatrixFunction.zero(2, DOM), MatrixFunction.zero(2, DOM))
        assert column_residuals(sys_h, sol) < 1e-8
        assert sol.quadratures == 0

    def test_scalar_b_matches_constant_solver(self):
        c = 0.8
        sys_in = SystemDescriptor.bar_l(MatrixFunction.zero(2, DOM),
                                        MatrixFunction.constant(c * E2, DOM),
                                        VectorFunction.zero(2, DOM))
        sol = integrate_singular(sys_in)
        ref = solve_constant(Z2, c * E2, DOM)
        # same solution span: project singular columns onto the reference span
        i_mid = len(sol.grid) // 2
        state_s = sol.state_matrix(i_mid)
        # match reference grid index at the same time point
        j_mid = int(np.argmin(np.abs(ref.grid - sol.grid[i_mid])))
        state_r = ref.state_matrix(j_mid)
        coeff = np.linalg.solve(state_r, state_s)
        for i in range(0, len(sol.grid), 64):
            tv = sol.grid[i]
            j = int(np.argmin(np.abs(ref.grid - tv)))
            np.testing.assert_allclose(sol.state_matrix(i),
                                       ref.state_matrix(j) @ coeff, atol=1e-6)

    def test_sampled_inhomogeneous(self):
        grid = np.linspace(-1, 1, 1025)
        a_t = 0.3 * np.sin(2 * grid)
        u_t = 0.5 + 0.2 * grid
        a_prime = 0.6 * np.cos(2 * grid)
        b_vals = (u_t + a_prime / 2 - a_t ** 2 / 4)[:, None, None] * E2
        a_vals = a_t[:, None, None] * E2
        f_vals = np.stack([0.3 * np.cos(grid), 0.1 * grid], axis=1)
        sys_in = SystemDescriptor.bar_l(MatrixFunction.sampled(grid, a_vals),
                                        MatrixFunction.sampled(grid, b_vals),
                                        VectorFunction.sampled(grid, f_vals))
        sol = integrate_singular(sys_in)
        assert sol.quadratures == 4  # 2n
        traj = sol.particular + sol.positions[:, :, 2]
        assert residual(sys_in, traj, sol.grid) < 1e-5
        # cross-check against a direct reference integration
        a_fun, b_fun, f_fun = sys_in.coefficients()
        i0 = len(sol.grid) // 2
        z0 = np.concatenate([traj[i0],
                             np.gradient(traj, sol.grid, axis=0)[i0]])
        ref = rk4_reference(a_fun.evaluate, b_fun.evaluate, f_fun.evaluate,
                            z0, sol.grid[i0:])
        np.testing.assert_allclose(traj[i0:], ref[:, :2].real, atol=1e-4)

    def test_regular_input_rejected(self):
        sys_in = SystemDescriptor.lprime(MatrixFunction.constant(S1, DOM))
        with pytest.raises(IntegrationError, match="singular"):
            integrate_singular(sys_in)


class TestOneSymmetry:
    def test_case5_embedded(self):
        sys_in = homog(MatrixFunction.zero(2, DOM),
                       MatrixFunction.conj_exp(0.3, S2, S1, DOM))
        q = SymmetryVectorField(tau=tau_poly([1.0]), gamma=S2)
        sol = integrate_one_symmetry(sys_in, q)
        assert column_residuals(sys_in, sol) < 1e-6
        assert sol.quadratures == 1

    def test_constant_system_with_translation(self):
        sys_in = homog(MatrixFunction.constant(0.2 * S2, DOM),
                       MatrixFunction.constant(S1 + 0.5 * S3, DOM))
        q = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        sol = integrate_one_symmetry(sys_in, q)
        assert column_residuals(sys_in, sol) < 1e-7
        # straightening is trivial: H = E hence T = t
        np.testing.assert_allclose(sol.plan.h_values[0], E2, atol=1e-9)
        np.testing.assert_allclose(sol.plan.t_map,
                                   sol.grid - sol.grid[len(sol.grid) // 2],
                                   atol=1e-9)

    def test_dilation_on_t_s1(self):
        dom = (1.0, 2.0)
        sys_in = homog(MatrixFunction.zero(2, dom),
                       MatrixFunction.polynomial([Z2, S1], dom))
        q = SymmetryVectorField(tau=tau_poly([0.0, 1.0], dom), gamma=1.5 * S2)
        sol = integrate_one_symmetry(sys_in, q)
        assert column_residuals(sys_in, sol) < 1e-6

    def test_span_agrees_with_reference(self):
        sys_in = homog(MatrixFunction.zero(2, DOM),
                       MatrixFunction.conj_exp(0.0, S2, S1, DOM))
        q = SymmetryVectorField(tau=tau_poly([1.0]), gamma=S2)
        sol = integrate_one_symmetry(sys_in, q)
        a_fun, b_fun, f_fun = sys_in.coefficients()
        i0 = len(sol.grid) // 2
        rng = np.random.default_rng(8)
        z0 = rng.standard_normal(4)
        ref = rk4_reference(a_fun.evaluate, b_fun.evaluate, f_fun.evaluate,
                            z0, sol.grid[i0:])
        coeff = np.linalg.solve(sol.state_matrix(i0), z0)
        rebuilt = np.einsum("tnj,j->tn", sol.positions[i0:], coeff)
        np.testing.assert_allclose(rebuilt, ref[:, :2].real, atol=1e-7)

    def test_unverified_symmetry_rejected(self):
        sys_in = homog(MatrixFunction.zero(2, DOM),
                       MatrixFunction.conj_exp(0.0, S2, S1, DOM))
        q = SymmetryVectorField(tau=tau_poly([1.0]), gamma=S3)
        with pytest.raises(IntegrationError, match="not verified"):
            integrate_one_symmetry(sys_in, q)

    def test_one_exponential_factory_with_the_system_tolerances(self, monkeypatch):
        cfg = ToleranceConfig(rank_tol=1e-10, eig_cluster_tol=1e-8, residual_tol=1e-7)
        sys_in = homog(MatrixFunction.constant(0.2 * S2, DOM),
                       MatrixFunction.constant(S1 + 0.5 * S3, DOM), cfg=cfg)
        builds = []
        real = linalg.exp_factory

        def counted(m, *args, **kwargs):
            builds.append((np.shape(m), args, kwargs))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "exp_factory", counted)
        integrate_one_symmetry(sys_in, SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2))
        # the exponential reads no tolerance: a system with its own builds one
        # factory of the companion matrix, from the matrix alone
        assert [b for b in builds if b[0] == (4, 4)] == [((4, 4), (), {})]

    def test_coefficients_evaluated_on_two_point_sets(self, monkeypatch):
        # the verification probes and the solver grid, which also gives the scale
        from symode.symalg import PROBES
        sys_in = homog(MatrixFunction.zero(2, DOM), MatrixFunction.conj_exp(0.3, S2, S1, DOM))
        a_fun, b_fun, _ = sys_in.coefficients()
        sizes = {"A": [], "B": []}

        def record(f, t):
            if f is a_fun or f is b_fun:
                sizes["A" if f is a_fun else "B"].append(np.size(t))

        record_point_sets(monkeypatch, record)
        integrate_one_symmetry(sys_in, SymmetryVectorField(tau=tau_poly([1.0]), gamma=S2))
        assert sizes == {"A": [1025, PROBES], "B": [1025, PROBES]}

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "conj_exp", "sampled"])
    def test_scale_from_the_grid_equals_max_norm(self, kind):
        rng = np.random.default_rng(4)
        t = np.linspace(*DOM, 97)[:, None, None]
        b_fun = {"constant": lambda: MatrixFunction.constant(rng.standard_normal((3, 3)), DOM),
                 "polynomial": lambda: MatrixFunction.polynomial(
                     rng.standard_normal((3, 3, 3)), DOM),
                 "conj_exp": lambda: MatrixFunction.conj_exp(
                     0.2, rng.standard_normal((3, 3)), rng.standard_normal((3, 3)), DOM),
                 "sampled": lambda: MatrixFunction.sampled(
                     t[:, 0, 0], rng.standard_normal((3, 3)) * np.cos(2.0 * t)),
                 }[kind]()
        a_fun = MatrixFunction.polynomial(rng.standard_normal((2, 3, 3)), DOM)
        grid = uniform_grid(*DOM, 2048)[::2]
        _, _, scale = _coefficients_on(a_fun, b_fun, grid)
        assert scale == 1.0 + b_fun.max_norm() + a_fun.max_norm()

    def test_vanishing_tau_rejected(self):
        sys_in = homog(MatrixFunction.zero(2, DOM),
                       MatrixFunction.polynomial([Z2, S1], DOM))
        q = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=1.5 * S2)
        with pytest.raises(IntegrationError, match="vanishes"):
            integrate_one_symmetry(sys_in, q)


class TestTwoSymmetries:
    def case7(self):
        sys_in = homog(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=np.diag([1.5, -0.5]))
        return sys_in, q1, q2

    def test_case7_blocks(self):
        sys_in, q1, q2 = self.case7()
        sol = integrate_two_symmetries(sys_in, q1, q2)
        assert column_residuals(sys_in, sol) < 1e-6
        assert sol.plan.block_sizes == [1, 1]
        evs = sorted(np.real(np.diag(sol.plan.lam)))
        np.testing.assert_allclose(evs, [0.0, 2.0], atol=1e-9)
        assert sol.quadratures <= sol.plan.quadrature_bound == 2

    def test_coefficients_evaluated_once_at_the_probes(self, monkeypatch):
        # both fields are verified against one evaluation of A and of B
        from symode.symalg import PROBES
        sys_in, q1, q2 = self.case7()
        a_fun, b_fun, _ = sys_in.coefficients()
        probe_calls = {"A": 0, "B": 0}

        def record(f, t):
            if np.size(t) == PROBES and (f is a_fun or f is b_fun):
                probe_calls["A" if f is a_fun else "B"] += 1

        record_point_sets(monkeypatch, record)
        integrate_two_symmetries(sys_in, q1, q2)
        assert probe_calls == {"A": 1, "B": 1}

    def test_sampled_taus_match_polynomial(self):
        # sampled t-components take the sampled eta and eta_t of both fields
        sys_in, q1, q2 = self.case7()
        grid = np.linspace(DOM[0], DOM[1], 1025)
        s1, s2 = (SymmetryVectorField(tau=ScalarFunction.sampled(grid, q.tau.evaluate(grid)),
                                      gamma=q.gamma) for q in (q1, q2))
        ref = integrate_two_symmetries(sys_in, q1, q2)
        sol = integrate_two_symmetries(sys_in, s1, s2)
        assert sol.positions.dtype == ref.positions.dtype
        np.testing.assert_allclose(sol.positions, ref.positions, rtol=0, atol=1e-10)
        assert column_residuals(sys_in, sol) < 1e-6

    def test_block_structure_invariant(self):
        sys_in, q1, q2 = self.case7()
        sol = integrate_two_symmetries(sys_in, q1, q2)
        # eta-check must vanish off the Lam eigenspace blocks: recompute
        lam, modal = sol.plan.lam, sol.plan.modal
        hhat = np.linalg.inv(modal)
        eta1 = q1.eta_function(2, DOM).evaluate(sol.grid)
        conj = np.einsum("ij,tjk,kl->til", hhat, eta1, modal)
        assert np.max(np.abs(conj[:, 0, 1])) < 1e-6
        assert np.max(np.abs(conj[:, 1, 0])) < 1e-6

    def test_constant_coefficients_vs_direct(self):
        # A = -2 S2, B = S1: t-shift plus a genuine dilation-type symmetry
        sys_in = homog(MatrixFunction.constant(Z2, DOM),
                       MatrixFunction.constant(S1, DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=np.diag([1.5, -0.5]))
        sol = integrate_two_symmetries(sys_in, q1, q2)
        ref = solve_constant(Z2, S1, DOM)
        i_mid = len(sol.grid) // 2
        j_mid = int(np.argmin(np.abs(ref.grid - sol.grid[i_mid])))
        coeff = np.linalg.solve(ref.state_matrix(j_mid), sol.state_matrix(i_mid))
        assert abs(np.linalg.det(coeff)) > 1e-6  # same span, full rank mixing
        for i in range(0, len(sol.grid), 128):
            j = int(np.argmin(np.abs(ref.grid - sol.grid[i])))
            np.testing.assert_allclose(sol.state_matrix(i),
                                       ref.state_matrix(j) @ coeff, atol=1e-6)

    def test_dependent_tau_rejected(self):
        sys_in, q1, _ = self.case7()
        q2 = SymmetryVectorField(tau=tau_poly([2.0]), gamma=Z2)
        with pytest.raises(IntegrationError, match="dependent"):
            integrate_two_symmetries(sys_in, q1, q2)

    def test_n3_jordan_case(self):
        j3 = np.zeros((3, 3))
        j3[0, 1] = 1.0
        sys_in = homog(MatrixFunction.zero(3, DOM), MatrixFunction.constant(j3, DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=np.zeros((3, 3)))
        lam = np.diag([2.0, 0.0, 1.0])
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]),
                                 gamma=lam - np.trace(lam) / 3 * np.eye(3))
        sol = integrate_two_symmetries(sys_in, q1, q2)
        assert column_residuals(sys_in, sol) < 1e-6
        assert sol.quadratures <= sol.plan.quadrature_bound == 3


class TestDispatcher:
    def test_singular_routed(self):
        sys_in = SystemDescriptor.bar_l(MatrixFunction.zero(2, DOM),
                                        MatrixFunction.constant(0.5 * E2, DOM),
                                        VectorFunction.zero(2, DOM))
        sol = integrate_auto(sys_in)
        assert sol.plan.procedure == "Singular"

    def test_singular_builds_the_criterion_once(self, monkeypatch):
        from symode import gauge
        a = np.array([[0.2, 0.1], [0.0, -0.3]])
        b = MatrixFunction.polynomial([0.5 * E2 - 0.25 * a @ a, 0.2 * E2], DOM)
        sys_in = SystemDescriptor.bar_l(MatrixFunction.constant(a, DOM), b,
                                        VectorFunction.constant(np.array([0.3, -0.2]), DOM))
        # built from a twin, so that the reference leaves sys_in's criterion unbuilt
        reference = integrate_singular(SystemDescriptor.bar_l(sys_in.A, sys_in.B, sys_in.f))
        calls = []
        build = gauge.criterion_matrix

        def counted(sys):
            calls.append(sys)
            return build(sys)

        monkeypatch.setattr(gauge, "criterion_matrix", counted)
        sol = integrate_auto(sys_in)
        assert len(calls) == 1
        assert sol.plan.procedure == "Singular"
        for name in ("grid", "positions", "velocities", "particular"):
            np.testing.assert_array_equal(getattr(sol, name), getattr(reference, name))

    def test_regular_needs_symmetries(self):
        sys_in = SystemDescriptor.bar_l(MatrixFunction.zero(2, DOM),
                                        MatrixFunction.constant(S1, DOM),
                                        VectorFunction.zero(2, DOM))
        with pytest.raises(IntegrationError, match="symmetries"):
            integrate_auto(sys_in)

    def test_inhomogeneous_homogenized(self):
        sys_in = SystemDescriptor.bar_l(
            MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM),
            VectorFunction.constant(np.array([0.2, -0.1]), DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        sol = integrate_auto(sys_in, [q1])
        assert sol.quadratures == 1 + 2  # one for T, n for the homogenization


class TestConvergenceOrder:
    def test_halving_step_reduces_residual(self):
        # a stiff enough singular system so the solver error dominates the
        # finite-difference measurement floor
        c = 6.0
        sys_in = SystemDescriptor.bar_l(MatrixFunction.zero(2, DOM),
                                        MatrixFunction.constant(c * E2, DOM),
                                        VectorFunction.zero(2, DOM))
        res = {}
        for steps in (256, 512):
            sol = integrate_singular(sys_in, grid_steps=steps)
            sys_h = homog(MatrixFunction.zero(2, DOM),
                          MatrixFunction.constant(c * E2, DOM))
            res[steps] = column_residuals(sys_h, sol)
        assert res[256] / res[512] >= 8.0


class TestInhomogeneousAuto:
    def test_particular_attached_and_residual(self):
        sys_in = SystemDescriptor.bar_l(
            MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM),
            VectorFunction.constant(np.array([0.2, -0.1]), DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        sol = integrate_auto(sys_in, [q1])
        assert sol.particular is not None
        for j in range(4):
            traj = sol.positions[:, :, j] + sol.particular
            assert residual(sys_in, traj, sol.grid) < 1e-5


class TestRichardson:
    def test_estimate_tracks_fine_solution_error(self):
        from symode.numutil import rk4, uniform_grid
        omega = 3.0

        def f(t, y):
            return np.array([y[1], -omega ** 2 * y[0]])

        fine_grid = uniform_grid(-1.0, 1.0, 256)
        y0 = np.array([1.0, 0.0])  # at t = -1
        coarse = rk4(f, y0, uniform_grid(-1.0, 1.0, 128))
        fine = rk4(f, y0, fine_grid)
        est = richardson_error(coarse, fine)
        exact = np.stack([np.cos(omega * (fine_grid + 1.0)),
                          -omega * np.sin(omega * (fine_grid + 1.0))], axis=1)
        true_fine_err = float(np.max(np.abs(fine - exact)))
        assert 0.2 * true_fine_err < est < 5.0 * true_fine_err
