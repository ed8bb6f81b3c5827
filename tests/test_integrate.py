import numpy as np
import pytest

from symode import integrate, linalg
from symode.casebook import n2_cases
from symode.gauge import SystemDescriptor, pushforward
from symode.integrate import (IntegrationError, bracket, integrate_auto,
                              integrate_one_symmetry, integrate_singular,
                              integrate_two_symmetries, residual,
                              solve_constant)
from symode.matfun import MatrixFunction, ScalarFunction, VectorFunction
from symode.numutil import uniform_grid
from symode.scalars import Field, ToleranceConfig
from symode.symalg import SymmetryVectorField, classify

from conftest import (DOM, E2, S1, S2, S3, Z2, defective_zeta_draw, generic_draw,
                      graded_draw, nonreal_zeta_draw)
from oracles import (conj_exp_transition, duhamel_particular, particular_by_rk4,
                     richardson_error, rk4_reference)


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

    @pytest.mark.parametrize("steps", [64, 1024])
    def test_stack_equals_max_of_columns(self, rng, steps):
        # exact solutions of x_tt = A x_t + B x + f, 1e-3..1e3 in size: their
        # residuals are rounding, which a stack must round as each column alone
        a = 0.5 * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        f = rng.standard_normal(3)
        sys_in = SystemDescriptor.bar_l(MatrixFunction.constant(a, DOM),
                                        MatrixFunction.constant(b, DOM),
                                        VectorFunction.constant(f, DOM))
        fundamental = solve_constant(a, b, DOM, grid_steps=steps)
        grid = fundamental.grid
        exact = (fundamental.positions * 10.0 ** np.linspace(-3, 3, 6)
                 - np.linalg.solve(b, f)[None, :, None])
        # a cubic defect of 1e-4 in every column: only the columns below
        # size 1 keep it undivided
        defect = 1e-4 * (grid ** 3)[:, None, None] * np.ones((1, 3, 6))
        for stack in (exact, exact + defect):
            columns = [residual(sys_in, stack[:, :, j], grid) for j in range(6)]
            np.testing.assert_allclose(residual(sys_in, stack, grid), max(columns),
                                       rtol=1e-14, atol=0)
        assert max(columns) > 1e-4


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

    @staticmethod
    def _scalar_u(u):
        """x_tt = u x in the complex field: singular, with U = u."""
        return homog(MatrixFunction.zero(2, DOM), MatrixFunction.constant(u * E2, DOM),
                     field=Field.COMPLEX)

    def test_nonreal_u_refused(self):
        # the reduction needs a real time map; Re U alone solves another system
        sys_in = self._scalar_u(0.5 + 0.3j)
        for solve in (integrate_singular, integrate_auto):
            with pytest.raises(IntegrationError,
                               match=r"imaginary part up to 0\.3 .*needs a real time map"):
                solve(sys_in)

    @pytest.mark.parametrize("u", [0.5, 0.5 + 1e-13j])
    def test_real_u_integrates(self, u):
        # an imaginary part at rounding level is dropped by the one cut
        sys_in = self._scalar_u(u)
        sol = integrate_auto(sys_in)
        assert sol.plan.procedure == "Singular"
        assert column_residuals(sys_in, sol) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_constant_a_takes_the_closed_route(self, n):
        # B - A_t/2 + A^2/4 = (0.5 + 0.2 t) E with a constant A; the same A
        # sampled takes the RK4 solve of M^T and gives the same columns
        rng = np.random.default_rng(n)
        a = 0.5 * rng.standard_normal((n, n))
        eye = np.eye(n)
        b = MatrixFunction.polynomial([0.5 * eye - 0.25 * a @ a, 0.2 * eye], DOM)
        sys_in = homog(MatrixFunction.constant(a, DOM), b)
        sol = integrate_singular(sys_in)
        assert "closed-form exp(-(t-t0) A/2)" in sol.plan.notes
        assert column_residuals(sys_in, sol) < 1e-8
        grid = np.linspace(*DOM, 65)
        sampled = integrate_singular(homog(
            MatrixFunction.sampled(grid, np.broadcast_to(a, (65, n, n))), b))
        assert "fundamental solve of H_t = -H A/2" in sampled.plan.notes
        np.testing.assert_allclose(sampled.positions, sol.positions, rtol=0, atol=1e-9)


STRAIGHTENING = {
    "one": lambda sys_in, q1, q2: integrate_one_symmetry(sys_in, q1),
    "two": lambda sys_in, q1, q2: integrate_two_symmetries(sys_in, q1, q2),
}


class TestStraighteningRefusals:
    """Both straightening procedures share one start and its refusals."""

    @staticmethod
    def fields(gamma1=Z2, gamma2=np.diag([1.5, -0.5])):
        return (SymmetryVectorField(tau=tau_poly([1.0]), gamma=gamma1),
                SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=gamma2))

    @pytest.mark.parametrize("procedure, wrong", [("one", 1), ("two", 1), ("two", 2)])
    def test_unverified_field_refused(self, procedure, wrong):
        sys_in = homog(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM))
        gammas = {"gamma1": Z2, "gamma2": np.diag([1.5, -0.5])}
        gammas[f"gamma{wrong}"] = S3
        with pytest.raises(IntegrationError, match=f"^symmetry {wrong} not verified"):
            STRAIGHTENING[procedure](sys_in, *self.fields(**gammas))


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
        # straightening is trivial: H^-1 = E hence T = t
        np.testing.assert_allclose(sol.plan.hinv_values[0], E2, atol=1e-9)
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

    def test_coefficients_never_evaluated_on_the_grid(self, monkeypatch):
        # the verification scale (max_norm's 65 points), the verification
        # probes and the middle node t0, where the straightened A~ and B~ are read
        from symode.symalg import PROBES
        sys_in = homog(MatrixFunction.zero(2, DOM), MatrixFunction.conj_exp(0.3, S2, S1, DOM))
        a_fun, b_fun, _ = sys_in.coefficients()
        sizes = {"A": [], "B": []}

        def record(f, t):
            if f is a_fun or f is b_fun:
                sizes["A" if f is a_fun else "B"].append(np.size(t))

        record_point_sets(monkeypatch, record)
        integrate_one_symmetry(sys_in, SymmetryVectorField(tau=tau_poly([1.0]), gamma=S2))
        assert sizes == {"A": [65, PROBES, 1], "B": [65, PROBES, 1]}

    def test_vanishing_tau_rejected(self):
        sys_in = homog(MatrixFunction.zero(2, DOM),
                       MatrixFunction.polynomial([Z2, S1], DOM))
        q = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=1.5 * S2)
        with pytest.raises(IntegrationError, match="vanishes"):
            integrate_one_symmetry(sys_in, q)


class TestStraightenedCoefficients:
    """A~ and B~ read at t0 are ``gauge.pushforward``'s there, with H(t0) = E
    and H_t, H_tt taken from tau H_t = -H eta."""

    @staticmethod
    def inputs():
        for fld in Field:
            for case in n2_cases(fld):
                if case.symmetries:
                    yield case.system, case.symmetries
            for n in range(5, 9):
                sys_in, q = TestUpToEight.one_symmetry(0, n, fld)
                yield sys_in, [q]

    def test_equal_to_the_general_pushforward(self, monkeypatch):
        calls = []
        read_at_t0 = integrate._coefficients_at_t0

        def recorded(*args):
            calls.append((args, read_at_t0(*args)))
            return calls[-1][1]

        monkeypatch.setattr(integrate, "_coefficients_at_t0", recorded)
        runs = 0
        for sys_in, fields in self.inputs():
            integrate_auto(sys_in, fields)
            runs += 1
        assert len(calls) == runs == 20
        for (a, b, tau, taut, eta, eta_t), read in calls:
            e = np.eye(len(a))
            ht = -eta / tau
            htt = (taut / tau ** 2) * eta + (eta @ eta) / tau ** 2 - eta_t / tau
            pushed = pushforward(np.array([1.0 / tau]), np.array([-taut / tau ** 2]),
                                 *(x[None] for x in (e, e, ht, htt, a, b)))
            for new, ref in zip(read, pushed):
                assert np.max(np.abs(new - ref[0])) <= 1e-12 * np.max(np.abs(ref))


class TestSampledCoefficients:
    """A and B given as samples straighten like the functions they sample."""

    @staticmethod
    def inputs(fld):
        for case in n2_cases(fld):
            if case.symmetries:
                yield case.system, case.symmetries
        for n in (3, 5):
            sys_in, q = TestUpToEight.one_symmetry(0, n, fld)
            yield sys_in, [q]

    @pytest.mark.parametrize("fld", list(Field))
    def test_resampled_rows_integrate(self, fld):
        for sys_in, fields in self.inputs(fld):
            nodes = uniform_grid(*sys_in.domain, 256)
            a_fun, b_fun, _ = sys_in.coefficients()
            sampled = homog(MatrixFunction.sampled(nodes, a_fun.evaluate(nodes)),
                            MatrixFunction.sampled(nodes, b_fun.evaluate(nodes)), field=fld)
            sol = integrate_auto(sampled, fields)
            assert column_residuals(sys_in, sol) < 1e-6


class TestTwoSymmetries:
    @staticmethod
    def case7():
        sys_in = homog(MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=np.diag([1.5, -0.5]))
        return sys_in, q1, q2

    @staticmethod
    def sampled_case7():
        sys_in, q1, q2 = TestTwoSymmetries.case7()
        grid = np.linspace(DOM[0], DOM[1], 1025)
        s1, s2 = (SymmetryVectorField(tau=ScalarFunction.sampled(grid, q.tau.evaluate(grid)),
                                      gamma=q.gamma) for q in (q1, q2))
        return sys_in, s1, s2

    @staticmethod
    def constant_pair():
        # A = 0, B = S1: t-shift plus a genuine dilation-type symmetry
        sys_in = homog(MatrixFunction.constant(Z2, DOM),
                       MatrixFunction.constant(S1, DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=np.diag([1.5, -0.5]))
        return sys_in, q1, q2

    @staticmethod
    def n3_jordan():
        j3 = np.zeros((3, 3))
        j3[0, 1] = 1.0
        sys_in = homog(MatrixFunction.zero(3, DOM), MatrixFunction.constant(j3, DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=np.zeros((3, 3)))
        lam = np.diag([2.0, 0.0, 1.0])
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]),
                                 gamma=lam - np.trace(lam) / 3 * np.eye(3))
        return sys_in, q1, q2

    @staticmethod
    def defective(seed):
        # zeta has two 2x2 Jordan blocks in a random basis
        v, gamma = defective_zeta_draw(seed)
        sys_in = homog(MatrixFunction.zero(4, DOM), MatrixFunction.constant(v, DOM))
        q1 = SymmetryVectorField(tau=tau_poly([1.0]), gamma=np.zeros((4, 4)))
        q2 = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=gamma)
        return sys_in, q1, q2

    @staticmethod
    def inputs():
        yield from (TestTwoSymmetries.case7(), TestTwoSymmetries.sampled_case7(),
                    TestTwoSymmetries.constant_pair(), TestTwoSymmetries.n3_jordan())
        for seed in range(20):
            yield TestTwoSymmetries.defective(seed)

    def test_hinv_is_e_at_t0(self):
        # the pair straightens by X like one field, from H^-1(t0) = E
        for sys_in, q1, q2 in self.inputs():
            sol = integrate_two_symmetries(sys_in, q1, q2)
            hinv0 = sol.plan.hinv_values[len(sol.grid) // 2]
            assert np.max(np.abs(hinv0 - np.eye(sys_in.n))) <= 1e-14

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
        _, s1, s2 = self.sampled_case7()
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
        sys_in, q1, q2 = self.constant_pair()
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
        sys_in, q1, q2 = self.n3_jordan()
        sol = integrate_two_symmetries(sys_in, q1, q2)
        assert column_residuals(sys_in, sol) < 1e-6
        assert sol.quadratures <= sol.plan.quadrature_bound == 3

    @pytest.mark.parametrize("seed", range(20))
    def test_defective_zeta(self, seed):
        sys_in, q1, q2 = self.defective(seed)
        sol = integrate_auto(sys_in, [q1, q2])
        assert sol.plan.procedure == "TwoSymmetry"
        assert sol.plan.block_sizes == [2, 2]
        assert sol.quadratures == sol.plan.quadrature_bound == 4
        assert column_residuals(sys_in, sol) < 1e-6


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
        assert sol.quadratures == 1 + 2  # one for T, n for the particular


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


class TestUpToEight:
    """Symmetry integration at n = 5..8, where the companion exponential is
    2n x 2n: only the system's size is capped at 8."""

    @staticmethod
    def one_symmetry(seed, n, fld, a=1.0):
        """generic_draw's V = e^{tY} W e^{-tY} under t -> a t, which scales the
        draw to (aY, a^2 W), with its field tau = 1, Gamma = aY."""
        y, w = generic_draw(seed, n, fld is Field.COMPLEX)
        y, w = a * y, a * a * w
        sys_in = homog(MatrixFunction.zero(n, DOM), MatrixFunction.conj_exp(0.0, y, w, DOM),
                       field=fld)
        return sys_in, SymmetryVectorField(tau=tau_poly([1.0]), gamma=y)

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("n", range(5, 9))
    def test_one_symmetry_generic(self, n, fld):
        for seed in range(3):
            sys_in, q = self.one_symmetry(seed, n, fld)
            sol = integrate_auto(sys_in, [q])
            assert sol.plan.procedure == "OneSymmetry"
            assert column_residuals(sys_in, sol) < 1e-5

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("n", range(5, 9))
    def test_one_symmetry_fourth_order(self, n, fld):
        # 1024 steps would reach the finite-difference floor of ``residual``
        sys_in, q = self.one_symmetry(0, n, fld)
        res = {steps: column_residuals(sys_in, integrate_auto(sys_in, [q], grid_steps=steps))
               for steps in (256, 512)}
        assert res[256] / res[512] >= 8.0

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("n", range(5, 9))
    def test_scaled_draws_match_the_constant_system(self, n, fld):
        # the state [X; X_t] at both ends of the domain against the transition
        # of the constant system that x = e^{t aY} y gives, from the same state
        # at t0; straightening through H and its inverse refused most of these
        # draws at a >= 4
        for a in (2.0, 4.0, 6.0, 8.0):
            sys_in, q = self.one_symmetry(0, n, fld, a)
            sol = integrate_auto(sys_in, [q])
            i0 = len(sol.grid) // 2
            for i in (0, len(sol.grid) - 1):
                ref = (conj_exp_transition(q.gamma, sys_in.B.w, sol.grid[i], sol.grid[i0])
                       @ sol.state_matrix(i0))
                assert np.linalg.norm(sol.state_matrix(i) - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("n", range(5, 9))
    def test_closed_and_rk4_routes_agree(self, n, fld):
        # tau = 1 as a degree-0 polynomial gives H^-1 = exp((t - t0) Gamma); the
        # same tau sampled gives the RK4 solve, so the positions of the two
        # routes differ by RK4's fourth-order error alone
        sys_in, q = self.one_symmetry(0, n, fld)
        nodes = uniform_grid(*DOM, 64)
        sampled = SymmetryVectorField(tau=ScalarFunction.sampled(nodes, np.ones(len(nodes))),
                                      gamma=q.gamma)

        def gap(steps):
            closed, solved = (integrate_auto(sys_in, [f], grid_steps=steps)
                              for f in (q, sampled))
            assert closed.plan.notes[0] == "closed-form H^-1 = exp((t-t0) eta/tau)"
            assert solved.plan.notes[0] == "fundamental solve of (H^-1)_t = (eta/tau) H^-1"
            return (np.max(np.abs(closed.positions - solved.positions))
                    / np.max(np.abs(closed.positions)))

        assert gap(1024) <= 1e-9
        assert 14.0 <= gap(256) / gap(512) <= 18.0

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("n", range(5, 9))
    @pytest.mark.parametrize("shape", ["J_n", "E12+E34+.."])
    def test_two_symmetries_on_constant_nilpotent(self, shape, n, fld):
        # V = C N C^-1 with N one full Jordan block or n // 2 blocks of size 2
        # (and a zero), integrated with the two fields that classify returns
        rng = np.random.default_rng(n)
        c = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
        nil = np.diag(np.ones(n - 1) if shape == "J_n" else np.arange(1, n) % 2, 1)
        sys_in = homog(MatrixFunction.zero(n, DOM),
                       MatrixFunction.constant(c @ nil @ np.linalg.inv(c), DOM), field=fld)
        report = classify(sys_in)
        assert report.k == 2
        fields = [SymmetryVectorField(tau=tau, gamma=gamma)
                  for tau, gamma in report.essential.t_part]
        sol = integrate_auto(sys_in, fields)
        assert sol.plan.procedure == "TwoSymmetry"
        assert column_residuals(sys_in, sol) < 1e-8

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("n", range(5, 9))
    def test_solve_constant(self, n, fld):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, n, n))
        if fld is Field.COMPLEX:
            a, b = a + 1j * rng.standard_normal((n, n)), b + 1j * rng.standard_normal((n, n))
        sol = solve_constant(a, b, DOM)
        sys_in = homog(MatrixFunction.constant(a, DOM), MatrixFunction.constant(b, DOM),
                       field=fld)
        assert column_residuals(sys_in, sol) < 1e-6


@pytest.mark.parametrize("fld", list(Field))
@pytest.mark.parametrize("n", [3, 6])
def test_graded_draw_with_both_classified_fields_is_refused(n, fld):
    # a known refusal, kept visible: the two fields classify returns for a
    # graded draw do not block-split, while tau = 1, Gamma = Y alone integrates it
    y, w = graded_draw(0, n)
    sys_in = homog(MatrixFunction.zero(n, DOM), MatrixFunction.conj_exp(0.0, y, w, DOM),
                   field=fld)
    fields = [SymmetryVectorField(tau=tau, gamma=gamma)
              for tau, gamma in classify(sys_in).essential.t_part]
    assert len(fields) == 2
    with pytest.raises(IntegrationError, match="not block-diagonal along the eigenspaces"):
        integrate_auto(sys_in, fields)
    sol = integrate_auto(sys_in, [SymmetryVectorField(tau=tau_poly([1.0]), gamma=y)])
    assert column_residuals(sys_in, sol) < 1e-8


class TestInhomogeneousAuto:
    """A straightening adds the particular solution of a forced system by
    variation of parameters: n quadratures anchored at the middle node t0."""

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

    @pytest.mark.parametrize("procedure", sorted(STRAIGHTENING))
    def test_forced_input_through_both_procedures(self, procedure):
        sys_in = SystemDescriptor.bar_l(
            MatrixFunction.zero(2, DOM), MatrixFunction.constant(S1, DOM),
            VectorFunction.constant(np.array([0.2, -0.1]), DOM))
        fields = TestStraighteningRefusals.fields()
        base = STRAIGHTENING[procedure](homog(sys_in.A, sys_in.B), *fields).quadratures
        sol = STRAIGHTENING[procedure](sys_in, *fields)
        assert sol.quadratures == base + 2
        assert residual(sys_in, sol.positions + sol.particular[:, :, None], sol.grid) < 1e-5

    @pytest.mark.parametrize("fld", list(Field))
    def test_casebook_rows_match_the_rk4_particular(self, fld):
        # the same particular, zero data at t0, by RK4 on the companion system;
        # real data makes it in float64 in either field, so it is cast exactly
        rows = [c.label for c in n2_cases(fld) if c.symmetries]
        for label in rows:
            sys_in, syms = _casebook_row(label, True, fld=fld)
            sol = integrate_auto(sys_in, syms)
            i0 = len(sol.grid) // 2
            assert np.all(sol.particular[i0] == 0.0), label
            assert np.all(np.imag(sol.particular) == 0.0), label
            ref = particular_by_rk4(sys_in, 1024, i0)
            assert _relative_gap(sol.particular, ref) <= 1e-9, label
        assert {"3", "7"} <= set(rows)

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_scaled_draws_match_the_duhamel_integral(self, n, fld):
        # TestUpToEight's draws under t -> a t with a degree-1 f, against the
        # exact particular with zero data at t0; the bound at a = 4 leaves n = 8
        # out (its particular reads 2.7e-7 in the complex field)
        rng = np.random.default_rng(n)
        f_coeffs = rng.standard_normal((2, n))
        for a, bound in ((1.0, 1e-9), (2.0, 1e-9), (4.0, 1e-7)):
            if a == 4.0 and n == 8:
                continue
            sys_h, q = TestUpToEight.one_symmetry(0, n, fld, a)
            sys_in = SystemDescriptor.bar_l(sys_h.A, sys_h.B,
                                            VectorFunction.polynomial(f_coeffs, DOM), field=fld)
            sol = integrate_auto(sys_in, [q])
            i0 = len(sol.grid) // 2
            for i in (0, 256, 768, 1024):  # t = -1, -0.5, 0.5, 1
                ref = duhamel_particular(q.gamma, sys_h.B.w, f_coeffs, sol.grid[i],
                                         sol.grid[i0])
                gap = np.linalg.norm(sol.particular[i] - ref) / np.linalg.norm(ref)
                assert gap <= bound, (a, i, gap)


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


def _stored_complex(fun):
    """The same function with its data stored as complex128."""
    cast = (MatrixFunction if fun.ndim == 2 else VectorFunction)
    if fun.kind == "conj_exp":
        return cast.conj_exp(complex(fun.epsilon), fun.upsilon.astype(complex),
                             fun.w.astype(complex), fun.domain)
    return cast.polynomial(fun.coeffs.astype(complex), fun.domain)


def _casebook_row(label, forced, stored_complex=False, fld=Field.COMPLEX):
    """Casebook row ``label`` of the field, as x_tt = V x or, forced, as
    x_tt = V x + f; every coefficient and Gamma stored as complex128 when
    stored_complex is set."""
    case = next(c for c in n2_cases(fld) if c.label == label)
    v, syms = case.system.V, case.symmetries
    f = VectorFunction.polynomial([np.array([0.3, -0.2]), np.array([0.1, 0.4])], DOM)
    zero = MatrixFunction.zero(2, DOM)
    if stored_complex:
        v, f, zero = _stored_complex(v), _stored_complex(f), _stored_complex(zero)
        syms = [SymmetryVectorField(tau=q.tau, gamma=np.asarray(q.gamma, dtype=complex))
                for q in syms]
    sys_in = (SystemDescriptor.bar_l(zero, v, f, field=fld) if forced
              else SystemDescriptor.lprime(v, field=fld))
    return sys_in, syms


def _singular_system(fld, stored_complex=False):
    """x_tt = A x_t + B x + f in the singular class with a degree-1 A (the RK4
    route of the A-gauge): B = u E + A_t / 2 - A^2 / 4."""
    a0 = np.array([[0.2, 0.1], [-0.3, 0.1]])
    a1 = 0.5 * a0.T
    b = [0.6 * E2 + 0.5 * a1 - 0.25 * a0 @ a0, 0.1 * E2 - 0.25 * (a0 @ a1 + a1 @ a0),
         -0.25 * a1 @ a1]
    funs = [MatrixFunction.polynomial([a0, a1], DOM), MatrixFunction.polynomial(b, DOM),
            VectorFunction.polynomial([np.array([0.3, -0.2]), np.array([0.1, 0.4])], DOM)]
    if stored_complex:
        funs = [_stored_complex(fun) for fun in funs]
    return SystemDescriptor.bar_l(*funs, field=fld)


def _transition(sol):
    """The state transition Z(t) Z(t_mid)^-1 of a solution set, free of the
    basis its columns are written in."""
    z = np.concatenate([sol.positions, sol.velocities], axis=1)
    return z @ np.linalg.inv(z[len(z) // 2])


def _relative_gap(x, y):
    return float(np.max(np.abs(x - y)) / np.max(np.abs(y)))


class TestArithmeticFollowsTheData:
    """The field sets the dtype of the results; the coefficients and the
    symmetry data set the arithmetic of every solve."""

    @pytest.mark.parametrize("fld", list(Field))
    @pytest.mark.parametrize("procedure", ["singular", "one", "two"])
    @pytest.mark.parametrize("forced", [False, True])
    def test_results_in_the_fields_dtype(self, fld, procedure, forced):
        if procedure == "singular":
            sys_in, syms = _singular_system(fld), []
            if not forced:
                sys_in = homog(sys_in.A, sys_in.B, field=fld)
        else:
            case = next(c for c in n2_cases(fld) if c.label == ("3" if procedure == "one"
                                                                 else "7"))
            syms = case.symmetries
            sys_in = case.system
            if forced:
                sys_in = SystemDescriptor.bar_l(
                    MatrixFunction.zero(2, DOM), case.system.V,
                    VectorFunction.constant(np.array([0.2, -0.1]), DOM), field=fld)
        sol = integrate_auto(sys_in, syms)
        assert sol.plan.procedure == {"singular": "Singular", "one": "OneSymmetry",
                                      "two": "TwoSymmetry"}[procedure]
        assert (sol.particular is not None) is forced
        for x in (sol.positions, sol.velocities, sol.particular):
            assert x is None or x.dtype == fld.dtype

    @pytest.mark.parametrize("fld", list(Field))
    def test_direct_procedures_in_the_fields_dtype(self, fld):
        cases = {c.label: c for c in n2_cases(fld)}
        sing = _singular_system(fld)
        sols = [integrate_singular(homog(sing.A, sing.B, field=fld)),
                integrate_one_symmetry(cases["3"].system, cases["3"].symmetries[0]),
                integrate_two_symmetries(cases["7"].system, *cases["7"].symmetries)]
        for sol in sols:
            assert sol.positions.dtype == sol.velocities.dtype == fld.dtype
            assert sol.particular is None

    @pytest.mark.parametrize("label, forced", [("3", False), ("4", False), ("7", False),
                                               ("3", True), ("7", True)])
    def test_real_and_complex_storage_agree(self, label, forced):
        # a complex-field row given real data, and the same row with its
        # coefficients and Gamma stored as complex128
        real = integrate_auto(*_casebook_row(label, forced))
        cplx = integrate_auto(*_casebook_row(label, forced, stored_complex=True))
        assert real.plan.hinv_values.dtype == np.float64
        np.testing.assert_array_equal(real.grid, cplx.grid)
        assert _relative_gap(_transition(real), _transition(cplx)) <= 1e-12
        if forced:
            assert _relative_gap(real.particular, cplx.particular) <= 1e-12

    @pytest.mark.parametrize("forced", [False, True])
    def test_bracket_closure_stays_real(self, forced, monkeypatch):
        # real row 7: the bracket, the closure's least squares and the
        # recombination coefficients stay real; the same row stored as
        # complex128 runs all of them in complex arithmetic
        seen = []
        partner = integrate.bracket_normal_partner
        monkeypatch.setattr(integrate, "bracket_normal_partner",
                            lambda a, b: seen.append((a, b)) or partner(a, b))
        sys_in, syms = _casebook_row("7", forced, fld=Field.REAL)
        q3 = bracket(*syms, 2, DOM)
        assert q3.tau.coeffs.dtype == q3.eta_function(2, DOM).coeffs.dtype == np.float64
        real = integrate_auto(sys_in, syms)
        assert len(seen) == 1 and all(type(x) is float for x in seen[0])
        cplx = integrate_auto(*_casebook_row("7", forced, stored_complex=True))
        assert real.positions.dtype == np.float64
        assert _relative_gap(_transition(real), _transition(cplx)) <= 1e-12
        if forced:
            assert _relative_gap(real.particular, cplx.particular) <= 1e-12

    def test_singular_real_and_complex_storage_agree(self):
        real = integrate_auto(_singular_system(Field.COMPLEX))
        cplx = integrate_auto(_singular_system(Field.COMPLEX, stored_complex=True))
        assert real.plan.hinv_values.dtype == np.float64
        assert _relative_gap(real.positions, cplx.positions) <= 1e-12
        assert _relative_gap(real.velocities, cplx.velocities) <= 1e-12
        assert _relative_gap(real.particular, cplx.particular) <= 1e-12

    @pytest.mark.parametrize("fld", list(Field))
    def test_casebook_rows_solve_in_real_arithmetic(self, fld):
        # a guard with no timing: real rows of either field keep H, the
        # modal matrix and Lam real, so the solves ran in float64
        rows = [c for c in n2_cases(fld) if c.symmetries]
        assert len(rows) == (7 if fld is Field.REAL else 5)
        for case in rows:
            plan = integrate_auto(case.system, case.symmetries).plan
            assert plan.hinv_values.dtype == np.float64, case.label
            if plan.procedure == "TwoSymmetry":
                assert plan.modal.dtype == plan.lam.dtype == np.float64, case.label

    @pytest.mark.parametrize("fld", list(Field))
    def test_nonreal_spectrum_of_zeta(self, fld):
        # zeta = Gamma + E/2 has eigenvalues -1/2 +- i and 3/2 +- i, so the
        # modal matrix is complex; it is reported, not multiplied into H^-1,
        # so the real data straightens in float64 and either field returns
        # that real solve, cast once
        v, gamma = nonreal_zeta_draw()
        sys_in = homog(MatrixFunction.zero(4, DOM), MatrixFunction.constant(v, DOM),
                       field=fld)
        sol = integrate_two_symmetries(
            sys_in, SymmetryVectorField(tau=tau_poly([1.0]), gamma=np.zeros((4, 4))),
            SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=gamma))
        assert sol.plan.modal.dtype == np.complex128
        assert sol.plan.hinv_values.dtype == np.float64
        assert sol.positions.dtype == sol.velocities.dtype == fld.dtype
        assert np.max(np.abs(np.imag(sol.positions))) == 0.0
        assert column_residuals(sys_in, sol) < 1e-8
        assert abs(np.linalg.det(sol.state_matrix(len(sol.grid) // 2))) > 0.5

    @pytest.mark.parametrize("label, count, c", [("3", 1, 1j), ("3", 1, np.exp(0.3j)),
                                                 ("7", 1, 1j), ("7", 2, np.exp(0.3j))])
    def test_complex_multiples_of_a_field_integrate(self, label, count, c):
        # c Q is a symmetry whenever Q is; divided by the phase of tau(t0) it
        # straightens like Q, through one field or through the pair
        case = next(x for x in n2_cases(Field.COMPLEX) if x.label == label)
        fields = case.symmetries[:count]
        scaled = [SymmetryVectorField(tau=tau_poly(c * q.tau.coeffs), gamma=c * q.gamma)
                  for q in fields]
        ref = column_residuals(case.system, integrate_auto(case.system, fields))
        sol = integrate_auto(case.system, scaled)
        assert sol.plan.procedure == ("OneSymmetry" if count == 1 else "TwoSymmetry")
        assert column_residuals(case.system, sol) <= max(10.0 * ref, 1e-9)

    def test_nonreal_time_map_refused(self):
        # tau = 1 + i t with Gamma1 + i Gamma2 from row 7's two fields is a
        # symmetry, but tau / tau(t0) is not real
        case = next(x for x in n2_cases(Field.COMPLEX) if x.label == "7")
        q1, q2 = case.symmetries
        q = SymmetryVectorField(tau=tau_poly([1.0, 1j]), gamma=q1.gamma + 1j * q2.gamma)
        with pytest.raises(IntegrationError, match="straightening needs a real time map"):
            integrate_auto(case.system, [q])

    def test_complex_data_under_the_real_field_refused(self):
        # V = e^{t S1} W e^{-t S1} has the field tau = 1, Gamma = S1 for any W;
        # a nonreal W tagged real cannot give real solutions
        v = MatrixFunction.conj_exp(0.0, S1, (1.0 + 1.0j) * S3, DOM)
        q = SymmetryVectorField(tau=tau_poly([1.0]), gamma=S1)
        sol = integrate_auto(SystemDescriptor.lprime(v, field=Field.COMPLEX), [q])
        assert column_residuals(SystemDescriptor.lprime(v, field=Field.COMPLEX), sol) < 1e-8
        with pytest.raises(IntegrationError, match="real-field system have imaginary parts"):
            integrate_auto(SystemDescriptor.lprime(v, field=Field.REAL), [q])
