import numpy as np
import pytest

from symode import casebook
from symode.gauge import (EquivalenceTransform, SystemDescriptor,
                          apply_equivalence)
from symode.matfun import MatrixFunction, ScalarFunction
from symode.scalars import Field
from symode.symalg import (ClassificationError, SymmetryVectorField, classify,
                           classify_structured, solve_symmetries_sampled,
                           solve_symmetries_traceless_poly, verify_symmetry)

from conftest import (DOM, E2, S1, S2, S3, Z2, graded_draw, graded_polynomial,
                      random_traceless)
from oracles import solve_symmetries_poly_coefficients, symmetry_dims_least_squares


def tau_poly(coeffs, domain=DOM):
    return ScalarFunction.polynomial(coeffs, domain)


def tau_bracket(tau_p, tau_d):
    """The t^0..t^2 coefficients of the tau part of [P, D] for quadratic taus."""
    c_p = np.array([complex(c) for c in tau_p.coeffs] + [0, 0])[:3]
    c_d = np.array([complex(c) for c in tau_d.coeffs] + [0, 0])[:3]
    w = np.zeros(3, dtype=complex)
    w[0] = c_p[0] * c_d[1] - c_d[0] * c_p[1]
    w[1] = 2 * (c_p[0] * c_d[2] - c_d[0] * c_p[2])
    w[2] = c_p[1] * c_d[2] - c_d[1] * c_p[2]
    return c_p, w


def structured_k2(source):
    """Essential algebras of casebook case 7 ("case7"), or of the 20
    ``graded_draw`` seeds at n ("graded-n<n>"), through the structured route."""
    if source == "case7":
        case = next(c for c in casebook.n2_cases() if c.label == "7")
        return [classify(case.system).essential]
    n = int(source[len("graded-n"):])
    return [classify_structured(0.0, *graded_draw(seed, n), domain=DOM) for seed in range(20)]


class TestVerifySymmetry:
    def test_scaling_field_always_symmetric(self, rng):
        v = MatrixFunction.polynomial([rng.standard_normal((2, 2)) for _ in range(3)],
                                      DOM)
        q = SymmetryVectorField(tau=tau_poly([0.0]), gamma=E2)
        assert verify_symmetry(v, q) < 1e-12

    def test_case7_dilation(self):
        v = MatrixFunction.constant(S1, DOM)
        q = SymmetryVectorField(tau=tau_poly([0.0, 1.0]), gamma=np.diag([1.5, -0.5]))
        assert verify_symmetry(v, q) < 1e-12

    def test_time_shift_of_constant(self):
        v = MatrixFunction.constant(S1, DOM)
        q = SymmetryVectorField(tau=tau_poly([1.0]), gamma=Z2)
        assert verify_symmetry(v, q) < 1e-12

    def test_quadratic_tau_fails_on_case7(self):
        v = MatrixFunction.constant(S1, DOM)
        q = SymmetryVectorField(tau=tau_poly([0.0, 0.0, 1.0]), gamma=Z2)
        assert verify_symmetry(v, q) > 0.1


class TestPolySolver:
    def test_case7(self):
        ess = solve_symmetries_traceless_poly(MatrixFunction.constant(S1, DOM))
        assert (ess.k, ess.dim_s, ess.dim_ess) == (2, 1, 4)
        g = ess.s_basis.mats[0]
        np.testing.assert_allclose(g, g[0, 1] * S1, atol=1e-9)

    def test_constant_s2(self):
        ess = solve_symmetries_traceless_poly(MatrixFunction.constant(S2, DOM))
        assert (ess.k, ess.dim_s, ess.dim_ess) == (1, 1, 3)

    def test_v_t_times_s1(self):
        ess = solve_symmetries_traceless_poly(
            MatrixFunction.polynomial([Z2, S1], DOM))
        assert (ess.k, ess.dim_s, ess.dim_ess) == (1, 1, 3)
        tau, gamma = ess.t_part[0]
        coeffs = np.array([complex(c) for c in tau.coeffs])
        # tau proportional to t, Gamma = (3/2) S2 modulo the ideal
        assert abs(coeffs[0]) < 1e-9
        scale = coeffs[1]
        np.testing.assert_allclose(gamma / scale, 1.5 * S2, atol=1e-8)

    def test_oracle_agreement_at_probes(self):
        cases = [
            MatrixFunction.polynomial([S1, S2, Z2, S3], DOM),
            MatrixFunction.polynomial([Z2, S1], DOM),
            MatrixFunction.constant(S2, DOM),
            MatrixFunction.polynomial([S1 + S3, 2.0 * (S1 + S3)], DOM),
        ]
        for v in cases:
            ess = solve_symmetries_traceless_poly(v)
            dv = v.derivative()
            k, dim_s = symmetry_dims_least_squares(
                v.evaluate, dv.evaluate, 2, np.linspace(-1, 1, 64))
            assert (ess.k, ess.dim_s) == (k, dim_s)

    def test_singular_rejected(self):
        with pytest.raises(ClassificationError, match="singular"):
            solve_symmetries_traceless_poly(MatrixFunction.zero(2, DOM))

    def test_s_commutes_with_v_at_probes(self, cfg):
        for v in (MatrixFunction.polynomial([Z2, S1], DOM),
                  MatrixFunction.constant(S2, DOM),
                  MatrixFunction.polynomial(
                      [c * S1 for c in (1.0, 1.0, 0.0, 1.0)], DOM)):
            ess = solve_symmetries_traceless_poly(v, cfg)
            for g in ess.s_basis.mats:
                for t in np.linspace(-1, 1, 16):
                    vt = v.evaluate(t)
                    assert np.linalg.norm(g @ vt - vt @ g) < cfg.residual_tol

    def test_k2_bracket_normal_form(self, cfg):
        ess = solve_symmetries_traceless_poly(MatrixFunction.constant(S1, DOM))
        (tau_p, g_p), (tau_d, g_d) = ess.t_part
        # [P, D] = P on the (tau, Gamma) data
        c_p, w = tau_bracket(tau_p, tau_d)
        np.testing.assert_allclose(w, c_p, atol=1e-8)
        comm = g_d @ g_p - g_p @ g_d
        np.testing.assert_allclose(comm, g_p, atol=1e-8)

    @pytest.mark.parametrize("source", ["case7"] + [f"graded-n{n}" for n in range(3, 9)])
    def test_k2_bracket_normal_form_structured(self, source):
        # the structured route's second t-field goes through the same
        # normalization: [P, D] = P on tau, and [D, P] - P in s on Gamma.  The
        # hat split of P rounds at the condition of D's eigenbasis (2.3e-7
        # relative at n = 7, seed 13), so membership takes the relative 1e-6
        # of the classifying-condition check
        for i, ess in enumerate(structured_k2(source)):
            assert ess.k == 2, i
            (tau_p, g_p), (tau_d, g_d) = ess.t_part
            c_p, w = tau_bracket(tau_p, tau_d)
            np.testing.assert_allclose(w, c_p, atol=1e-8)
            assert ess.s_basis.contains(g_d @ g_p - g_p @ g_d - g_p, tol=1e-6), i

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("cplx", [False, True])
    def test_matches_coefficient_matching(self, n, cplx, cfg):
        # the pointwise rows at d + 2 probes against the coefficient rows of
        # ``oracles._solver_rows_poly``, on degrees 0..4, on domains an affine
        # copy maps [-1, 1] to, with the trace filter at deg u > deg V
        rng = np.random.default_rng([n, int(cplx)])
        fld = Field.COMPLEX if cplx else Field.REAL
        for degree in range(5):
            a, b = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
            dom = (b - a, b + a)
            w = random_traceless(rng, n, cplx)
            c = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
            graded = [c @ np.diag(rng.standard_normal(n - 2 - l), 2 + l) @ np.linalg.inv(c)
                      for l in range(min(degree, n - 3) + 1)] if n > 2 else None
            u = rng.standard_normal(degree + 2) if degree else None
            draws = {
                "generic": ([random_traceless(rng, n, cplx) for _ in range(degree + 1)], None),
                "profile": ([p * w for p in rng.standard_normal(degree + 1)], None),
                "graded": (graded, None),
                "trace": ([random_traceless(rng, n, cplx) for _ in range(degree)] or [w], u),
            }
            for name, (coeffs, trace) in draws.items():
                if coeffs is None:
                    continue
                v = MatrixFunction.polynomial(coeffs, dom)
                got = solve_symmetries_traceless_poly(v, cfg, fld, trace_part=trace)
                want = solve_symmetries_poly_coefficients(v, cfg, fld, trace_part=trace)
                assert (got.k, got.dim_s) == (want.k, want.dim_s), (degree, name)


class TestSampledSolver:
    def test_matches_exact_on_case7(self):
        grid = np.linspace(-1, 1, 257)
        v = MatrixFunction.sampled(grid, np.broadcast_to(S1, (257, 2, 2)).copy())
        ess = solve_symmetries_sampled(v)
        assert (ess.k, ess.dim_s) == (2, 1)

    def test_generic_cubic_trivial(self):
        rng = np.random.default_rng(3)
        grid = np.linspace(-1, 1, 257)
        vals = sum(np.polyval(rng.standard_normal(4), grid)[:, None, None] * m
                   for m in (S1, S2, S3))
        ess = solve_symmetries_sampled(MatrixFunction.sampled(grid, vals))
        assert (ess.k, ess.dim_s, ess.dim_ess) == (0, 0, 1)

    def test_scalar_profile_s2(self):
        grid = np.linspace(-1, 1, 257)
        v = (1 + grid + grid ** 3)[:, None, None] * S2
        ess = solve_symmetries_sampled(MatrixFunction.sampled(grid, v))
        assert (ess.k, ess.dim_s, ess.dim_ess) == (0, 1, 2)

    def test_grid_too_coarse(self):
        grid = np.linspace(-1, 1, 8)
        v = MatrixFunction.sampled(grid, np.broadcast_to(S1, (8, 2, 2)).copy())
        with pytest.raises(ClassificationError, match="32"):
            solve_symmetries_sampled(v)

    @pytest.mark.parametrize("coeffs", [
        [S1], [S2], [Z2, S1], [S1, S2, Z2, S3],
    ])
    def test_exact_vs_sampled_agreement(self, coeffs):
        v_poly = MatrixFunction.polynomial(coeffs, DOM)
        grid = np.linspace(-1, 1, 257)
        v_samp = MatrixFunction.sampled(grid, v_poly.evaluate(grid))
        e1 = solve_symmetries_traceless_poly(v_poly)
        e2 = solve_symmetries_sampled(v_samp)
        assert (e1.k, e1.dim_s) == (e2.k, e2.dim_s)


class TestRoutesAgreeHigherN:
    @pytest.mark.parametrize("n", range(5, 9))
    def test_polynomial_and_sampled_routes_agree(self, n):
        grid = np.linspace(-1, 1, 257)
        for seed in range(10):
            rng = np.random.default_rng([seed, n])
            s = random_traceless(rng, n)
            draws = {
                "generic": MatrixFunction.polynomial(
                    [random_traceless(rng, n) for _ in range(3)], DOM),
                "profile": MatrixFunction.polynomial([s, s, 0.0 * s, s], DOM),
                "graded": graded_polynomial(*graded_draw(seed, n)),
            }
            for name, v in draws.items():
                exact = solve_symmetries_traceless_poly(v)
                sampled = solve_symmetries_sampled(MatrixFunction.sampled(grid, v.evaluate(grid)))
                assert (exact.k, exact.dim_s) == (sampled.k, sampled.dim_s), (name, seed)


class TestStructured:
    def test_case6(self):
        ess = classify_structured(0.5, Z2, S2, fld=Field.COMPLEX)
        assert (ess.k, ess.dim_s, ess.dim_ess) == (1, 1, 3)
        assert not ess.improper_shift_flag

    def test_case7_lambda(self):
        ess = classify_structured(0.0, Z2, S1, fld=Field.COMPLEX)
        assert (ess.k, ess.dim_s, ess.dim_ess) == (2, 1, 4)

    def test_case4_two_k(self):
        ess = classify_structured(0.3, S2, S1 + S3, fld=Field.COMPLEX)
        assert (ess.k, ess.dim_s, ess.dim_ess) == (1, 0, 2)

    def test_improper_shift_flag(self):
        ess = classify_structured(0.25, S2, S1, fld=Field.COMPLEX)
        assert ess.k == 2
        assert ess.improper_shift_flag

    def test_case5_stays_k1_off_boundary(self):
        ess = classify_structured(1.0, S2, S1, fld=Field.COMPLEX)  # 4 eps != gamma^2
        assert (ess.k, ess.improper_shift_flag) == (1, False)

    def test_singular_rejected(self):
        with pytest.raises(ClassificationError, match="singular"):
            classify_structured(0.5, S2, 0.3 * E2, fld=Field.COMPLEX)

    def test_s_commutes_with_v(self, cfg):
        ess = classify_structured(0.0, S2, S1, fld=Field.COMPLEX)
        v = MatrixFunction.conj_exp(0.0, S2, S1, DOM)
        for g in ess.s_basis.mats:
            for t in np.linspace(-1, 1, 16):
                vt = v.evaluate(t)
                assert np.linalg.norm(g @ vt - vt @ g) < cfg.residual_tol


class TestClassifyDispatcher:
    def test_elementary_singular(self):
        rep = classify(SystemDescriptor.lprime(MatrixFunction.zero(2, DOM),
                                               field=Field.COMPLEX))
        assert rep.singular and rep.dim_total == 15

    def test_j_attains_bound_n3(self):
        j = np.zeros((3, 3))
        j[0, 1] = 1.0
        rep = classify(SystemDescriptor.lprime(MatrixFunction.constant(j, DOM),
                                               field=Field.COMPLEX))
        assert (rep.dim_total, rep.dim_ess) == (13, 7)

    def test_generic_lower_bound(self):
        rep = classify(SystemDescriptor.lprime(
            MatrixFunction.polynomial([S1, S2, Z2, S3], DOM), field=Field.COMPLEX))
        assert rep.dim_total == 5

    def test_barl_chain_to_structured(self):
        sys_in = SystemDescriptor.bar_l(
            MatrixFunction.constant(-2 * S2, DOM), MatrixFunction.constant(S1, DOM),
            __import__("symode.matfun", fromlist=["VectorFunction"])
            .VectorFunction.zero(2, DOM), field=Field.COMPLEX)
        rep = classify(sys_in)
        assert rep.case_label == "5"
        assert (rep.k, rep.dim_ess) == (1, 3)

    def test_kernel_field_always_verified(self, cfg, rng):
        for _ in range(5):
            v = MatrixFunction.polynomial(
                [random_traceless(rng, 2) for _ in range(3)], DOM)
            q = SymmetryVectorField(tau=tau_poly([0.0]), gamma=E2)
            assert verify_symmetry(v, q) < 1e-12


class TestCaseLabels:
    def test_real_vs_complex_relabeling(self):
        v = MatrixFunction.conj_exp(0.0, Z2, S1 + S3, DOM)
        rep_r = classify(SystemDescriptor.lprime(v, field=Field.REAL))
        rep_c = classify(SystemDescriptor.lprime(v, field=Field.COMPLEX))
        assert rep_r.case_label == "5R"
        assert rep_c.case_label == "6"

    def test_rotation_profile_real(self):
        coeffs = [(1.0 + 0.1 * j) * (S1 + S3) for j in range(2)]
        coeffs = [1.0 * (S1 + S3), 1.0 * (S1 + S3), Z2, 1.0 * (S1 + S3)]
        rep = classify(SystemDescriptor.lprime(
            MatrixFunction.polynomial(coeffs, DOM), field=Field.REAL))
        assert rep.case_label == "1R"

    def test_case5_parameter_family(self):
        for eps in (0.0, 1.0, -0.3):
            if 4 * eps == 1.0:
                continue
            v = MatrixFunction.conj_exp(eps, S2, S1, DOM)
            rep = classify(SystemDescriptor.lprime(v, field=Field.COMPLEX))
            assert rep.case_label == "5", eps

    def test_boundary_becomes_case7(self):
        v = MatrixFunction.conj_exp(0.25, S2, S1, DOM)  # 4 eps = gamma^2
        rep = classify(SystemDescriptor.lprime(v, field=Field.COMPLEX))
        assert rep.case_label == "7"
        assert rep.improper_shift


class TestGaugeInvariance:
    def test_classification_data_invariant(self):
        rng = np.random.default_rng(17)
        panel = [
            SystemDescriptor.lprime(MatrixFunction.constant(S1, DOM),
                                    field=Field.COMPLEX),
            SystemDescriptor.lprime(MatrixFunction.conj_exp(0.0, S2, S1, DOM),
                                    field=Field.COMPLEX),
            SystemDescriptor.lprime(MatrixFunction.polynomial([S1, S2, Z2, S3], DOM),
                                    field=Field.COMPLEX),
        ]
        for sys_in in panel:
            base = classify(sys_in)
            for trial in range(8):
                a = float(rng.uniform(0.5, 2.0))
                b = float(rng.uniform(-0.2, 0.2))
                c = rng.standard_normal((2, 2)) + 2 * E2
                tr = EquivalenceTransform(
                    T=ScalarFunction.polynomial([b, a], DOM),
                    H=MatrixFunction.constant(np.sqrt(a) * c, DOM))
                moved = apply_equivalence(sys_in, tr)
                rep = classify(moved)
                assert (rep.k, rep.dim_s, rep.dim_ess, rep.singular) \
                    == (base.k, base.dim_s, base.dim_ess, base.singular)


class TestKBound:
    def test_k_never_exceeds_two(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            for trial in range(30):
                kind = trial % 3
                if kind == 0:
                    coeffs = [random_traceless(rng, n) for _ in range(3)]
                    v = MatrixFunction.polynomial(coeffs, DOM)
                    sys_in = SystemDescriptor.lprime(v, field=Field.REAL)
                elif kind == 1:
                    v = MatrixFunction.constant(random_traceless(rng, n), DOM)
                    sys_in = SystemDescriptor.lprime(v, field=Field.REAL)
                else:
                    v = MatrixFunction.conj_exp(
                        float(rng.standard_normal()), random_traceless(rng, n),
                        random_traceless(rng, n), DOM)
                    sys_in = SystemDescriptor.lprime(v, field=Field.REAL)
                rep = classify(sys_in)
                if not rep.singular:
                    assert rep.k <= 2


class TestHigherDimension:
    def _n4_pair(self):
        def unit(i, j, n=4):
            m = np.zeros((n, n))
            m[i - 1, j - 1] = 1.0
            return m

        ups = unit(1, 2) + unit(2, 3) + unit(3, 4)
        w = unit(1, 3) + 3.0 * unit(2, 4)
        return ups, w

    def test_n4_two_t_fields_with_nonzero_upsilon(self):
        # single eigenvalue chain (3,2,1,0); the coefficient matrix is a
        # genuine degree-1 polynomial with nilpotent coefficients
        ups, w = self._n4_pair()
        ess = classify_structured(0.0, ups, w, fld=Field.COMPLEX)
        assert (ess.k, ess.dim_s, ess.dim_ess) == (2, 5, 8)
        assert not ess.improper_shift_flag

    def test_n4_routes_agree(self):
        from symode.matfun import kl_sequence
        ups, w = self._n4_pair()
        k1 = kl_sequence(ups, w)[1]
        v_poly = MatrixFunction.polynomial([w, k1], DOM)
        ess = solve_symmetries_traceless_poly(v_poly)
        assert (ess.k, ess.dim_s, ess.dim_ess) == (2, 5, 8)
        rep = classify(SystemDescriptor.lprime(
            MatrixFunction.conj_exp(0.0, ups, w, DOM), field=Field.COMPLEX))
        assert 2 * 4 + 1 <= rep.dim_total <= 4 * 4 + 4

    def test_real_negative_trace_part_stays_k1(self):
        # over the reals a negative eps admits no improper pair (it would come
        # as a cos/sin doublet, forcing k = 3)
        ess = classify_structured(-1.0, Z2, S2, fld=Field.REAL)
        assert (ess.k, ess.improper_shift_flag) == (1, False)
        assert ess.dim_ess == 3


class TestNonAffineChains:
    def test_traceless_gauge_image_classifies_identically(self):
        from symode.gauge import gauge_traceless
        sys5 = SystemDescriptor.lprime(
            MatrixFunction.conj_exp(1.0, S2, S1, DOM), field=Field.COMPLEX)
        base = classify(sys5)
        image = gauge_traceless(sys5).system
        rep = classify(image)
        assert (rep.k, rep.dim_s, rep.dim_ess) \
            == (base.k, base.dim_s, base.dim_ess)

    def test_moebius_pushed_constant_coefficient_case(self):
        # push a semisimple constant coefficient through a non-affine
        # reparametrization; the sampled route must recover the structure
        sys6 = SystemDescriptor.lprime(MatrixFunction.constant(S2, DOM),
                                       field=Field.COMPLEX)
        grid = np.linspace(-1, 1, 2049)
        t_fun = ScalarFunction.sampled(grid, (2.0 * grid) / (grid + 4.0))
        t1 = t_fun.derivative(1).evaluate(grid)
        c = np.array([[1.0, 0.4], [0.2, 1.5]])
        tr = EquivalenceTransform(
            T=t_fun,
            H=MatrixFunction.sampled(grid, np.sqrt(t1)[:, None, None] * c))
        mid = apply_equivalence(sys6, tr)
        rep = classify(mid)
        assert (rep.k, rep.dim_s, rep.dim_ess) == (1, 1, 3)

    def test_time_dependent_h_chain_roundtrip(self):
        import scipy.linalg
        sys6 = SystemDescriptor.lprime(MatrixFunction.constant(S2, DOM),
                                       field=Field.COMPLEX)
        grid = np.linspace(-1, 1, 2049)
        t_fun = ScalarFunction.sampled(grid, (2.0 * grid) / (grid + 4.0))
        t1 = t_fun.derivative(1).evaluate(grid)
        c = np.array([[1.0, 0.4], [0.2, 1.5]])
        tr1 = EquivalenceTransform(
            T=t_fun,
            H=MatrixFunction.sampled(grid, np.sqrt(t1)[:, None, None] * c))
        mid = apply_equivalence(sys6, tr1)
        lo, hi = mid.domain
        g2 = np.linspace(lo, hi, 2049)
        h_vals = np.stack([scipy.linalg.expm(0.3 * t * S1) for t in g2])
        tr2 = EquivalenceTransform(
            T=ScalarFunction.polynomial([0.0, 1.0], (lo, hi)),
            H=MatrixFunction.sampled(g2, h_vals))
        far = apply_equivalence(
            SystemDescriptor.homogeneous(MatrixFunction.zero(2, (lo, hi)),
                                         mid.V, field=Field.COMPLEX), tr2)
        assert far.A.max_norm() > 0.1  # genuinely time-dependent first-order term
        rep = classify(far)
        assert (rep.k, rep.dim_s, rep.dim_ess) == (1, 1, 3)


def _draw_v(kind, n, cplx, rng):
    """A traceless V of the given representation on DOM."""
    def draw():
        return random_traceless(rng, n, complex_field=cplx)

    if kind == "constant":
        return MatrixFunction.constant(draw(), DOM)
    if kind == "polynomial":
        return MatrixFunction.polynomial([draw() for _ in range(3)], DOM)
    if kind == "conj_exp":
        return MatrixFunction.conj_exp(0.0, draw(), draw(), DOM)
    grid = np.linspace(DOM[0], DOM[1], 129)
    return MatrixFunction.sampled(
        grid, MatrixFunction.polynomial([draw() for _ in range(4)], DOM).evaluate(grid))


def _same_algebra(a, b):
    assert (a.k, a.dim_s, a.notes, a.confidence_gap) == (b.k, b.dim_s, b.notes,
                                                          b.confidence_gap)
    for x, y in zip(a.s_basis.mats, b.s_basis.mats):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    for (tx, gx), (ty, gy) in zip(a.t_part, b.t_part):
        assert tx.coeffs.tobytes() == ty.coeffs.tobytes()
        assert gx.dtype == gy.dtype and gx.tobytes() == gy.tobytes()


KINDS = ["constant", "polynomial", "conj_exp", "sampled"]


class TestOneEvaluationParity:
    """The shared probe evaluation of V and V_t, the array-built sampled rows
    and the K-terms from one recursion reproduce the per-field, per-probe and
    rebuilt-recursion loops in oracles.py bit for bit."""

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_verify_against_seeded(self, kind, n, cplx):
        from symode.linalg import SubspaceBasis
        from symode.symalg import EssentialAlgebra
        from oracles import verify_against_per_field, verify_symmetry_per_field
        rng = np.random.default_rng(1000 * n + 10 * KINDS.index(kind) + cplx)
        v = _draw_v(kind, n, cplx, rng)
        grid = np.linspace(DOM[0], DOM[1], 257)
        s_basis = SubspaceBasis(mats=[random_traceless(rng, n, cplx) for _ in range(2)],
                                n=n, in_sl=True)
        t_part = [(tau_poly(rng.standard_normal(3)), random_traceless(rng, n, cplx)),
                  (ScalarFunction.sampled(grid, np.exp(0.3 * grid)),
                   random_traceless(rng, n, cplx))]
        ess = EssentialAlgebra(k=2, t_part=t_part, s_basis=s_basis, n=n,
                               field=Field.COMPLEX if cplx else Field.REAL)
        assert ess.verify_against(v) == verify_against_per_field(ess, v)
        for tau, gamma in t_part:
            q = SymmetryVectorField(tau=tau, gamma=gamma)
            assert verify_symmetry(v, q) == verify_symmetry_per_field(v, q)

    @pytest.mark.parametrize("fld", [Field.COMPLEX, Field.REAL])
    def test_verify_against_casebook(self, fld):
        from symode.casebook import n2_cases
        from oracles import verify_against_per_field, verify_symmetry_per_field
        for case in n2_cases(fld):
            v = case.system.V
            ess = classify(case.system).essential
            assert ess.verify_against(v) == verify_against_per_field(ess, v)
            for q in case.symmetries:
                assert verify_symmetry(v, q) == verify_symmetry_per_field(v, q)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("kind", KINDS)
    def test_complex_tau_on_real_v(self, kind, n):
        # the complex tau makes the stacked residual complex; the real fields
        # beside it keep their residuals bit for bit
        from symode.linalg import SubspaceBasis
        from symode.symalg import EssentialAlgebra, _classifying_residuals
        from oracles import verify_against_per_field, verify_symmetry_per_field
        rng = np.random.default_rng(4000 + 10 * n + KINDS.index(kind))
        v = _draw_v(kind, n, False, rng)
        grid = np.linspace(DOM[0], DOM[1], 2049)
        tau = ScalarFunction.sampled(grid, np.exp((0.3 + 1.1j) * grid))
        s_basis = SubspaceBasis(mats=[random_traceless(rng, n) for _ in range(2)], n=n,
                                in_sl=True)
        t_part = [(tau, random_traceless(rng, n)),
                  (tau_poly(rng.standard_normal(3)), random_traceless(rng, n))]
        ess = EssentialAlgebra(k=2, t_part=t_part, s_basis=s_basis, n=n, field=Field.REAL)
        assert ess.verify_against(v) == verify_against_per_field(ess, v)
        fields = ([SymmetryVectorField(tau=tau_poly([0.0]), gamma=g) for g in s_basis.mats]
                  + [SymmetryVectorField(tau=t, gamma=g) for t, g in t_part])
        assert _classifying_residuals(v, fields) == [verify_symmetry_per_field(v, q)
                                                     for q in fields]
        for q in fields[-2:]:
            assert verify_symmetry(v, q) == verify_symmetry_per_field(v, q)

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("b_kind", KINDS)
    @pytest.mark.parametrize("a_kind", KINDS)
    def test_verify_symmetry_homogeneous_seeded(self, a_kind, b_kind, cplx):
        from symode.symalg import verify_symmetry_homogeneous
        from oracles import verify_symmetry_homogeneous_per_field
        rng = np.random.default_rng(
            5000 + 100 * KINDS.index(a_kind) + 10 * KINDS.index(b_kind) + cplx)
        n = 3
        a, b = _draw_v(a_kind, n, cplx, rng), _draw_v(b_kind, n, cplx, rng)
        # the sampled taus live on a shorter interval, a second probe span
        grid = np.linspace(-0.8, 0.9, 257)
        taus = [tau_poly(rng.standard_normal(3)), tau_poly(rng.standard_normal(2)),
                ScalarFunction.sampled(grid, np.exp(0.3 * grid)),
                ScalarFunction.sampled(grid, np.exp((0.3 + 1.1j) * grid))]
        fields = [SymmetryVectorField(tau=t, gamma=random_traceless(rng, n, cplx))
                  for t in taus]
        got = verify_symmetry_homogeneous(a, b, fields)
        assert got == verify_symmetry_homogeneous_per_field(a, b, fields)
        for q, res in zip(fields, got):
            assert verify_symmetry_homogeneous(a, b, [q]) == [res]

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sampled_solver_seeded(self, n, cplx, cfg):
        from oracles import solve_symmetries_sampled_per_probe
        rng = np.random.default_rng(2000 * n + cplx)
        v = _draw_v("sampled", n, cplx, rng)
        _same_algebra(solve_symmetries_sampled(v), solve_symmetries_sampled_per_probe(v, cfg))

    @pytest.mark.parametrize("fld", [Field.COMPLEX, Field.REAL])
    def test_sampled_solver_casebook(self, fld, cfg):
        from symode.casebook import n2_cases
        from oracles import solve_symmetries_sampled_per_probe
        grid = np.linspace(DOM[0], DOM[1], 257)
        for case in n2_cases(fld):
            v = MatrixFunction.sampled(grid, case.system.V.evaluate(grid))
            _same_algebra(solve_symmetries_sampled(v, fld=fld),
                          solve_symmetries_sampled_per_probe(v, cfg, fld))

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_k_terms_seeded(self, n, cplx, cfg):
        from symode.linalg import commutator
        from symode.matfun import kl_sequence_with_tail
        from oracles import k_extended
        rng = np.random.default_rng(3000 * n + cplx)
        cases = [(random_traceless(rng, n, cplx), random_traceless(rng, n, cplx))
                 for _ in range(5)]
        if n == 2:
            cases += [(S1, S3), (S2, S1 + S3), (S2, S1), (Z2, S2), (S1 + S3, S1 - S3)]
        for ups, w in cases:
            kl, tail, _ = kl_sequence_with_tail(ups, w, cfg)
            ext = kl + [tail]
            for _ in range(2):
                ext.append(commutator(ups, ext[-1]))
            # the structured route reads K_0..K_{L+2}, the witness search K_0..K_L
            want = k_extended(ups, w, len(kl) + 3)[:len(kl) + 3]
            assert len(ext) == len(want)
            for got, ref in zip(ext, want):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class TestExpFactoryBuilds:
    @pytest.fixture
    def builds(self, monkeypatch):
        from symode import linalg
        count = []
        real = linalg.exp_factory

        def counted(m, *args, **kwargs):
            count.append(1)
            return real(m, *args, **kwargs)

        monkeypatch.setattr(linalg, "exp_factory", counted)
        return count

    def test_classify_conj_exp_n3(self, builds):
        # the structured route's V keeps the input's Y and shares its factory
        rng = np.random.default_rng(0)
        y, w = random_traceless(rng, 3), random_traceless(rng, 3)
        classify(SystemDescriptor.lprime(MatrixFunction.conj_exp(0.0, y, w, DOM)))
        assert len(builds) == 1

    def test_derivative_of_evaluated_conj_exp(self, builds, rng):
        f = MatrixFunction.conj_exp(0.3, random_traceless(rng, 3), random_traceless(rng, 3),
                                    DOM)
        ts = np.linspace(-1, 1, 9)
        f.evaluate(ts)
        assert len(builds) == 1
        for g in (f.derivative(1), f.derivative(2), f.trace_split()[1], f.scale(2.0),
                  f.add_scalar_identity(1.5)):
            g.evaluate(ts)
        assert len(builds) == 1
