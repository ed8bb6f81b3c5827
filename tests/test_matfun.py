import json

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from symode import linalg
from symode.cli import decode_function, encode_function
from symode.matfun import (MatrixFunction, RepresentationError, ScalarFunction,
                           VectorFunction, kl_sequence_with_tail,
                           poly_compose_affine, poly_der, poly_eval, poly_mul, poly_wronskian)
from conftest import DOM, E2, S1, S2, S3, Z2, near_defective_4x4, random_traceless
from oracles import (hermite_every_point, hermite_probes, hermite_reference, kl_sequence,
                     sampled_draw)


class TestEvaluate:
    def test_conj_exp_at_zero_gives_w(self, rng):
        ups = rng.standard_normal((2, 2))
        w = rng.standard_normal((2, 2))
        f = MatrixFunction.conj_exp(0.0, ups, w, DOM)
        np.testing.assert_allclose(f.evaluate(0.0), w, atol=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("cplx", [False, True])
    def test_conj_exp_array_equals_stacked_points(self, n, cplx):
        rng = np.random.default_rng(200 + n)
        ups = rng.standard_normal((n, n))
        w = rng.standard_normal((n, n))
        if cplx:
            w = w + 1j * rng.standard_normal((n, n))
        f = MatrixFunction.conj_exp(0.3, ups, w, DOM)
        ts = np.linspace(-1.0, 1.0, 11)
        stacked = np.stack([f.evaluate(t) for t in ts])
        got = f.evaluate(ts)
        assert got.shape == (11, n, n) and got.dtype == stacked.dtype
        assert np.max(np.abs(got - stacked)) <= 1e-13 * np.max(np.abs(stacked))

    def test_polynomial_linear(self):
        m0 = np.diag([1.0, 2.0])
        m1 = S1
        f = MatrixFunction.polynomial([m0, m1], (-3.0, 3.0))
        np.testing.assert_allclose(f.evaluate(2.0), m0 + 2.0 * m1)

    def test_conj_exp_zero_upsilon(self):
        f = MatrixFunction.conj_exp(0.25, Z2, S1, DOM)
        for t in (-0.7, 0.0, 0.9):
            np.testing.assert_allclose(f.evaluate(t), 0.25 * E2 + S1)

    def test_sampled_outside_hull_rejected(self):
        grid = np.linspace(-1, 1, 33)
        f = MatrixFunction.sampled(grid, np.broadcast_to(S1, (33, 2, 2)))
        with pytest.raises(RepresentationError):
            f.evaluate(1.5)

    def test_spectrum_of_conjugation_is_time_independent(self, cfg):
        f = MatrixFunction.conj_exp(0.3, S2, S1 + 0.5 * S2, DOM)
        base = np.sort_complex(np.linalg.eigvals(f.evaluate(0.0) - 0.3 * E2))
        for t in np.linspace(-1, 1, 9):
            evs = np.sort_complex(np.linalg.eigvals(f.evaluate(t) - 0.3 * E2))
            np.testing.assert_allclose(evs, base, atol=cfg.eig_cluster_tol)


def assert_conjugation_matches_expm(ups, w):
    """conj_exp evaluation against scipy's expm(tY) W expm(-tY), 1e-12 relative."""
    f = MatrixFunction.conj_exp(0.0, ups, w, DOM)
    ts = np.linspace(-1.0, 1.0, 9)
    ref = np.stack([scipy.linalg.expm(t * ups) @ w @ scipy.linalg.expm(-t * ups) for t in ts])
    got = f.evaluate(ts)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSampledHermite:
    """The sampled kind's piecewise cubic Hermite evaluator against scipy's
    CubicHermiteSpline on the same slopes."""

    FUNCTIONS = {0: ScalarFunction, 1: VectorFunction, 2: MatrixFunction}

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("points", [33, 257, 2049])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_matches_scipy(self, shape, cplx, points, uniform):
        rng = np.random.default_rng(points + 10 * len(shape) + 100 * cplx + 1000 * uniform)
        grid, values = sampled_draw(rng, points, shape, cplx, uniform)
        f = self.FUNCTIONS[len(shape)].sampled(grid, values)
        ts = hermite_probes(grid, rng)
        got = f.evaluate(ts)
        ref = hermite_reference(grid, values, ts)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        for k in (0, points - 1, points + 5, len(ts) - 1):
            one = f.evaluate(ts[k])
            assert one.shape == ref[k].shape
            assert np.max(np.abs(one - ref[k])) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("uniform", [True, False])
    def test_reproduces_a_cubic(self, uniform):
        rng = np.random.default_rng(7 + uniform)
        coeffs = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
        grid, _ = sampled_draw(rng, 65, (), uniform=uniform)
        f = MatrixFunction.sampled(grid, poly_eval(coeffs, grid))
        ts = hermite_probes(grid, rng)
        exact = poly_eval(coeffs, ts)
        assert np.max(np.abs(f.evaluate(ts) - exact)) <= 1e-13 * np.max(np.abs(exact))


class TestNodeExactSamples:
    """A sampled function returns its sample at a node of its grid; the spline,
    built on the first point between nodes, serves only those points."""

    FUNCTIONS = {0: ScalarFunction, 1: VectorFunction, 2: MatrixFunction}

    @staticmethod
    def function(shape, cplx, uniform, points=65):
        rng = np.random.default_rng(points + 10 * len(shape) + 100 * cplx + 1000 * uniform)
        grid, values = sampled_draw(rng, points, shape, cplx, uniform)
        return TestNodeExactSamples.FUNCTIONS[len(shape)].sampled(grid, values), rng

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_every_node_returns_its_sample(self, shape, cplx, uniform):
        f, rng = self.function(shape, cplx, uniform)
        order = rng.permutation(len(f.grid))
        for ts, want in ((f.grid, f.values), (f.grid[order], f.values[order]),
                         (f.grid[[-1, 0, -1]], f.values[[-1, 0, -1]])):
            got = f.evaluate(ts)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        for k in (0, len(f.grid) // 2, len(f.grid) - 1):
            one = f.evaluate(f.grid[k])
            assert one.shape == shape and one.tobytes() == f.values[k].tobytes()
        assert f._spline is None

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_between_nodes_the_spline_bit_for_bit(self, shape, cplx, uniform):
        f, rng = self.function(shape, cplx, uniform)
        ts = hermite_probes(f.grid, rng)  # every node, 200 draws, both slacks
        inner = ts[len(f.grid) + 1:]
        assert not np.isin(inner, f.grid).any()
        got = f.evaluate(ts)
        want = hermite_every_point(f.grid, f.values, inner)
        assert got[len(f.grid) + 1:].tobytes() == want.tobytes()
        assert got[:len(f.grid)].tobytes() == f.values.tobytes()
        assert got[len(f.grid)].tobytes() == f.values[-1].tobytes()
        for t, ref in zip(inner[-3:], want[-3:]):
            assert f.evaluate(t).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    def test_integer_samples_come_back_as_float(self, shape):
        grid = np.linspace(-1.0, 1.0, 9)
        values = np.arange(9 * int(np.prod(shape))).reshape((9,) + shape) - 20
        f = self.FUNCTIONS[len(shape)].sampled(grid, values)
        at_nodes = f.evaluate(grid)
        assert at_nodes.dtype == np.float64 and np.array_equal(at_nodes, values)
        at_node = f.evaluate(grid[3])
        assert at_node.dtype == np.float64 and at_node.shape == shape
        between = f.evaluate(np.array([grid[0], 0.1, grid[-1]]))
        assert between.dtype == np.float64
        assert np.array_equal(between[[0, 2]], values[[0, -1]])
        assert f.evaluate(0.1).shape == shape

    @pytest.mark.parametrize("shape", [(), (3,), (3, 3)])
    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("integer", [False, True])
    def test_nodes_of_a_half_step_grid_read_their_samples(self, shape, cplx, integer):
        # the half-step points of a companion table: every other point a
        # node, the last node included; the interior nodes come off Horner
        # at s = 0, the last one from its sample
        grid = np.linspace(-1.0, 1.0, 33)
        if integer:
            values = np.arange(33 * int(np.prod(shape))).reshape((33,) + shape) % 7 - 3
        else:
            f, _ = self.function(shape, cplx, True, points=33)
            grid, values = f.grid, f.values
        f = self.FUNCTIONS[len(shape)].sampled(grid, values)
        half = np.linspace(grid[0], grid[-1], 2 * len(grid) - 1)
        half[::2] = grid
        got = f.evaluate(half)
        assert f._spline is not None
        assert got.dtype == np.result_type(values, float)
        assert np.array_equal(got[::2], values)
        assert got[-1].tobytes() == values[-1].astype(got.dtype).tobytes()
        if not integer:
            assert got[::2].tobytes() == values.tobytes()

    def test_a_scalar_t_keeps_its_shape(self):
        f, _ = self.function((3, 3), False, True)
        assert f.evaluate(f.grid[4]).shape == (3, 3)
        assert f.evaluate(0.5 * (f.grid[4] + f.grid[5])).shape == (3, 3)
        assert f.evaluate(f.grid[:6].reshape(2, 3)).shape == (2, 3, 3, 3)


class TestConjugationAgainstExpm:
    # the last case scales Y to ||Y||_1 = 50, so that the evaluator squares six times
    @pytest.mark.parametrize("n,norm", [*((n, None) for n in range(2, 9)), (8, 50.0)],
                             ids=[*map(str, range(2, 9)), "8-norm50"])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_matches_expm(self, n, norm, cplx):
        rng = np.random.default_rng(300 + n)
        ups, w = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        if cplx:
            ups = ups + 1j * rng.standard_normal((n, n))
            w = w + 1j * rng.standard_normal((n, n))
        if norm is not None:
            ups *= norm / np.linalg.norm(ups, 1)
        assert_conjugation_matches_expm(ups, w)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("cplx", [False, True])
    def test_jordan_blocks_take_the_nilpotent_series(self, n, cplx):
        # 2x2 Jordan blocks conjugated by a well-conditioned matrix: every
        # cluster is double
        ups = np.zeros((n, n))
        for i, mu in enumerate([0.3, -0.5, 0.1, 0.8][:n // 2]):
            ups[2 * i:2 * i + 2, 2 * i:2 * i + 2] = [[mu, 1.0], [0.0, mu]]
        rng = np.random.default_rng(n)
        c = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        ups = c @ ups @ np.linalg.inv(c)
        w = rng.standard_normal((n, n))
        if cplx:
            ups = (1.0 + 0.5j) * ups
            w = w + 1j * rng.standard_normal((n, n))
        assert all(cl.multiplicity == 2 for cl in linalg.eig_clustered(ups))
        assert_conjugation_matches_expm(ups, w)

    @pytest.mark.parametrize("scale,seed", [(8.0, 4), (8.0, 18), (8.0, 27), (30.0, 35),
                                            (8.0, 10), (8.0, 22), (8.0, 24), (8.0, 56),
                                            (8.0, 59)])
    def test_conjugated_nilpotent_with_a_simple_split(self, scale, seed):
        # rounding splits the computed double zero eigenvalue of a C S1 C^-1
        # into two simple ones with cond(S) ~ 1e8, which the staircase still
        # clusters as one nilpotent; an exponential built on that eigenbasis
        # would lose 9 digits to all of them on these draws
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        ups = scale * c @ S1 @ np.linalg.inv(c)
        assert len(set(np.linalg.eigvals(ups))) == 2
        assert [cl.multiplicity for cl in linalg.eig_clustered(ups)] == [2]
        ts = np.linspace(-1.0, 1.0, 9)
        ref = np.stack([scipy.linalg.expm(t * ups) for t in ts])
        got = linalg.exp_factory(ups)(ts)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert_conjugation_matches_expm(ups, rng.standard_normal((2, 2)))

    def test_near_defective_matches_expm(self):
        w = np.random.default_rng(3).standard_normal((4, 4))
        assert_conjugation_matches_expm(near_defective_4x4(), w)


class TestDifferentiate:
    def test_conj_exp_derivative_is_first_bracket(self):
        ups, w = S2, S1 + S3
        f = MatrixFunction.conj_exp(0.7, ups, w, DOM)
        df = f.derivative()
        np.testing.assert_allclose(df.evaluate(0.0), ups @ w - w @ ups, atol=1e-12)

    def test_constant_derivative_zero(self):
        f = MatrixFunction.constant(S2, DOM)
        assert f.derivative().max_norm() == 0.0

    def test_polynomial_derivative(self):
        f = MatrixFunction.polynomial([Z2, S1], DOM)
        df = f.derivative()
        assert (df.kind, df.degree()) == ("polynomial", 0)
        np.testing.assert_allclose(df.value, S1)

    @pytest.mark.parametrize("builder", [
        # degree >= 3 so the central-difference truncation term is nonzero
        lambda: MatrixFunction.polynomial([S1, S2, 0.5 * S3, 0.4 * S1], DOM),
        lambda: MatrixFunction.conj_exp(0.1, S2, S1 + S3, DOM),
    ])
    def test_fd_consistency_quadratic_order(self, builder):
        f = builder()
        df = f.derivative()
        t = 0.2
        errs = []
        for h in (1e-3, 1e-4):
            fd = (f.evaluate(t + h) - f.evaluate(t - h)) / (2 * h)
            errs.append(np.max(np.abs(fd - df.evaluate(t))))
        ratio = errs[0] / max(errs[1], 1e-300)
        assert 50.0 < ratio < 200.0  # quadratic convergence ~100x per decade


class TestJet:
    """jet(ts, orders) gives what derivative(order).evaluate(ts) gives, from one
    evaluation of the representation."""

    @pytest.mark.parametrize("cplx", [False, True])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_conj_exp_from_one_pair_of_exponentials(self, n, cplx):
        rng = np.random.default_rng(100 * n + cplx)
        eps = 0.3 - 0.2j if cplx else 0.3
        f = MatrixFunction.conj_exp(eps, random_traceless(rng, n, cplx),
                                    random_traceless(rng, n, cplx), DOM)
        ts = np.linspace(DOM[0], DOM[1], 64)
        v, vt = f.jet(ts, (0, 1))
        # == does not tell the signs of zeros apart
        for got, ref in ((v, f.evaluate(ts)), (vt, f.derivative(1).evaluate(ts))):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @pytest.mark.parametrize("kind", ["constant", "polynomial", "conj_exp", "sampled"])
    def test_point_outside_the_domain_slack(self, kind):
        grid = np.linspace(DOM[0], DOM[1], 65)
        f = {"constant": lambda: MatrixFunction.constant(S1, DOM),
             "polynomial": lambda: MatrixFunction.polynomial([S1, S2, S3], DOM),
             "conj_exp": lambda: MatrixFunction.conj_exp(0.0, S2, S1, DOM),
             "sampled": lambda: MatrixFunction.sampled(grid, np.cos(grid)[:, None, None] * S1),
             }[kind]()
        lo, hi = f.domain
        f.jet(np.array([lo, hi + 1e-9]), (0, 1))
        with pytest.raises(RepresentationError):
            f.jet(np.array([lo, hi + 1e-6]), (0, 1))
        with pytest.raises(RepresentationError):
            f.jet(np.array([lo - 1e-6, hi]), (0,))

    @pytest.mark.parametrize("builder", [
        lambda: MatrixFunction.constant(S1 - 0.0 * S2, DOM),
        lambda: MatrixFunction.polynomial([Z2, -S1, 0.0 * S2], DOM),
        lambda: MatrixFunction.polynomial([S1, S2, 0.5 * S3, -0.4j * S1], DOM),
        lambda: ScalarFunction.polynomial([0.5, -1.0, 0.0, 2.0], DOM),
        lambda: ScalarFunction.polynomial([-0.0], DOM),
        lambda: VectorFunction.polynomial([np.ones(3), -np.zeros(3)], DOM),
        lambda: MatrixFunction.sampled(np.linspace(-1.0, 1.0, 65),
                                       np.exp(np.linspace(-1.0, 1.0, 65))[:, None, None] * S3),
    ])
    def test_other_kinds_bitwise(self, builder):
        f = builder()
        ts = np.linspace(DOM[0], DOM[1], 64)
        orders = (0, 1, 3)
        for got, order in zip(f.jet(ts, orders), orders):
            ref = f.derivative(order).evaluate(ts)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class TestTraceSplit:
    def test_conj_exp_traceless_w(self):
        f = MatrixFunction.conj_exp(0.6, S2, S1, DOM)
        u, f0 = f.trace_split()
        np.testing.assert_allclose(complex(u.evaluate(0.3)), 0.6)
        assert f0.kind == "conj_exp" and f0.epsilon == 0.0

    def test_constant_split(self):
        f = MatrixFunction.constant(np.diag([3.0, 1.0]), DOM)
        u, f0 = f.trace_split()
        np.testing.assert_allclose(complex(u.evaluate(0.0)), 2.0)
        np.testing.assert_allclose(f0.value, S2)

    def test_polynomial_split(self):
        f = MatrixFunction.polynomial([S2, E2], DOM)
        u, f0 = f.trace_split()
        np.testing.assert_allclose(complex(u.evaluate(0.5)), 0.5)
        np.testing.assert_allclose(f0.evaluate(0.5), S2, atol=1e-14)

    @pytest.mark.parametrize("builder", [
        lambda: MatrixFunction.polynomial([S2 + 2 * E2, E2, S1], DOM),
        lambda: MatrixFunction.conj_exp(0.4, S2, S1 + 0.3 * E2, DOM),
        lambda: MatrixFunction.sampled(
            np.linspace(-1, 1, 65),
            np.linspace(-1, 1, 65)[:, None, None] * (S1 + E2) + S2),
    ])
    def test_traceless_residual_at_probes(self, builder):
        _, f0 = builder().trace_split()
        ts = np.linspace(f0.domain[0], f0.domain[1], 32)
        traces = np.trace(f0.evaluate(ts), axis1=1, axis2=2)
        assert np.max(np.abs(traces)) < 1e-6


class TestKlSequence:
    def test_diagonal_upsilon_scaling(self):
        b1, b3 = 0.7, -1.3
        kl = kl_sequence(S2, b1 * S1 + b3 * S3)
        assert len(kl) == 2
        for l, k in enumerate(kl):
            np.testing.assert_allclose(k, (2.0 ** l) * b1 * S1
                                       + ((-2.0) ** l) * b3 * S3, atol=1e-12)

    def test_zero_upsilon(self, rng):
        w = rng.standard_normal((3, 3))
        kl = kl_sequence(np.zeros((3, 3)), w)
        assert len(kl) == 1
        np.testing.assert_allclose(kl[0], w)

    def test_nilpotent_chain(self):
        b2, b3 = 0.4, -0.9
        kl, tail, rel = kl_sequence_with_tail(S1, b2 * S2 + b3 * S3)
        np.testing.assert_allclose(kl[1], -2 * b2 * S1 - b3 * S2, atol=1e-12)
        np.testing.assert_allclose(kl[2], 2 * b3 * S1, atol=1e-12)
        assert len(kl) == 3
        assert rel < 1e-12  # K_3 = 0: the sequence terminates

    def test_projection_residual_bounded(self, rng, cfg):
        for _ in range(10):
            ups = rng.standard_normal((3, 3))
            w = rng.standard_normal((3, 3))
            kl, tail, rel = kl_sequence_with_tail(ups, w, cfg)
            stacked = np.stack([m.reshape(-1) for m in kl])
            coef, *_ = np.linalg.lstsq(stacked.T, tail.reshape(-1), rcond=None)
            resid = np.linalg.norm(tail.reshape(-1) - stacked.T @ coef)
            assert resid <= 1e-6 * max(1.0, np.linalg.norm(tail))


class TestScalarAndVector:
    def test_scalar_poly_derivatives(self):
        tau = ScalarFunction.polynomial([1.0, 2.0, 3.0], DOM)
        assert complex(tau.derivative(1).evaluate(0.5)) == pytest.approx(2 + 3.0)
        assert complex(tau.derivative(3).evaluate(0.1)) == 0.0

    def test_sampled_third_derivative(self):
        grid = np.linspace(-1, 1, 1025)
        tau = ScalarFunction.sampled(grid, np.exp(grid))
        d3 = tau.derivative(3).evaluate(np.array([0.0, 0.4]))
        np.testing.assert_allclose(d3, np.exp([0.0, 0.4]), atol=1e-7)

    def test_vector_roundtrip(self):
        v = VectorFunction.polynomial([np.array([1.0, 0.0]), np.array([0.0, 2.0])],
                                      DOM)
        np.testing.assert_allclose(v.evaluate(0.5), [1.0, 1.0])
        np.testing.assert_allclose(v.derivative(1).evaluate(0.5), [0.0, 2.0])

    @pytest.mark.parametrize("peak", [1e200, 1e300])
    def test_max_norm_of_huge_finite_values(self, peak):
        # the squares of these entries overflow; the norm itself does not
        m = MatrixFunction.constant(peak * np.array([[0.0, 0.6], [0.8, 0.0]]), DOM)
        assert m.max_norm() == pytest.approx(peak, rel=1e-15)


class TestRepresentationClosure:
    def test_conjugate_stays_closed(self, rng):
        c = rng.standard_normal((2, 2)) + np.eye(2)
        for f in (MatrixFunction.constant(S2, DOM),
                  MatrixFunction.polynomial([S1, S3], DOM),
                  MatrixFunction.conj_exp(0.2, S2, S1, DOM)):
            g = f.conjugate(c)
            assert g.kind == f.kind
            np.testing.assert_allclose(g.evaluate(0.4),
                                       c @ f.evaluate(0.4) @ np.linalg.inv(c),
                                       atol=1e-10)

    def test_compose_affine(self):
        f = MatrixFunction.conj_exp(0.1, S2, S1, DOM)
        g = f.compose_affine(0.5, 0.25)
        np.testing.assert_allclose(g.evaluate(0.3), f.evaluate(0.5 * 0.3 + 0.25),
                                   atol=1e-10)
        assert g.kind == "conj_exp"


def _draw(shape, cplx, rng, rows=None):
    size = (rows,) + shape if rows else shape
    out = rng.standard_normal(size)
    return out + 1j * rng.standard_normal(size) if cplx else out


GRID = np.linspace(-1, 1, 65)
CLASSES = {"scalar": (ScalarFunction, ()), "vector": (VectorFunction, (3,)),
           "matrix": (MatrixFunction, (3, 3))}


def _build(shape_name, kind, cplx):
    """One function of the given value shape and kind; real or complex data."""
    rng = np.random.default_rng(7)
    cls, shape = CLASSES[shape_name]
    if kind == "constant":
        return cls.constant(_draw(shape, cplx, rng), DOM)
    if kind == "polynomial":
        return cls.polynomial(_draw(shape, cplx, rng, rows=3), DOM)
    if kind == "conj_exp":
        return cls.conj_exp(0.4, _draw(shape, False, rng), _draw(shape, cplx, rng), DOM)
    base = _draw(shape, cplx, rng, rows=2)
    return cls.sampled(GRID, base[0] + np.sin(GRID).reshape((-1,) + (1,) * len(shape))
                       * base[1])


CASES = [(s, k, c) for s in CLASSES for k in ("constant", "polynomial", "sampled")
         for c in (False, True)] + [("matrix", "conj_exp", c) for c in (False, True)]


class TestRepresentationLayer:
    @pytest.mark.parametrize("shape_name,kind,cplx", CASES)
    def test_kind_shape_dtype(self, shape_name, kind, cplx):
        f = _build(shape_name, kind, cplx)
        shape = CLASSES[shape_name][1]
        # a constant is a degree-0 polynomial in every value rank
        expect_kind = "polynomial" if kind == "constant" else kind
        dtype = np.complex128 if cplx else np.float64
        assert f.kind == expect_kind
        assert f.field.dtype == dtype
        ts = np.linspace(-0.9, 0.9, 5)
        assert np.shape(f.evaluate(0.3)) == shape
        assert f.evaluate(ts).shape == (5,) + shape
        assert f.evaluate(ts).dtype == dtype
        for order in (1, 2):
            df = f.derivative(order)
            assert type(df) is type(f)
            assert df.kind == f.kind
            assert df.evaluate(ts).shape == (5,) + shape
            assert df.evaluate(ts).dtype == dtype

    @pytest.mark.parametrize("shape_name,kind,cplx", CASES)
    def test_cli_roundtrip(self, shape_name, kind, cplx):
        f = _build(shape_name, kind, cplx)
        doc = json.loads(json.dumps(encode_function(f)))
        g = decode_function(doc, type(f), f.domain)
        assert type(g) is type(f) and g.kind == f.kind and g.domain == f.domain
        ts = np.linspace(-0.9, 0.9, 7)
        assert g.evaluate(ts).dtype == f.evaluate(ts).dtype
        np.testing.assert_array_equal(g.evaluate(ts), f.evaluate(ts))

    def test_cli_rejects_kinds_outside_the_shape(self):
        from symode.cli import SchemaError
        doc = encode_function(MatrixFunction.conj_exp(0.1, S2, S1, DOM))
        with pytest.raises(SchemaError, match="unknown vector kind conj_exp"):
            decode_function(doc, VectorFunction, DOM)
        with pytest.raises(SchemaError, match="unknown scalar kind constant"):
            decode_function({"kind": "constant", "m": 1.0}, ScalarFunction, DOM)

    def test_value_is_a_read_only_view(self):
        f = MatrixFunction.constant(S1, DOM)
        assert f.coeffs.shape == (1, 2, 2)
        with pytest.raises(ValueError):
            f.value[0, 0] = 1.0
        np.testing.assert_array_equal(f.value, S1)


_ENTRIES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@given(rank=st.sampled_from([0, 1, 2]), n=st.integers(1, 4), cplx=st.booleans(),
       data=st.data())
def test_constant_is_a_degree_zero_polynomial(rank, n, cplx, data):
    # constant(c) and polynomial([c, 0 c]) are one function, bit for bit, in
    # every value rank: values, jets, derivatives and the CLI document
    shape = (n,) * rank
    c = data.draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
    if cplx:
        c = c + 1j * data.draw(hnp.arrays(np.float64, shape, elements=_ENTRIES))
    cls = (ScalarFunction, VectorFunction, MatrixFunction)[rank]
    f, g = cls.constant(c, DOM), cls.polynomial([c, 0 * c], DOM)
    ts = np.linspace(DOM[0], DOM[1], 9)

    def same(x, y):
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()

    same(f.evaluate(ts), g.evaluate(ts))
    same(f.evaluate(ts), np.broadcast_to(c, (len(ts),) + shape).astype(f.field.dtype))
    for x, y in zip(f.jet(ts, (0, 1, 2)), g.jet(ts, (0, 1, 2))):
        same(x, y)
    for order in (1, 2):
        same(f.derivative(order).evaluate(ts), g.derivative(order).evaluate(ts))
    assert json.dumps(encode_function(f)) == json.dumps(encode_function(g))


def _entrywise(c):
    """Per-entry coefficient lists of a stacked (deg+1, *shape) array."""
    return {idx: c[(slice(None),) + idx] for idx in np.ndindex(c.shape[1:])}


def _matmul_oracle(a, b):
    """Coefficients of the matrix (or matrix-vector) product, entry by entry."""
    n = a.shape[1]
    out = {}
    for idx in np.ndindex(a.shape[1:2] + b.shape[2:]):
        i, rest = idx[0], idx[1:]
        acc = np.zeros(1)
        for j in range(n):
            acc = npoly.polyadd(acc, npoly.polymul(a[:, i, j], b[(slice(None), j) + rest]))
        out[idx] = acc
    return out


class TestPolynomialAlgebra:
    """The stacked-coefficient algebra against numpy.polynomial, entry by entry."""

    @pytest.fixture
    def stacks(self):
        rng = np.random.default_rng(11)
        return (rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3)),
                rng.standard_normal((4, 3, 3)), rng.standard_normal((2, 3)),
                rng.standard_normal(4), rng.standard_normal(2) + 0.5j)

    def test_product(self, stacks):
        ma, mb, v, s1, s2 = stacks
        for a, b in ((ma, mb), (mb, v)):
            prod = poly_mul(a, b)
            for idx, want in _matmul_oracle(a, b).items():
                np.testing.assert_allclose(prod[(slice(None),) + idx], want,
                                           rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(poly_mul(s1, s2), npoly.polymul(s1, s2), rtol=1e-14)
        prod = poly_mul(s2, mb)
        for idx, entry in _entrywise(mb).items():
            np.testing.assert_allclose(prod[(slice(None),) + idx],
                                       npoly.polymul(s2, entry), rtol=1e-14)

    def test_derivative(self, stacks):
        ma = stacks[0]
        d = poly_der(ma)
        for idx, entry in _entrywise(ma).items():
            np.testing.assert_allclose(d[(slice(None),) + idx], npoly.polyder(entry),
                                       rtol=1e-15)
        np.testing.assert_array_equal(poly_der(ma[:1]), np.zeros_like(ma[:1]))

    def test_affine_composition(self, stacks):
        mb = stacks[1]
        alpha, beta = -0.7, 0.3
        comp = poly_compose_affine(mb, alpha, beta)
        for idx, entry in _entrywise(mb).items():
            want = npoly.Polynomial(entry)(npoly.Polynomial([beta, alpha])).coef
            np.testing.assert_allclose(comp[(slice(None),) + idx], want, rtol=1e-13)

    def test_wronskian(self, stacks):
        s1, s2 = stacks[3], stacks[4]
        want = npoly.polysub(npoly.polymul(s1, npoly.polyder(s2)),
                             npoly.polymul(s2, npoly.polyder(s1)))
        w = poly_wronskian(s1, s2)
        assert len(w) == len(s1) + len(s2) - 1
        np.testing.assert_allclose(w[:len(want)], want, rtol=1e-14)
        assert not np.any(w[len(want):])
