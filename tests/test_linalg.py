import warnings

import numpy as np
import pytest
import scipy.linalg

from symode import linalg, symalg
from symode.casebook import n2_cases
from symode.numutil import companion
from symode.scalars import Field, ToleranceConfig
from symode.linalg import (SubspaceBasis, centralizer_basis, commutator, eig_clustered,
                           hat_check_split, invertible_in_affine_space,
                           is_nilpotent, jordan_chevalley, jordan_form, staircase)
from conftest import E2, S1, S2, S3, Z2, near_defective_4x4, random_traceless
from oracles import centralizer_dim_bruteforce, hat_check_in_complex

JORDAN_FAMILIES = [
    ([3, 1], [1.0, 2.0]), ([2, 2], []), ([3, 2, 1], [0.7, -0.4]),
    ([2, 2, 2], [1.0, 2.0]), ([3, 3], [1.0, -1.0]), ([2], [1.0]),
    ([4], [-1.5]), ([5], [0.5, 0.25, -1.0]), ([2, 1], [1.0, 1.0, 3.0]),
    ([2, 1], [0.5]), ([6], [1.0, -1.0]), ([4, 3], [0.5]), ([5, 2], [-0.3]),
]


class TestCut:
    def test_value_at_the_threshold_is_dropped(self):
        assert linalg.cut([2.0, 1.0, 0.5], 1.0) == (1, 1.0)
        assert linalg.cut([1.0, 1.0], 1.0).rank == 0

    def test_empty(self):
        assert linalg.cut([], 1.0) == (0, np.inf)
        assert linalg.cut(np.zeros(0), 0.0) == (0, np.inf)

    def test_zero_threshold_and_zero_values_decide_exactly(self):
        assert linalg.cut([0.0, 0.0], 0.0) == (0, np.inf)
        assert linalg.cut([3.0, 0.0], 0.0) == (1, np.inf)
        assert linalg.cut([3.0, 0.0], 1.0) == (1, 3.0)

    def test_margin_is_the_nearer_side(self):
        assert linalg.cut([2.0, 1e-3], 1.0) == (1, 2.0)
        assert linalg.cut([100.0, 0.5], 1.0) == (1, 2.0)
        assert linalg.cut([0.25], 1.0) == (0, 4.0)
        assert linalg.cut([8.0], 2.0) == (1, 4.0)

    @pytest.mark.parametrize("s,threshold", [
        ([np.inf], 1.0), ([1.0], np.inf), ([np.inf], np.inf), ([np.inf, 0.0], 0.0),
        ([0.0], 0.0), ([1e300, 1e-300], 1e-310), ([5.0], np.nan),
    ])
    def test_never_nan_nor_a_warning(self, s, threshold):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            c = linalg.cut(s, threshold)
        assert not np.isnan(c.margin) and c.margin >= 1.0

    def test_scale_covariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = np.sort(rng.lognormal(0.0, 4.0, 8))[::-1]
            t = float(rng.lognormal(0.0, 4.0))
            want = linalg.cut(s, t)
            for a in (1e-8, 1.0, 1e8):
                got = linalg.cut(a * s, a * t)
                assert got.rank == want.rank
                assert got.margin == pytest.approx(want.margin, rel=1e-14)


class TestConditioning:
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_free_of_scale_and_size(self, n):
        for c in (1e-12, 1.0, 1e12):
            cut, worst, ratio = linalg.conditioning(c * np.eye(n)[None], 1e-9)
            assert cut.rank == 1 and worst == 0 and ratio == pytest.approx(1.0)

    def test_names_the_worst_matrix(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 1e-6]), np.diag([2.0, 1.0, 2e-12])])
        cut, worst, ratio = linalg.conditioning(stack, 1e-9)
        assert cut.rank == 2 and worst == 2 and ratio == pytest.approx(1e-12)
        assert cut.margin == pytest.approx(1e3)

    def test_zero_and_non_finite_are_singular(self):
        stack = np.stack([np.eye(2), np.zeros((2, 2)), np.full((2, 2), np.nan),
                          np.diag([np.inf, 1.0])])
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            cut, worst, ratio = linalg.conditioning(stack, 1e-9)
        assert (cut.rank, worst, ratio) == (1, 1, 0.0)


class TestRealIfRounding:
    """The imaginary-part drop of ``jordan_chevalley`` and ``hat_check_split``:
    a cut at 1e4 rank_tol (1 + ||m||_F) that keeps only what lies above it."""

    def test_tie_is_dropped(self):
        cfg = ToleranceConfig()
        bound = 1e4 * cfg.rank_tol * (1.0 + 2.0)
        m = np.diag([2.0, 0.0])
        x = np.array([[1.0 + 1j * bound, 0.0], [0.0, 1.0]])
        assert not np.iscomplexobj(linalg._real_if_rounding(x, m, cfg))
        assert np.iscomplexobj(linalg._real_if_rounding(x * (1 + 1e-15j), m, cfg))
        assert np.iscomplexobj(linalg._real_if_rounding(x, m.astype(complex), cfg))


class TestCommutator:
    def test_sl2_relations(self):
        np.testing.assert_allclose(commutator(S1, S2), -2 * S1)
        np.testing.assert_allclose(commutator(S2, S3), -2 * S3)
        np.testing.assert_allclose(commutator(S1, S3), -S2)

    def test_self_commutator_zero(self, rng):
        m = rng.standard_normal((3, 3))
        np.testing.assert_array_equal(commutator(m, m), np.zeros((3, 3)))

    def test_antisymmetry_exact(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))

    def test_bilinearity(self, rng):
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = commutator(2.0 * a + 0.5 * b, c)
        rhs = 2.0 * commutator(a, c) + 0.5 * commutator(b, c)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(linalg.LinalgError):
            commutator(S1, np.eye(3))


class TestCentralizer:
    def test_s1_traceless(self):
        basis = centralizer_basis([S1], restrict_traceless=True)
        assert basis.dim == 1
        coef = basis.mats[0][0, 1]
        np.testing.assert_allclose(basis.mats[0], coef * S1, atol=1e-12)

    def test_empty_input_gives_sl(self):
        basis = centralizer_basis([], restrict_traceless=True, n=2)
        assert basis.dim == 3

    def test_jordan_j_n3(self):
        j = np.zeros((3, 3))
        j[0, 1] = 1.0
        expected = centralizer_dim_bruteforce([j], 3, traceless=True)
        assert expected == 4  # n^2 - 2n + 1
        basis = centralizer_basis([j], restrict_traceless=True)
        assert basis.dim == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_bruteforce_seeded(self, n):
        rng = np.random.default_rng(100 + n)
        for trial in range(67):
            count = rng.integers(1, 4)
            mats = [rng.standard_normal((n, n)) for _ in range(count)]
            traceless = bool(trial % 2)
            got = centralizer_basis(mats, restrict_traceless=traceless).dim
            want = centralizer_dim_bruteforce(mats, n, traceless=traceless)
            assert got == want

    def test_every_element_commutes(self, rng):
        mats = [rng.standard_normal((3, 3)) for _ in range(2)]
        basis = centralizer_basis(mats, restrict_traceless=True)
        for g in basis.mats:
            for k in mats:
                assert np.linalg.norm(commutator(g, k)) < 1e-9


def _double_centralizer(s: SubspaceBasis) -> SubspaceBasis:
    c = centralizer_basis(s.mats, restrict_traceless=True, n=s.n)
    return centralizer_basis(c.mats, restrict_traceless=True, n=s.n)


class TestDoubleCentralizer:
    def test_borel_not_fixed(self):
        # the centralizer of the Borel algebra in sl(2) is 0, so C(C(b)) = sl(2)
        cc = _double_centralizer(SubspaceBasis(mats=[S1, S2 / np.sqrt(2)], in_sl=True))
        assert cc.dim == 3

    def test_torus_fixed(self):
        s = SubspaceBasis(mats=[S2 / np.sqrt(2)], in_sl=True)
        cc = _double_centralizer(s)
        assert cc.dim == 1 and cc.contains(s.mats[0])

    def test_zero_fixed(self):
        assert _double_centralizer(SubspaceBasis(mats=[], n=2, in_sl=True)).dim == 0

    def test_span_contained_in_double_centralizer(self, rng, cfg):
        # every centralizer is bracket-closed, and s subset C(C(s)) must hold
        for trial in range(10):
            seedm = [random_traceless(rng, 3) for _ in range(2)]
            s = centralizer_basis(seedm, restrict_traceless=True)
            if s.dim == 0:
                continue
            c = centralizer_basis(s.mats, restrict_traceless=True, n=3)
            cc = centralizer_basis(c.mats, restrict_traceless=True, n=3)
            for m in s.mats:
                assert cc.contains(m)


class TestEigAndJordan:
    def test_diagonal_clusters(self, cfg):
        clusters = eig_clustered(np.diag([2.0, 0.0]), cfg)
        assert [(round(c.value.real, 9), c.multiplicity) for c in clusters] \
            == [(0.0, 1), (2.0, 1)]

    def test_nilpotent_block_single_cluster(self, cfg):
        clusters = eig_clustered(S1, cfg)
        assert len(clusters) == 1
        assert clusters[0].multiplicity == 2
        assert abs(clusters[0].value) < 1e-7
        assert clusters[0].basis.shape == (2, 2)

    def test_complex_pair_promotion(self, cfg):
        m = np.array([[1.0, 1.0], [-1.0, 1.0]])
        clusters = eig_clustered(m, cfg)
        vals = sorted((c.value for c in clusters), key=lambda z: z.imag)
        np.testing.assert_allclose(vals, [1 - 1j, 1 + 1j], atol=1e-9)
        assert all(c.promoted for c in clusters)

    def test_jc_diagonalizable(self, cfg):
        m = np.array([[2.0, 1.0], [0.0, -1.0]])
        ms, mn = jordan_chevalley(m, cfg)
        np.testing.assert_allclose(ms, m, atol=1e-9)
        np.testing.assert_allclose(mn, Z2, atol=1e-9)

    def test_jc_nilpotent(self, cfg):
        ms, mn = jordan_chevalley(S1, cfg)
        np.testing.assert_allclose(ms, Z2, atol=1e-7)
        np.testing.assert_allclose(mn, S1, atol=1e-7)

    def test_jc_jordan_block(self, cfg):
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        ms, mn = jordan_chevalley(m, cfg)
        np.testing.assert_allclose(ms, E2, atol=1e-7)
        np.testing.assert_allclose(mn, S1, atol=1e-7)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_jc_properties_random(self, n, cfg):
        rng = np.random.default_rng(300 + n)
        for _ in range(25):
            m = rng.standard_normal((n, n))
            ms, mn = jordan_chevalley(m, cfg)
            scale = 1.0 + np.linalg.norm(m)
            assert np.linalg.norm(m - ms - mn) < cfg.residual_tol * scale
            assert np.linalg.norm(commutator(ms, mn)) < cfg.residual_tol * scale
            assert np.linalg.norm(np.linalg.matrix_power(mn, n)) \
                < cfg.residual_tol * scale ** n
            # semisimple part has a full eigenvector basis
            _, vecs = np.linalg.eig(ms.astype(complex))
            assert np.linalg.matrix_rank(vecs) == n

    def test_jordan_form_roundtrip(self, cfg):
        m = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        j, s, _ = jordan_form(m, cfg)
        np.testing.assert_allclose(s @ j @ np.linalg.inv(s), m, atol=1e-8)

    @pytest.mark.parametrize("blocks,diag", JORDAN_FAMILIES)
    def test_jordan_form_in_random_bases(self, blocks, diag, cfg):
        # the true chains or a refusal, never a non-square S or wrong lengths;
        # only a J5 family may refuse, on at most one of the 40 draws (seed
        # 36, where the staircase cannot tell 0.25 or -0.3 from the J5 block)
        want = {0.0: sorted(blocks, reverse=True)}
        for d in diag:
            want[d] = want.get(d, []) + [1]
        refused = 0
        for seed in range(40):
            m = in_random_basis(jordan_matrix(blocks, diag), seed)
            try:
                j, s, chains = jordan_form(m, cfg)
            except linalg.LinalgError:
                refused += 1
                continue
            assert s.shape == m.shape, seed
            got, off = {}, 0
            for lengths in chains:
                got[round(j[off, off].real, 6)] = lengths
                off += sum(lengths)
            assert got == want, seed
            assert np.linalg.norm(m @ s - s @ j) \
                <= 1e-12 * np.linalg.norm(m) * np.linalg.norm(s), seed
        assert refused <= (5 in blocks)

    @pytest.mark.parametrize("a", [1e-8, 1e3])
    @pytest.mark.parametrize("blocks,diag", JORDAN_FAMILIES[:7])
    def test_clusters_are_scale_covariant(self, blocks, diag, a, cfg):
        # t -> a t scales every eigenvalue: the multiplicities and Weyr
        # characteristics of a m are those of m
        for seed in range(20):
            m = in_random_basis(jordan_matrix(blocks, diag), seed)
            want = [(c.multiplicity, c.weyr) for c in eig_clustered(m, cfg)]
            got = eig_clustered(a * m, cfg)
            assert [(c.multiplicity, c.weyr) for c in got] == want, seed

    def test_jc_on_a_fivefold_block(self, cfg):
        # C (J5 + diag(0.5, 0.25, -1)) C^-1, whose five computed eigenvalues
        # near 0 scatter by up to 4e-3: the nilpotent part is C J5 C^-1
        j5 = jordan_matrix([5], [0.0, 0.0, 0.0])
        diag = jordan_matrix([], [0.0] * 5 + [0.5, 0.25, -1.0])
        refused = 0
        for seed in range(40):
            try:
                ms, mn = jordan_chevalley(in_random_basis(j5 + diag, seed), cfg)
            except linalg.LinalgError:
                refused += 1
                continue
            want = in_random_basis(j5, seed)
            assert np.linalg.norm(mn - want) <= 1e-6 * np.linalg.norm(want), seed
            assert np.linalg.norm(ms - in_random_basis(diag, seed)) \
                <= 1e-6 * np.linalg.norm(want), seed
        assert refused <= 1

    def test_jc_defective_in_random_bases(self, cfg):
        # the nilpotent part of C (diag(1, 1, 0) + E_12) C^-1 is C E_12 C^-1
        e12 = np.zeros((3, 3))
        e12[0, 1] = 1.0
        for seed in range(200):
            _, mn = jordan_chevalley(in_random_basis(np.diag([1.0, 1.0, 0.0]) + e12, seed), cfg)
            want = in_random_basis(e12, seed)
            assert np.linalg.norm(mn - want) <= 1e-6 * np.linalg.norm(want), seed


class TestRealArithmetic:
    """A real matrix is factored in real arithmetic wherever its spectrum allows."""

    @pytest.mark.parametrize("blocks,diag", [([2, 1], [])] + JORDAN_FAMILIES[:7])
    def test_real_spectrum_gives_real_jordan_form(self, blocks, diag, cfg):
        for seed in range(10):
            m = in_random_basis(jordan_matrix(blocks, diag), seed)
            j, s, chains = jordan_form(m, cfg)
            assert j.dtype == s.dtype == np.float64, seed
            assert np.linalg.norm(s @ j @ np.linalg.inv(s) - m) <= 1e-10 * np.linalg.norm(m), seed
            # the same chains as the factorization of the same matrix stored complex
            assert chains == jordan_form(m.astype(complex), cfg)[2], seed
            assert all(not c.promoted and isinstance(c.value, float)
                       for c in eig_clustered(m, cfg)), seed

    def test_nonreal_pair_stays_complex(self, cfg):
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for seed in range(10):
            m = in_random_basis(np.block([[rot, np.zeros((2, 1))],
                                          [np.zeros((1, 2)), np.ones((1, 1))]]), seed)
            j, s, chains = jordan_form(m, cfg)
            assert j.dtype == s.dtype == np.complex128, seed
            assert chains == [[1], [1], [1]], seed
            np.testing.assert_allclose(np.sort_complex(np.round(np.diag(j), 9)),
                                       [-1j, 1j, 1.0], atol=1e-9)
            assert np.linalg.norm(s @ j @ np.linalg.inv(s) - m) <= 1e-10 * np.linalg.norm(m), seed


def jordan_matrix(blocks, diag):
    """Nilpotent Jordan blocks of the given sizes, then diag(diag)."""
    m = np.diag(np.r_[np.zeros(sum(blocks)), diag])
    offset = 0
    for b in blocks:
        for i in range(offset, offset + b - 1):
            m[i, i + 1] = 1.0
        offset += b
    return m


def in_random_basis(m, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(m.shape) + 2.0 * np.eye(len(m))
    return c @ m @ np.linalg.inv(c)


class TestStaircase:
    @pytest.mark.parametrize("blocks,diag,want", [
        ([3, 1], [1.0, 2.0], (2, 1, 1, 2)),
        ([2, 2], [], (2, 2, 0)),
        ([4], [-1.5], (1, 1, 1, 1, 1)),
        ([1], [1.0, -1.0, 3.0], (1, 3)),
        ([3, 2, 1], [0.7, -0.4], (3, 2, 1, 2)),
        ([], [1.0, -2.0, 0.5], (3,)),
    ])
    def test_jordan_matrices_in_random_bases(self, blocks, diag, want, cfg):
        for seed in range(5):
            m = in_random_basis(jordan_matrix(blocks, diag), seed)
            assert staircase(m, cfg) == want, seed
            assert is_nilpotent(m, cfg) == (want[-1] == 0)

    def test_zero(self, cfg):
        assert staircase(np.zeros((3, 3)), cfg) == (3, 0)
        assert is_nilpotent(np.zeros((3, 3)), cfg)

    @pytest.mark.parametrize("seed", [22, 24, 56, 59])
    def test_conjugated_nilpotent_with_split_eigenvalues(self, seed, cfg):
        # rounding splits the eigenvalues of Y = C S1 C^-1 about 1e-8 to 6e-8 apart
        y = in_random_basis(S1, seed)
        assert np.max(np.abs(np.linalg.eigvals(y))) > 1e-9
        assert staircase(y, cfg) == (1, 1, 0)
        assert is_nilpotent(y, cfg)

    def test_small_eigenvalue_is_not_zero(self, cfg):
        m = in_random_basis(np.diag([1.0, 8e-4]), 3)
        assert staircase(m, cfg) == (2,)
        assert not is_nilpotent(m, cfg)

    def test_complex_input(self, cfg):
        m = jordan_matrix([2], [1.0 + 1.0j])
        assert staircase(in_random_basis(m, 4), cfg) == (1, 1, 1)


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_allclose(linalg.exp_factory(Z2)(1.0), E2)

    def test_nilpotent(self):
        np.testing.assert_allclose(linalg.exp_factory(S1)(1.0), E2 + S1)

    def test_diagonal(self):
        out = linalg.exp_factory(np.diag([0.3, -1.2]))(1.0)
        np.testing.assert_allclose(out, np.diag([np.exp(0.3), np.exp(-1.2)]))

    def test_inverse_property_random(self, cfg):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.standard_normal((3, 3))
            m *= min(1.0, 5.0 / np.linalg.norm(m))
            ef = linalg.exp_factory(m)
            resid = np.linalg.norm(ef(1.0) @ ef(-1.0) - np.eye(3))
            assert resid < cfg.residual_tol

    def test_exp_factory_matches(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((3, 3))
        ef = linalg.exp_factory(m)
        for t in (-1.3, 0.0, 0.7):
            np.testing.assert_allclose(ef(t), scipy.linalg.expm(t * m), atol=1e-9)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("cplx", [False, True])
    def test_exp_factory_takes_arrays(self, n, cplx):
        ts = np.linspace(-1.0, 1.0, 9)
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            m = rng.standard_normal((n, n))
            if cplx:
                m = m + 1j * rng.standard_normal((n, n))
            ef = linalg.exp_factory(m)
            stacked = np.stack([ef(t) for t in ts])
            got = ef(ts)
            assert got.shape == (9, n, n) and got.dtype == stacked.dtype
            assert np.max(np.abs(got - stacked)) <= 1e-13 * np.max(np.abs(stacked))
            assert ef(0.3).shape == (n, n)
            assert ef(ts.reshape(3, 3)).shape == (3, 3, n, n)

    def test_past_eight(self):
        # the companion matrix of an n = 8 system is 16 x 16
        rng = np.random.default_rng(13)
        m = companion(rng.standard_normal((8, 8)), rng.standard_normal((8, 8)))
        ef = linalg.exp_factory(m)
        for t in (-1.0, 0.4, 1.0):
            ref = scipy.linalg.expm(t * m)
            assert np.max(np.abs(ef(t) - ref)) <= 1e-11 * np.max(np.abs(ref))

    def test_near_defective_takes_arrays(self):
        m = near_defective_4x4()
        ef = linalg.exp_factory(m)
        ts = np.linspace(-1.0, 1.0, 7)
        got = ef(ts)
        assert got.shape == (7, 4, 4) and ef(0.5).shape == (4, 4)
        for t, g in zip(ts, got):
            np.testing.assert_allclose(g, scipy.linalg.expm(t * m), rtol=1e-13, atol=1e-15)


class TestExpPair:
    """pair(t) gives exp(t m) and exp(-t m) from one set of Taylor powers and
    one stacked squaring; each matches its own evaluation."""

    @staticmethod
    def assert_pair_matches(ef, t):
        e, einv = ef.pair(t)
        for got, ref in ((e, ef(t)), (einv, ef(-np.asarray(t)))):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("cplx", [False, True])
    def test_matches_two_evaluations(self, n, cplx):
        for seed in range(3):
            rng = np.random.default_rng(100 * n + seed)
            m = rng.standard_normal((n, n))
            if cplx:
                m = m + 1j * rng.standard_normal((n, n))
            ef = linalg.exp_factory(m)
            # ||u m||_1 <= 1 needs s >= 3 squarings at the far end
            far = 10.0 / np.linalg.norm(m, 1)
            assert np.ceil(np.log2(far * np.linalg.norm(m, 1))) >= 3
            for t in (np.linspace(-1.0, 1.0, 9), np.linspace(-far, far, 7),
                      np.linspace(0.0, 1.0, 6).reshape(2, 3), 0.3, -far, 0.0, np.zeros(4)):
                self.assert_pair_matches(ef, t)
            e, einv = ef.pair(0.0)
            assert np.array_equal(e, np.eye(n)) and np.array_equal(einv, np.eye(n))

    def test_inverse_of_each_other(self):
        m = near_defective_4x4()
        e, einv = linalg.exp_factory(m).pair(np.linspace(-1.0, 1.0, 9))
        assert np.max(np.abs(e @ einv - np.eye(4))) <= 1e-13


class TestHatCheckSplit:
    def test_no_unit_gap(self, rng, cfg):
        ups = rng.standard_normal((2, 2))
        hat, check = hat_check_split(ups, np.diag([2.0, 0.0]), cfg)
        np.testing.assert_allclose(hat, Z2, atol=1e-9)
        np.testing.assert_allclose(check, ups, atol=1e-9)

    def test_unit_gap_keeps_corner(self, rng, cfg):
        ups = rng.standard_normal((2, 2))
        hat, check = hat_check_split(ups, np.diag([1.0, 0.0]), cfg)
        expected = np.zeros((2, 2))
        expected[0, 1] = ups[0, 1]
        np.testing.assert_allclose(hat, expected, atol=1e-9)
        np.testing.assert_allclose(hat + check, ups, atol=1e-12)

    def test_zero_upsilon(self, cfg):
        hat, check = hat_check_split(Z2, np.diag([1.0, 0.0]), cfg)
        np.testing.assert_allclose(hat, Z2)
        np.testing.assert_allclose(check, Z2)

    def test_bracket_identity(self, cfg):
        rng = np.random.default_rng(13)
        lam = np.diag([3.0, 2.0, 0.0])
        ups = rng.standard_normal((3, 3))
        hat, _ = hat_check_split(ups, lam, cfg)
        assert np.linalg.norm(commutator(lam, hat) - hat) < cfg.residual_tol

    def test_non_semisimple_rejected(self, cfg):
        with pytest.raises(linalg.LinalgError, match="not semisimple"):
            hat_check_split(S2, np.array([[1.0, 1.0], [0.0, 1.0]]), cfg)

    def test_defective_in_random_basis_rejected(self, cfg):
        # cond(C) = 535 at this seed
        lam = np.diag([1.0, 1.0, 0.0])
        lam[0, 1] = 1.0
        with pytest.raises(linalg.LinalgError, match="not semisimple"):
            hat_check_split(np.eye(3), in_random_basis(lam, 32), cfg)

    def test_semisimple_in_random_bases(self, cfg):
        rng = np.random.default_rng(14)
        for seed in range(40):
            lam = in_random_basis(np.diag([1.0, 1.0, 0.0]), seed)
            ups = rng.standard_normal((3, 3))
            hat, check = hat_check_split(ups, lam, cfg)
            assert np.linalg.norm(commutator(lam, hat) - hat) \
                <= 1e-9 * np.linalg.norm(lam) * np.linalg.norm(ups), seed


def k2_hat_check_inputs():
    """(upsilon, lam) of every ``hat_check_split`` call ``_normalize_k2`` makes
    when the casebook rows of both fields are classified (the k = 2 rows)."""
    calls = []
    split = linalg.hat_check_split
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "hat_check_split",
                   lambda ups, lam, cfg: calls.append((ups, lam)) or split(ups, lam, cfg))
        for fld in Field:
            for case in n2_cases(fld):
                symalg.classify(case.system)
    return calls


class TestHatCheckSplitArithmetic:
    """The split runs in the dtype of upsilon and lam's eigenbasis; real data
    stays real and agrees with the conjugation in complex128."""

    @staticmethod
    def inputs():
        # the casebook's k = 2 rows are real in both fields, so the calls are
        # float64; each gets its complex128 copy, and both dtypes are covered
        out = []
        rng = np.random.default_rng(3)
        for ups, lam in k2_hat_check_inputs():
            out.append((ups, lam))
            if not np.iscomplexobj(ups):
                out.append((ups.astype(complex), lam.astype(complex)))
            # the same lam in a random basis, with a generic upsilon
            c = rng.standard_normal(lam.shape) + 2.0 * np.eye(len(lam))
            out.append((rng.standard_normal(lam.shape).astype(ups.dtype),
                        c @ lam @ np.linalg.inv(c)))
        assert {u.dtype for u, _ in out} == {np.dtype(float), np.dtype(complex)}
        return out

    def test_real_inputs_give_real_blocks(self, cfg):
        for ups, lam in self.inputs():
            hat, check = hat_check_split(ups, lam, cfg)
            ref_hat, ref_check = hat_check_in_complex(ups, lam, cfg)
            real = not (np.iscomplexobj(ups) or np.iscomplexobj(lam))
            assert hat.dtype == check.dtype == (np.float64 if real else np.complex128)
            assert ref_hat.dtype == hat.dtype
            scale = max(1.0, float(np.max(np.abs(ups))))
            assert np.max(np.abs(hat - ref_hat)) <= 1e-12 * scale
            assert np.max(np.abs(check - ref_check)) <= 1e-12 * scale

    def test_nonreal_spectrum_of_a_real_lam(self, cfg):
        # eigenvalues 1 +- i and +-i: the basis is complex, the hat real
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        lam = np.block([[np.eye(2) + rot, np.zeros((2, 2))], [np.zeros((2, 2)), rot]])
        ups = np.random.default_rng(5).standard_normal((4, 4))
        hat, check = hat_check_split(ups, lam, cfg)
        ref_hat, _ = hat_check_in_complex(ups, lam, cfg)
        assert hat.dtype == check.dtype == np.float64
        assert np.max(np.abs(hat - ref_hat)) <= 1e-12 * np.max(np.abs(ups))
        assert np.linalg.norm(commutator(lam, hat) - hat) < cfg.residual_tol


class TestInvertibleSearch:
    def test_identity_line(self, cfg):
        m = invertible_in_affine_space([E2], Z2, cfg, seed=1)
        assert m is not None
        assert abs(np.linalg.det(m)) > 1e-9

    def test_nilpotent_line_none(self, cfg):
        assert invertible_in_affine_space([S1], Z2, cfg, seed=1) is None

    def test_affine_shift(self, cfg):
        m = invertible_in_affine_space([S1], E2, cfg, seed=1)
        assert m is not None
        np.testing.assert_allclose(np.linalg.det(m), 1.0, atol=1e-9)
