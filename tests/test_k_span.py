"""The structured route against an independent oracle.

V = e^{tY} W e^{-tY} is classified through its K-span span{ad_Y^l W}: the span's
dimension comes from Arnoldi on ad_Y, s from the centralizer of V(t) samples.
The oracle is ``oracles.conj_exp_centralizer_dim``, an entrywise centralizer of
V(t) samples taken with scipy's expm.  Draws: rng = default_rng(seed), traceless
standard-normal Y, then W.
"""

import numpy as np
import pytest

from symode.gauge import EquivalenceTransform, SystemDescriptor, apply_equivalence
from symode.matfun import MatrixFunction, ScalarFunction, k_span_length
from symode.scalars import Field
from symode.symalg import classify, classify_structured, similar_structured

from conftest import DOM, S1, random_traceless
from oracles import centralizer_dim_bruteforce, conj_exp_centralizer_dim


def draw(seed, n):
    rng = np.random.default_rng(seed)
    return random_traceless(rng, n), random_traceless(rng, n)


def block_draw(seed, n):
    """Y and W block-diagonal, blocks of sizes n1 and n - n1, in a random basis C."""
    rng = np.random.default_rng(seed)
    n1 = int(rng.integers(1, n))
    c = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    ci = np.linalg.inv(c)

    def block():
        m = np.zeros((n, n))
        m[:n1, :n1] = rng.standard_normal((n1, n1))
        m[n1:, n1:] = rng.standard_normal((n - n1, n - n1))
        m = c @ m @ ci
        return m - np.trace(m) / n * np.eye(n)
    return block(), block()


# draws on which the monomial K-sequence failed to stabilize or gave a wrong dim s
FOUND = ([(5, s) for s in (3, 14, 20, 22, 24)] + [(6, s) for s in range(6)]
         + [(7, s) for s in range(4)] + [(8, s) for s in range(3)])


@pytest.mark.parametrize("n,seed", FOUND)
def test_found_draws_match_oracle(n, seed):
    ups, w = draw(seed, n)
    want, gap = conj_exp_centralizer_dim(ups, w)
    assert gap >= 1e6
    assert classify_structured(0.0, ups, w).dim_s == want


def test_affine_copy_n4_seed133():
    # the affine transform drawn from the same generator, after Y and W
    n = 4
    rng = np.random.default_rng(133)
    ups, w = random_traceless(rng, n), random_traceless(rng, n)
    a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-0.5, 0.5))
    c = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    sys = SystemDescriptor.lprime(MatrixFunction.conj_exp(0.0, ups, w, DOM))
    tr = EquivalenceTransform(T=ScalarFunction.polynomial([b, a], DOM),
                              H=MatrixFunction.constant(np.sqrt(a) * c, DOM))
    copy = apply_equivalence(sys, tr)
    assert copy.V.kind == "conj_exp"
    want, gap = conj_exp_centralizer_dim(copy.V.upsilon, copy.V.w)
    assert gap >= 1e6
    assert classify(copy).dim_s == want == classify(sys).dim_s


@pytest.mark.parametrize("n", range(2, 9))
def test_generic_span_length(n):
    for seed in range(4):
        ups, w = draw(1000 * n + seed, n)
        assert k_span_length(ups, w) == n * n - n + 1


@pytest.mark.parametrize("n", range(3, 9))
def test_block_draws_match_oracle(n):
    checked = 0
    for seed in range(8):
        ups, w = block_draw(5000 * n + seed, n)
        want, gap = conj_exp_centralizer_dim(ups, w)
        if gap < 1e6:
            continue  # rounding can flip the oracle's own answer
        assert want >= 1  # the block-scalar matrices commute with every V(t)
        assert classify_structured(0.0, ups, w).dim_s == want, seed
        checked += 1
    assert checked >= 6


def test_nearly_defective_upsilon_n2():
    # Y = 8 C S1 C^-1 is nilpotent; rounding splits its eigenvalues about 1e-7
    # apart on some of these draws (seeds 22, 24, 56, 59), so that an
    # exponential built on its eigenbasis loses up to all digits
    for seed in range(60):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        nil = c @ S1 @ np.linalg.inv(c)
        for w in (random_traceless(rng, 2), 0.7 * nil):
            want, gap = conj_exp_centralizer_dim(8.0 * nil, w)
            if gap >= 1e6:
                assert classify_structured(0.0, 8.0 * nil, w).dim_s == want, seed


def raw_k_span_dim_s(ups, w):
    """dim s over the raw terms K_0..K_{L-1}, each scaled to unit norm."""
    kl = [w]
    for _ in range(k_span_length(ups, w) - 1):
        kl.append(ups @ kl[-1] - kl[-1] @ ups)
    return centralizer_dim_bruteforce([k / np.linalg.norm(k) for k in kl], w.shape[0],
                                      traceless=True)


ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_periodic_upsilon_n2(m):
    # e^{Y} = +-I: samples one period apart are equal.  K_0 = W and K_1, a
    # multiple of [[0, 1], [1, 0]], span the K-span, whose centralizer in sl(2)
    # is 0
    ups, w = m * np.pi * ROT, np.diag([1.0, -1.0])
    assert k_span_length(ups, w) == 2
    assert raw_k_span_dim_s(ups, w) == 0
    assert classify_structured(0.0, ups, w).dim_s == 0


@pytest.mark.parametrize("m", [8.0, 4.0])
def test_periodic_upsilon_n3(m):
    # Y = m pi C diag(ROT, 0) C^-1: ad_Y has eigenvalues 0, +-m pi i, +-2 m pi i,
    # so L = 5 and an evenly spaced step of 1/4 folds the samples (all of them
    # onto one at m = 8)
    rng = np.random.default_rng(7)
    c = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    r = np.zeros((3, 3))
    r[:2, :2] = ROT
    ups = m * np.pi * c @ r @ np.linalg.inv(c)
    w = random_traceless(rng, 3)
    assert k_span_length(ups, w) == 5
    want = raw_k_span_dim_s(ups, w)
    assert classify_structured(0.0, ups, w).dim_s == want == 0


def similar_pair(seed, n, alpha=1.3):
    """(Y, V(0)) and its image under t -> alpha t and x -> M x, M = N(0,1) + 2I."""
    rng = np.random.default_rng(seed)
    ups = random_traceless(rng, n)
    v0 = rng.standard_normal((n, n))
    m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    mi = np.linalg.inv(m)
    return (ups, v0), (alpha * m @ ups @ mi, alpha ** 2 * m @ v0 @ mi)


@pytest.mark.parametrize("seed", [135, 140, 148])
def test_n4_similar_pairs(seed):
    verdict = similar_structured(*similar_pair(seed, 4), fld=Field.COMPLEX)
    assert verdict.outcome == "similar"


def test_n4_pair_127_lengths_agree():
    # similar by construction; the K-list lengths of the two sides agree
    verdict = similar_structured(*similar_pair(127, 4), fld=Field.COMPLEX)
    assert verdict.outcome == "similar"


def witness_residual_ok(verdict, b):
    return verdict.residual < 1e-8 * (1.0 + np.linalg.norm(b[0]) + np.linalg.norm(b[1]))


# pairs that a rank test on the powers of V(0) misread as "not_similar": the
# singular values of V(0)^k spread like cond(V(0))^k
STAIRCASE_SEEDS = {3: [29, 73, 117, 137, 186], 4: [25, 29, 33, 123, 127],
                   5: [3, 4, 23, 24, 27, 33, 34, 39, 45, 55, 56],
                   6: [3, 9, 11, 13, 14, 17, 20, 21, 23, 24, 25],
                   7: [2, 5, 6, 8, 11, 12, 13, 14, 16, 18, 19], 8: [0, 2, 6, 8]}


@pytest.mark.parametrize("n,seed", [(n, s) for n, seeds in STAIRCASE_SEEDS.items()
                                    for s in seeds])
def test_similar_pairs_real(n, seed):
    a, b = similar_pair(seed, n)
    verdict = similar_structured(a, b, fld=Field.REAL)
    assert verdict.outcome == "similar", verdict.obstruction
    assert witness_residual_ok(verdict, b)


def jordan_pairs(seed, n, alpha=1.3):
    """(Y, C (J2(0) + diag(lam)) C^-1) with two images under t -> alpha t and
    x -> M x: one of it, and one of C (0 + 0 + diag(lam)) C^-1, which has the
    same eigenvalues but two Jordan blocks at 0."""
    rng = np.random.default_rng(seed)
    ups = random_traceless(rng, n)
    c = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    lam = rng.uniform(0.5, 2.0, n - 2) * rng.choice([-1.0, 1.0], n - 2)
    m = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    ci, mi = np.linalg.inv(c), np.linalg.inv(m)
    split = np.diag(np.r_[0.0, 0.0, lam])
    jordan = split.copy()
    jordan[0, 1] = 1.0

    def image(v0):
        return alpha * m @ ups @ mi, alpha ** 2 * m @ c @ v0 @ ci @ mi
    return (ups, c @ jordan @ ci), image(jordan), image(split)


@pytest.mark.parametrize("n", range(3, 7))
def test_jordan_structure_at_zero_decides(n):
    similar = 0
    for seed in range(10):
        a, same, other = jordan_pairs(seed, n)
        verdict = similar_structured(a, other, fld=Field.REAL)
        assert verdict.outcome == "not_similar"
        assert verdict.obstruction.startswith("Jordan structures of V(0) at 0 differ")
        verdict = similar_structured(a, same, fld=Field.REAL)
        # a witness can fail to converge, but the invariants never refute
        assert verdict.outcome != "not_similar", (seed, verdict.obstruction)
        similar += verdict.outcome == "similar" and witness_residual_ok(verdict, same)
    assert similar >= 9
