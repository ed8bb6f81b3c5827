"""Dense small-dimension linear-algebra kernel.

Nullspaces, commutators, ad-operators and centralizers, clustered
eigenstructure, Jordan-Chevalley splitting, Taylor scaling-and-squaring
exponential factories t -> exp(t m) and a randomized search for invertible
elements of affine matrix families.  Everything is a pure function of its
inputs; matrices are numpy arrays (float64 or complex128) of any size.

Every rank, membership and stop decision is one ``cut``: the count of values
above a threshold and its margin, how near the nearest value on either side
came to it; ``span_solve`` (membership) and ``conditioning`` (invertibility) are such cuts.

Every Jordan-structure decision is read from one staircase (``_flag``): the
Weyr characteristic of the zero eigenvalue (``staircase``), and per
eigenvalue cluster of m the generalized eigenspace, Weyr characteristic and
Jordan chains of m - mu E (``eig_clustered``, ``jordan_form``,
``hat_check_split``).  No power of a matrix is formed.

The arithmetic follows the data: a real matrix is factored in real
arithmetic wherever its spectrum allows.  Its eigenvalues are computed once in
complex (the clustering decisions), but a cluster on the real axis takes its
flag and chains from the real m - mu E, so ``jordan_form`` of a real matrix
with a real spectrum returns real J and S, and ``exp_factory`` of a real
matrix is real.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .scalars import DEFAULT_TOL, ToleranceConfig

# exp_factory: Taylor degree and the bound on ||u m||_1 after scaling
EXP_DEGREE = 18
EXP_THETA = 1.0
# (-1)^k, k = 1..EXP_DEGREE: the powers of -u from those of u
_EXP_SIGNS = (-1.0) ** np.arange(1, EXP_DEGREE + 1)


class LinalgError(ValueError):
    pass


def _check_square(m: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """m as an array; a square matrix, or with stack set a stack m[..., n, n]."""
    m = np.asarray(m)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise LinalgError(f"{name} must be square, got shape {m.shape}")
    return m


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = ab - ba."""
    a = _check_square(a, "a")
    b = _check_square(b, "b")
    if a.shape != b.shape:
        raise LinalgError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def frobenius_norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


class Cut(NamedTuple):
    rank: int  # how many values lie strictly above the threshold
    margin: float  # >= 1; the nearer of s[rank-1] / threshold and threshold / s[rank]


def _ratio(big: float, small: float) -> float:
    # an empty side, a zero value or a zero threshold decides exactly
    return big / small if 0.0 < small < math.inf else math.inf


def cut(s, threshold: float) -> Cut:
    """The decision ``s > threshold`` over nonnegative values s in descending
    order, as an SVD returns them: the count above and the margin, the ratio
    of the nearest value on either side to the threshold.  The margin is
    inf where a side is empty or the decision exact, and never NaN."""
    s = np.asarray(s)
    rank = int(np.count_nonzero(s > threshold))
    low = float(s[rank - 1]) if rank else math.inf
    high = float(s[rank]) if rank < len(s) else 0.0
    return Cut(rank, min(_ratio(low, threshold), _ratio(threshold, high)))


def span_solve(a: np.ndarray, b: np.ndarray, tol: float):
    """Least-squares x with a x ~ b, or None when b is not in the span of a's
    columns: the residual ||b - a x|| is above tol (1 + ||b||)."""
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    resid = float(np.linalg.norm(b - a @ x))
    return None if cut([resid], tol * (1.0 + float(np.linalg.norm(b)))).rank else x


def conditioning(stack: np.ndarray, rank_tol: float) -> tuple:
    """(cut, j, ratio_j): one cut at rank_tol of the ratios sigma_min / sigma_max
    of a stack m[j, n, n] (0 for a zero or non-finite m[j]), and the worst m[j].
    Unlike |det m| the ratio is free of m's scale and size (Higham, 2002)."""
    finite = np.isfinite(stack).all(axis=(-2, -1))
    s = np.linalg.svd(np.where(finite[:, None, None], stack, 0.0), compute_uv=False)
    ratio = np.divide(s[:, -1], s[:, 0], out=np.zeros(len(s)), where=s[:, 0] > 0.0)
    return cut(np.sort(ratio)[::-1], rank_tol), int(np.argmin(ratio)), float(np.min(ratio))


def nullspace(a: np.ndarray, rank_tol: float) -> np.ndarray:
    """Orthonormal nullspace basis (columns), relative SV cutoff rank_tol."""
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return np.eye(a.shape[1], dtype=a.dtype)
    # a tall matrix needs only the thin factors; a wide one the full vh
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = cut(s, rank_tol * (s[0] if s.size else 0.0)).rank
    return vh[rank:].conj().T


def _vec(m: np.ndarray) -> np.ndarray:
    # column-major vec, matching the Kronecker identities used below
    return np.asarray(m).reshape(-1, order="F")


def ad_operator(k: np.ndarray) -> np.ndarray:
    """Matrix of Gamma -> [Gamma, k] acting on vec(Gamma) (column-major).

    A stack k[..., n, n] gives the stack of operators, each bitwise equal to
    the operator of its matrix.
    """
    k = _check_square(k, stack=True)
    n = k.shape[-1]
    eye = np.eye(n, dtype=k.dtype)
    # vec(Gamma k) = (k^T ox I) vec(Gamma); vec(k Gamma) = (I ox k) vec(Gamma),
    # the Kronecker products written as np.kron forms them
    kt = np.swapaxes(k, -1, -2)
    op = (kt[..., :, None, :, None] * eye[:, None, :]
          - eye[:, None, :, None] * k[..., None, :, None, :])
    return op.reshape(k.shape[:-2] + (n * n, n * n))


@dataclass
class SubspaceBasis:
    """A list of mutually independent matrices spanning a subspace of gl(n).

    Independence is certified by the rank of the Frobenius Gram matrix; when
    in_sl is set every element is traceless.
    """

    mats: list = field(default_factory=list)
    n: int = 0
    in_sl: bool = False

    def __post_init__(self) -> None:
        self.mats = [np.asarray(m) for m in self.mats]
        if self.mats:
            self.n = self.mats[0].shape[0]
            flat = np.stack(self.mats).reshape(len(self.mats), -1)
            s = np.linalg.svd(flat.conj() @ flat.T, compute_uv=False)
            if cut(s, 1e-12 * s[0]).rank != len(self.mats):
                raise LinalgError("basis elements are not independent (Gram rank deficient)")
            if self.in_sl:
                for m in self.mats:
                    if abs(np.trace(m)) > 1e-9 * (1.0 + frobenius_norm(m)):
                        raise LinalgError("basis tagged sl(n) contains a non-traceless element")

    @property
    def dim(self) -> int:
        return len(self.mats)

    def stacked(self) -> np.ndarray:
        """Rows are vec'd basis elements; empty -> (0, n*n)."""
        if not self.mats:
            return np.zeros((0, self.n * self.n))
        return np.stack([_vec(m) for m in self.mats])

    def contains(self, m: np.ndarray, tol: float = 1e-8) -> bool:
        """Membership of span via least-squares projection residual."""
        if not self.mats:
            return not cut([frobenius_norm(m)], tol).rank
        return span_solve(self.stacked().T, _vec(m), tol) is not None


@functools.lru_cache(maxsize=None)
def _sl_basis(n: int) -> np.ndarray:
    """Orthonormal basis of sl(n) as a stack (n^2 - 1, n, n): the off-diagonal
    units, then the Helmert diagonals (e_1 + .. + e_k - k e_{k+1}) / sqrt(k(k+1)).
    Built once per n and read-only."""
    units = np.eye(n * n).reshape(-1, n, n)
    helmert = [np.diag(np.r_[np.ones(k), -k, np.zeros(n - k - 1)] / math.sqrt(k * (k + 1)))
               for k in range(1, n)]
    basis = np.concatenate([units[~np.eye(n, dtype=bool).reshape(-1)],
                            np.reshape(helmert, (-1, n, n))])
    basis.setflags(write=False)
    return basis


def centralizer_basis(mats, restrict_traceless: bool = False, n: int | None = None,
                      cfg: ToleranceConfig = DEFAULT_TOL) -> SubspaceBasis:
    """Orthonormal basis of {Gamma : [Gamma, K] = 0 for all K in mats}.

    Starts from an orthonormal basis N of sl(n) (gl(n) without the trace
    restriction) and intersects it with the nullspace of Gamma -> [Gamma, K]
    one K at a time, through the SVD of [N, K]; singular values at or below
    rank_tol times sqrt(sum_K ||ad_K||_F^2), ||ad_K||_F^2 = 2n ||K||^2 -
    2 |tr K|^2, count as zero.  Stops as soon as N is empty.  An empty
    collection needs n to fix the ambient dimension.
    """
    mats = [np.asarray(m) for m in mats]
    if mats:
        n = _check_square(mats[0]).shape[0]
        for m in mats:
            if _check_square(m).shape[0] != n:
                raise LinalgError("dimension mismatch in centralizer input")
    elif n is None:
        raise LinalgError("empty input needs explicit ambient dimension n")
    basis = _sl_basis(n) if restrict_traceless else np.eye(n * n).reshape(-1, n, n)
    stack = np.array(mats).reshape(-1, n, n)
    traces = np.trace(stack, axis1=1, axis2=2)
    bound = math.sqrt(max(2.0 * n * float(np.sum(np.abs(stack) ** 2))
                          - 2.0 * float(np.sum(np.abs(traces) ** 2)), 0.0))
    for k in stack:
        if not len(basis):
            break
        image = (basis @ k - k @ basis).reshape(len(basis), n * n)
        _, s, vh = np.linalg.svd(image.T, full_matrices=False)
        rank = cut(s, cfg.rank_tol * bound).rank
        basis = np.tensordot(vh[rank:].conj(), basis, axes=1)
    return SubspaceBasis(mats=list(basis), n=n, in_sl=restrict_traceless)


@dataclass
class EigCluster:
    # the mean of the cluster's computed eigenvalues; a real m gives the float
    # real part for a cluster that is not promoted, whose flag is then real
    value: complex
    multiplicity: int
    # n x multiplicity, the staircase flag of m - value E: the first
    # weyr[0] + .. + weyr[j-1] columns span ker (m - value E)^j
    basis: np.ndarray
    weyr: tuple  # Weyr characteristic (n_1, .., n_p), summing to multiplicity
    promoted: bool = False  # real input, nonreal cluster value


def _flag(m: np.ndarray, threshold: float) -> tuple:
    """Staircase of m: its zero eigenvalue's Weyr characteristic and flag.

    Returns (weyr, q) with weyr = [n_1, .., n_p], n_j = dim ker m^j -
    dim ker m^(j-1) > 0, and q unitary whose first n_1 + .. + n_j columns span
    ker m^j.  Each step takes the SVD of the current block, counts its singular
    values at or below threshold as the next n_j, rotates those null vectors first
    and keeps the trailing block (the staircase of Kagstrom & Ruhe, ACM TOMS 6
    (1980); Golub & Wilkinson, SIAM Rev. 18 (1976)).  No power of m is formed,
    so the cut does not drift with cond(m)^j.  The n_j never increase:
    rotated, the kept columns of a block are [X; Y] with n_j rows in X and
    every singular value above threshold, so the next block Y has at most n_j
    singular values at or below it.
    """
    q = np.eye(len(m), dtype=np.result_type(m, np.float64))
    weyr = []
    done = 0
    block = m
    while len(block):
        _, s, vh = np.linalg.svd(block)
        rank = cut(s, threshold).rank
        if rank == len(s):
            break
        q[:, done:] = q[:, done:] @ np.vstack([vh[rank:], vh[:rank]]).conj().T
        weyr.append(len(s) - rank)
        done += len(s) - rank
        block = vh[:rank] @ block @ vh[:rank].conj().T
    return weyr, q


def _eig_cut(m: np.ndarray, cfg: ToleranceConfig) -> float:
    """The staircase's cut for m, eig_cluster_tol ||m||_2: it scales with m."""
    return cfg.eig_cluster_tol * float(np.linalg.norm(m, 2)) if m.size else 0.0


def eig_clustered(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> list:
    """Clustered eigen-decomposition with generalized eigenbases.

    The staircase decides every cluster (Kagstrom & Ruhe, ACM TOMS 6
    (1980)).  From single computed eigenvalues on, a group with mean mu is a
    cluster when the staircase of m - mu E (cut as in ``staircase``) has a
    kernel of the group's size and 2 max |member - mu| < min |other - mu|;
    otherwise it merges with its nearest group.  The mean of a defective
    cluster is accurate to rounding even where its members scatter like
    (u cond)^(1/k).  A group of every eigenvalue that the staircase disputes
    raises ``LinalgError``.  Clusters are ordered by real, then imaginary
    part; each basis holds the flag of kernels of m - mu E.  Nonreal clusters
    of a real m are flagged promoted; every other cluster of a real m takes
    mu's real part and its flag from the real m - Re(mu) E, while the
    grouping, spread and promotion are read from the complex mean mu.
    """
    m = _check_square(m)
    n = m.shape[0]
    real_input = not np.iscomplexobj(m)
    try:
        vals = np.linalg.eigvals(m.astype(np.complex128))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR iteration cap
        raise LinalgError(f"eigenvalue iteration failed to converge: {exc}") from exc
    threshold = _eig_cut(m, cfg)
    dist = np.abs(vals[:, None] - vals[None, :])

    def accept(group):
        mu = complex(np.mean(vals[group]))
        promoted = real_input and cut([abs(mu.imag)], threshold).rank == 1
        value = mu.real if real_input and not promoted else mu
        weyr, q = _flag(m - value * np.eye(n), threshold)
        spread = float(np.max(np.abs(vals[group] - mu)))
        isolated = 2.0 * spread < np.min(np.abs(np.delete(vals, group) - mu), initial=np.inf)
        if sum(weyr) != len(group) or not isolated:
            return None
        return EigCluster(value, len(group), q[:, :len(group)], tuple(weyr), promoted)

    groups = [([i], accept([i])) for i in range(n)]
    while any(c is None for _, c in groups):
        if len(groups) == 1:
            raise LinalgError("the staircase disputes the cluster of all eigenvalues; "
                              "borderline clustering, adjust eig_cluster_tol")
        # the refused group with the shortest link to another group merges with it
        _, a, b = min((float(np.min(dist[np.ix_(ga, gb)])), a, b)
                      for a, (ga, ca) in enumerate(groups) if ca is None
                      for b, (gb, _) in enumerate(groups) if b != a)
        merged = sorted(groups[a][0] + groups[b][0])
        groups = [g for i, g in enumerate(groups) if i not in (a, b)] + [(merged, accept(merged))]
    return sorted((c for _, c in groups),
                  key=lambda c: (round(c.value.real, 12), round(c.value.imag, 12)))


def _real_if_rounding(x: np.ndarray, m: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """x.real when m is real and max |x.imag| <= 1e4 rank_tol (1 + ||m||_F), else x."""
    bound = 1e4 * cfg.rank_tol * (1.0 + frobenius_norm(m))
    return x if np.iscomplexobj(m) or cut([np.max(np.abs(x.imag))], bound).rank else x.real


def jordan_chevalley(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL):
    """Split m = m_s + m_n into commuting semisimple and nilpotent parts.

    m_s = sum mu_i P_i with spectral projectors built from the clustered
    generalized eigenspaces.
    """
    m = _check_square(m)
    clusters = eig_clustered(m, cfg)
    s = np.hstack([c.basis for c in clusters])
    diag = np.concatenate([[c.value] * c.multiplicity for c in clusters])
    ms = _real_if_rounding(s @ np.diag(diag) @ np.linalg.inv(s), m, cfg)
    return ms, m - ms


def staircase(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """Weyr characteristic of m's zero eigenvalue, then its count of nonzero ones.

    Returns (n_1, .., n_p, r) with n_j = dim ker m^j - dim ker m^(j-1) > 0 and
    r the size of the nonsingular remainder, so n_1 + .. + n_p + r = n: the
    staircase ``_flag`` cut at eig_cluster_tol ||m||_2.  A conjugated
    nilpotent whose computed eigenvalues split apart still reads nilpotent.
    """
    m = _check_square(m)
    weyr, _ = _flag(m, _eig_cut(m, cfg))
    return tuple(weyr) + (len(m) - sum(weyr),)


def is_nilpotent(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Nilpotency as the staircase reads it: no nonsingular remainder."""
    return staircase(m, cfg)[-1] == 0


def jordan_form(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL):
    """Jordan normal form (J, S, chains) with m = S J S^{-1}, blocks per cluster.

    Each cluster's chains are read from its staircase flag (``eig_clustered``):
    with a = m - mu E and Weyr characteristic (n_1, .., n_p), n_j - n_{j+1}
    chains have length j.  Their tops are the flag's step-j columns rotated
    away from the height-j vectors of the longer chains, so that step j - 1,
    the longer chains and the new tops are independent, and each chain
    descends from its top by a.  chains holds, per cluster in J's order, the
    lengths of its Jordan blocks, longest first.  J and S are real when m is
    real and no cluster is promoted (a real spectrum), else complex.
    """
    m = _check_square(m)
    n = m.shape[0]
    cols = []
    diag = []  # J's diagonal: each column's eigenvalue
    links = []  # J's superdiagonal: 1 where the next column continues the chain
    lengths = []
    for c in eig_clustered(m, cfg):
        a = m - c.value * np.eye(n)
        steps = np.cumsum((0,) + c.weyr)
        chains = []  # eigenvector first, so chain[j - 1] is its height-j vector
        for j in range(len(c.weyr), 0, -1):
            tops = c.basis[:, steps[j - 1]:steps[j]]
            if chains:
                longer = tops.conj().T @ np.stack([chain[j - 1] for chain in chains], axis=1)
                tops = tops @ np.linalg.svd(longer)[0][:, len(chains):]
            for v in tops.T:
                chain = [v]
                for _ in range(j - 1):
                    chain.append(a @ chain[-1])
                chains.append(chain[::-1])
        for chain in chains:
            cols.extend(chain)
            diag.extend([c.value] * len(chain))
            links.extend([1.0] * (len(chain) - 1) + [0.0])
        lengths.append([len(chain) for chain in chains])
    s = np.stack(cols, axis=1)
    j = np.diag(np.array(diag, dtype=s.dtype))
    j += np.diag(links[:-1], 1)
    return j, s, lengths


def exp_factory(m: np.ndarray):
    """Return t -> exp(t*m) by Taylor scaling and squaring.

    The terms m^k / k!, k <= EXP_DEGREE, are built once.  Each call takes one
    s = max(0, ceil(log2(max|t| ||m||_1 / EXP_THETA))) for all its points, sums
    the Taylor polynomial in u = t / 2^s as one product of the powers u^k with
    the stacked terms, and squares the result s times as stacked matmuls
    (Moler & Van Loan, SIAM Rev. 45 (2003); Higham, SIAM J. Matrix Anal. Appl.
    26 (2005)).  With ||u m||_1 <= 1 the truncated tail is below 1 / 19!.  No
    eigendecomposition is taken, so nearly defective m loses no digits.  The
    evaluator takes a scalar t or an array of them and returns
    ``t.shape + (n, n)``; real m gives real results in real arithmetic.  Its
    ``pair(t)`` returns (exp(t m), exp(-t m)) from one call: the powers of
    -u are those of u with alternating signs, so both sums share them, and
    both stacks are squared together.
    """
    m = _check_square(m)
    n = m.shape[0]
    terms = [np.eye(n, dtype=m.dtype)]
    for k in range(1, EXP_DEGREE + 1):
        terms.append(terms[-1] @ m / k)
    terms = np.reshape(terms, (EXP_DEGREE + 1, n * n))
    norm = float(np.linalg.norm(m, 1))

    def evaluate(t) -> np.ndarray:
        t, s, powers = _scaled_powers(t, norm)
        return _squared((powers @ terms[1:] + terms[0]).reshape(t.shape + (n, n)), s)

    def pair(t) -> tuple:
        t, s, powers = _scaled_powers(t, norm)
        both = np.stack([powers, powers * _EXP_SIGNS])
        out = _squared((both @ terms[1:] + terms[0]).reshape((2,) + t.shape + (n, n)), s)
        return out[0], out[1]

    evaluate.pair = pair
    return evaluate


def _scaled_powers(t, norm: float) -> tuple:
    """t as an array, the squaring count s of ``exp_factory`` for a matrix of
    1-norm norm, and the powers u^k, k = 1..EXP_DEGREE, of u = t / 2^s."""
    t = np.asarray(t, dtype=float)
    reach = float(np.max(np.abs(t), initial=0.0)) * norm
    s = max(0, math.ceil(math.log2(reach / EXP_THETA))) if reach > 0.0 else 0
    u = t / 2.0 ** s
    return t, s, np.cumprod(np.broadcast_to(u[..., None], t.shape + (EXP_DEGREE,)), axis=-1)


def _squared(out: np.ndarray, s: int) -> np.ndarray:
    """out squared s times, each a stacked matmul."""
    for _ in range(s):
        out = out @ out
    return out


def hat_check_split(upsilon: np.ndarray, lam: np.ndarray,
                    cfg: ToleranceConfig = DEFAULT_TOL):
    """Split upsilon into (hat, check) blocks in the eigenbasis of lam.

    hat keeps blocks (i, j) with mu_i = mu_j + 1 (within eig_cluster_tol
    (1 + |mu_i|)); check keeps the rest.  lam must be semisimple, which the
    staircases of ``eig_clustered`` read as one Weyr step per cluster; then
    [lam, hat] = hat.  The conjugation runs in the dtype of upsilon and of
    lam's eigenbasis: real upsilon and a real lam with a real spectrum give
    real hat and check, and a real lam drops an imaginary part of hat at
    rounding level.
    """
    upsilon = _check_square(upsilon, "upsilon")
    lam = _check_square(lam, "lambda")
    clusters = eig_clustered(lam, cfg)
    if any(len(c.weyr) > 1 for c in clusters):
        raise LinalgError("lambda is not semisimple")
    s = np.hstack([c.basis for c in clusters])
    sinv = np.linalg.inv(s)
    u = sinv @ upsilon @ s
    sizes = [c.multiplicity for c in clusters]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    hat_b = np.zeros_like(u)
    for i, ci in enumerate(clusters):
        for j, cj in enumerate(clusters):
            if abs(ci.value - (cj.value + 1.0)) <= cfg.eig_cluster_tol * (1.0 + abs(ci.value)):
                hat_b[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                    u[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
    hat = s @ hat_b @ sinv
    hat = hat if np.iscomplexobj(lam) else _real_if_rounding(hat, upsilon, cfg)
    return hat, upsilon - hat


def invertible_in_affine_space(basis, offset: np.ndarray,
                               cfg: ToleranceConfig = DEFAULT_TOL,
                               seed: int = 0, trials: int = 64):
    """Search offset + span(basis) for an invertible element.

    Seeded randomized coefficients, first from the integer grid {-2..2}, then
    Gaussian.  Returns a witness matrix or None; absence of a witness in the
    trial budget is a value, not an error.
    """
    offset = _check_square(offset, "offset")
    basis = [np.asarray(b) for b in basis]
    rng = np.random.default_rng(seed)
    complex_field = np.iscomplexobj(offset) or any(np.iscomplexobj(b) for b in basis)

    def candidate(coeffs):
        m = offset.astype(np.complex128 if complex_field else np.float64).copy()
        for c, b in zip(coeffs, basis):
            m = m + c * b
        return m

    def invertible(m):
        s = np.linalg.svd(m, compute_uv=False)
        return cut(s, cfg.rank_tol * max(s[0], 1.0)).rank == len(s)

    def draw(grid):
        return rng.integers(-2, 3, size=len(basis)) if grid else rng.standard_normal(len(basis))

    if not basis:
        return offset if invertible(offset) else None
    for trial in range(trials):
        grid = trial < trials // 2
        m = candidate(draw(grid) + 1j * draw(grid) if complex_field else draw(grid))
        if invertible(m):
            return m
    return None
