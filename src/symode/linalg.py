"""Dense small-dimension linear-algebra kernel.

Nullspaces, commutators, ad-operators and centralizers, clustered
eigenstructure, Jordan-Chevalley splitting, Taylor scaling-and-squaring
exponential factories t -> exp(t m) and a randomized search for invertible
elements of affine matrix families.  Everything is a pure function of its
inputs; matrices are numpy arrays (float64 or complex128), n <= 8.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .scalars import DEFAULT_TOL, ToleranceConfig

MAX_DIM = 8
# exp_factory: Taylor degree and the bound on ||u m||_1 after scaling
EXP_DEGREE = 18
EXP_THETA = 1.0


class LinalgError(ValueError):
    pass


def _check_square(m: np.ndarray, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """m as an array; a square matrix, or with stack set a stack m[..., n, n]."""
    m = np.asarray(m)
    if (m.ndim < 2 if stack else m.ndim != 2) or m.shape[-1] != m.shape[-2]:
        raise LinalgError(f"{name} must be square, got shape {m.shape}")
    if m.shape[-1] > MAX_DIM:
        raise LinalgError(f"dimension {m.shape[-1]} exceeds supported maximum {MAX_DIM}")
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


def nullspace(a: np.ndarray, rank_tol: float, abs_tol: float = 0.0) -> np.ndarray:
    """Orthonormal nullspace basis (columns), relative SV cutoff rank_tol.

    abs_tol adds an absolute zero level (used for matrix powers whose
    should-be-zero singular values sit at (perturbation)^j rather than at
    machine precision relative to the power's own scale).
    """
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return np.eye(a.shape[1], dtype=a.dtype)
    # a tall matrix needs only the thin factors; a wide one the full vh
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    cut = max(rank_tol * (s[0] if s.size else 0.0), abs_tol)
    rank = int(np.sum(s > cut))
    return vh[rank:].conj().T


def rank_of(a: np.ndarray, rank_tol: float) -> int:
    a = np.atleast_2d(np.asarray(a))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


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
            gram = flat.conj() @ flat.T
            if rank_of(gram, 1e-12) != len(self.mats):
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
            return frobenius_norm(m) <= tol
        a = self.stacked().T
        v = _vec(m)
        coef, *_ = np.linalg.lstsq(a, v.astype(a.dtype) if not np.iscomplexobj(v) else v, rcond=None)
        resid = frobenius_norm(v - a @ coef)
        return resid <= tol * (1.0 + frobenius_norm(m))


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
        rank = int(np.sum(s > cfg.rank_tol * bound))
        basis = np.tensordot(vh[rank:].conj(), basis, axes=1)
    return SubspaceBasis(mats=list(basis), n=n, in_sl=restrict_traceless)


@dataclass
class EigCluster:
    value: complex
    multiplicity: int
    basis: np.ndarray  # n x multiplicity, generalized eigenvectors
    promoted: bool = False  # real input, nonreal cluster value


def eig_clustered(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL,
                  _radius_scale: float = 1.0) -> list:
    """Clustered eigen-decomposition with generalized eigenbases.

    Eigenvalues within the absolute-plus-relative radius merge into one
    cluster; clusters are ordered by ascending real part, then imaginary part.
    Real-tagged inputs are promoted to complex for the decomposition; nonreal
    clusters are flagged promoted.  Near-defective structure (a cluster whose
    generalized eigenspace comes up short because the computed eigenvalues
    split beyond the radius) escalates the radius before failing.
    """
    m = _check_square(m)
    n = m.shape[0]
    real_input = not np.iscomplexobj(m)
    mc = m.astype(np.complex128)
    try:
        vals = np.linalg.eigvals(mc)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - QR iteration cap
        raise LinalgError(f"eigenvalue iteration failed to converge: {exc}") from exc
    radius = _radius_scale * cfg.eig_cluster_tol * \
        (1.0 + float(np.max(np.abs(vals))) if vals.size else 1.0)
    # union-find on pairwise proximity
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(vals[i] - vals[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    reps = []
    for idx in groups.values():
        mu = complex(np.mean(vals[idx]))
        reps.append((mu, len(idx)))
    reps.sort(key=lambda p: (round(p[0].real, 12), round(p[0].imag, 12)))
    clusters = []
    for mu, mult in reps:
        shifted = mc - mu * np.eye(n)
        basis = None
        # defective clusters push the should-be-zero singular values of
        # (M - mu E)^j up to ~(cluster spread)^j; admit them through an
        # absolute zero level at (10 radius)^j once the strict cut fails
        for use_abs in (False, True):
            power = np.eye(n, dtype=np.complex128)
            for j in range(1, mult + 1):
                power = power @ shifted
                abs_cut = (10.0 * radius) ** j if use_abs else 0.0
                basis = nullspace(power, cfg.rank_tol, abs_tol=abs_cut)
                if basis.shape[1] >= mult:
                    break
            if basis is not None and basis.shape[1] >= mult:
                break
        if basis is None or basis.shape[1] < mult:
            if _radius_scale < 1e4:
                return eig_clustered(m, cfg, _radius_scale=10.0 * _radius_scale)
            raise LinalgError("generalized eigenspace smaller than clustered "
                              "multiplicity; borderline clustering, adjust "
                              "eig_cluster_tol")
        basis = basis[:, :mult]
        promoted = real_input and abs(mu.imag) > radius
        clusters.append(EigCluster(value=mu, multiplicity=mult, basis=basis, promoted=promoted))
    assert sum(c.multiplicity for c in clusters) == n
    return clusters


def jordan_chevalley(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL):
    """Split m = m_s + m_n into commuting semisimple and nilpotent parts.

    m_s = sum mu_i P_i with spectral projectors built from the clustered
    generalized eigenspaces.
    """
    m = _check_square(m)
    n = m.shape[0]
    clusters = eig_clustered(m, cfg)
    s = np.hstack([c.basis for c in clusters])
    diag = np.concatenate([[c.value] * c.multiplicity for c in clusters])
    ms = s @ np.diag(diag) @ np.linalg.inv(s)
    if not np.iscomplexobj(m):
        if np.max(np.abs(ms.imag)) < 1e4 * cfg.rank_tol * (1.0 + frobenius_norm(m)):
            ms = ms.real
    mn = m - ms
    return ms, mn


def staircase(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple:
    """Weyr characteristic of m's zero eigenvalue, then its count of nonzero ones.

    Returns (n_1, .., n_p, r) with n_j = dim ker m^j - dim ker m^(j-1) > 0 and
    r the size of the nonsingular remainder, so n_1 + .. + n_p + r = n.  Each
    step takes the SVD of the current block, counts its singular values at or
    below eig_cluster_tol ||m||_2 as the next n_j, rotates those null vectors
    first and keeps the trailing block (the staircase of Kagstrom & Ruhe, ACM
    TOMS 6 (1980); Golub & Wilkinson, SIAM Rev. 18 (1976)).  No power of m is
    formed, so the cut does not drift with cond(m)^j, and a conjugated
    nilpotent whose computed eigenvalues split apart still reads nilpotent.
    """
    m = _check_square(m)
    cut = cfg.eig_cluster_tol * float(np.linalg.norm(m, 2)) if m.size else 0.0
    nullities = []
    block = m
    while len(block):
        _, s, vh = np.linalg.svd(block)
        rank = int(np.sum(s > cut))
        if rank == len(s):
            break
        nullities.append(len(s) - rank)
        block = vh[:rank] @ block @ vh[:rank].conj().T
    return tuple(nullities) + (len(block),)


def is_nilpotent(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Nilpotency as the staircase reads it: no nonsingular remainder."""
    return staircase(m, cfg)[-1] == 0


def jordan_form(m: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL):
    """Jordan normal form (J, S, chains) with m = S J S^{-1}, blocks per cluster.

    Jordan chains are built by the standard nullspace filtration of
    (m - mu E)^j inside each clustered generalized eigenspace.  chains holds,
    per cluster in J's order, the lengths of its Jordan blocks, longest first.
    """
    m = _check_square(m)
    n = m.shape[0]
    mc = m.astype(np.complex128)
    clusters = eig_clustered(m, cfg)
    cols = []
    diag = []  # J's diagonal: each column's eigenvalue
    links = []  # J's superdiagonal: 1 where the next column continues the chain
    lengths = []
    for c in clusters:
        a = mc - c.value * np.eye(n)
        # nullspace filtration N_1 subset N_2 subset ...
        spaces = []
        power = np.eye(n, dtype=np.complex128)
        for _ in range(c.multiplicity):
            power = power @ a
            spaces.append(nullspace(power, cfg.rank_tol))
            if spaces[-1].shape[1] >= c.multiplicity:
                break
        depth = len(spaces)
        used = np.zeros((n, 0), dtype=np.complex128)
        chains = []
        for j in range(depth, 0, -1):
            top = spaces[j - 1]
            below = spaces[j - 2] if j >= 2 else np.zeros((n, 0), dtype=np.complex128)
            # candidates at height j not already covered and not lower-height
            avoid = np.hstack([below, used]) if below.size or used.size else np.zeros((n, 0))
            picked = _complement_columns(top, avoid, cfg)
            for v in picked.T:
                chain = [v]
                for _ in range(j - 1):
                    chain.append(a @ chain[-1])
                chains.append(chain[::-1])  # eigenvector first
                downs = np.stack(chain, axis=1)
                used = np.hstack([used, downs])
        for chain in chains:
            cols.extend(chain)
            diag.extend([c.value] * len(chain))
            links.extend([1.0] * (len(chain) - 1) + [0.0])
        lengths.append([len(chain) for chain in chains])
    s = np.stack(cols, axis=1)
    j = np.diag(np.array(diag, dtype=np.complex128))
    j += np.diag(links[:-1], 1)
    return j, s, lengths


def _complement_columns(space: np.ndarray, avoid: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Columns of `space` independent from span(avoid), orthonormalized."""
    if avoid.size == 0:
        return space
    q, _ = np.linalg.qr(avoid)
    resid = space - q @ (q.conj().T @ space)
    u, s, _ = np.linalg.svd(resid, full_matrices=False)
    keep = s > cfg.rank_tol * (s[0] if s.size and s[0] > 0 else 1.0)
    return u[:, keep]


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
    ``t.shape + (n, n)``; real m gives real results in real arithmetic.
    """
    m = _check_square(m)
    n = m.shape[0]
    terms = [np.eye(n, dtype=m.dtype)]
    for k in range(1, EXP_DEGREE + 1):
        terms.append(terms[-1] @ m / k)
    terms = np.reshape(terms, (EXP_DEGREE + 1, n * n))
    norm = float(np.linalg.norm(m, 1))

    def evaluate(t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        reach = float(np.max(np.abs(t), initial=0.0)) * norm
        s = max(0, math.ceil(math.log2(reach / EXP_THETA))) if reach > 0.0 else 0
        u = t / 2.0 ** s
        powers = np.cumprod(np.broadcast_to(u[..., None], t.shape + (EXP_DEGREE,)), axis=-1)
        out = (powers @ terms[1:] + terms[0]).reshape(t.shape + (n, n))
        for _ in range(s):
            out = out @ out
        return out

    return evaluate


def hat_check_split(upsilon: np.ndarray, lam: np.ndarray,
                    cfg: ToleranceConfig = DEFAULT_TOL):
    """Split upsilon into (hat, check) blocks in the eigenbasis of lam.

    hat keeps blocks (i, j) with mu_i = mu_j + 1 (within the clustering
    radius); check keeps the rest.  lam must be semisimple; then
    [lam, hat] = hat.
    """
    upsilon = _check_square(upsilon, "upsilon")
    lam = _check_square(lam, "lambda")
    _, ln = jordan_chevalley(lam, cfg)
    if frobenius_norm(ln) > 100.0 * cfg.eig_cluster_tol * (1.0 + frobenius_norm(lam)):
        raise LinalgError("lambda is not semisimple")
    clusters = eig_clustered(lam, cfg)
    s = np.hstack([c.basis for c in clusters])
    sinv = np.linalg.inv(s)
    u = sinv @ upsilon.astype(np.complex128) @ s
    sizes = [c.multiplicity for c in clusters]
    offs = np.concatenate([[0], np.cumsum(sizes)])
    hat_b = np.zeros_like(u)
    for i, ci in enumerate(clusters):
        for j, cj in enumerate(clusters):
            if abs(ci.value - (cj.value + 1.0)) <= cfg.eig_cluster_tol * (1.0 + abs(ci.value)):
                hat_b[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] = \
                    u[offs[i]:offs[i + 1], offs[j]:offs[j + 1]]
    hat = s @ hat_b @ sinv
    if not np.iscomplexobj(upsilon) and not np.iscomplexobj(lam):
        if np.max(np.abs(hat.imag)) < 1e4 * cfg.rank_tol * (1.0 + frobenius_norm(upsilon)):
            hat = hat.real
    check = upsilon - hat
    return hat, check


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
    n = offset.shape[0]
    rng = np.random.default_rng(seed)
    complex_field = np.iscomplexobj(offset) or any(np.iscomplexobj(b) for b in basis)

    def candidate(coeffs):
        m = offset.astype(np.complex128 if complex_field else np.float64).copy()
        for c, b in zip(coeffs, basis):
            m = m + c * b
        return m

    def invertible(m):
        s = np.linalg.svd(m, compute_uv=False)
        return s[-1] > cfg.rank_tol * max(s[0], 1.0)

    k = len(basis)
    if k == 0:
        return offset if invertible(offset) else None
    grid_trials = trials // 2
    for _ in range(grid_trials):
        coeffs = rng.integers(-2, 3, size=k).astype(float)
        if complex_field:
            coeffs = coeffs + 1j * rng.integers(-2, 3, size=k)
        m = candidate(coeffs)
        if invertible(m):
            return m
    for _ in range(trials - grid_trials):
        coeffs = rng.standard_normal(k)
        if complex_field:
            coeffs = coeffs + 1j * rng.standard_normal(k)
        m = candidate(coeffs)
        if invertible(m):
            return m
    return None
