"""Small dense/banded linear algebra layer with explicit multiplication counts.

Everything here works for real and complex data alike; the dtype of the
inputs decides.  The tridiagonal solver and matvec return their
multiplication counts (divisions included) next to the result, because
the efficiency experiments compare schemes by arithmetic cost rather
than wall time.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Optional, Union

import numpy as np


class SingularMatrixError(ValueError):
    """A matrix is singular: a pivot of the tridiagonal sweep or of
    ``factor_tridiag`` is zero or below ``PIVOT_RTOL`` of the largest band
    entry, or a dense matrix fails the rank check of ``solve_dense``."""


class RankError(ValueError):
    """A derivation system had unexpected numerical rank."""


class EigenConvergenceError(RuntimeError):
    """The eigenvalue iteration did not converge."""


class Tridiag:
    """Tridiagonal operator stored as three bands.

    ``lower`` has length m-1 (subdiagonal), ``diag`` length m, ``upper``
    length m-1 (superdiagonal), where m = diag.size.
    """

    __slots__ = ("lower", "diag", "upper")

    def __init__(self, lower: np.ndarray, diag: np.ndarray, upper: np.ndarray):
        self.lower, self.diag, self.upper = lower, diag, upper

    @classmethod
    def zeros(cls, m: int, dtype=float) -> "Tridiag":
        return cls(
            np.zeros(m - 1, dtype=dtype),
            np.zeros(m, dtype=dtype),
            np.zeros(m - 1, dtype=dtype),
        )

    @property
    def size(self) -> int:
        return self.diag.size

    def apply(self, v: np.ndarray) -> tuple[np.ndarray, int]:
        """Matvec over the last axis of ``v``, so a stack of vectors works.

        Returns (result, multiplication count 3m-2 per vector).
        """
        out = self.diag * v
        out[..., 1:] += self.lower * v[..., :-1]
        out[..., :-1] += self.upper * v[..., 1:]
        return out, 3 * self.size - 2

    def copy(self) -> "Tridiag":
        return Tridiag(self.lower.copy(), self.diag.copy(), self.upper.copy())


_BLOCK = 16  # rows per block of the factored solve
# A pivot below 1e-14 of the largest band entry, about 45 units in the last
# place of a double, marks the matrix as numerically singular.
PIVOT_RTOL = 1e-14


def _check_pivots(t: Tridiag, pivots: list):
    """Raise SingularMatrixError at the first pivot below PIVOT_RTOL of t's scale."""
    scale = np.abs(np.concatenate((t.lower, t.diag, t.upper))).max()
    tol = PIVOT_RTOL * scale
    if min(map(abs, pivots)) < tol:
        i = next(i for i, piv in enumerate(pivots) if abs(piv) < tol)
        raise SingularMatrixError(
            f"pivot {abs(pivots[i]):.3e} at row {i} is below {PIVOT_RTOL:g} "
            f"of the largest band entry {scale:.3e}"
        )


class TridiagLU:
    """A tridiagonal matrix factored once for many solves in 16-row blocks.

    ``diag`` holds the pivots of the double sweep.  With r_b the rows of
    the right-hand side in block b, the solution's rows there are

        maps[b, :16] r_b + fwd_in[b] y_(b-1) + back_in[b] x_(b+1),

    where y_b is the forward sweep's value at the last row of block b and
    x_b the solution at its first row: the values carried between blocks.
    With e_b = maps[b, 16] r_b, y_b's value with nothing carried in, they
    obey y_b = e_b + g_b y_(b-1), g_b the weight of the y carried in, and
    x_b = maps[b, 0] r_b + fwd_in[b, 0] y_(b-1) + back_in[b, 0] x_(b+1).
    ``carries`` holds the triangular maps that solve the two recurrences
    (``_carry_maps``), the back one in reverse block order.  The last
    block is padded with identity rows.  The maps hold products of sweep
    coefficients, which stay small for the diagonally dominant A_new of
    both schemes.
    """

    __slots__ = ("diag", "maps", "fwd_in", "back_in", "carries")

    def __init__(self, diag: np.ndarray, maps: np.ndarray, fwd_in: np.ndarray,
                 back_in: np.ndarray, carries: tuple):
        self.diag = diag
        self.maps = maps  # (nb, 17, 16)
        self.fwd_in = fwd_in  # (nb, 16)
        self.back_in = back_in  # (nb, 16)
        self.carries = carries  # (forward, back): each a tuple of _carry_maps levels

    @property
    def size(self) -> int:
        return self.diag.size


# A carry map spans at most _GROUP block ends: one map for the fine grid's 126.
# Its weights below _CARRY_FLUSH are zeroed, which moves no result by more than
# that share of its inputs: a GEMV over subnormal weights runs 70 times slower.
_GROUP = 128
_CARRY_FLUSH = 1e-150


def _carry_maps(gains: np.ndarray) -> tuple:
    """Levels of maps that solve y_b = e_b + g_b y_(b-1) for all b (``_carry``).

    The n ends form the fewest groups of k <= ``_GROUP``.  A group's map takes
    the y carried in and its k values e to its k values y_(b-1) and its last y:
    entry (i, j) is the product of the gains of inputs j..i-1, those over 2s
    inputs made from those over s.  The groups' last values recur one level up.
    """
    levels = []
    while not levels or levels[-1].shape[0] > 1:
        ng = -(-gains.size // _GROUP)
        k = -(-gains.size // ng)
        q = np.zeros((ng, k + 1, k + 2), gains.dtype)  # q[., j, d]: inputs j..j+d-1
        q[..., 0] = 1.0
        q[:, :k, 1].flat[: gains.size] = gains
        s = 1
        while s < k:
            c = min(2 * s, k)
            q[:, : k - s, s + 1 : c + 1] = q[:, : k - s, s, None] * q[:, s:k, 1 : c - s + 1]
            s *= 2
        parts = q.view(q.real.dtype)  # both parts of a complex weight
        parts *= np.abs(parts) >= _CARRY_FLUSH
        # q is zero where j + d > k, so row j of q moved right by j is column j
        levels.append(q.reshape(ng, -1)[:, : (k + 1) ** 2].reshape(ng, k + 1, k + 1).transpose(0, 2, 1))
        gains = levels[-1][:, -1, 0]
    return tuple(levels)


def _carry(levels: tuple, e: np.ndarray) -> np.ndarray:
    """y_(b-1) for every b of y_b = e_b + g_b y_(b-1), y_(-1) = 0: one
    matrix-vector product per level of ``_carry_maps``."""
    maps = levels[0]
    ng, k = maps.shape[0], maps.shape[1] - 1
    if ng == 1:
        return maps[0, :-1, 1:] @ e
    z = np.zeros(ng * k, np.result_type(maps, e))
    z[: e.size] = e
    local = np.matmul(maps[..., 1:], z.reshape(ng, k, 1))[..., 0]
    into = _carry(levels[1:], local[:, -1])
    return (local[:, :-1] + maps[:, :-1, 0] * into[:, None]).reshape(-1)[: e.size]


def factor_tridiag(t: Tridiag) -> TridiagLU:
    """Run the pivot recurrence of ``solve_tridiag`` once and build its block maps.

    Raises SingularMatrixError as the sweep does, naming the row of a
    pivot that is zero or below ``PIVOT_RTOL`` of the largest band entry.
    The block maps are built one row at a time across all blocks, the
    carry maps by ``_carry_maps``.
    """
    diag = t.diag.tolist()
    last, pivots = diag[0], [diag[0]]
    with suppress(ZeroDivisionError):  # the sweep's pivot recurrence, to a zero pivot
        for low, up, d in zip(t.lower.tolist(), t.upper.tolist(), diag[1:]):
            last = d - low / last * up
            pivots.append(last)
    if pivots[-1] == 0.0:
        raise SingularMatrixError(f"zero pivot in forward sweep at row {len(pivots) - 1}")
    _check_pivots(t, pivots)
    m, dtype = t.size, np.result_type(t.lower, t.diag, t.upper)
    nb = -(-m // _BLOCK)
    piv = np.ones(nb * _BLOCK, dtype)
    piv[:m] = pivots
    # row i of every block first: y_i = r_i - w_i y_(i-1), x_i = y_i / d_i + gain_i x_(i+1)
    neg_w, gain = np.zeros((2, nb * _BLOCK), dtype)
    neg_w[1:m] = -t.lower / piv[: m - 1]
    gain[: m - 1] = -t.upper / piv[: m - 1]
    neg_w, gain, inv_d = (a.reshape(nb, _BLOCK).T.copy() for a in (neg_w, gain, 1.0 / piv))
    # fwd[i, b, j]: the weight of r_(j-1) in y_i of block b (column 0: of the
    # y carried in); both[i, b]: x_i's weights of the same.  A sweep step
    # scales the previous row and adds the new entry, in every block at once.
    fwd = np.zeros((_BLOCK, nb, _BLOCK + 1), dtype)
    fwd[0, :, 0], fwd[0, :, 1] = neg_w[0], 1.0
    for i in range(1, _BLOCK):
        fwd[i] = neg_w[i, :, None] * fwd[i - 1]
        fwd[i, :, i + 1] = 1.0
    maps = np.empty((nb, _BLOCK + 1, _BLOCK), dtype)
    maps[:, -1], fwd_gain = fwd[-1, :, 1:], fwd[-1, :, 0].copy()
    both = fwd  # scaled in place: x_i = y_i / d_i, then the back substitution
    both *= inv_d[..., None]
    for i in range(_BLOCK - 2, -1, -1):
        both[i] += gain[i, :, None] * both[i + 1]
    maps[:, :-1] = both[..., 1:].transpose(1, 0, 2)
    back_in = np.cumprod(gain[::-1], axis=0)[::-1].T  # the weight of the x carried in
    carries = (_carry_maps(fwd_gain), _carry_maps(back_in[::-1, 0]))
    return TridiagLU(piv[:m], maps, both[..., 0].T.copy(), back_in.copy(), carries)


def _solve_factored(lu: TridiagLU, rhs: np.ndarray) -> np.ndarray:
    if rhs.shape != (lu.size,):
        raise ValueError(f"a factored solve takes one right-hand side of length {lu.size}, "
                         f"got shape {rhs.shape}")
    nb = lu.maps.shape[0]
    r = np.zeros(nb * _BLOCK, np.result_type(lu.diag, rhs))
    r[: lu.size] = rhs
    local = np.matmul(lu.maps, r.reshape(nb, _BLOCK, 1))[..., 0]
    fwd, back = lu.carries
    y_in = _carry(fwd, local[:, -1])
    x_in = _carry(back, (local[:, 0] + lu.fwd_in[:, 0] * y_in)[::-1])[::-1]
    x = lu.fwd_in * y_in[:, None]
    x += lu.back_in * x_in[:, None]
    x += local[:, :-1]
    return x.reshape(-1)[: lu.size]


def solve_tridiag(t: Union[Tridiag, TridiagLU], rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve t x = rhs by the double-sweep (Thomas) algorithm.

    ``rhs`` is one right-hand side of length m, or a stack of them with
    the node axis last, shape (k, m); one sweep solves the whole stack.
    Any other shape raises ValueError.
    Returns (x, mul count) with x shaped like ``rhs``.  The count is 5m-4
    per right-hand side for a system of size m: 3(m-1) in the forward
    sweep, one division, 2(m-1) in the back substitution.

    For a ``Tridiag`` the sweeps run on Python scalars from ``tolist()``
    (on numpy node columns for a stack): indexing the numpy arrays entry
    by entry takes over three times as long.  Raises SingularMatrixError
    naming the row of a pivot that is zero or below ``PIVOT_RTOL`` (1e-14)
    of the largest band entry.

    A ``TridiagLU`` (``factor_tridiag``, which makes the pivot check)
    takes one right-hand side and solves it block by block with no Python
    loop: one pad, one batched ``matmul`` over the blocks, one
    matrix-vector product per sweep for the values carried between blocks
    (per level of carry groups past 128 blocks), and one broadcast fix-up.
    Its rounding differs from the sweep's in the last digits.  It is the
    faster path on about 64 or more nodes; the sweep is faster on small
    systems and on stacks.  The count reported is the sweep's either way.
    """
    rhs = np.asarray(rhs)
    if isinstance(t, TridiagLU):
        return _solve_factored(t, rhs), 5 * t.size - 4
    if rhs.ndim not in (1, 2) or rhs.shape[-1] != t.size:
        raise ValueError(f"a sweep takes right-hand sides of length {t.size} (one, or a stack "
                         f"with the node axis last), got shape {rhs.shape}")
    lower, upper = t.lower.tolist(), t.upper.tolist()
    d, r = t.diag.tolist(), list(rhs.T) if rhs.ndim == 2 else rhs.tolist()
    m = len(d)
    for i in range(1, m):
        piv = d[i - 1]
        if piv == 0.0:
            raise SingularMatrixError(f"zero pivot in forward sweep at row {i - 1}")
        w = lower[i - 1] / piv
        d[i] = d[i] - w * upper[i - 1]
        r[i] = r[i] - w * r[i - 1]
    if d[m - 1] == 0.0:
        raise SingularMatrixError(f"zero pivot in forward sweep at row {m - 1}")
    _check_pivots(t, d)
    r[m - 1] = r[m - 1] / d[m - 1]
    for i in range(m - 2, -1, -1):
        r[i] = (r[i] - upper[i] * r[i + 1]) / d[i]
    return np.array(r, dtype=np.result_type(t.diag, rhs)).T, 5 * m - 4


def solve_dense(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by LAPACK's LU with partial pivoting.

    ``b`` may be a vector or a matrix of stacked right-hand sides, as for
    the transition matrices.  Raises SingularMatrixError for a zero
    matrix, and for a numerically singular one: a diagonal entry of its
    QR factor R (the distance of a column from the span of the columns
    before it) below 1e-14 of the largest entry of a.  The check runs
    before the solve, so R does not add to the solve's peak memory.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    r_diag = np.abs(np.diagonal(np.linalg.qr(a, mode="r")))
    dependent = np.flatnonzero(r_diag < 1e-14 * scale)
    if dependent.size:
        raise SingularMatrixError(
            f"column {dependent[0]} is numerically dependent on the ones before it"
        )
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc


def null_space_1d(a: np.ndarray, expected_rank: int) -> np.ndarray:
    """One-dimensional null space of a (possibly rectangular) matrix.

    Checks that the numerical rank (singular values above 1e-10 of the
    largest) equals ``expected_rank`` and that the nullity of the column
    space is exactly one; raises RankError otherwise.  The returned
    vector has unit norm and its largest-magnitude entry is normalized to
    be positive real.
    """
    a = np.asarray(a, dtype=np.result_type(a, float))
    _, s, vh = np.linalg.svd(a)
    cols = a.shape[1]
    tol = 1e-10 * s[0] if s.size else 0.0
    rank = int(np.sum(s > tol))
    if rank != expected_rank:
        raise RankError(f"numerical rank {rank}, expected {expected_rank}")
    if cols - rank != 1:
        raise RankError(f"nullity {cols - rank}, expected 1")
    v = vh[-1].conj()
    k = int(np.argmax(np.abs(v)))
    v = v * (np.abs(v[k]) / v[k])
    if not np.iscomplexobj(a):
        v = v.real
    return v


MAX_EIGEN_SIZE = 512  # rows of the largest matrix the spectral studies eigensolve
# the relative tolerance per row of a reversibility gate (a = J a J, M conj(M) = I)
REVERSIBLE_RTOL = 64 * np.finfo(float).eps


def mirror_blocks(a: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The even and odd blocks of an a that commutes with the exchange J.

    J reverses the node order, and S = J S J is orthogonally similar to
    diag(even, odd): for n = 2k, even = S11 + S13 J and odd = S11 - S13 J
    with S11 = S[:k, :k] and S13 = S[:k, n-k:]; for n = 2k+1 the middle
    row and column, times sqrt 2, join the even block.  The blocks are
    those of S = (a + J a J)/2 when ||a - J a J||_F <= REVERSIBLE_RTOL n
    ||a||_F (``spectrum_report``'s reversibility gate), a change within
    LAPACK's own backward error.  None for any other a, and for n < 4.
    """
    n = a.shape[0] if a.ndim == 2 else 0
    if a.shape != (n, n) or n < 4:
        return None
    flipped = a[::-1, ::-1]
    if not np.linalg.norm(a - flipped) <= REVERSIBLE_RTOL * n * np.linalg.norm(a):
        return None
    s = 0.5 * (a + flipped)
    k, mid = n // 2, slice(n // 2, n - n // 2)  # mid: the middle node of an odd n
    corner, root2 = s[:k, : n - k - 1 : -1], np.sqrt(2.0)  # S13 J
    even = np.block([[s[:k, :k] + corner, root2 * s[:k, mid]], [root2 * s[mid, :k], s[mid, mid]]])
    return even, s[:k, :k] - corner


def block_eigenvalues(blocks) -> np.ndarray:
    """Eigenvalues of diag(*blocks), sorted by (real, imag): one LAPACK
    Hessenberg-QR eigensolve per block, a convergence failure in any of
    them surfacing as EigenConvergenceError.  The blocks must be square,
    and their total size may not pass ``MAX_EIGEN_SIZE``.
    """
    n = sum(b.shape[0] for b in blocks)
    if any(b.shape != (b.shape[0],) * 2 for b in blocks):
        raise ValueError(f"matrix must be square, got {blocks[0].shape}")
    if n > MAX_EIGEN_SIZE:
        raise ValueError(f"matrix of size {n} exceeds limit {MAX_EIGEN_SIZE}")
    try:
        vals = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return vals[np.lexsort((vals.imag, vals.real))]


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """Full eigenvalue set of a dense matrix, sorted by (real, imag).

    A mirror-symmetric a (``mirror_blocks``) is eigensolved as its two
    half-size blocks, at about a quarter of the cost each, any other a
    in one piece (``block_eigenvalues``).  The size guard keeps the
    spectral experiments honest about their intended scale.
    """
    a = np.asarray(a)
    return block_eigenvalues(mirror_blocks(a) or (a,))


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(np.asarray(a)) ** 2)))
