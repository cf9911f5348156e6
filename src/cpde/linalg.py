"""Small dense/banded linear algebra layer with explicit multiplication counts.

Everything here works for real and complex data alike; the dtype of the
inputs decides.  The tridiagonal solver and matvec return their
multiplication counts (divisions included) next to the result, because
the efficiency experiments compare schemes by arithmetic cost rather
than wall time.
"""

from __future__ import annotations

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

    def dense(self) -> np.ndarray:
        m = self.size
        dtype = np.result_type(self.lower, self.diag, self.upper)
        a = np.zeros((m, m), dtype=dtype)
        a[np.arange(m), np.arange(m)] = self.diag
        a[np.arange(1, m), np.arange(m - 1)] = self.lower
        a[np.arange(m - 1), np.arange(1, m)] = self.upper
        return a

    def copy(self) -> "Tridiag":
        return Tridiag(self.lower.copy(), self.diag.copy(), self.upper.copy())


_BLOCK = 16  # rows per block of the factored solve
# A pivot below this share of the largest band entry marks the matrix as
# numerically singular, the bound ``solve_dense``'s rank check applies.
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

        x_b = maps[b, :16] r_b + fwd_in[b] y_(b-1) + back_in[b] x_(b+1),

    where y_(b-1) is the forward sweep's value at the last row of block
    b-1 and x_(b+1) the solution at the first row of block b+1: the two
    values carried between blocks.  ``maps[b, 16]`` r_b is the forward
    sweep's value at the last row of block b with nothing carried in.
    ``loop_weights`` are the scalars of the solve's two loops over the
    blocks: the weight of y_(b-1) in y_b, and the first columns of
    ``fwd_in`` and ``back_in`` in reverse block order.  The last block is
    padded with identity rows.  The maps hold products of up to 16 sweep
    coefficients, which stay small for the diagonally dominant A_new of
    both schemes.
    """

    __slots__ = ("diag", "maps", "fwd_in", "back_in", "loop_weights")

    def __init__(self, diag: np.ndarray, maps: np.ndarray, fwd_in: np.ndarray,
                 back_in: np.ndarray, loop_weights: tuple):
        self.diag = diag
        self.maps = maps  # (nb, 17, 16)
        self.fwd_in = fwd_in  # (nb, 16)
        self.back_in = back_in  # (nb, 16)
        self.loop_weights = loop_weights  # three lists of nb scalars

    @property
    def size(self) -> int:
        return self.diag.size


def factor_tridiag(t: Tridiag) -> TridiagLU:
    """Run the pivot recurrence of ``solve_tridiag`` once and build its block maps.

    Raises SingularMatrixError as the sweep does, naming the row of a
    pivot that is zero or below ``PIVOT_RTOL`` of the largest band entry.
    The maps are built one row at a time across all blocks.
    """
    lower, upper, d = t.lower.tolist(), t.upper.tolist(), t.diag.tolist()
    m = len(d)
    w = [0.0] * m
    for i in range(1, m):
        piv = d[i - 1]
        if piv == 0.0:
            raise SingularMatrixError(f"zero pivot in forward sweep at row {i - 1}")
        w[i] = lower[i - 1] / piv
        d[i] = d[i] - w[i] * upper[i - 1]
    if d[m - 1] == 0.0:
        raise SingularMatrixError(f"zero pivot in forward sweep at row {m - 1}")
    _check_pivots(t, d)
    dtype = np.result_type(t.lower, t.diag, t.upper)
    nb = -(-m // _BLOCK)
    piv = np.ones(nb * _BLOCK, dtype)
    piv[:m] = d
    neg_w = np.zeros(nb * _BLOCK, dtype)
    neg_w[:m] = w
    neg_w = -neg_w.reshape(nb, _BLOCK)  # y_i = r_i - w_i y_(i-1)
    inv_d = (1.0 / piv).reshape(nb, _BLOCK)
    gain = np.zeros(nb * _BLOCK, dtype)  # x_i = y_i / d_i + gain_i x_(i+1)
    gain[: m - 1] = -t.upper / piv[: m - 1]
    gain = gain.reshape(nb, _BLOCK)
    # The two sweeps within a block: fwd[b, i, j] is the weight of r_(j-1)
    # in y_i (column 0: of the y carried in), back[b, i, j] that of y_j in
    # x_i (column 16: of the x carried in).  A sweep step scales the
    # previous row and sets the new diagonal entry, in every block at once.
    fwd, back = np.zeros((2, nb, _BLOCK, _BLOCK + 1), dtype)
    fwd[:, 0, 0], fwd[:, 0, 1] = neg_w[:, 0], 1.0
    back[:, -1, -1], back[:, -1, -2] = gain[:, -1], inv_d[:, -1]
    for i in range(1, _BLOCK):
        fwd[:, i] = neg_w[:, i, None] * fwd[:, i - 1]
        fwd[:, i, i + 1] = 1.0
        j = _BLOCK - 1 - i
        back[:, j] = gain[:, j, None] * back[:, j + 1]
        back[:, j, j] = inv_d[:, j]
    both = np.matmul(back[..., :-1], fwd)  # x_i in terms of (y carried in, r)
    maps = np.concatenate((both[..., 1:], fwd[:, -1:, 1:]), axis=1)
    fwd_in, back_in = both[..., 0].copy(), back[..., -1].copy()
    loops = (fwd[:, -1, 0].tolist(), fwd_in[::-1, 0].tolist(), back_in[::-1, 0].tolist())
    return TridiagLU(piv[:m], maps, fwd_in, back_in, loops)


def _solve_factored(lu: TridiagLU, rhs: np.ndarray) -> np.ndarray:
    if rhs.shape != (lu.size,):
        raise ValueError(f"a factored solve takes one right-hand side of length {lu.size}")
    nb = lu.maps.shape[0]
    r = np.zeros(nb * _BLOCK, np.result_type(lu.diag, rhs))
    r[: lu.size] = rhs
    local = np.matmul(lu.maps, r.reshape(nb, _BLOCK, 1))[..., 0]
    fwd_gain, fwd_first, back_first = lu.loop_weights
    y_in, y = [], 0.0  # the forward sweep over the block ends
    for end, g in zip(local[:, -1].tolist(), fwd_gain):
        y_in.append(y)
        y = end + g * y
    x_in, x = [], 0.0  # the back substitution over the block starts, last first
    for start, a, y_carried, g in zip(local[::-1, 0].tolist(), fwd_first, y_in[::-1], back_first):
        x_in.append(x)
        x = start + a * y_carried + g * x
    x_in.reverse()
    x = local[:, :-1] + lu.fwd_in * np.array(y_in)[:, None] + lu.back_in * np.array(x_in)[:, None]
    return x.reshape(-1)[: lu.size]


def solve_tridiag(t: Union[Tridiag, TridiagLU], rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve t x = rhs by the double-sweep (Thomas) algorithm.

    ``rhs`` is one right-hand side of length m, or a stack of them with
    the node axis last, shape (k, m); one sweep solves the whole stack.
    Returns (x, mul count) with x shaped like ``rhs``.  The count is 5m-4
    per right-hand side for a system of size m: 3(m-1) in the forward
    sweep, one division, 2(m-1) in the back substitution.

    For a ``Tridiag`` the sweeps run on Python scalars from ``tolist()``
    (on numpy node columns for a stack): indexing the numpy arrays entry
    by entry takes over three times as long.  Raises SingularMatrixError
    naming the row of a pivot that is zero or below ``PIVOT_RTOL`` of the
    largest band entry, the bound ``solve_dense``'s rank check applies.

    A ``TridiagLU`` (``factor_tridiag``, which makes the pivot check)
    takes one right-hand side and solves it block by block: one batched
    ``matmul`` over the blocks, one Python loop over the m/16 block ends
    for each sweep, and one broadcast fix-up.  Its rounding differs from
    the sweep's in the last digits.  It is the faster path on about 64 or
    more nodes; the sweep is faster on small systems and on stacks.  The
    count reported is the sweep's either way.
    """
    rhs = np.asarray(rhs)
    if isinstance(t, TridiagLU):
        return _solve_factored(t, rhs), 5 * t.size - 4
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


def block_eigenvalues(blocks, max_size: int = MAX_EIGEN_SIZE) -> np.ndarray:
    """Eigenvalues of diag(*blocks), sorted by (real, imag): one LAPACK
    Hessenberg-QR eigensolve per block, a convergence failure in any of
    them surfacing as EigenConvergenceError.  The blocks must be square,
    and the size guard applies to their total size.
    """
    n = sum(b.shape[0] for b in blocks)
    if any(b.shape != (b.shape[0],) * 2 for b in blocks):
        raise ValueError(f"matrix must be square, got {blocks[0].shape}")
    if n > max_size:
        raise ValueError(f"matrix of size {n} exceeds limit {max_size}")
    try:
        vals = np.concatenate([np.linalg.eigvals(b) for b in blocks])
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    return vals[np.lexsort((vals.imag, vals.real))]


def eigenvalues(a: np.ndarray, max_size: int = MAX_EIGEN_SIZE) -> np.ndarray:
    """Full eigenvalue set of a dense matrix, sorted by (real, imag).

    A mirror-symmetric a (``mirror_blocks``) is eigensolved as its two
    half-size blocks, at about a quarter of the cost each, any other a
    in one piece (``block_eigenvalues``).  The size guard keeps the
    spectral experiments honest about their intended scale.
    """
    a = np.asarray(a)
    return block_eigenvalues(mirror_blocks(a) or (a,), max_size)


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(np.asarray(a)) ** 2)))
