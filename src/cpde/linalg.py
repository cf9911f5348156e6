"""Small dense/banded linear algebra layer with explicit multiplication counts.

Everything here works for real and complex data alike; the dtype of the
inputs decides.  The tridiagonal solver and matvec return their
multiplication counts (divisions included) next to the result, because
the efficiency experiments compare schemes by arithmetic cost rather
than wall time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularMatrixError(ValueError):
    """A matrix is singular: a pivot of the tridiagonal sweep is exactly
    zero, or a dense matrix fails the rank check of ``solve_dense``."""


class RankError(ValueError):
    """A derivation system had unexpected numerical rank."""


class EigenConvergenceError(RuntimeError):
    """The eigenvalue iteration did not converge."""


@dataclass
class Tridiag:
    """Tridiagonal operator stored as three bands.

    ``lower`` has length m-1 (subdiagonal), ``diag`` length m, ``upper``
    length m-1 (superdiagonal), where m = diag.size.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

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


def solve_tridiag(t: Tridiag, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve t x = rhs by the double-sweep (Thomas) algorithm.

    ``rhs`` is one right-hand side of length m, or a stack of them with
    the node axis last, shape (k, m); one sweep solves the whole stack.
    Returns (x, mul count) with x shaped like ``rhs``.  The count is 5m-4
    per right-hand side for a system of size m: 3(m-1) in the forward
    sweep, one division, 2(m-1) in the back substitution.  The sweeps
    run on Python scalars from ``tolist()`` (on numpy node columns for a
    stack): indexing the numpy arrays entry by entry takes over three
    times as long.  Raises SingularMatrixError naming the row if a pivot
    is exactly zero.
    """
    rhs = np.asarray(rhs)
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


def null_space_1d(a: np.ndarray, expected_rank: int, rtol: float = 1e-10) -> np.ndarray:
    """One-dimensional null space of a (possibly rectangular) matrix.

    Checks that the numerical rank equals ``expected_rank`` and that the
    nullity of the column space is exactly one; raises RankError
    otherwise.  The returned vector has unit norm and its
    largest-magnitude entry is normalized to be positive real.
    """
    a = np.asarray(a, dtype=np.result_type(a, float))
    _, s, vh = np.linalg.svd(a)
    cols = a.shape[1]
    tol = rtol * s[0] if s.size else 0.0
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


def eigenvalues(a: np.ndarray, max_size: int = 512) -> np.ndarray:
    """Full eigenvalue set of a dense matrix, sorted by (real, imag).

    Delegates to LAPACK's Hessenberg-QR iteration; a convergence failure
    surfaces as EigenConvergenceError.  The size guard keeps the spectral
    experiments honest about their intended scale.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got {a.shape}")
    if n > max_size:
        raise ValueError(f"matrix of size {n} exceeds limit {max_size}")
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def frobenius(a: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(np.asarray(a)) ** 2)))
