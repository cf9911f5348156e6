import os
import subprocess
import sys

import numpy as np
import pytest

import cpde
from cpde.linalg import (
    EigenConvergenceError,
    RankError,
    SingularMatrixError,
    Tridiag,
    TridiagLU,
    _GROUP,
    _carry_maps,
    eigenvalues,
    factor_tridiag,
    frobenius,
    mirror_blocks,
    null_space_1d,
    solve_dense,
    solve_tridiag,
)

rng = np.random.default_rng(20240517)


def random_tridiag(m, dtype=float):
    def draw(size):
        v = rng.normal(size=size)
        if dtype is complex:
            v = v + 1j * rng.normal(size=size)
        return v

    t = Tridiag(draw(m - 1), draw(m) + 4.0, draw(m - 1))
    return t


def test_thomas_matches_dense_real():
    for m in (2, 3, 7, 40):
        t = random_tridiag(m)
        b = rng.normal(size=m)
        x, _ = solve_tridiag(t, b)
        ref = solve_dense(t.dense(), b)
        assert np.allclose(x, ref, rtol=1e-12, atol=1e-12)


def test_thomas_matches_dense_complex():
    t = random_tridiag(25, dtype=complex)
    b = rng.normal(size=25) + 1j * rng.normal(size=25)
    x, _ = solve_tridiag(t, b)
    assert np.allclose(t.dense() @ x, b, rtol=1e-11, atol=1e-11)


@pytest.mark.parametrize("dtype", [float, complex])
def test_stacked_right_hand_sides_match_one_at_a_time(dtype):
    """Node axis last: bitwise per column for real data, to rounding for complex."""
    m, k = 17, 5
    t = random_tridiag(m, dtype)
    b = rng.normal(size=(k, m))
    if dtype is complex:
        b = b + 1j * rng.normal(size=(k, m))
    x, muls = solve_tridiag(t, b)
    y, _ = t.apply(b)
    assert x.shape == y.shape == (k, m)
    assert muls == 5 * m - 4
    x_cols = np.array([solve_tridiag(t, row)[0] for row in b])
    y_cols = np.array([t.apply(row)[0] for row in b])
    if dtype is float:
        assert np.array_equal(x, x_cols)
        assert np.array_equal(y, y_cols)
    else:
        assert np.abs(x - x_cols).max() <= 1e-15 * np.abs(x_cols).max()
        assert np.abs(y - y_cols).max() <= 1e-15 * np.abs(y_cols).max()


def test_thomas_mul_count():
    # forward sweep 3(m-1), one division, back substitution 2(m-1)
    for m in (2, 5, 31):
        t = random_tridiag(m)
        _, muls = solve_tridiag(t, rng.normal(size=m))
        assert muls == 5 * m - 4


def test_matvec_count_and_value():
    for m in (2, 9, 64):
        t = random_tridiag(m)
        v = rng.normal(size=m)
        out, muls = t.apply(v)
        assert muls == 3 * m - 2
        assert np.allclose(out, t.dense() @ v, rtol=1e-13, atol=1e-14)


def test_matvec_mixed_dtype_falls_back():
    """A complex vector against real bands must still be exact."""
    t = random_tridiag(12)
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    out, _ = t.apply(v)
    assert np.allclose(out, t.dense() @ v)
    assert np.iscomplexobj(out)


@pytest.mark.parametrize("band_dtype, rhs_dtype", [(float, complex), (complex, float)])
def test_thomas_mixed_dtypes_promote_to_complex(band_dtype, rhs_dtype):
    t = random_tridiag(30, dtype=band_dtype)
    b = rng.normal(size=30)
    if rhs_dtype is complex:
        b = b + 1j * rng.normal(size=30)
    x, _ = solve_tridiag(t, b)
    assert x.dtype == np.complex128
    assert np.abs(t.dense() @ x - b).max() <= 1e-12


def test_zero_pivot_names_row():
    t = Tridiag(np.array([1.0, 1.0]), np.array([0.0, 2.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrixError, match="row 0"):
        solve_tridiag(t, np.ones(3))


def relative_gap(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("m", [1, 2, 15, 16, 17, 33, 64, 65, 2001])
@pytest.mark.parametrize("dtype", [float, complex])
def test_factored_solve_matches_the_sweep(m, dtype):
    """Exact and padded last blocks."""
    t = random_tridiag(m, dtype)
    lu = factor_tridiag(t)
    assert isinstance(lu, TridiagLU) and lu.size == m
    b = rng.normal(size=m) + (1j * rng.normal(size=m) if dtype is complex else 0)
    ref, muls = solve_tridiag(t, b)
    got, got_muls = solve_tridiag(lu, b)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got_muls == muls == 5 * m - 4
    assert relative_gap(got, ref) <= 1e-13


@pytest.mark.parametrize("shape", [(3, 20), (21,)])
def test_factored_solve_takes_one_right_hand_side_of_its_size(shape):
    with pytest.raises(ValueError, match="one right-hand side of length 20"):
        solve_tridiag(factor_tridiag(random_tridiag(20)), np.ones(shape))


@pytest.mark.parametrize("band_dtype, rhs_dtype", [(float, complex), (complex, float)])
def test_factored_solve_promotes_mixed_dtypes(band_dtype, rhs_dtype):
    t = random_tridiag(70, dtype=band_dtype)
    b = rng.normal(size=70) + (1j * rng.normal(size=70) if rhs_dtype is complex else 0)
    x, _ = solve_tridiag(factor_tridiag(t), b)
    assert x.dtype == np.complex128
    assert relative_gap(x, solve_tridiag(t, b)[0]) <= 1e-13


def laplacian_like(m, dtype=float):
    """A band whose sweep coefficients are about 0.5 in modulus: each block end
    carries about 2e-5 of its value into the next block, across carry groups too."""

    def noise(size):
        v = rng.uniform(-0.1, 0.1, size=size)
        return v + 1j * rng.uniform(-0.1, 0.1, size=size) if dtype is complex else v

    return Tridiag(noise(m - 1) - 1.0, noise(m) + 2.5, noise(m - 1) - 1.0)


@pytest.mark.parametrize(
    "m,groups",
    [(16 * (_GROUP - 1), [1]), (16 * _GROUP - 5, [1]), (16 * _GROUP + 1, [2, 1]), (8001, [4, 1])],
    ids=["G-1-blocks", "G-blocks", "G+1-blocks", "501-blocks"],
)
@pytest.mark.parametrize("band_dtype,rhs_dtype", [(float, float), (complex, complex),
                                                  (float, complex), (complex, float)])
def test_factored_solve_matches_the_sweep_across_carry_groups(m, groups, band_dtype, rhs_dtype):
    """G - 1 and G block ends make one carry group, G + 1 two, and 501 (m =
    8001) four, whose last values are carried one level up."""
    t = laplacian_like(m, band_dtype)
    lu = factor_tridiag(t)
    assert [level.shape[0] for carry in lu.carries for level in carry] == groups * 2
    b = rng.normal(size=m) + (1j * rng.normal(size=m) if rhs_dtype is complex else 0)
    ref, _ = solve_tridiag(t, b)
    got, _ = solve_tridiag(lu, b)
    assert got.dtype == ref.dtype
    assert relative_gap(got, ref) <= 1e-13


@pytest.mark.parametrize("dtype", [float, complex])
def test_carry_maps_hold_no_subnormal_weights(dtype):
    """A gain of 1e-8 per block end makes products below 1e-308 within 39
    ends; weights below 1e-150 are zeroed, so no solve multiplies a subnormal."""
    (maps,) = _carry_maps(np.full(126, 1e-8 * (1j if dtype is complex else 1.0)))
    parts = np.abs(np.concatenate((maps.real.ravel(), maps.imag.ravel())))
    assert not ((parts > 0.0) & (parts < 1e-150)).any()
    i, j = np.tril_indices(127)
    kept = i - j <= 18  # 1e-8 ** 18 = 1e-144
    assert np.allclose(np.abs(maps[0, i[kept], j[kept]]), 1e-8 ** (i - j)[kept], rtol=1e-13, atol=0)
    assert not maps[0, i[~kept], j[~kept]].any()


@pytest.mark.parametrize("m", [2001, 32001])
def test_factor_holds_o_m_entries(m):
    """About 20 m entries in the block maps, pivots and carry-in vectors, and
    at most 2 G nb in the carry maps: no map spans more than one group."""
    lu = factor_tridiag(laplacian_like(m))
    nb = -(-m // 16)
    arrays = [lu.diag, lu.maps, lu.fwd_in, lu.back_in, *lu.carries[0], *lu.carries[1]]
    entries = sum((a if a.base is None else a.base).size for a in arrays)
    group = 128  # the largest group the design allows, not whatever _GROUP is
    assert entries <= 1.05 * (20 * m + 2 * group * nb)
    assert max(level.shape[-1] for carry in lu.carries for level in carry) <= group + 1


def zero_pivot_at(row, m=40):
    """A matrix whose sweep meets an exactly zero pivot at ``row``."""
    t = Tridiag(np.full(m - 1, 1.0), np.full(m, 2.5), np.full(m - 1, 0.7))
    d = t.diag.tolist()
    for i in range(1, row + 1):
        w = t.lower[i - 1] / d[i - 1]
        if i == row:
            t.diag[i] = w * t.upper[i - 1]  # the sweep's own pivot update gives 0
        d[i] = t.diag[i] - w * t.upper[i - 1]
    if row == 0:
        t.diag[0] = 0.0
    return t


@pytest.mark.parametrize("row", [0, 17, 39])
def test_factor_names_the_same_zero_pivot_row_as_the_sweep(row):
    t = zero_pivot_at(row)
    with pytest.raises(SingularMatrixError) as swept:
        solve_tridiag(t, np.ones(t.size))
    with pytest.raises(SingularMatrixError) as factored:
        factor_tridiag(t)
    assert str(factored.value) == str(swept.value) == f"zero pivot in forward sweep at row {row}"


@pytest.mark.parametrize("row", [0, 17, 39])
def test_complex_factor_names_the_same_zero_pivot_row_as_the_sweep(row, m=40):
    lower, diag, upper = [0.3 + 1.0j] * (m - 1), [2.5 - 0.5j] * m, [0.7j] * (m - 1)
    d = diag[0] = 0.0 if row == 0 else diag[0]
    for i in range(1, row + 1):
        w = lower[i - 1] / d
        if i == row:
            diag[i] = w * upper[i - 1]  # the sweep's own pivot update gives 0
        d = diag[i] - w * upper[i - 1]
    t = Tridiag(*(np.array(band) for band in (lower, diag, upper)))
    with pytest.raises(SingularMatrixError) as swept:
        solve_tridiag(t, np.ones(m))
    with pytest.raises(SingularMatrixError) as factored:
        factor_tridiag(t)
    assert str(factored.value) == str(swept.value) == f"zero pivot in forward sweep at row {row}"


def tiny_pivot_at(row, pivot, m=40):
    """A matrix whose sweep meets the nonzero pivot about ``pivot`` at ``row``."""
    t = zero_pivot_at(row, m)
    t.diag[row] += pivot
    return t


@pytest.mark.parametrize("row", [0, 17, 39])
def test_stacked_sweep_and_factor_reject_a_relatively_tiny_pivot(row):
    """Band entries up to 2.5: a pivot near 1e-15 is below 1e-14 of that."""
    t = tiny_pivot_at(row, 1e-15)
    with pytest.raises(SingularMatrixError, match=f"at row {row} is below 1e-14") as swept:
        solve_tridiag(t, np.ones((3, t.size)))
    with pytest.raises(SingularMatrixError) as factored:
        factor_tridiag(t)
    assert str(factored.value) == str(swept.value)


@pytest.mark.parametrize("row", [0, 17, 39])
def test_single_state_sweep_rejects_a_relatively_tiny_pivot_on_every_call(row):
    t = tiny_pivot_at(row, 1e-15)
    with pytest.raises(SingularMatrixError) as swept:
        solve_tridiag(t, np.ones((3, t.size)))
    for _ in range(2):
        with pytest.raises(SingularMatrixError) as single:
            solve_tridiag(t, np.ones(t.size))
        assert str(single.value) == str(swept.value)


@pytest.mark.parametrize("dtype", [float, complex])
def test_relative_pivot_check_passes_a_small_but_sound_pivot(dtype):
    t = tiny_pivot_at(17, 1e-12)
    if dtype is complex:
        t = Tridiag(t.lower * 1j, t.diag * 1j, t.upper * 1j)
    x, _ = solve_tridiag(t, np.ones((2, t.size)))
    assert np.isfinite(x).all()
    assert factor_tridiag(t).size == t.size


def test_factor_keeps_the_sweep_pivots_and_the_operator():
    t = random_tridiag(50)
    keep = t.copy()
    lu = factor_tridiag(t)
    d = t.diag.copy()
    for i in range(1, 50):
        d[i] -= t.lower[i - 1] / d[i - 1] * t.upper[i - 1]
    assert np.array_equal(lu.diag, d)
    for band in ("lower", "diag", "upper"):
        assert np.array_equal(getattr(t, band), getattr(keep, band))


def test_solver_does_not_mutate_operator():
    t = random_tridiag(8)
    keep = (t.lower.copy(), t.diag.copy(), t.upper.copy())
    solve_tridiag(t, rng.normal(size=8))
    assert np.array_equal(t.lower, keep[0])
    assert np.array_equal(t.diag, keep[1])
    assert np.array_equal(t.upper, keep[2])


def test_solve_dense_matrix_rhs():
    a = rng.normal(size=(6, 6)) + 6.0 * np.eye(6)
    b = rng.normal(size=(6, 3))
    x = solve_dense(a, b)
    assert np.allclose(a @ x, b, rtol=1e-11, atol=1e-12)


def test_solve_dense_needs_pivoting():
    # leading entry zero, solvable only with row exchange
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.allclose(solve_dense(a, np.array([2.0, 3.0])), [3.0, 2.0])


def test_solve_dense_singular():
    a = np.ones((3, 3))
    with pytest.raises(SingularMatrixError):
        solve_dense(a, np.ones(3))


def test_solve_dense_numerically_singular():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(SingularMatrixError):
        solve_dense(a, np.array([1.0, 2.0]))


def test_solve_dense_zero_matrix():
    with pytest.raises(SingularMatrixError, match="zero matrix"):
        solve_dense(np.zeros((3, 3)), np.ones(3))


def test_import_loads_neither_scipy_nor_numba():
    # scipy's LAPACK wrappers alone add about 25 MB of resident memory and
    # 0.3 s to start-up; the package needs only numpy
    src = os.path.dirname(os.path.dirname(cpde.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = (
        "import sys, cpde, cpde.cli\n"
        "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_null_space_known_vector():
    v = np.array([3.0, -1.0, 2.0])
    v = v / np.linalg.norm(v)
    # build a 5x3 matrix whose rows are orthogonal to v
    basis = np.array([[1.0, 3.0, 0.0], [0.0, 2.0, 1.0]])
    rows = rng.normal(size=(5, 2)) @ basis
    got = null_space_1d(rows, expected_rank=2)
    assert np.allclose(np.abs(got @ v), 1.0, atol=1e-12)


def test_null_space_rank_mismatch():
    a = np.zeros((4, 3))
    a[0, 0] = 1.0
    with pytest.raises(RankError, match="rank 1"):
        null_space_1d(a, expected_rank=2)


def test_null_space_nullity_two():
    a = np.zeros((4, 3))
    a[0, 0] = 1.0
    with pytest.raises(RankError, match="nullity"):
        null_space_1d(a, expected_rank=1)


def test_null_space_sign_convention():
    rows = rng.normal(size=(6, 2)) @ np.array([[1.0, 3.0, 0.0], [0.0, 2.0, 1.0]])
    a = null_space_1d(rows, expected_rank=2)
    b = null_space_1d(rows[::-1] * 2.0, expected_rank=2)
    assert np.allclose(a, b, atol=1e-12)


def test_eigenvalues_sorted_and_complete():
    d = np.array([3.0, -1.0, 0.5, 2.0])
    q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    vals = eigenvalues(q @ np.diag(d) @ q.T)
    assert np.allclose(vals.real, sorted(d), atol=1e-10)
    order = np.lexsort((vals.imag, vals.real))
    assert np.array_equal(order, np.arange(4))


def test_eigenvalues_rotation_pair():
    vals = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(vals, [-1j, 1j])


def test_eigenvalues_size_guard():
    with pytest.raises(ValueError, match="exceeds"):
        eigenvalues(np.eye(20), max_size=8)


def mirror_basis(n):
    """The orthogonal Q with Q^T S Q = diag(even, odd) for every S = J S J:
    columns (e_i + e_(n-1-i))/sqrt 2, then e_k for n = 2k+1, then (e_i - e_(n-1-i))/sqrt 2."""
    k = n // 2
    ends, mirrored = np.eye(n, k), np.eye(n, k)[::-1]
    return np.hstack((np.sqrt(0.5) * (ends + mirrored), np.eye(n)[:, k : n - k],
                      np.sqrt(0.5) * (ends - mirrored)))


def random_mirror(n, dtype=float):
    a = rng.normal(size=(n, n))
    if dtype is complex:
        a = a + 1j * rng.normal(size=(n, n))
    return a + a[::-1, ::-1]


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [4, 5, 8, 9, 40, 41])
def test_mirror_blocks_are_the_even_and_odd_blocks(n, dtype):
    s = random_mirror(n, dtype)
    even, odd = mirror_blocks(s)
    k = n // 2
    assert (even.shape, odd.shape) == ((n - k, n - k), (k, k))
    q = mirror_basis(n)
    want = q.T @ s @ q
    assert np.abs(want[:n - k, n - k:]).max() < 1e-13 * np.abs(s).max()  # the off-diagonal blocks vanish
    assert np.allclose(even, want[:n - k, :n - k], rtol=0.0, atol=1e-13 * np.abs(s).max())
    assert np.allclose(odd, want[n - k:, n - k:], rtol=0.0, atol=1e-13 * np.abs(s).max())


def test_mirror_blocks_come_from_the_symmetrized_matrix():
    s = random_mirror(9)
    a = s.copy()
    a[0, 1] += 8.0 * 9 * np.finfo(float).eps * np.linalg.norm(s)  # within the 64 n eps tolerance
    e, o = mirror_blocks(a)
    e2, o2 = mirror_blocks(0.5 * (a + a[::-1, ::-1]))
    assert np.array_equal(e, e2) and np.array_equal(o, o2)


def eigvals_sorted(a):
    vals = np.linalg.eigvals(a)
    return vals[np.lexsort((vals.imag, vals.real))]


@pytest.mark.parametrize("a", [
    pytest.param(rng.normal(size=(8, 8)), id="random"),
    pytest.param(random_mirror(8) * (1.0 + 1e-9 * rng.normal(size=(8, 8))), id="mirror-perturbed-1e-9"),
    pytest.param(random_mirror(9, complex) * (1.0 + 1e-9 * rng.normal(size=(9, 9))), id="complex-perturbed-1e-9"),
    pytest.param(random_mirror(3), id="n3"),
    pytest.param(np.eye(2), id="n2"),
    pytest.param(np.ones((1, 1)), id="n1"),
    pytest.param(np.ones((4, 5)), id="non-square"),
    pytest.param(np.ones(4), id="vector"),
])
def test_mirror_blocks_reject_other_matrices(a):
    assert mirror_blocks(a) is None


@pytest.mark.parametrize("a", [
    pytest.param(rng.normal(size=(8, 8)), id="random"),
    pytest.param(random_mirror(8) * (1.0 + 1e-9 * rng.normal(size=(8, 8))), id="mirror-perturbed-1e-9"),
    pytest.param(random_mirror(3), id="n3"),
])
def test_eigenvalues_of_other_matrices_are_one_plain_eigensolve(a):
    assert np.array_equal(eigenvalues(a), eigvals_sorted(a))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [4, 5, 40, 41])
def test_eigenvalues_of_a_mirror_matrix_solve_two_blocks(monkeypatch, n, dtype):
    # a normal matrix diag(E, O) in the mirror basis, so the eigenvalues are well conditioned
    k = n // 2
    d = rng.normal(size=n) + (1j * rng.normal(size=n) if dtype is complex else 0.0)
    blocks = np.zeros((n, n), dtype)
    for rows, part in ((slice(0, n - k), d[: n - k]), (slice(n - k, n), d[n - k:])):
        u = np.linalg.qr(rng.normal(size=(part.size, part.size)))[0]
        blocks[rows, rows] = u @ np.diag(part) @ u.T
    q = mirror_basis(n)
    s = q @ blocks @ q.T
    want = eigvals_sorted(s)
    sizes = []
    solver = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda b: sizes.append(b.shape[0]) or solver(b))
    vals = eigenvalues(s)
    assert sizes == [n - n // 2, n // 2]
    assert np.abs(vals - want).max() <= 1e-13 * np.abs(want).max()
    assert np.abs(vals - np.sort_complex(d)).max() <= 1e-13 * np.abs(d).max()
    assert np.array_equal(np.lexsort((vals.imag, vals.real)), np.arange(n))


def test_eigenvalues_size_guard_counts_both_blocks():
    with pytest.raises(ValueError, match="size 20 exceeds limit 19"):
        eigenvalues(random_mirror(20), max_size=19)


@pytest.mark.parametrize("failing_call", [0, 1])
def test_eigenvalues_convergence_failure_in_either_block(monkeypatch, failing_call):
    calls = []
    solver = np.linalg.eigvals

    def flaky(b):
        calls.append(b.shape)
        if len(calls) - 1 == failing_call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(b)

    monkeypatch.setattr(np.linalg, "eigvals", flaky)
    with pytest.raises(EigenConvergenceError, match="did not converge"):
        eigenvalues(random_mirror(10))


def test_frobenius():
    a = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
    assert frobenius(a) == pytest.approx(np.linalg.norm(a))
    assert frobenius(np.zeros((2, 2))) == 0.0
