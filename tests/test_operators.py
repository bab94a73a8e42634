import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sis import (
    DispersalMatrix,
    DomainSpec,
    InvalidArgumentError,
    KernelSpec,
    apply_dispersal,
    assemble_dispersal,
    build_grid,
    extreme_eigenpair,
)
from nonlocal_sis.experiments import random_instance

from conftest import KERNELS


def test_two_cell_matrix_by_hand(two_cell_K):
    # w_j * J = 0.5 * 0.5 for every pair
    np.testing.assert_allclose(two_cell_K.entries, 0.25)


def test_single_cell_matrix():
    grid = build_grid(1, DomainSpec(0.0, 1.0))
    K = assemble_dispersal(grid, KernelSpec.tophat(1.0))
    np.testing.assert_allclose(K.entries, [[0.5]])


def test_narrow_kernel_gives_diagonal():
    grid = build_grid(3, DomainSpec(0.0, 3.0))  # spacing 1
    K = assemble_dispersal(grid, KernelSpec.tophat(0.25))
    off = K.entries - np.diag(np.diag(K.entries))
    assert np.all(off == 0.0)
    assert np.all(np.diag(K.entries) > 0)


def test_row_sums_match_mass_profile(two_cell):
    grid, kernel = two_cell
    K = assemble_dispersal(grid, kernel)
    np.testing.assert_allclose(K.row_masses(), K.entries.sum(axis=1),
                               rtol=0, atol=1e-15)


def test_weighted_symmetry_exact():
    # w_i K[i, j] and w_j K[j, i] are the same product of reals
    rng = np.random.default_rng(3)
    for _ in range(20):
        inst = random_instance(rng, n_max=32)
        K = inst.dispersal
        weighted = inst.grid.weights[:, None] * K.entries
        np.testing.assert_array_equal(weighted, weighted.T)


def test_entries_nonnegative_diagonal_positive():
    rng = np.random.default_rng(4)
    for _ in range(20):
        inst = random_instance(rng, n_max=32)
        K = inst.dispersal
        assert np.all(K.entries >= 0)
        assert np.all(np.diag(K.entries) > 0)
        assert K.row_masses().max() <= 1.0 + 1e-12


TWO_CELLS = build_grid(2, DomainSpec(0.0, 1.0))

BAD_DISPERSAL_MATRICES = [
    pytest.param(lambda: DispersalMatrix(np.eye(2)),
                 "need a grid and exactly one of entries, column", id="no-grid"),
    pytest.param(lambda: DispersalMatrix(grid=TWO_CELLS),
                 "need a grid and exactly one of entries, column", id="neither"),
    pytest.param(lambda: DispersalMatrix(np.eye(2), TWO_CELLS, column=np.ones(2)),
                 "need a grid and exactly one of entries, column", id="both"),
    pytest.param(lambda: DispersalMatrix(np.eye(3), TWO_CELLS),
                 r"matrix shape \(3, 3\) does not match grid n=2", id="entries-shape"),
    pytest.param(lambda: DispersalMatrix(grid=TWO_CELLS, column=np.ones(3)),
                 r"matrix shape \(3,\) does not match grid n=2", id="column-shape"),
]


@pytest.mark.parametrize("call, message", BAD_DISPERSAL_MATRICES)
def test_invalid_dispersal_matrix_rejected(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


class TestApplyDispersal:
    def test_constant_field(self, two_cell_K):
        out = apply_dispersal(1.0, two_cell_K, np.ones(2))
        np.testing.assert_allclose(out, [-0.5, -0.5])

    def test_zero_field(self, two_cell_K):
        out = apply_dispersal(1.0, two_cell_K, np.zeros(2))
        np.testing.assert_array_equal(out, 0.0)

    def test_indicator_field_by_hand(self, two_cell_K):
        out = apply_dispersal(2.0, two_cell_K, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [-1.5, 0.5])

    def test_length_mismatch(self, two_cell_K):
        with pytest.raises(InvalidArgumentError):
            apply_dispersal(1.0, two_cell_K, np.ones(3))

    def test_constant_field_sign(self):
        # leakage makes the dispersal of a constant strictly negative somewhere
        rng = np.random.default_rng(5)
        for _ in range(10):
            inst = random_instance(rng, n_max=32)
            out = apply_dispersal(inst.params.d_I, inst.dispersal,
                                  np.ones(inst.grid.n))
            assert np.all(out <= 1e-15)
            assert out.min() < -1e-12


class TestReactionOperator:
    """``d (K - Id) + diag(c)`` through its top eigenpair."""

    def test_assembly_by_hand(self, two_cell_K):
        # [[-1.25, 0.25], [0.25, -1.25]] has eigenvalues -1.0 and -1.5
        pair = extreme_eigenpair(two_cell_K, 1.0, np.full(2, -0.5))
        assert pair.value == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(pair.vector, [1.0, 1.0], atol=1e-10)

    def test_single_cell_assembly(self):
        grid = build_grid(1, DomainSpec(0.0, 1.0))
        K = assemble_dispersal(grid, KernelSpec.tophat(1.0))
        pair = extreme_eigenpair(K, 1.0, np.zeros(1))
        assert pair.value == pytest.approx(-0.5, abs=1e-14)

    def test_constructed_zero_row_sums(self, two_cell_K):
        # zero row sums and nonnegative off-diagonals: the constant field is
        # the positive (principal) eigenvector, with eigenvalue 0
        d = 1.5
        c = d * (1.0 - two_cell_K.row_masses())
        pair = extreme_eigenpair(two_cell_K, d, c)
        assert pair.value == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(pair.vector, [1.0, 1.0], atol=1e-12)

    def test_length_mismatch(self, two_cell_K):
        with pytest.raises(InvalidArgumentError):
            extreme_eigenpair(two_cell_K, 1.0, np.zeros(5))

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_nonpositive_rate_rejected(self, two_cell_K, d):
        with pytest.raises(InvalidArgumentError):
            extreme_eigenpair(two_cell_K, d, np.zeros(2))

    @pytest.mark.parametrize("n", [64, 512])  # dense eigensolve, then Lanczos
    @pytest.mark.parametrize("d, bad", [(1.0, np.nan), (np.inf, 0.0)])
    def test_non_finite_input_rejected(self, n, d, bad):
        K = assemble_dispersal(build_grid(n, DomainSpec(0.0, 1.0)),
                               KernelSpec.triangle(0.25))
        m = np.full(n, 0.5)
        m[n // 2] = bad
        with pytest.raises(InvalidArgumentError):
            extreme_eigenpair(K, d, m)

    def test_assembly_is_invertible_bookkeeping(self):
        # the returned pair is an eigenpair of the dense operator built here
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_instance(rng, n_max=24)
            K = inst.dispersal
            d = inst.params.d_I
            pair = extreme_eigenpair(K, d, inst.gap)
            B = d * (K.entries - np.eye(K.n)) + np.diag(inst.gap)
            v = pair.vector
            assert np.max(np.abs(B @ v - pair.value * v)) <= 1e-10

    def test_weighted_self_adjoint_exact(self, graded_grid):
        # equal cells: K is exactly symmetric (x_i - x_j is exactly
        # antisymmetric), which the eigensolves rely on; unequal cells:
        # w_i K[i, j] and w_j K[j, i] agree to round-off
        rng = np.random.default_rng(6)
        for _ in range(20):
            K = random_instance(rng, n_max=32).dispersal
            np.testing.assert_array_equal(K.entries, K.entries.T)
        K = assemble_dispersal(graded_grid, KernelSpec.triangle(0.25))
        weighted = graded_grid.weights[:, None] * K.entries
        np.testing.assert_allclose(weighted, weighted.T, rtol=1e-15, atol=0)


def test_dispersal_quadratic_form_dissipative():
    # discrete analog of the kernel smoothing estimate: the weighted form
    # of u against (K u - u) never goes positive
    rng = np.random.default_rng(7)
    for _ in range(30):
        inst = random_instance(rng, n_max=48)
        K = inst.dispersal
        w = inst.grid.weights
        u = rng.standard_normal(inst.grid.n)
        form = float(np.sum(w * u * (K.entries @ u - u)))
        scale = float(np.sum(w * u * u))
        assert form <= 1e-12 * max(1.0, scale)


@given(kernel=KERNELS, n=st.one_of(st.integers(8, 64), st.integers(512, 700)),
       d=st.floats(0.1, 5.0), constant=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_shifted_solve_matches_dense_solve(kernel, n, d, constant, seed):
    # LU below the crossover; above it Levinson for a constant c, CG otherwise
    K = assemble_dispersal(build_grid(n, DomainSpec(0.0, 1.0)), kernel)
    assert K.matrix_free == (n >= 512)
    rng = np.random.default_rng(seed)
    # c above d times each row mass (which exceeds 1 for an under-resolved
    # kernel) makes diag(c) - d K a strictly diagonally dominant M-matrix
    masses = K.row_masses()
    if constant:
        c = np.full(n, d * (np.max(masses) + rng.uniform(0.1, 2.0)))
    else:
        c = d * (masses + rng.uniform(0.1, 2.0, n))
    b = rng.normal(size=n)
    got = K.shifted_solve(d, c, b)
    assert ("entries" not in vars(K)) == K.matrix_free  # no n x n array formed
    want = np.linalg.solve(np.diag(c) - d * K.entries, b)
    assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_dense_shifted_solve_is_the_plain_solve_of_id_minus_K():
    # c = 1, d = 1 forms Id - K to the bit: -1.0 * x is -x, -K_ii + 1.0 is 1.0 - K_ii
    rng = np.random.default_rng(41)
    for _ in range(10):
        K = random_instance(rng, n_max=64).dispersal
        b = rng.uniform(0.5, 2.0, K.n)
        np.testing.assert_array_equal(
            K.shifted_solve(1.0, np.ones(K.n), b),
            np.linalg.solve(np.eye(K.n) - K.entries, b))
