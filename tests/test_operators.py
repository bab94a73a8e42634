import numpy as np
import pytest

from nonlocal_sis import (
    DomainSpec,
    InvalidArgumentError,
    KernelSpec,
    apply_dispersal,
    assemble_dispersal,
    assemble_reaction_operator,
    build_grid,
    dump_matrix_csv,
    kernel_mass_profile,
)
from nonlocal_sis.experiments import random_instance


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
    np.testing.assert_allclose(K.row_masses(), kernel_mass_profile(grid, kernel),
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
    def test_assembly_by_hand(self, two_cell_K):
        B = assemble_reaction_operator(two_cell_K, 1.0, np.full(2, -0.5))
        np.testing.assert_allclose(B.matrix, [[-1.25, 0.25], [0.25, -1.25]])

    def test_single_cell_assembly(self):
        grid = build_grid(1, DomainSpec(0.0, 1.0))
        K = assemble_dispersal(grid, KernelSpec.tophat(1.0))
        B = assemble_reaction_operator(K, 1.0, np.zeros(1))
        np.testing.assert_allclose(B.matrix, [[-0.5]])

    def test_constructed_zero_row_sums(self, two_cell_K):
        d = 1.5
        c = d * (1.0 - two_cell_K.row_masses())
        B = assemble_reaction_operator(two_cell_K, d, c)
        np.testing.assert_allclose(B.matrix.sum(axis=1), 0.0, atol=1e-14)

    def test_length_mismatch(self, two_cell_K):
        with pytest.raises(InvalidArgumentError):
            assemble_reaction_operator(two_cell_K, 1.0, np.zeros(5))

    def test_assembly_is_invertible_bookkeeping(self):
        # matrix - diag(c) + d*Id reconstructs d*K (up to one rounding
        # on the diagonal)
        rng = np.random.default_rng(8)
        for _ in range(10):
            inst = random_instance(rng, n_max=24)
            K = inst.dispersal
            d = inst.params.d_I
            B = assemble_reaction_operator(K, d, inst.gap)
            rebuilt = B.matrix - np.diag(inst.gap) + d * np.eye(K.n)
            np.testing.assert_allclose(rebuilt, d * K.entries, rtol=0,
                                       atol=1e-13 * max(1.0, d))

    def test_weighted_self_adjoint_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = random_instance(rng, n_max=32)
            K = inst.dispersal
            B = assemble_reaction_operator(K, inst.params.d_I, inst.gap)
            w = inst.grid.weights
            np.testing.assert_array_equal(w[:, None] * B.matrix,
                                          (w[:, None] * B.matrix).T)


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


def test_matrix_dump_csv(tmp_path, two_cell_K):
    path = tmp_path / "K.csv"
    dump_matrix_csv(two_cell_K.entries, path)
    rows = path.read_text().strip().split("\n")
    assert len(rows) == 2
    np.testing.assert_allclose([float(v) for v in rows[0].split(",")], [0.25, 0.25])
