import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sis import (
    CoefficientField,
    DomainSpec,
    FieldSpec,
    Grid,
    InvalidArgumentError,
    InvalidCoefficientError,
    KernelSpec,
    ModelParams,
    assemble_dispersal,
    build_field,
    build_grid,
    kernel_value,
    load_coefficient_table,
    sample_field_values,
    validate_instance,
)

from conftest import const_field


def _grid(nodes, weights):
    return Grid(nodes=np.array(nodes, dtype=float),
                weights=np.array(weights, dtype=float), domain=DomainSpec(0.0, 1.0))


BAD_DOMAIN_INPUTS = [
    pytest.param(lambda: _grid([0.25, 0.75], [1.0]),
                 "nodes and weights must be 1-d and equal length", id="grid-shape"),
    pytest.param(lambda: _grid([0.25, np.nan], [0.5, 0.5]),
                 "nodes and weights must be finite", id="grid-node-nan"),
    pytest.param(lambda: _grid([0.25, 0.75], [0.5, np.nan]),
                 "nodes and weights must be finite", id="grid-weight-nan"),
    pytest.param(lambda: _grid([], []), "grid must contain at least one node",
                 id="grid-empty"),
    pytest.param(lambda: _grid([0.75, 0.25], [0.5, 0.5]),
                 "nodes must be strictly increasing", id="grid-order"),
    pytest.param(lambda: _grid([0.0, 0.75], [0.5, 0.5]),
                 "nodes must be interior to the domain", id="grid-boundary"),
    pytest.param(lambda: _grid([0.25, 0.75], [1.5, -0.5]),
                 "weights must be positive", id="grid-weight-sign"),
    pytest.param(lambda: _grid([0.25, 0.75], [0.5, 0.25]),
                 "weights must sum to the domain length", id="grid-weight-sum"),
    pytest.param(lambda: sample_field_values(FieldSpec("cosine", (1.0,)),
                                             build_grid(2, DomainSpec(0.0, 1.0))),
                 "unknown field family 'cosine'", id="field-family"),
]


@pytest.mark.parametrize("call, message", BAD_DOMAIN_INPUTS)
def test_invalid_domain_input_rejected(call, message):
    with pytest.raises(InvalidArgumentError, match=message):
        call()


class TestBuildGrid:
    def test_two_cells_unit_interval(self):
        g = build_grid(2, DomainSpec(0.0, 1.0))
        np.testing.assert_allclose(g.nodes, [0.25, 0.75])
        np.testing.assert_allclose(g.weights, [0.5, 0.5])

    def test_single_cell(self):
        g = build_grid(1, DomainSpec(0.0, 1.0))
        np.testing.assert_allclose(g.nodes, [0.5])
        np.testing.assert_allclose(g.weights, [1.0])

    def test_four_cells_longer_domain(self):
        g = build_grid(4, DomainSpec(0.0, 2.0))
        np.testing.assert_allclose(g.nodes, [0.25, 0.75, 1.25, 1.75])
        np.testing.assert_allclose(g.weights, 0.5)

    def test_zero_cells_rejected(self):
        with pytest.raises(InvalidArgumentError):
            build_grid(0, DomainSpec(0.0, 1.0))

    def test_degenerate_domain_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DomainSpec(1.0, 1.0)

    @pytest.mark.parametrize("length", [1e4, 1e5])
    def test_long_domain_accepted(self, length):
        # the weights' rounding error, 1.8e-12 and 1.5e-11 here, scales with
        # the length; an absolute 1e-12 bound used to reject these grids
        g = build_grid(7, DomainSpec(0.0, length))
        assert g.weights.sum() == pytest.approx(length, rel=1e-12, abs=0.0)

    @given(n=st.integers(1, 400),
           left=st.floats(-5, 5),
           length=st.floats(0.01, 10))
    @settings(max_examples=60, deadline=None)
    def test_quadrature_reproduces_length(self, n, left, length):
        domain = DomainSpec(left, left + length)
        g = build_grid(n, domain)
        assert abs(g.weights.sum() - domain.length) <= 1e-12
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[0] > domain.left and g.nodes[-1] < domain.right


KERNELS = [
    KernelSpec.tophat(1.0),
    KernelSpec.tophat(0.35),
    KernelSpec.triangle(1.0),
    KernelSpec.triangle(0.6),
    KernelSpec.truncated_gaussian(0.5, 1.5),
    KernelSpec.truncated_gaussian(1.0, 2.0),
]


class TestKernels:
    def test_tophat_center(self):
        assert kernel_value(KernelSpec.tophat(1.0), 0.0) == 0.5

    def test_tophat_outside_support(self):
        assert kernel_value(KernelSpec.tophat(1.0), 1.5) == 0.0

    def test_triangle_peak(self):
        assert kernel_value(KernelSpec.triangle(1.0), 0.0) == 1.0

    @pytest.mark.parametrize("spec", KERNELS, ids=str)
    def test_unit_mass_by_trapezoid(self, spec):
        z = np.linspace(-spec.support_radius, spec.support_radius, 10001)
        y = kernel_value(spec, z)
        assert abs(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(z)) - 1.0) <= 1e-8

    @pytest.mark.parametrize("spec", KERNELS, ids=str)
    def test_positive_at_zero(self, spec):
        assert kernel_value(spec, 0.0) > 0

    @given(z=st.floats(-10, 10))
    @settings(max_examples=1000, deadline=None)
    def test_symmetry(self, z):
        for spec in KERNELS:
            assert kernel_value(spec, z) == kernel_value(spec, -z)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidArgumentError):
            KernelSpec.tophat(0.0)
        with pytest.raises(InvalidArgumentError):
            KernelSpec.truncated_gaussian(1.0, -1.0)
        with pytest.raises(InvalidArgumentError):
            KernelSpec("box", h=1.0)


class TestKernelMassInDomain:
    """The in-domain mass at a node is the row mass of K."""

    def test_two_cell_tophat(self, two_cell_K):
        # analytic: integral of 1/2 over [0,1] is 1/2 at either node
        mass = two_cell_K.row_masses()
        assert mass[0] == pytest.approx(0.5, abs=1e-15)
        assert mass[1] == pytest.approx(0.5, abs=1e-15)

    def test_single_cell_tophat(self):
        grid = build_grid(1, DomainSpec(0.0, 1.0))
        assert assemble_dispersal(grid, KernelSpec.tophat(1.0)).row_masses()[0] == 0.5

    def test_disjoint_support_gives_zero(self):
        # kernel support much narrower than the node spacing: only the
        # diagonal survives, and at distance 0 the mass is w * J(0)
        grid = build_grid(2, DomainSpec(0.0, 1.0))
        spec = KernelSpec.tophat(0.1)
        diff = grid.nodes[0] - grid.nodes[1]
        assert kernel_value(spec, diff) == 0.0

    def test_index_out_of_range(self, two_cell_K):
        mass = two_cell_K.row_masses()
        assert mass.shape == (2,)
        with pytest.raises(IndexError):
            mass[5]

    @pytest.mark.parametrize("n,k_cells,family", [
        (8, 3, "tophat"), (16, 5, "tophat"), (33, 7, "tophat"),
        (8, 3, "triangle"), (16, 8, "triangle"), (33, 12, "triangle"),
    ])
    def test_aligned_kernels_never_overshoot_unit_mass(self, n, k_cells, family):
        # midpoint quadrature of a resolution-aligned unit-mass kernel
        # stays at or below 1 at every node
        grid = build_grid(n, DomainSpec(0.0, 1.5))
        delta = 1.5 / n
        if family == "tophat":
            spec = KernelSpec.tophat((k_cells + 0.5) * delta)
        else:
            spec = KernelSpec.triangle(k_cells * delta)
        mass = assemble_dispersal(grid, spec).row_masses()
        assert mass.max() <= 1.0 + 1e-12
        assert mass.min() >= 0.0

    def test_wide_gaussian_stays_below_one(self):
        grid = build_grid(24, DomainSpec(0.0, 1.0))
        spec = KernelSpec.truncated_gaussian(0.6, 2.0)
        mass = assemble_dispersal(grid, spec).row_masses()
        assert mass.max() <= 1.0 + 1e-12


class TestBuildField:
    def test_constant(self, two_cell):
        grid, _ = two_cell
        f = build_field(FieldSpec.constant(1.0), grid)
        np.testing.assert_allclose(f.values, [1.0, 1.0])

    def test_step_node_placement(self, two_cell):
        grid, _ = two_cell
        f = build_field(FieldSpec.step(2.0, 0.5, 0.5), grid)
        np.testing.assert_allclose(f.values, [2.0, 0.5])

    def test_bump_shape(self):
        grid = build_grid(5, DomainSpec(0.0, 1.0))
        f = build_field(FieldSpec.bump(1.0, 0.5, 0.5, 0.2), grid)
        assert f.values[2] == pytest.approx(1.5)
        assert np.all(f.values >= 1.0)

    def test_table(self, two_cell):
        grid, _ = two_cell
        f = build_field(FieldSpec.table([1.5, 2.5]), grid)
        np.testing.assert_allclose(f.values, [1.5, 2.5])

    def test_zero_rejected(self, two_cell):
        grid, _ = two_cell
        with pytest.raises(InvalidCoefficientError):
            build_field(FieldSpec.constant(0.0), grid)

    def test_table_length_mismatch(self, two_cell):
        grid, _ = two_cell
        with pytest.raises(InvalidArgumentError):
            build_field(FieldSpec.table([1.0, 2.0, 3.0]), grid)

    def test_field_immutable(self, two_cell):
        grid, _ = two_cell
        f = build_field(FieldSpec.constant(1.0), grid)
        with pytest.raises(ValueError):
            f.values[0] = 7.0

    def test_load_table_csv(self, tmp_path):
        p = tmp_path / "vals.csv"
        p.write_text("1.0\n2.5\n0.75\n")
        np.testing.assert_allclose(load_coefficient_table(p), [1.0, 2.5, 0.75])


class TestValidateInstance:
    def test_good_instance_passes(self, two_cell):
        grid, kernel = two_cell
        report = validate_instance(
            grid, kernel,
            const_field(grid, 2.0), const_field(grid, 0.5), const_field(grid, 1.0),
            ModelParams(1.0, 1.0))
        assert report.passed, report.failures()

    def test_leakage_violation_detected(self):
        # single cell with a tophat of radius 1/2: the in-domain mass is
        # exactly 1, nothing leaks, so the hostile-exterior check fails
        grid = build_grid(1, DomainSpec(0.0, 1.0))
        report = validate_instance(
            grid, KernelSpec.tophat(0.5),
            const_field(grid, 1.0), const_field(grid, 1.0), const_field(grid, 1.0),
            ModelParams(1.0, 1.0))
        assert not report.passed
        assert "dirichlet_leakage" in report.failures()

    def test_zero_in_gamma_detected(self, two_cell):
        grid, kernel = two_cell
        report = validate_instance(
            grid, kernel,
            const_field(grid, 1.0), np.array([1.0, 0.0]), const_field(grid, 1.0),
            ModelParams(1.0, 1.0))
        assert not report.passed
        assert report.failures() == ["gamma_positive"]

    def test_nonpositive_rate_detected(self, two_cell):
        grid, kernel = two_cell
        report = validate_instance(
            grid, kernel,
            const_field(grid, 1.0), const_field(grid, 1.0), const_field(grid, 1.0),
            (1.0, -2.0))
        assert "dispersal_rates_positive" in report.failures()

    def test_report_serializable(self, two_cell):
        grid, kernel = two_cell
        report = validate_instance(
            grid, kernel,
            const_field(grid, 1.0), const_field(grid, 1.0), const_field(grid, 1.0),
            ModelParams(1.0, 1.0))
        d = report.to_dict()
        assert d["passed"] is True
        assert set(d["checks"]) >= {"kernel_positive_at_zero", "dirichlet_leakage"}

    @pytest.mark.parametrize("n,spec", [
        (1024, KernelSpec.truncated_gaussian(0.002, 25.0)),
        (2048, KernelSpec.truncated_gaussian(0.001, 10.0)),
    ], ids=["n1024-sigma0.002", "n2048-sigma0.001"])
    def test_narrow_gaussian_passes(self, n, spec):
        # sigma about two cells wide, cutoff far outside the habitat: the
        # kernels are unit-mass by construction and their row masses are <= 1
        grid = build_grid(n, DomainSpec(0.0, 1.0))
        one = const_field(grid, 1.0)
        report = validate_instance(grid, spec, one, one, one, ModelParams(1.0, 1.0),
                                   dispersal=assemble_dispersal(grid, spec))
        assert report.passed, report.failures()

    def test_overflowing_triangle_fails_positive_at_zero(self):
        # h * h overflows to inf, so J(0) = h / inf = 0
        grid = build_grid(8, DomainSpec(0.0, 1.0))
        one = const_field(grid, 1.0)
        report = validate_instance(grid, KernelSpec.triangle(1e300), one, one, one,
                                   ModelParams(1.0, 1.0))
        assert report.failures() == ["kernel_positive_at_zero"]

    @pytest.mark.parametrize("n", [64, 1024])
    def test_fresh_assembly_matches_cached_dispersal(self, n):
        # without ``dispersal`` the masses come from a fresh assembly of K,
        # dense at n=64 and matrix-free at n=1024
        grid = build_grid(n, DomainSpec(0.0, 1.0))
        kernel = KernelSpec.triangle(0.25)
        K = assemble_dispersal(grid, kernel)
        assert K.matrix_free == (n == 1024)
        args = (grid, kernel, const_field(grid, 2.0), const_field(grid, 0.5),
                const_field(grid, 1.0), ModelParams(1.0, 1.0))
        assert (validate_instance(*args).to_dict()
                == validate_instance(*args, dispersal=K).to_dict())


class TestModelParams:
    def test_positive_rates_required(self):
        with pytest.raises(InvalidArgumentError):
            ModelParams(d_S=0.0, d_I=1.0)
        with pytest.raises(InvalidArgumentError):
            ModelParams(d_S=1.0, d_I=-1.0)

    def test_coefficient_role_kept(self, two_cell):
        grid, _ = two_cell
        f = CoefficientField(np.array([1.0, 2.0]), role="beta")
        assert f.role == "beta"
        assert f.n == 2


@pytest.mark.parametrize("make", [
    lambda: ModelParams(d_S=np.nan, d_I=1.0),
    lambda: ModelParams(d_S=np.inf, d_I=1.0),
    lambda: CoefficientField(np.array([1.0, np.nan])),
    lambda: CoefficientField(np.array([1.0, np.inf])),
    lambda: KernelSpec.tophat(np.nan),
    lambda: KernelSpec.tophat(np.inf),
    lambda: KernelSpec.truncated_gaussian(np.nan, 1.0),
    lambda: DomainSpec(0.0, np.inf),
    lambda: DomainSpec(-np.inf, 0.0),
], ids=["d_S-nan", "d_S-inf", "field-nan", "field-inf", "tophat-nan",
        "tophat-inf", "gaussian-sigma-nan", "domain-right-inf",
        "domain-left-inf"])
def test_nonfinite_parameters_rejected(make):
    with pytest.raises((InvalidArgumentError, InvalidCoefficientError)):
        make()
