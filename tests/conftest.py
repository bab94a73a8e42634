import numpy as np
import pytest
from hypothesis import strategies as st

from nonlocal_sis import (
    CoefficientField,
    DomainSpec,
    Grid,
    KernelSpec,
    ModelParams,
    assemble_dispersal,
    build_grid,
)


# The three kernel families over widths from a few cells to wider than
# the domain.
KERNELS = st.one_of(
    st.builds(KernelSpec.tophat, st.floats(0.005, 1.5)),
    st.builds(KernelSpec.triangle, st.floats(0.005, 1.5)),
    st.builds(lambda sigma, ratio: KernelSpec.truncated_gaussian(sigma, ratio * sigma),
              st.floats(0.005, 0.8), st.floats(1.0, 4.0)),
)


@pytest.fixture
def two_cell():
    """Two midpoint cells on the unit interval with a unit-radius tophat.

    Everything about this instance is computable by hand: the kernel is
    constant over all node pairs, so K = [[0.25, 0.25], [0.25, 0.25]].
    """
    grid = build_grid(2, DomainSpec(0.0, 1.0))
    kernel = KernelSpec.tophat(1.0)
    return grid, kernel


@pytest.fixture
def two_cell_K(two_cell):
    grid, kernel = two_cell
    return assemble_dispersal(grid, kernel)


def graded(n):
    """n midpoint cells on [0, 1] with edges ``t**1.4``: unequal cells whose
    widths grow along the interval."""
    edges = np.linspace(0.0, 1.0, n + 1) ** 1.4
    return Grid(nodes=0.5 * (edges[1:] + edges[:-1]), weights=np.diff(edges),
                domain=DomainSpec(0.0, 1.0))


@pytest.fixture
def graded_grid():
    """40 graded cells, whose widths grow from about 0.006 to 0.035: below
    the size at which K is matrix-free."""
    return graded(40)


def const_field(grid, value, role=""):
    return CoefficientField(np.full(grid.n, float(value)), role)


@pytest.fixture
def endemic_setup(two_cell):
    """The hand-solved persistence instance: beta=2, gamma=0.5, lam=1."""
    grid, kernel = two_cell
    K = assemble_dispersal(grid, kernel)
    beta = const_field(grid, 2.0, "beta")
    gamma = const_field(grid, 0.5, "gamma")
    lam = const_field(grid, 1.0, "lambda")
    params = ModelParams(d_S=1.0, d_I=1.0)
    return grid, K, beta, gamma, lam, params
