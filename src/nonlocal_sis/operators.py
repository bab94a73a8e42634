"""Discrete dispersal matrix and reaction-dispersal operators.

The hostile exterior is realized by extension with zero: the gain term
``(K u)_i = sum_j w_j J(x_i - x_j) u_j`` only collects mass from inside the
domain, while the loss term ``-u_i`` spends the kernel's full unit mass.
Mass jumping outside is simply lost, which is what makes the pure dispersal
part strictly dissipative.

All operators are self-adjoint in the weighted inner product
``<u, v>_w = sum_i w_i u_i v_i``, the discrete L2 pairing of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Grid, KernelSpec, kernel_value
from .errors import InvalidArgumentError

__all__ = [
    "DispersalMatrix",
    "ReactionDispersalOperator",
    "assemble_dispersal",
    "apply_dispersal",
    "assemble_reaction_operator",
    "weighted_form",
    "dump_matrix_csv",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DispersalMatrix:
    """Quadrature matrix ``K[i, j] = w_j J(x_i - x_j)``.

    Row sums equal the in-domain kernel mass at each node; the weighted
    symmetry ``w_i K[i, j] == w_j K[j, i]`` holds exactly because both
    sides are the same product of reals.
    """

    entries: np.ndarray
    grid: Grid

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly(self.entries))
        n = self.grid.n
        if self.entries.shape != (n, n):
            raise InvalidArgumentError(
                f"matrix shape {self.entries.shape} does not match grid n={n}")

    @property
    def n(self) -> int:
        return self.grid.n

    def row_masses(self) -> np.ndarray:
        return self.entries.sum(axis=1)


def assemble_dispersal(grid: Grid, kernel: KernelSpec) -> DispersalMatrix:
    """Assemble the dispersal gain matrix for a grid/kernel pair."""
    diff = grid.nodes[:, None] - grid.nodes[None, :]
    entries = kernel_value(kernel, diff) * grid.weights[None, :]
    return DispersalMatrix(entries=entries, grid=grid)


def apply_dispersal(d: float, K: DispersalMatrix, u: np.ndarray) -> np.ndarray:
    """Apply ``d (K u - u)``: kernel-weighted gain minus full-mass loss."""
    u = np.asarray(u, dtype=float)
    if u.shape != (K.n,):
        raise InvalidArgumentError(f"field length {u.shape} does not match n={K.n}")
    return d * (K.entries @ u - u)


@dataclass(frozen=True)
class ReactionDispersalOperator:
    """Dense operator ``B = d (K - Id) + diag(c)`` with the quadrature
    weights in which it is self-adjoint."""

    matrix: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        object.__setattr__(self, "weights", _readonly(self.weights))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def assemble_reaction_operator(K: DispersalMatrix, d: float,
                               c: np.ndarray) -> ReactionDispersalOperator:
    """Assemble ``d (K - Id) + diag(c)`` for a node field ``c``."""
    c = np.asarray(c, dtype=float)
    if c.shape != (K.n,):
        raise InvalidArgumentError(f"reaction length {c.shape} does not match n={K.n}")
    if d <= 0:
        raise InvalidArgumentError(f"dispersal rate must be positive, got {d}")
    matrix = d * (K.entries - np.eye(K.n)) + np.diag(c)
    return ReactionDispersalOperator(matrix=matrix, weights=K.grid.weights)


def weighted_form(weights: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """Weighted inner product ``sum_i w_i u_i v_i``."""
    return float(np.sum(weights * u * v))


def dump_matrix_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV dump for debugging; not load-bearing."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in matrix:
            f.write(",".join(repr(float(x)) for x in row))
            f.write("\n")
