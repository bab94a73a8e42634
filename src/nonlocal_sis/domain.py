"""Spatial domain, quadrature grid, dispersal kernels and coefficient fields.

The habitat is an interval discretized by the composite midpoint rule: node
``x_i`` sits at the center of the i-th of ``n`` equal cells and carries the
cell width as quadrature weight.  Everything downstream (operators, spectra,
equilibria, dynamics) works on node fields over this grid.

Dispersal kernels come in three closed-form families, each normalized to
unit mass on the whole line, so that the deficit of the in-domain mass
``sum_j w_j J(x_i - x_j)`` at a node measures how much of a jump
distribution leaks into the hostile surroundings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidCoefficientError

__all__ = [
    "DomainSpec",
    "Grid",
    "KernelSpec",
    "CoefficientField",
    "FieldSpec",
    "ModelParams",
    "ValidationReport",
    "build_grid",
    "kernel_value",
    "sample_field_values",
    "build_field",
    "load_coefficient_table",
    "validate_instance",
]

QUADRATURE_TOL = 1e-12
LEAKAGE_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.flags.writeable = False
    return out


def _field_values(f) -> np.ndarray:
    """Accept a CoefficientField or a bare array (probing invalid data)."""
    return np.asarray(getattr(f, "values", f), dtype=float)


@dataclass(frozen=True)
class DomainSpec:
    """Interval habitat (left, right)."""

    left: float
    right: float

    def __post_init__(self):
        if not -np.inf < self.left < self.right < np.inf:
            raise InvalidArgumentError(
                f"domain must be finite with right ({self.right}) > left ({self.left})")

    @property
    def length(self) -> float:
        return self.right - self.left


@dataclass(frozen=True)
class Grid:
    """Quadrature nodes and weights over a domain.

    Nodes are strictly increasing and interior; weights are positive and
    reproduce the domain length exactly (midpoint rule).
    """

    nodes: np.ndarray
    weights: np.ndarray
    domain: DomainSpec

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        object.__setattr__(self, "weights", _readonly(self.weights))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise InvalidArgumentError("nodes and weights must be 1-d and equal length")
        if self.nodes.size == 0:
            raise InvalidArgumentError("grid must contain at least one node")
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidArgumentError("nodes must be strictly increasing")
        if self.nodes[0] <= self.domain.left or self.nodes[-1] >= self.domain.right:
            raise InvalidArgumentError("nodes must be interior to the domain")
        if np.any(self.weights <= 0):
            raise InvalidArgumentError("weights must be positive")
        if abs(self.weights.sum() - self.domain.length) > QUADRATURE_TOL:
            raise InvalidArgumentError("weights must sum to the domain length")

    @property
    def n(self) -> int:
        return self.nodes.size


def build_grid(n: int, domain: DomainSpec) -> Grid:
    """Composite midpoint grid with ``n`` equal cells."""
    if n < 1:
        raise InvalidArgumentError(f"grid needs at least one cell, got n={n}")
    h = domain.length / n
    nodes = domain.left + h * (np.arange(n) + 0.5)
    weights = np.full(n, h)
    return Grid(nodes=nodes, weights=weights, domain=domain)


@dataclass(frozen=True)
class KernelSpec:
    """Symmetric jump kernel with unit mass on the line.

    Families
    --------
    tophat(h)
        ``1/(2h)`` on ``|z| <= h``, zero outside.
    triangle(h)
        ``(h - |z|)/h^2`` on ``|z| <= h``: a normalized tent.
    truncated_gaussian(sigma, cutoff)
        Gaussian density restricted to ``|z| <= cutoff`` and renormalized.
    """

    family: str
    h: float | None = None
    sigma: float | None = None
    cutoff: float | None = None

    def __post_init__(self):
        if self.family in ("tophat", "triangle"):
            if self.h is None or not 0 < self.h < np.inf:
                raise InvalidArgumentError(f"{self.family} kernel needs finite h > 0")
        elif self.family == "truncated_gaussian":
            if self.sigma is None or not 0 < self.sigma < np.inf:
                raise InvalidArgumentError("truncated_gaussian needs finite sigma > 0")
            if self.cutoff is None or not 0 < self.cutoff < np.inf:
                raise InvalidArgumentError("truncated_gaussian needs finite cutoff > 0")
        else:
            raise InvalidArgumentError(f"unknown kernel family {self.family!r}")

    @classmethod
    def tophat(cls, h: float) -> "KernelSpec":
        return cls(family="tophat", h=h)

    @classmethod
    def triangle(cls, h: float) -> "KernelSpec":
        return cls(family="triangle", h=h)

    @classmethod
    def truncated_gaussian(cls, sigma: float, cutoff: float) -> "KernelSpec":
        return cls(family="truncated_gaussian", sigma=sigma, cutoff=cutoff)

    @property
    def support_radius(self) -> float:
        return self.h if self.family in ("tophat", "triangle") else self.cutoff


def kernel_value(spec: KernelSpec, z):
    """Evaluate the kernel at displacement ``z`` (scalar or array)."""
    z = np.abs(np.asarray(z, dtype=float))
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if spec.family == "tophat":
        out = np.where(z <= spec.h, 1.0 / (2.0 * spec.h), 0.0)
    elif spec.family == "triangle":
        out = np.maximum(spec.h - z, 0.0) / (spec.h * spec.h)
    else:
        sigma, cutoff = spec.sigma, spec.cutoff
        norm = math.erf(cutoff / (sigma * math.sqrt(2.0)))
        dens = np.exp(-0.5 * (z / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        out = np.where(z <= cutoff, dens / norm, 0.0)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CoefficientField:
    """Strictly positive node field: transmission, recovery or recruitment."""

    values: np.ndarray
    role: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if not np.all((0 < self.values) & (self.values < np.inf)):
            raise InvalidCoefficientError(
                f"coefficient field {self.role or '<unnamed>'} must be finite "
                "and strictly positive")

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for sampling a node field on a grid.

    Families: constant(c), step(c1, c2, x_split), bump(base, amp, center,
    width) and table(values).  The bump is Gaussian-shaped:
    ``base + amp * exp(-((x - center)/width)^2)``.
    """

    family: str
    params: tuple = field(default_factory=tuple)

    @classmethod
    def constant(cls, c: float) -> "FieldSpec":
        return cls("constant", (float(c),))

    @classmethod
    def step(cls, c1: float, c2: float, x_split: float) -> "FieldSpec":
        return cls("step", (float(c1), float(c2), float(x_split)))

    @classmethod
    def bump(cls, base: float, amp: float, center: float, width: float) -> "FieldSpec":
        return cls("bump", (float(base), float(amp), float(center), float(width)))

    @classmethod
    def table(cls, values) -> "FieldSpec":
        return cls("table", (tuple(float(v) for v in values),))


def sample_field_values(spec: FieldSpec, grid: Grid) -> np.ndarray:
    """Sample a field recipe at the grid nodes (no sign constraint)."""
    x = grid.nodes
    if spec.family == "constant":
        (c,) = spec.params
        return np.full(grid.n, c)
    if spec.family == "step":
        c1, c2, x_split = spec.params
        return np.where(x < x_split, c1, c2)
    if spec.family == "bump":
        base, amp, center, width = spec.params
        if width <= 0:
            raise InvalidArgumentError("bump width must be positive")
        return base + amp * np.exp(-(((x - center) / width) ** 2))
    if spec.family == "table":
        (values,) = spec.params
        values = np.asarray(values, dtype=float)
        if values.size != grid.n:
            raise InvalidArgumentError(
                f"table has {values.size} entries, grid has {grid.n} nodes")
        return values.copy()
    raise InvalidArgumentError(f"unknown field family {spec.family!r}")


def build_field(spec: FieldSpec, grid: Grid, role: str = "") -> CoefficientField:
    """Sample a recipe at the nodes and enforce strict positivity."""
    return CoefficientField(values=sample_field_values(spec, grid), role=role)


def load_coefficient_table(path) -> np.ndarray:
    """Read a coefficient table: one value per line, plain CSV column."""
    with open(path, "r", encoding="utf-8") as f:
        rows = [line.strip() for line in f if line.strip()]
    try:
        return np.array([float(r) for r in rows])
    except ValueError as exc:
        raise InvalidArgumentError(f"non-numeric entry in table {path}: {exc}") from exc


@dataclass(frozen=True)
class ModelParams:
    """Dispersal rates of the two compartments."""

    d_S: float
    d_I: float

    def __post_init__(self):
        if not (0 < self.d_S < np.inf and 0 < self.d_I < np.inf):
            raise InvalidArgumentError("dispersal rates must be finite and positive, "
                                       f"got d_S={self.d_S}, d_I={self.d_I}")


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail ledger for the standing assumptions of an instance."""

    checks: dict
    diagnostics: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failures(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def to_dict(self) -> dict:
        return {
            "checks": dict(self.checks),
            "diagnostics": {k: float(v) for k, v in self.diagnostics.items()},
            "passed": self.passed,
        }


def validate_instance(grid: Grid, kernel: KernelSpec, beta, gamma, lam,
                      params, dispersal=None) -> ValidationReport:
    """Check the standing assumptions that an instance can violate; failures
    land in the report, they do not raise.

    The checks are: J(0) > 0 (``KernelSpec.triangle(1e300)`` overflows
    ``h * h``, so its J(0) is 0.0), strictly positive beta, gamma,
    lambda and dispersal rates, mass leaking out of the habitat at some node
    (``dirichlet_leakage``) and no row mass above 1 (``quadrature_mass_bound``).
    Kernel symmetry and unit mass are not checked: every family has both by
    construction.  Bare arrays and (d_S, d_I) tuples are accepted so that
    deliberately broken data can be probed.  The in-domain masses are the row
    masses of ``dispersal``, the instance's assembled ``DispersalMatrix``
    when the caller has one, and of a fresh assembly otherwise.
    """
    from .operators import assemble_dispersal  # deferred: operators imports domain

    beta_v, gamma_v, lam_v = (_field_values(beta), _field_values(gamma),
                              _field_values(lam))
    if isinstance(params, ModelParams):
        d_s, d_i = params.d_S, params.d_I
    else:
        d_s, d_i = params
    if dispersal is None:
        dispersal = assemble_dispersal(grid, kernel)
    mass = dispersal.row_masses()

    checks = {
        "kernel_positive_at_zero": kernel_value(kernel, 0.0) > 0.0,
        "beta_positive": bool(np.all(beta_v > 0)),
        "gamma_positive": bool(np.all(gamma_v > 0)),
        "lambda_positive": bool(np.all(lam_v > 0)),
        "dirichlet_leakage": float(mass.min()) < 1.0 - LEAKAGE_TOL,
        "dispersal_rates_positive": d_s > 0 and d_i > 0,
        "quadrature_mass_bound": float(mass.max()) <= 1.0 + QUADRATURE_TOL,
    }
    diagnostics = {
        "min_in_domain_mass": float(mass.min()),
        "max_in_domain_mass": float(mass.max()),
    }
    return ValidationReport(checks=checks, diagnostics=diagnostics)
