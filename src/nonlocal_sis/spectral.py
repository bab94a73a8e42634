"""Threshold quantities: principal eigenvalues, spectral bounds and R0.

Every threshold quantity is an extreme eigenvalue of one generator
``d (K - Id) + diag(c)``, which is self-adjoint in the weighted inner
product of its grid.  With ``D = diag(w)`` the similarity transform
``Ks = D^{1/2} K D^{-1/2}`` makes K genuinely symmetric (on equal cells K
already is, and ``Ks`` is K itself).  ``Ks`` is ``K.symmetric``, formed
once per K and shared by every eigensolve on it.  So each quantity is one
extreme eigenvalue of a symmetric matrix or of a symmetric-definite pencil
built from ``G = d (Ks - Id) + diag(c)``, computed by a single LAPACK call
restricted to one index and checked by its residual:

* growth rate: top eigenvalue of ``G`` for ``d_I`` and ``c = beta - gamma``,
  by one ``dsyevr`` call;
* R0: ``1 / w`` for the bottom eigenvalue ``w`` of ``s (-G) s``, by one
  ``dsyevr`` call, with ``d_I``, ``c = -gamma`` and ``s = beta^{-1/2}``: a
  congruence of the pencil ``(diag(beta), -G)`` that keeps the inertia of ``-G``;
* critical rate ``d*``: top eigenvalue of the pencil ``(diag(beta - gamma),
  -G)`` for ``d = 1`` and ``c = 0``, because ``mu(d) > 0`` exactly when
  some ``v`` has ``<m v, v> > d <(Id - K) v, v>``; ``beta - gamma`` is
  indefinite, so it stays a pencil.

When K is matrix-free (``TOEPLITZ_MIN_N`` nodes or more on equal cells)
the growth rate and the principal dispersal eigenpair come from
implicitly restarted Lanczos (ARPACK ``eigsh``) on the FFT product
instead, with the same residual check; R0 and ``d*`` stay dense.
Every residual is taken with ``K.matvec``, not with the eigensolve's matrix.

The basic reproduction number is the spectral radius of the next-generation
operator: distribute an infection profile through the resolvent of the
recovery-damped dispersal generator, then multiply by the transmission
rate.  Its sign relation with the growth rate of the linearized infection
operator is the hinge of the threshold dynamics and is exercised heavily by
the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .domain import _field_values
from .errors import (
    InvalidArgumentError,
    InvalidBracketError,
    PreconditionError,
    SolverFailure,
)
from .operators import DispersalMatrix

__all__ = [
    "Eigenpair",
    "SpectralReport",
    "ThresholdResult",
    "extreme_eigenpair",
    "dispersal_principal_eigenpair",
    "infection_growth_rate",
    "recovery_spectral_bound",
    "basic_reproduction_number",
    "critical_dispersal_rate",
    "compute_spectral_report",
]

RESIDUAL_TOL = 1e-10
SIGN_DEADBAND = 1e-8


@dataclass(frozen=True)
class Eigenpair:
    """Extreme eigenvalue with its node-field eigenvector and diagnostics."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def _orient_sup(v: np.ndarray) -> np.ndarray:
    """Normalize to sup-norm 1 with the dominant component nonnegative."""
    a = np.abs(v)
    k = int(a.argmax())
    return v / (a[k] if v[k] >= 0 else -a[k])  # (-v) / |v_k| == v / -|v_k|


def _reaction_field(K: DispersalMatrix, d: float, c) -> np.ndarray:
    """Check the rate and the node field of ``d (K - Id) + diag(c)``; the
    stationary solvers check their rate and input fields with it too."""
    c = _field_values(c)
    if c.shape != (K.n,):
        raise InvalidArgumentError(f"field shape {c.shape} does not match n={K.n}")
    if not 0 < d < np.inf:
        raise InvalidArgumentError(f"dispersal rate must be finite and > 0, got {d}")
    if not np.isfinite(c).all():
        raise InvalidArgumentError("field has non-finite entries")
    return c


def _generator(K: DispersalMatrix, d: float, c: np.ndarray) -> np.ndarray:
    """Symmetric form of ``d (K - Id) + diag(c)`` in one fresh array."""
    G = np.multiply(d, K.symmetric)
    G.reshape(-1)[::K.n + 1] += c - d  # the diagonal, as a strided view
    return G


def _apply(K: DispersalMatrix, d: float, c: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``d (K v - v) + c v``, formed in order in the array ``K.matvec`` returns."""
    r = K.matvec(v)
    r -= v
    r *= d
    r += c * v
    return r


def _residual(K: DispersalMatrix, d: float, c: np.ndarray, value: float,
              v: np.ndarray) -> float:
    r = _apply(K, d, c, v)
    r -= value * v
    return float(np.abs(r, out=r).max())


# Workspace sizes per order n: the ones ``scipy.linalg.eigh`` passes, so
# results keep its bits.
_syevr_lwork = functools.cache(scipy.linalg.lapack.dsyevr_lwork)


def _eigh_at(a: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """Eigenpair ``k`` (ascending order) of the symmetric matrix ``a`` by one
    ``dsyevr`` call; ``a`` is overwritten.

    It goes to LAPACK as its transpose, which is the same matrix in Fortran
    order, so no copy is made.  Input finiteness is checked by the callers.
    A failed call (``info != 0``) raises ``SolverFailure``.
    """
    lwork, liwork, _ = _syevr_lwork(a.shape[0], lower=1)
    w, z, _, _, info = scipy.linalg.lapack.dsyevr(
        a.T, range="I", il=k + 1, iu=k + 1, lower=1, lwork=int(lwork),
        liwork=int(liwork), overwrite_a=1)
    if info != 0:
        raise SolverFailure(f"dsyevr failed with info={info}", residual=None,
                            iterations=1)
    return float(w[0]), z[:, 0]


def _pencil_top(top: np.ndarray, K: DispersalMatrix) -> float:
    """Top eigenvalue of the pencil ``(diag(top), Id - Ks)``;
    ``LinAlgError`` when ``Id - Ks`` is not positive definite."""
    minus_G = _generator(K, 1.0, np.zeros(K.n))
    np.negative(minus_G, out=minus_G)
    return float(scipy.linalg.eigh(np.diag(top).T, minus_G.T, eigvals_only=True,
                                   subset_by_index=[K.n - 1, K.n - 1],
                                   overwrite_a=True, overwrite_b=True)[0])


def _checked_pair(value: float, v: np.ndarray, residual: float,
                  iterations: int) -> Eigenpair:
    if not residual <= RESIDUAL_TOL:
        raise SolverFailure(
            f"eigenpair residual {residual:.3e} above tolerance {RESIDUAL_TOL:.1e}",
            residual=residual, iterations=iterations)
    return Eigenpair(value=value, vector=v, residual=residual, iterations=iterations)


def _lanczos_top(K: DispersalMatrix, d: float, c: np.ndarray) -> Eigenpair:
    """Top eigenpair of ``d (K - Id) + diag(c)`` from its products alone.

    On equal cells the weights are equal, so the operator is symmetric as
    it stands.  ARPACK starts from the constant field, not a random one,
    so repeated runs give the same bits.  ``iterations`` counts operator
    applications.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    applied = 0

    def apply(v: np.ndarray) -> np.ndarray:
        nonlocal applied
        applied += 1
        return _apply(K, d, c, v.reshape(-1))

    op = LinearOperator((K.n, K.n), matvec=apply, dtype=float)
    try:
        vals, vecs = eigsh(op, k=1, which="LA", tol=0, v0=np.ones(K.n))
    except ArpackNoConvergence as exc:
        residual = (_residual(K, d, c, float(exc.eigenvalues[0]),
                              exc.eigenvectors[:, 0])
                    if len(exc.eigenvalues) else None)
        raise SolverFailure(f"Lanczos did not converge after {applied} "
                            "operator applications",
                            residual=residual, iterations=applied) from None
    value, v = float(vals[0]), _orient_sup(vecs[:, 0])
    return _checked_pair(value, v, _residual(K, d, c, value, v), applied)


def extreme_eigenpair(K: DispersalMatrix, d: float, c) -> Eigenpair:
    """Top eigenpair of ``d (K - Id) + diag(c)``: Lanczos when K is
    matrix-free, one dense LAPACK eigensolve otherwise.

    The eigenvector is returned in node-field coordinates, sup-norm 1 with
    nonnegative orientation, and satisfies
    ``|d (K v - v) + c v - t v|_inf <= RESIDUAL_TOL``.
    """
    c = _reaction_field(K, d, c)
    if K.matrix_free:
        return _lanczos_top(K, d, c)
    value, y = _eigh_at(_generator(K, d, c), K.n - 1)
    v = _orient_sup(y / K.sqrt_weights)
    return _checked_pair(value, v, _residual(K, d, c, value, v), 1)


def dispersal_principal_eigenpair(K: DispersalMatrix) -> Eigenpair:
    """Principal eigenvalue of the pure Dirichlet dispersal operator.

    Returns the smallest eigenvalue of ``Id - K`` (a decay rate in (0, 1))
    together with its positive eigenfunction.
    """
    top = extreme_eigenpair(K, 1.0, np.zeros(K.n))  # K - Id
    return Eigenpair(value=-top.value, vector=top.vector,
                     residual=top.residual, iterations=top.iterations)


def infection_growth_rate(K: DispersalMatrix, d_I: float, m) -> Eigenpair:
    """Principal growth rate of the linearized infection operator
    ``d_I (K - Id) + diag(m)`` with ``m = beta - gamma``.

    This is the exact discrete maximum of the associated Rayleigh form;
    its sign decides extinction versus persistence.
    """
    return extreme_eigenpair(K, d_I, m)


def recovery_spectral_bound(K: DispersalMatrix, d_I: float, gamma) -> float:
    """Spectral bound of the recovery-damped dispersal generator
    ``d_I (K - Id) - diag(gamma)``; strictly negative for positive gamma."""
    return infection_growth_rate(K, d_I, -_field_values(gamma)).value


def basic_reproduction_number(K: DispersalMatrix, d_I: float, beta,
                              gamma) -> Eigenpair:
    """Spectral radius of the next-generation operator
    ``diag(beta) (-A)^{-1}`` with ``A = d_I (K - Id) - diag(gamma)``.

    An eigenpair ``(R0, u)`` corresponds to ``phi = (-A)^{-1} u / R0`` with
    ``beta phi = R0 (-A) phi``: the top eigenvalue of the symmetric-definite
    pencil ``(diag(beta), -A)`` in weighted coordinates.  With
    ``s = beta^{-1/2}`` and ``phi = s z`` it is ``1 / w`` for the bottom
    eigenpair ``(w, z)`` of ``s (-A) s``, formed in place; ``w <= 0`` exactly
    when ``-A`` is not positive definite (the congruence keeps the inertia).
    The returned infection profile ``u = beta phi`` has sup-norm 1, and the
    residual is ``|u - R0 (-A) phi|_inf``.
    """
    beta_v = _reaction_field(K, d_I, beta)
    c = _reaction_field(K, d_I, -_field_values(gamma))  # A = d_I (K - Id) + diag(c)
    if not (beta_v > 0).all():
        raise InvalidArgumentError("beta must be positive at every node")
    s = 1.0 / np.sqrt(beta_v)
    a = _generator(K, d_I, c)
    a *= s[:, None]
    a *= -s
    w, z = _eigh_at(a, 0)
    if w <= 0:
        bound = recovery_spectral_bound(K, d_I, -c)
        raise PreconditionError(
            f"damped generator has nonnegative spectral bound ({bound:.3e}); "
            "the next-generation operator is undefined")
    value = 1.0 / w
    phi = s * z / np.sqrt(w * K.grid.weights)
    u = beta_v * phi
    scale = 1.0 / u[np.argmax(np.abs(u))]  # sup-norm 1, dominant entry positive
    u, phi = scale * u, scale * phi
    r = _apply(K, d_I, c, phi)
    r *= value
    r += u
    residual = float(np.abs(r, out=r).max())
    return _checked_pair(value, u, residual, 1)


@dataclass(frozen=True)
class ThresholdResult:
    """Critical rate ``d*``: the root of the growth rate in the infected
    dispersal rate, with the growth rate there and the eigensolves spent."""

    d_critical: float
    iterations: int
    growth_at_critical: float

    def to_dict(self) -> dict:
        return {
            "d_critical": self.d_critical,
            "growth_at_critical": self.growth_at_critical,
            "iterations": self.iterations,
        }


def critical_dispersal_rate(K: DispersalMatrix, beta, gamma) -> ThresholdResult:
    """Root ``d*`` of ``d -> growth_rate(d, beta - gamma)``.

    The growth rate is positive exactly when some ``v`` has
    ``<m v, v> > d <(Id - K) v, v>``, so ``d*`` is the top eigenvalue of the
    pencil ``(diag(m), Id - K)`` in weighted coordinates, wherever it lies.
    When ``m = beta - gamma <= 0`` at every node the growth rate has no
    root on (0, inf) and ``InvalidBracketError`` is raised, before any
    n x n array is formed.
    """
    m = _reaction_field(K, 1.0, beta) - _reaction_field(K, 1.0, gamma)
    if not np.max(m) > 0:
        raise InvalidBracketError(
            "beta - gamma <= 0 at every node, so the growth rate has no "
            "root on (0, inf)")
    try:
        d_star = _pencil_top(m, K)
    except np.linalg.LinAlgError:
        raise PreconditionError(
            "Id - K is not positive definite: the dispersal operator "
            "is not dissipative") from None
    return ThresholdResult(
        d_critical=d_star, iterations=1,
        growth_at_critical=infection_growth_rate(K, d_star, m).value)


@dataclass(frozen=True)
class SpectralReport:
    """All threshold quantities of one instance, with solver diagnostics."""

    dispersal_eigenvalue: float
    growth_rate: float
    spectral_bound: float
    r0: float
    dispersal_eigenvector: np.ndarray
    growth_eigenvector: np.ndarray
    residuals: dict
    iterations: dict

    def to_dict(self) -> dict:
        return {
            "dispersal_eigenvalue": self.dispersal_eigenvalue,
            "dispersal_eigenvector": [float(v) for v in self.dispersal_eigenvector],
            "growth_eigenvector": [float(v) for v in self.growth_eigenvector],
            "growth_rate": self.growth_rate,
            "iterations": {k: int(v) for k, v in sorted(self.iterations.items())},
            "r0": self.r0,
            "residuals": {k: float(v) for k, v in sorted(self.residuals.items())},
            "spectral_bound": self.spectral_bound,
        }


def compute_spectral_report(K: DispersalMatrix, params, beta,
                            gamma) -> SpectralReport:
    """Compute the full set of threshold quantities for one instance."""
    d_i = params.d_I
    beta_v, gamma_v = _field_values(beta), _field_values(gamma)
    lam = dispersal_principal_eigenpair(K)
    growth = infection_growth_rate(K, d_i, beta_v - gamma_v)
    bound = infection_growth_rate(K, d_i, -gamma_v)
    r0 = basic_reproduction_number(K, d_i, beta_v, gamma_v)
    return SpectralReport(
        dispersal_eigenvalue=lam.value,
        growth_rate=growth.value,
        spectral_bound=bound.value,
        r0=r0.value,
        dispersal_eigenvector=lam.vector,
        growth_eigenvector=growth.vector,
        residuals={"dispersal": lam.residual, "growth": growth.residual,
                   "r0": r0.residual, "spectral_bound": bound.residual},
        iterations={"dispersal": lam.iterations, "growth": growth.iterations,
                    "r0": r0.iterations, "spectral_bound": bound.iterations},
    )
