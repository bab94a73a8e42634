"""Threshold quantities: principal eigenvalues, spectral bounds and R0.

Every operator assembled in this package is self-adjoint in the weighted
inner product of its grid, so the similarity transform
``S = D^{1/2} B D^{-1/2}`` with ``D = diag(w)`` produces a genuinely
symmetric matrix whose extreme eigenvalues are exact maxima/minima of the
corresponding Rayleigh quotients.  Each threshold quantity is therefore one
extreme eigenvalue of a symmetric matrix or of a symmetric-definite pencil,
computed by a single LAPACK call (``scipy.linalg.eigh`` restricted to one
index) and checked by its residual:

* growth rate: top eigenvalue of ``S`` for ``d_I (K - Id) + diag(m)``;
* R0: top eigenvalue of the pencil ``(diag(beta), -S_gamma)``, with
  ``S_gamma`` the symmetric form of the recovery-damped generator;
* critical rate ``d*``: top eigenvalue of the pencil
  ``(diag(beta - gamma), Id - K_sym)``, because ``mu(d) > 0`` exactly when
  some ``v`` has ``<m v, v> > d <(Id - K) v, v>``.

When K is matrix-free (``TOEPLITZ_MIN_N`` nodes or more on equal cells)
the growth rate and the principal dispersal eigenpair come from
implicitly restarted Lanczos (ARPACK ``eigsh``) on the FFT product
instead, with the same residual check; R0 and ``d*`` stay dense pencils.

The basic reproduction number is the spectral radius of the next-generation
operator: distribute an infection profile through the resolvent of the
recovery-damped dispersal generator, then multiply by the transmission
rate.  Its sign relation with the growth rate of the linearized infection
operator is the hinge of the threshold dynamics and is exercised heavily by
the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidBracketError, PreconditionError, SolverFailure
from .operators import (
    DispersalMatrix,
    ReactionDispersalOperator,
    _reaction_field,
    assemble_reaction_operator,
)

__all__ = [
    "Eigenpair",
    "R0Result",
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


def _field_values(f) -> np.ndarray:
    return np.asarray(getattr(f, "values", f), dtype=float)


@dataclass(frozen=True)
class Eigenpair:
    """Extreme eigenvalue with its node-field eigenvector and diagnostics."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class R0Result:
    """Basic reproduction number with its principal direction."""

    value: float
    vector: np.ndarray
    residual: float
    iterations: int


def _orient_sup(v: np.ndarray) -> np.ndarray:
    """Normalize to sup-norm 1 with the dominant component nonnegative."""
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    return v / np.abs(v[k])


def _symmetrize(B: ReactionDispersalOperator) -> tuple[np.ndarray, np.ndarray]:
    sqrt_w = np.sqrt(B.weights)
    S = (sqrt_w[:, None] * B.matrix) / sqrt_w[None, :]
    S = 0.5 * (S + S.T)  # scrub roundoff asymmetry
    return S, sqrt_w


def _eigh_at(a: np.ndarray, k: int,
             b: np.ndarray | None = None) -> tuple[float, np.ndarray]:
    """Eigenpair ``k`` (ascending order) of the symmetric matrix ``a``, or of
    the symmetric-definite pencil ``(a, b)``; both arrays are overwritten."""
    vals, vecs = scipy.linalg.eigh(a, b, subset_by_index=[k, k],
                                   overwrite_a=True, overwrite_b=True)
    return float(vals[0]), vecs[:, 0]


def _checked_pair(value: float, v: np.ndarray, residual: float, iterations: int,
                  tol_residual: float) -> Eigenpair:
    if residual > tol_residual:
        raise SolverFailure(
            f"eigenpair residual {residual:.3e} above tolerance {tol_residual:.1e}",
            residual=residual, iterations=iterations)
    return Eigenpair(value=value, vector=v, residual=residual, iterations=iterations)


def extreme_eigenpair(B: ReactionDispersalOperator, which: str = "largest",
                      tol_residual: float = RESIDUAL_TOL) -> Eigenpair:
    """Extreme eigenpair of a weighted-self-adjoint operator.

    The eigenvector is returned in node-field coordinates, sup-norm 1 with
    nonnegative orientation, and satisfies ``|B v - t v|_inf <= tol``.
    """
    if which not in ("largest", "smallest"):
        raise ValueError(f"which must be 'largest' or 'smallest', got {which!r}")
    S, sqrt_w = _symmetrize(B)
    value, y = _eigh_at(S, B.n - 1 if which == "largest" else 0)
    v = _orient_sup(y / sqrt_w)
    residual = float(np.max(np.abs(B.matrix @ v - value * v)))
    return _checked_pair(value, v, residual, 1, tol_residual)


def _lanczos_top(K: DispersalMatrix, d: float, c: np.ndarray,
                 tol_residual: float) -> Eigenpair:
    """Top eigenpair of ``d (K - Id) + diag(c)`` from its products alone.

    On equal cells the weights are equal, so the operator is symmetric as
    it stands.  ARPACK starts from the constant field, not a random one,
    so repeated runs give the same bits.  ``iterations`` counts operator
    applications.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    def B(v: np.ndarray) -> np.ndarray:
        return d * (K.matvec(v) - v) + c * v

    def residual_of(value: float, v: np.ndarray) -> float:
        return float(np.max(np.abs(B(v) - value * v)))

    applied = 0

    def apply(v: np.ndarray) -> np.ndarray:
        nonlocal applied
        applied += 1
        return B(v.reshape(-1))

    op = LinearOperator((K.n, K.n), matvec=apply, dtype=float)
    try:
        vals, vecs = eigsh(op, k=1, which="LA", tol=0, v0=np.ones(K.n))
    except ArpackNoConvergence as exc:
        residual = (residual_of(float(exc.eigenvalues[0]), exc.eigenvectors[:, 0])
                    if len(exc.eigenvalues) else None)
        raise SolverFailure(f"Lanczos did not converge after {applied} "
                            "operator applications",
                            residual=residual, iterations=applied) from None
    value, v = float(vals[0]), _orient_sup(vecs[:, 0])
    return _checked_pair(value, v, residual_of(value, v), applied, tol_residual)


def _top_pair(K: DispersalMatrix, d: float, c, tol_residual: float) -> Eigenpair:
    """Top eigenpair of ``d (K - Id) + diag(c)``: Lanczos when K is
    matrix-free, one dense LAPACK eigensolve otherwise."""
    if K.matrix_free:
        return _lanczos_top(K, d, _reaction_field(K, d, c), tol_residual)
    return extreme_eigenpair(assemble_reaction_operator(K, d, c), "largest",
                             tol_residual)


def dispersal_principal_eigenpair(K: DispersalMatrix,
                                  tol_residual: float = RESIDUAL_TOL) -> Eigenpair:
    """Principal eigenvalue of the pure Dirichlet dispersal operator.

    Returns the smallest eigenvalue of ``Id - K`` (a decay rate in (0, 1))
    together with its positive eigenfunction.
    """
    top = _top_pair(K, 1.0, np.zeros(K.n), tol_residual)  # K - Id
    return Eigenpair(value=-top.value, vector=top.vector,
                     residual=top.residual, iterations=top.iterations)


def infection_growth_rate(K: DispersalMatrix, d_I: float, m,
                          tol_residual: float = RESIDUAL_TOL) -> Eigenpair:
    """Principal growth rate of the linearized infection operator
    ``d_I (K - Id) + diag(m)`` with ``m = beta - gamma``.

    This is the exact discrete maximum of the associated Rayleigh form;
    its sign decides extinction versus persistence.
    """
    return _top_pair(K, d_I, _field_values(m), tol_residual)


def recovery_spectral_bound(K: DispersalMatrix, d_I: float, gamma,
                            tol_residual: float = RESIDUAL_TOL) -> float:
    """Spectral bound of the recovery-damped dispersal generator
    ``d_I (K - Id) - diag(gamma)``; strictly negative for positive gamma."""
    return infection_growth_rate(K, d_I, -_field_values(gamma), tol_residual).value


def basic_reproduction_number(K: DispersalMatrix, d_I: float, beta, gamma,
                              tol_residual: float = RESIDUAL_TOL) -> R0Result:
    """Spectral radius of the next-generation operator
    ``diag(beta) (-A)^{-1}`` with ``A = d_I (K - Id) - diag(gamma)``.

    An eigenpair ``(R0, u)`` corresponds to ``phi = (-A)^{-1} u / R0`` with
    ``beta phi = R0 (-A) phi``: the top eigenvalue of the symmetric-definite
    pencil ``(diag(beta), -S)`` in weighted coordinates.  The returned
    infection profile ``u = beta phi`` has sup-norm 1, and the residual is
    ``|u - R0 (-A) phi|_inf``.
    """
    beta_v, gamma_v = _field_values(beta), _field_values(gamma)
    A = assemble_reaction_operator(K, d_I, -gamma_v)
    S, sqrt_w = _symmetrize(A)  # symmetric form of the damped generator
    try:
        value, y = _eigh_at(np.diag(beta_v), K.n - 1, -S)
    except np.linalg.LinAlgError:
        bound = recovery_spectral_bound(K, d_I, gamma_v)
        raise PreconditionError(
            f"damped generator has nonnegative spectral bound ({bound:.3e}); "
            "the next-generation operator is undefined") from None
    phi = y / sqrt_w
    u = beta_v * phi
    scale = 1.0 / u[np.argmax(np.abs(u))]  # sup-norm 1, dominant entry positive
    u, phi = scale * u, scale * phi
    residual = float(np.max(np.abs(u + value * (A.matrix @ phi))))
    if not residual <= tol_residual:  # NaN when beta vanishes identically
        raise SolverFailure(
            f"R0 residual {residual:.3e} above tolerance {tol_residual:.1e}",
            residual=residual, iterations=1)
    return R0Result(value=value, vector=u, residual=residual, iterations=1)


@dataclass(frozen=True)
class ThresholdResult:
    """Root of the growth rate in the infected dispersal rate."""

    d_critical: float
    bracket: tuple[float, float]
    iterations: int
    growth_at_critical: float

    def to_dict(self) -> dict:
        return {
            "bracket_hi": self.bracket[1],
            "bracket_lo": self.bracket[0],
            "d_critical": self.d_critical,
            "growth_at_critical": self.growth_at_critical,
            "iterations": self.iterations,
        }


def critical_dispersal_rate(K: DispersalMatrix, beta, gamma,
                            bracket: tuple[float, float]) -> ThresholdResult:
    """Root ``d*`` of ``d -> growth_rate(d, beta - gamma)``.

    The growth rate is positive exactly when some ``v`` has
    ``<m v, v> > d <(Id - K) v, v>``, so ``d*`` is the top eigenvalue of the
    pencil ``(diag(m), Id - K)`` in weighted coordinates.  The returned
    bracket keeps ``lo`` and doubles ``hi`` until it exceeds ``d*``.
    """
    m = _field_values(beta) - _field_values(gamma)
    lo, hi = bracket
    if not (0 < lo < hi):
        raise InvalidBracketError(f"need 0 < lo < hi, got ({lo}, {hi})")

    S, _ = _symmetrize(assemble_reaction_operator(K, 1.0, np.zeros(K.n)))
    try:
        d_star, _ = _eigh_at(np.diag(m), K.n - 1, -S)
    except np.linalg.LinAlgError:
        raise PreconditionError(
            "Id - K is not positive definite: the dispersal operator "
            "is not dissipative") from None
    if d_star <= lo:
        raise InvalidBracketError(
            f"critical rate {d_star:.6e} is not above lo={lo}: growth rate at lo "
            "is not positive (no threshold exists at all when beta - gamma <= 0 "
            "everywhere)")
    while hi <= d_star:
        hi *= 2.0
    return ThresholdResult(
        d_critical=d_star, bracket=(lo, hi), iterations=1,
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
