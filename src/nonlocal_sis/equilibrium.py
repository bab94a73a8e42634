"""Stationary states: disease-free, endemic, and nonlocal logistic.

The disease-free profile solves a linear balance by one shifted solve
``K.shifted_solve`` (dense LU, or Levinson's recursion on the Toeplitz
column when K is matrix-free), certified by a residual bound: the residual
from one product of K by direct sums (dense rows, or the band of the
Toeplitz column), which does not share the solve's path, plus a rigorous
bound on its rounding error.  The same certificate checks the other two
states.

The endemic state and the logistic stationary state differ only in their
reaction term and its slope, relaxation constant and bracket; one driver
solves both from two sides, in two passes.  From above it runs Newton's
method from an explicit supersolution until its step is small; both
reactions are concave, so the Newton iterates decrease monotonically to the
root.  Then, from below, it iterates the classical relaxed monotone map
``u <- u + F(u)/rho``, with a relaxation constant ``rho`` large enough that
the map is order-preserving on the bracket, upward from a closed-form
multiple of the principal eigenvector, checked to be a subsolution before
either pass, with one evaluation of ``F`` per step.  A failing Newton pass
stops the solve before the relaxed one.  Both limits must agree, which is
exactly the uniqueness statement for these problems.  The certified
residual bound of the limit must be at most 1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import ModelParams, _field_values
from .errors import (
    InvalidArgumentError,
    NoEndemicState,
    NoPositiveState,
    PreconditionError,
    SolverFailure,
    SolverInconsistency,
    UniquenessViolation,
)
from .operators import ROUNDING_SLACK, DispersalMatrix
from .spectral import SIGN_DEADBAND, _reaction_field, infection_growth_rate

__all__ = [
    "EquilibriumResult",
    "EndemicPair",
    "solve_disease_free",
    "solve_endemic",
    "solve_logistic_stationary",
]

AGREEMENT_TOL = 1e-8
RESIDUAL_TARGET = 1e-11
STALL_STEP = 1e-14
ITERATION_CAP = 100_000
NEWTON_CAP = 50


def _fresh_residual(K: DispersalMatrix, d: float, u: np.ndarray,
                    reaction: np.ndarray) -> float:
    """Certified upper bound on the sup-norm of the exact residual
    ``d (K u - u) + reaction`` of a node field ``u`` (``reaction`` taken as
    given); NaN if anything is not finite.

    ``r = fl(d (g - u) + reaction)`` is evaluated with the direct sums ``g``
    of ``K.certified_product``, which also bound ``|g - K u|`` at each node
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    section 3.1).  Those sums are a path independent of the direct or
    Newton solve that produced ``u``.  The three roundings of ``r`` give
    ``r = d (g - u)(1 + theta_3) + reaction (1 + delta)`` with ``|theta_3|
    <= gamma_3`` and ``|delta| <= unit = 2**-53`` (Higham, Lemma 3.1), so at
    each node

        |exact| <= |r| + d |g - K u| + gamma_3 (d |g - u| + |reaction|).

    The certificate is ``max(|r| + bound)``, with ``gamma_4`` in place of
    ``gamma_3`` to cover the rounding of that last sum (``unit |r|`` is
    below ``unit (1 + gamma_3)(d |g - u| + |reaction|)``), and
    ``ROUNDING_SLACK`` and ``2**-1070`` as in ``certified_product``.
    """
    gain, error = K.certified_product(u)
    diff = gain - u
    r = d * diff + reaction
    gamma_4 = 4.0 * 2.0**-53 / (1.0 - 4.0 * 2.0**-53)
    bound = ROUNDING_SLACK * (d * error + gamma_4 * (
        d * np.abs(diff) + np.abs(reaction))) + 2.0**-1070
    return float(np.max(np.abs(r) + bound))


@dataclass(frozen=True)
class EquilibriumResult:
    """A stationary node field with its solve diagnostics."""

    field: np.ndarray
    residual: float
    iterations: int
    monotone_defect: float = 0.0

    def to_dict(self) -> dict:
        return {
            "field": [float(v) for v in self.field],
            "iterations": int(self.iterations),
            "residual": float(self.residual),
        }


@dataclass(frozen=True)
class EndemicPair:
    """Positive endemic steady state with its solve diagnostics."""

    susceptible: np.ndarray
    infected: np.ndarray
    residual: float
    iterations: int
    bracket_gap: float
    monotone_defect: float = 0.0

    def to_dict(self) -> dict:
        return {
            "bracket_gap": float(self.bracket_gap),
            "infected": [float(v) for v in self.infected],
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "susceptible": [float(v) for v in self.susceptible],
        }


def solve_disease_free(K: DispersalMatrix, d_S: float, lam) -> EquilibriumResult:
    """Stationary susceptible profile with recruitment and no infection.

    Solves the linear balance (dispersal gain + recruitment = full-mass
    loss) ``(Id - K) u = lam / d_S`` by one ``K.shifted_solve`` (Levinson's
    recursion on the symmetric Toeplitz column of ``Id - K`` when K is
    matrix-free, dense LU otherwise), certified by an upper bound on the
    exact residual of ``d_S (K u - u) + lam`` (see ``_fresh_residual``),
    which does not share the solve's path; a bound above 1e-8 (or NaN)
    raises ``SolverInconsistency`` with the bound as its residual.  The
    reported ``residual`` is that bound.  A ``d_S`` that is not finite and
    positive, or a ``lam`` that is not a finite field of length n, raises
    ``InvalidArgumentError``; a singular ``Id - K`` (a K that is not
    dissipative) raises ``PreconditionError``.
    """
    lam_v = _reaction_field(K, d_S, lam)
    try:
        u = K.shifted_solve(1.0, np.ones(K.n), lam_v / d_S)
    except np.linalg.LinAlgError:
        raise PreconditionError("Id - K is singular: the dispersal operator "
                                "is not dissipative") from None
    residual = _fresh_residual(K, d_S, u, lam_v)
    if not residual <= AGREEMENT_TOL:
        raise SolverInconsistency(
            f"direct disease-free solve leaves residual {residual:.3e}",
            residual=residual, iterations=1)
    return EquilibriumResult(field=u, residual=residual, iterations=1)


def _two_sided_solve(K: DispersalMatrix, d: float,
                     reaction: Callable[[np.ndarray], np.ndarray],
                     slope: Callable[[np.ndarray], np.ndarray], rho: float,
                     sub: np.ndarray,
                     high: np.ndarray) -> tuple[EquilibriumResult, float]:
    """Positive root of ``F(u) = d (K u - u) + reaction(u)`` in the bracket
    ``[sub, high]``; returns the limit from above and its gap to the limit
    from below.

    Two passes, one after the other.  ``hi`` takes Newton steps
    ``-J du = F(hi)`` from the supersolution ``high`` (one
    ``K.shifted_solve``, ``J = d (K - Id) + diag(slope)``), and stops after
    the step with ``max |du| <= AGREEMENT_TOL / 100``; for a concave
    reaction the iterates decrease monotonically to the root (Ortega &
    Rheinboldt 1970, section 13.3), so ``-J`` stays positive definite on
    equal cells.  Then ``lo`` takes relaxed steps ``u <- u + F(u)/rho`` from
    ``sub`` until its residual reaches ``RESIDUAL_TARGET``; the values of
    each residual test are the next increment.  ``F(sub) < 0`` at a node
    (or NaN) raises ``SolverFailure`` before any step, with residual
    ``-min F(sub)`` and zero iterations; ``NEWTON_CAP``, ``ITERATION_CAP``, a
    stalled relaxed step or a failed Newton solve (singular, or CG that does
    not converge) raise it with that side's residual and step count, so a
    failing Newton side stops the solve before the relaxed pass.  Iterates
    are clamped to ``[max(sub, 0), high]`` (a no-op in exact arithmetic);
    ``monotone_defect`` is the largest movement against the expected
    direction, at roundoff level.  Limits that cross, or differ by more
    than ``AGREEMENT_TOL``, raise ``UniquenessViolation`` with the crossing
    or the gap and the steps of both sides.  The reported ``residual`` is
    the certified bound of ``_fresh_residual`` at the upper limit; above
    ``AGREEMENT_TOL`` (or NaN) it raises ``SolverInconsistency``.
    """
    def F(u: np.ndarray) -> np.ndarray:
        return d * (K.matvec(u) - u) + reaction(u)

    floor = np.maximum(sub, 0.0)
    lo_values = F(sub)
    if not np.all(lo_values >= 0.0):
        raise SolverFailure("lower end of the bracket is not a subsolution",
                            residual=float(-np.min(lo_values)), iterations=0)
    monotone_defect = 0.0

    hi, newton, step = high, 0, np.inf
    while step > AGREEMENT_TOL / 100:
        hi_values = F(hi)
        if newton >= NEWTON_CAP:
            raise SolverFailure(
                "Newton iteration from above hit the step cap",
                residual=float(np.max(np.abs(hi_values))), iterations=newton)
        try:
            du = K.shifted_solve(d, d - slope(hi), hi_values)
        except np.linalg.LinAlgError:
            du = None
        if du is None or not np.all(np.isfinite(du)):
            raise SolverFailure("Newton step: the Jacobian solve failed "
                                "(singular, or CG did not converge)",
                                residual=float(np.max(np.abs(hi_values))),
                                iterations=newton)
        monotone_defect = max(monotone_defect, float(np.max(du, initial=0.0)))
        hi = np.clip(hi + du, floor, high)
        newton += 1
        step = float(np.max(np.abs(du)))

    lo, relaxed = sub, 0
    lo_residual = float(np.max(np.abs(lo_values)))
    while lo_residual > RESIDUAL_TARGET:
        if relaxed >= ITERATION_CAP:
            raise SolverFailure(
                "monotone iteration hit the iteration cap",
                residual=lo_residual, iterations=relaxed)
        nxt = lo + lo_values / rho
        monotone_defect = max(monotone_defect,
                              float(np.max(lo - nxt, initial=0.0)))
        clipped = np.clip(nxt, floor, high)
        step = float(np.max(np.abs(clipped - lo)))
        lo = clipped
        relaxed += 1
        lo_values = F(lo)
        lo_residual = float(np.max(np.abs(lo_values)))
        if step < STALL_STEP and lo_residual > RESIDUAL_TARGET:
            raise SolverFailure(
                "monotone iteration stalled before reaching the residual target",
                residual=lo_residual, iterations=relaxed)

    iterations = relaxed + newton
    if np.any(lo > hi + 1e-12):
        raise UniquenessViolation(
            "upward limit crossed above the downward limit",
            residual=float(np.max(lo - hi)), iterations=iterations)
    gap = float(np.max(np.abs(hi - lo)))
    if gap > AGREEMENT_TOL:
        raise UniquenessViolation(
            f"monotone limits from below and above disagree by {gap:.3e}",
            residual=gap, iterations=iterations)

    residual = _fresh_residual(K, d, hi, reaction(hi))
    if not residual <= AGREEMENT_TOL:
        raise SolverInconsistency(
            f"stationary limit leaves certified residual {residual:.3e}",
            residual=residual, iterations=iterations)
    result = EquilibriumResult(field=hi, residual=residual,
                               iterations=iterations,
                               monotone_defect=monotone_defect)
    return result, gap


def solve_endemic(K: DispersalMatrix, params: ModelParams, beta, gamma,
                  dfe: np.ndarray) -> EndemicPair:
    """Positive endemic steady state when the infection growth rate is
    positive.

    The infected profile solves the reduced scalar problem obtained after
    eliminating the susceptible compartment through the conserved
    combination ``d_S S + d_I I = d_S S_dfe``.  The bracket is
    ``[eps * psi, (d_S/d_I) * S_dfe]`` with ``psi`` the principal
    eigenvector of the linearized infection operator and ``eps`` in closed
    form, and the susceptible profile is recovered from the conservation
    identity afterwards.  A ``beta``, ``gamma`` or ``dfe`` that is not a
    finite positive field of length n raises ``InvalidArgumentError``.
    """
    d_s, d_i = params.d_S, params.d_I
    beta_v, gamma_v = _reaction_field(K, d_i, beta), _reaction_field(K, d_i, gamma)
    if not (np.all(beta_v > 0) and np.all(gamma_v > 0)):
        raise InvalidArgumentError("beta and gamma must be positive at every node")
    dfe = _reaction_field(K, d_s, dfe)
    if not np.all(dfe > 0):
        raise InvalidArgumentError("disease-free profile must be positive")
    m = beta_v - gamma_v

    growth = infection_growth_rate(K, d_i, m)
    if growth.value <= SIGN_DEADBAND:
        raise NoEndemicState(
            f"infection growth rate {growth.value:.3e} is not positive; "
            "no endemic state exists")

    high = (d_s / d_i) * dfe
    # F(eps psi) >= 0 wherever eps e <= mu d_S S_dfe (mu psi = d_I (K psi -
    # psi) + m psi, e = psi (d_S beta - mu (d_S - d_I))); 1/2 covers the
    # eigenpair's residual.  eps <= 0.1 min(high) keeps the denominator
    # d_S S_dfe + (d_S - d_I) I >= denom_floor > 0 on [eps psi, high].
    mu, psi = growth.value, growth.vector
    e = psi * (d_s * beta_v - mu * (d_s - d_i))
    eps = min(0.1 * float(np.min(high)), 0.5 * float(
        np.min(mu * d_s * dfe[e > 0] / e[e > 0], initial=np.inf)))
    denom_floor = d_s * dfe * min(1.0, d_s / d_i)

    def reaction(I: np.ndarray) -> np.ndarray:
        return (m - d_s * beta_v * I / (d_s * dfe + (d_s - d_i) * I)) * I

    def slope(I: np.ndarray) -> np.ndarray:
        # quotient-rule derivative of the reaction
        denom = d_s * dfe + (d_s - d_i) * I
        return m - d_s * beta_v * I * (2.0 * d_s * dfe + (d_s - d_i) * I) / denom**2

    # Relaxation constant: d_I plus a bound for the reaction slope on the
    # bracket, from the same quotient-rule derivative.
    bound = np.abs(m) + d_s * beta_v * high * (
        2.0 * d_s * dfe + abs(d_s - d_i) * high) / denom_floor**2
    rho = 1.1 * (d_i + float(np.max(bound)))

    res, gap = _two_sided_solve(K, d_i, reaction, slope, rho, eps * psi, high)
    infected = res.field
    susceptible = (d_s * dfe - d_i * infected) / d_s
    return EndemicPair(susceptible=susceptible, infected=infected,
                       residual=res.residual, iterations=res.iterations,
                       bracket_gap=gap, monotone_defect=res.monotone_defect)


def solve_logistic_stationary(K: DispersalMatrix, d: float, b, a) -> EquilibriumResult:
    """Positive stationary state of the nonlocal logistic problem
    ``d (K u - u) + b u - a u^2 = 0``.

    Exists exactly when the principal eigenvalue of ``d (K - Id) + diag(b)``
    is positive; solved by the same two-sided driver with the constant
    supersolution ``max(b) / min(a)``.  An ``a`` that is not a
    finite field of length n raises ``InvalidArgumentError``.
    """
    b_v, a_v = _field_values(b), _reaction_field(K, d, a)
    if np.any(a_v <= 0):
        raise NoPositiveState("quadratic damping must be strictly positive")

    growth = infection_growth_rate(K, d, b_v)
    if growth.value <= SIGN_DEADBAND:
        raise NoPositiveState(
            f"principal eigenvalue {growth.value:.3e} is not positive; "
            "only the trivial state exists")

    high_const = float(np.max(b_v)) / float(np.min(a_v))
    slope = np.maximum(np.abs(b_v), np.abs(2.0 * a_v * high_const - b_v))
    rho = 1.1 * (d + float(np.max(slope)))
    cap = min(0.1 * high_const, growth.value / (2.0 * float(np.max(a_v))))
    return _two_sided_solve(K, d, lambda u: b_v * u - a_v * u * u,
                            lambda u: b_v - 2.0 * a_v * u, rho,
                            cap * growth.vector, np.full(K.n, high_const))[0]
