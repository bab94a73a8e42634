"""Time integration of the epidemic system and its comparison problems.

Fixed-step explicit integrators under a stability budget that also
guarantees positivity for the Euler method; the classical fourth-order
method is the default and a nonnegativity monitor guards its steps.  The
infection pressure ``beta S I / (S + I)`` is extended by zero where the
population vanishes, exactly as in the continuous model, with no
smoothing.

Auxiliary linear and logistic problems (the majorant of the extinction
argument, the total-population balance, the sandwich problems of the
persistence argument) reuse the same stepping core on single fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import _field_values
from .errors import (
    IntegrationFailure,
    InvalidArgumentError,
    InvalidConfigError,
    InvalidStateError,
    InvalidWindowError,
)
from .operators import DispersalMatrix

__all__ = [
    "State",
    "IntegratorConfig",
    "Trajectory",
    "FieldTrajectory",
    "RateEstimate",
    "rhs",
    "integrate",
    "integrate_linear_infection",
    "integrate_total_population",
    "integrate_logistic",
    "estimate_rate",
    "check_convergence",
]

STABILITY_BUDGET = 0.5
NEGATIVE_TOL = 1e-12


@dataclass
class State:
    """Population snapshot: susceptible and infected node fields at time t."""

    S: np.ndarray
    I: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.S = np.asarray(self.S, dtype=float)
        self.I = np.asarray(self.I, dtype=float)
        if self.S.shape != self.I.shape:
            raise InvalidStateError("S and I must have the same shape")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    method: str = "rk4"
    snapshot_stride: int = 1

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise InvalidConfigError("dt and t_end must be finite and positive, "
                                     f"got {self.dt} and {self.t_end}")
        steps = self.t_end / self.dt
        whole = np.round(steps)
        if not (whole >= 1 and abs(steps - whole) <= 1e-9 * whole):
            raise InvalidConfigError("t_end must be a whole number (>= 1) of "
                                     f"steps dt, got t_end / dt = {steps:.12g}")
        if self.method not in ("explicit_euler", "rk4"):
            raise InvalidConfigError(f"unknown method {self.method!r}")
        if not (isinstance(self.snapshot_stride, (int, np.integer))
                and self.snapshot_stride >= 1):
            raise InvalidConfigError("snapshot_stride must be an integer >= 1")


def _check_budget(config: IntegratorConfig, max_rate: float,
                  beta_max: float, gamma_max: float) -> None:
    load = config.dt * (max_rate + gamma_max + beta_max)
    if load > STABILITY_BUDGET:
        raise InvalidConfigError(
            f"stability budget violated: dt * (rates) = {load:.3g} > "
            f"{STABILITY_BUDGET}; shrink dt")


@dataclass
class Trajectory:
    """Recorded states of a full epidemic run with norm histories.

    ``states[k]`` is the stacked ``(S, I)`` pair at ``times[k]``; the norm
    histories are reductions of that one array.
    """

    times: np.ndarray
    states: np.ndarray  # shape (n_snapshots, 2, n)
    sup_norm_I: np.ndarray
    sup_norm_S_minus_target: np.ndarray | None
    clip_events: int
    dt: float

    @cached_property
    def snapshots(self) -> list[State]:
        """One ``State`` per recorded time, built on first access; its
        ``S`` and ``I`` are views into ``states``."""
        return [State(S=S, I=I, t=t)
                for t, (S, I) in zip(self.times.tolist(), self.states)]


@dataclass
class FieldTrajectory:
    """Recorded fields of a single-field auxiliary run."""

    times: np.ndarray
    fields: np.ndarray  # shape (n_snapshots, n)
    sup_norm: np.ndarray
    sup_norm_minus_target: np.ndarray | None
    clip_events: int
    dt: float


def rhs(state: State, params, K: DispersalMatrix, beta, gamma,
        lam) -> tuple[np.ndarray, np.ndarray]:
    """Right-hand side of the epidemic system at a nonnegative state."""
    if np.any(state.S < 0) or np.any(state.I < 0):
        raise InvalidStateError("state has negative components")
    dS, dI = _rhs_raw(np.stack([state.S, state.I]), params.d_S, params.d_I, K,
                      _field_values(beta), _field_values(gamma),
                      _field_values(lam))
    return dS, dI


def _rhs_raw(y, d_s, d_i, K, beta, gamma, lam):
    """Right-hand side for the stacked state ``y = (S, I)``, stacked.

    Written into the fresh ``(2, n)`` product of K, in the order of
    ``dS = d_s (K S - S) + lam - infect + gamma I`` and
    ``dI = d_i (K I - I) + infect - gamma I``.
    """
    S, I = y
    out = K.matvec(y)
    dS, dI = out
    total = S + I
    infect = np.divide(beta * S * I, total, out=np.zeros_like(total),
                       where=total > 0.0)
    recovered = gamma * I
    dS -= S
    dS *= d_s
    dS += lam
    dS -= infect
    dS += recovered
    dI -= I
    dI *= d_i
    dI += infect
    dI -= recovered
    return out


def _step(y: np.ndarray, dt: float, f, method: str) -> np.ndarray:
    """One step from ``y``; ``f`` must return a fresh array, which RK4 may
    overwrite.

    RK4 forms its stages in one buffer and sums in ``k2``, with the
    operands, order and association of
    ``y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)``.
    """
    if method == "explicit_euler":
        return y + dt * f(y)
    half = 0.5 * dt
    k1 = f(y)
    stage = np.multiply(k1, half)
    stage += y
    k2 = f(stage)
    np.multiply(k2, half, out=stage)
    stage += y
    k3 = f(stage)
    np.multiply(k3, dt, out=stage)
    stage += y
    k4 = f(stage)
    k2 *= 2.0
    k2 += k1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dt / 6.0
    k2 += y
    return k2


def _sup_distance(fields: np.ndarray, target=0.0) -> np.ndarray:
    """Sup-norm of ``field - target`` for every field of a stack."""
    return np.abs(fields - target).max(axis=-1)


def _run(y0: np.ndarray, config: IntegratorConfig,
         f) -> tuple[np.ndarray, np.ndarray, int]:
    """Shared stepping loop for the autonomous system ``y' = f(y)``.

    Checks that the initial state is nonnegative, guards positivity at
    every step (clipping roundoff dips, failing on real ones) and returns
    ``(times, states, clip_events)``: the states recorded every
    ``snapshot_stride`` steps and at the last step, stacked along a new
    first axis, with their times.
    """
    y = np.array(y0, dtype=float)
    if np.any(y < 0):
        raise InvalidStateError("initial state has negative components")
    n_steps = int(round(config.t_end / config.dt))
    recorded = np.append(np.arange(0, n_steps, config.snapshot_stride), n_steps)
    states = np.empty((recorded.size,) + y.shape)
    states[0] = y
    row = 1
    clip_events = 0
    for k in range(1, n_steps + 1):
        y = _step(y, config.dt, f, config.method)
        if not np.isfinite(y).all():
            raise IntegrationFailure(f"non-finite state at t={k * config.dt:.6g}",
                                     residual=None, iterations=k)
        lowest = float(y.min())
        if lowest < -NEGATIVE_TOL:
            raise IntegrationFailure(
                f"state dipped to {lowest:.3e} at t={k * config.dt:.6g}",
                residual=lowest, iterations=k)
        if lowest < 0.0:
            clip_events += int(np.sum(y < 0.0))
            y = np.maximum(y, 0.0)
        if k == recorded[row]:
            states[row] = y
            row += 1
    return recorded * config.dt, states, clip_events


def integrate(state0: State, config: IntegratorConfig, params, K: DispersalMatrix,
              beta, gamma, lam, s_target: np.ndarray | None = None) -> Trajectory:
    """Integrate the full epidemic system from a nonnegative state.

    When ``s_target`` is given (typically the disease-free profile), the
    trajectory records the sup-distance of S to it alongside the
    sup-norm of I at every snapshot.
    """
    beta_v, gamma_v = _field_values(beta), _field_values(gamma)
    lam_v = _field_values(lam)
    _check_budget(config, max(params.d_S, params.d_I),
                  float(beta_v.max()), float(gamma_v.max()))

    def f(y):
        return _rhs_raw(y, params.d_S, params.d_I, K, beta_v, gamma_v, lam_v)

    times, states, clip_events = _run(np.stack([state0.S, state0.I]), config, f)
    return Trajectory(times=times, states=states,
                      sup_norm_I=_sup_distance(states[:, 1]),
                      sup_norm_S_minus_target=(None if s_target is None else
                                               _sup_distance(states[:, 0], s_target)),
                      clip_events=clip_events, dt=config.dt)


def _integrate_field(w0: np.ndarray, config: IntegratorConfig, f,
                     target: np.ndarray | None) -> FieldTrajectory:
    times, fields, clip_events = _run(w0, config, f)
    return FieldTrajectory(times=times, fields=fields,
                           sup_norm=_sup_distance(fields),
                           sup_norm_minus_target=(None if target is None else
                                                  _sup_distance(fields, target)),
                           clip_events=clip_events, dt=config.dt)


def integrate_linear_infection(w0: np.ndarray, config: IntegratorConfig,
                               d_I: float, K: DispersalMatrix, beta,
                               gamma) -> FieldTrajectory:
    """Linear majorant of the infected compartment:
    ``dw/dt = d_I (K w - w) + (beta - gamma) w``."""
    beta_v, gamma_v = _field_values(beta), _field_values(gamma)
    _check_budget(config, d_I, float(beta_v.max()), float(gamma_v.max()))
    m = beta_v - gamma_v

    def f(y):
        return d_I * (K.matvec(y) - y) + m * y

    return _integrate_field(w0, config, f, None)


def integrate_total_population(v0: np.ndarray, config: IntegratorConfig,
                               d: float, K: DispersalMatrix, lam,
                               target: np.ndarray | None = None) -> FieldTrajectory:
    """Total-population balance for equal dispersal rates:
    ``dV/dt = d (K V - V) + lam``."""
    lam_v = _field_values(lam)
    _check_budget(config, d, 0.0, 0.0)

    def f(y):
        return d * (K.matvec(y) - y) + lam_v

    return _integrate_field(v0, config, f, target)


def integrate_logistic(u0: np.ndarray, config: IntegratorConfig, d: float,
                       K: DispersalMatrix, b, a) -> FieldTrajectory:
    """Nonlocal logistic problem ``du/dt = d (K u - u) + b u - a u^2``."""
    u0 = np.asarray(u0, dtype=float)
    b_v, a_v = _field_values(b), _field_values(a)
    # budget: the damping slope on [0, u_max] plays the role of the rates
    u_cap = max(float(u0.max()), float(np.max(b_v) / np.min(a_v)))
    _check_budget(config, d, float(np.max(np.abs(b_v))),
                  float(np.max(a_v)) * u_cap)

    def f(y):
        return d * (K.matvec(y) - y) + b_v * y - a_v * y * y

    return _integrate_field(u0, config, f, None)


@dataclass(frozen=True)
class RateEstimate:
    """Least-squares exponential rate over a time window."""

    slope: float
    window: tuple[float, float]
    r_squared: float


def estimate_rate(times: np.ndarray, values: np.ndarray,
                  window: tuple[float, float] | None = None) -> RateEstimate:
    """Fit ``log(values)`` linearly in time over ``window``.

    The default window is the last half of the samples with positive
    values, which skips transients while the rate is still settling.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1:
        raise InvalidArgumentError("times and values must be 1-d and equal length")
    if window is None:
        positive = values > 0
        if not positive.any():
            raise InvalidWindowError("series has no positive values")
        idx = np.nonzero(positive)[0]
        start = idx[len(idx) // 2]
        window = (float(times[start]), float(times[idx[-1]]))
    t0, t1 = window
    if t0 < times[0] or t1 > times[-1] or t0 >= t1:
        raise InvalidWindowError(f"window {window} outside trajectory span")
    mask = (times >= t0) & (times <= t1)
    if mask.sum() < 2:
        raise InvalidWindowError("window contains fewer than two samples")
    if np.any(values[mask] <= 0):
        raise InvalidWindowError("window contains nonpositive values")
    t, logv = times[mask], np.log(values[mask])
    slope, intercept = np.polyfit(t, logv, 1)
    fitted = slope * t + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res <= 1e-20 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    return RateEstimate(slope=float(slope), window=(t0, t1), r_squared=float(r2))


def check_convergence(trajectory: Trajectory, s_target: np.ndarray | None = None,
                      i_target: np.ndarray | None = None,
                      tol: float = 1e-4) -> float | None:
    """Earliest snapshot time from which the sup-distance to the target
    stays within ``tol`` through the end of the run; None if never."""
    if s_target is None and i_target is None:
        raise InvalidArgumentError("need at least one target")
    dist = np.max([_sup_distance(trajectory.states[:, k], target)
                   for k, target in enumerate((s_target, i_target))
                   if target is not None], axis=0)
    inside = dist <= tol
    if not inside[-1]:
        return None
    # last index where the distance is above tol, +1
    above = np.nonzero(~inside)[0]
    first = 0 if above.size == 0 else above[-1] + 1
    return float(trajectory.times[first])
