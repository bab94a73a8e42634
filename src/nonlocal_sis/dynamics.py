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
        if self.method not in ("explicit_euler", "rk4"):
            raise InvalidConfigError(f"unknown method {self.method!r}")
        if self.snapshot_stride < 1:
            raise InvalidConfigError("snapshot_stride must be at least 1")


def _check_budget(config: IntegratorConfig, max_rate: float,
                  beta_max: float, gamma_max: float) -> None:
    load = config.dt * (max_rate + gamma_max + beta_max)
    if load > STABILITY_BUDGET:
        raise InvalidConfigError(
            f"stability budget violated: dt * (rates) = {load:.3g} > "
            f"{STABILITY_BUDGET}; shrink dt")


@dataclass
class Trajectory:
    """Snapshots of a full epidemic run with norm histories."""

    times: np.ndarray
    snapshots: list[State]
    sup_norm_I: np.ndarray
    sup_norm_S_minus_target: np.ndarray | None
    clip_events: int
    method: str
    dt: float


@dataclass
class FieldTrajectory:
    """Snapshots of a single-field auxiliary run."""

    times: np.ndarray
    fields: np.ndarray  # shape (n_snapshots, n)
    sup_norm: np.ndarray
    sup_norm_minus_target: np.ndarray | None
    clip_events: int
    method: str
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


def _infection_pressure(S, I, beta):
    total = S + I
    safe = np.where(total > 0.0, total, 1.0)
    return np.where(total > 0.0, beta * S * I / safe, 0.0)


def _rhs_raw(y, d_s, d_i, K, beta, gamma, lam):
    """Right-hand side for the stacked state ``y = (S, I)``, stacked."""
    S, I = y
    KS, KI = K.matvec(y)
    infect = _infection_pressure(S, I, beta)
    dS = d_s * (KS - S) + lam - infect + gamma * I
    dI = d_i * (KI - I) + infect - gamma * I
    return np.stack([dS, dI])


def _step(y: np.ndarray, t: float, dt: float, f, method: str) -> np.ndarray:
    if method == "explicit_euler":
        return y + dt * f(y, t)
    k1 = f(y, t)
    k2 = f(y + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = f(y + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = f(y + dt * k3, t + dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _run(y0: np.ndarray, config: IntegratorConfig, f, record) -> int:
    """Shared stepping loop: positivity guard, clipping ledger, snapshots.

    ``record(k, t, y)`` is called at snapshot steps; returns clip events.
    """
    n_steps = int(round(config.t_end / config.dt))
    if n_steps < 1:
        raise InvalidConfigError("t_end shorter than one step")
    y = y0.astype(float).copy()
    clip_events = 0
    record(0, 0.0, y)
    for k in range(1, n_steps + 1):
        t = (k - 1) * config.dt
        y = _step(y, t, config.dt, f, config.method)
        if not np.all(np.isfinite(y)):
            raise IntegrationFailure(f"non-finite state at t={t + config.dt:.6g}")
        lowest = float(y.min())
        if lowest < -NEGATIVE_TOL:
            raise IntegrationFailure(
                f"state dipped to {lowest:.3e} at t={t + config.dt:.6g}")
        if lowest < 0.0:
            clip_events += int(np.sum(y < 0.0))
            y = np.maximum(y, 0.0)
        if k % config.snapshot_stride == 0 or k == n_steps:
            record(k, k * config.dt, y)
    return clip_events


def integrate(state0: State, config: IntegratorConfig, params, K: DispersalMatrix,
              beta, gamma, lam, s_target: np.ndarray | None = None) -> Trajectory:
    """Integrate the full epidemic system from a nonnegative state.

    When ``s_target`` is given (typically the disease-free profile), the
    trajectory records the sup-distance of S to it alongside the
    sup-norm of I at every snapshot.
    """
    if np.any(state0.S < 0) or np.any(state0.I < 0):
        raise InvalidStateError("initial state has negative components")
    beta_v, gamma_v = _field_values(beta), _field_values(gamma)
    lam_v = _field_values(lam)
    _check_budget(config, max(params.d_S, params.d_I),
                  float(beta_v.max()), float(gamma_v.max()))

    def f(y, t):
        return _rhs_raw(y, params.d_S, params.d_I, K, beta_v, gamma_v, lam_v)

    times, snaps, norm_i, norm_s = [], [], [], []

    def record(k, t, y):
        times.append(t)
        snaps.append(State(S=y[0].copy(), I=y[1].copy(), t=t))
        norm_i.append(float(np.max(np.abs(y[1]))))
        if s_target is not None:
            norm_s.append(float(np.max(np.abs(y[0] - s_target))))

    y0 = np.vstack([state0.S, state0.I])
    clip_events = _run(y0, config, f, record)
    return Trajectory(times=np.array(times), snapshots=snaps,
                      sup_norm_I=np.array(norm_i),
                      sup_norm_S_minus_target=(np.array(norm_s)
                                               if s_target is not None else None),
                      clip_events=clip_events, method=config.method, dt=config.dt)


def _integrate_field(w0: np.ndarray, config: IntegratorConfig, f,
                     target: np.ndarray | None) -> FieldTrajectory:
    times, fields, norms, norms_target = [], [], [], []

    def record(k, t, y):
        times.append(t)
        fields.append(y.copy())
        norms.append(float(np.max(np.abs(y))))
        if target is not None:
            norms_target.append(float(np.max(np.abs(y - target))))

    clip_events = _run(np.asarray(w0, dtype=float), config, f, record)
    return FieldTrajectory(times=np.array(times), fields=np.array(fields),
                           sup_norm=np.array(norms),
                           sup_norm_minus_target=(np.array(norms_target)
                                                  if target is not None else None),
                           clip_events=clip_events, method=config.method,
                           dt=config.dt)


def integrate_linear_infection(w0: np.ndarray, config: IntegratorConfig,
                               d_I: float, K: DispersalMatrix, beta,
                               gamma) -> FieldTrajectory:
    """Linear majorant of the infected compartment:
    ``dw/dt = d_I (K w - w) + (beta - gamma) w``."""
    w0 = np.asarray(w0, dtype=float)
    if np.any(w0 < 0):
        raise InvalidStateError("initial field has negative components")
    beta_v, gamma_v = _field_values(beta), _field_values(gamma)
    _check_budget(config, d_I, float(beta_v.max()), float(gamma_v.max()))
    m = beta_v - gamma_v

    def f(y, t):
        return d_I * (K.matvec(y) - y) + m * y

    return _integrate_field(w0, config, f, None)


def integrate_total_population(v0: np.ndarray, config: IntegratorConfig,
                               d: float, K: DispersalMatrix, lam,
                               target: np.ndarray | None = None) -> FieldTrajectory:
    """Total-population balance for equal dispersal rates:
    ``dV/dt = d (K V - V) + lam``."""
    v0 = np.asarray(v0, dtype=float)
    if np.any(v0 < 0):
        raise InvalidStateError("initial field has negative components")
    lam_v = _field_values(lam)
    _check_budget(config, d, 0.0, 0.0)

    def f(y, t):
        return d * (K.matvec(y) - y) + lam_v

    return _integrate_field(v0, config, f, target)


def integrate_logistic(u0: np.ndarray, config: IntegratorConfig, d: float,
                       K: DispersalMatrix, b, a) -> FieldTrajectory:
    """Nonlocal logistic problem ``du/dt = d (K u - u) + b u - a u^2``."""
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 < 0):
        raise InvalidStateError("initial field has negative components")
    b_v, a_v = _field_values(b), _field_values(a)
    # budget: the damping slope on [0, u_max] plays the role of the rates
    u_cap = max(float(u0.max()), float(np.max(b_v) / np.min(a_v)))
    _check_budget(config, d, float(np.max(np.abs(b_v))),
                  float(np.max(a_v)) * u_cap)

    def f(y, t):
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
    dist = np.zeros(len(trajectory.snapshots))
    for k, snap in enumerate(trajectory.snapshots):
        d = 0.0
        if s_target is not None:
            d = max(d, float(np.max(np.abs(snap.S - s_target))))
        if i_target is not None:
            d = max(d, float(np.max(np.abs(snap.I - i_target))))
        dist[k] = d
    inside = dist <= tol
    if not inside[-1]:
        return None
    # last index where the distance is above tol, +1
    above = np.nonzero(~inside)[0]
    first = 0 if above.size == 0 else above[-1] + 1
    return float(trajectory.times[first])
