"""Seeded workload configs and the independent dense oracles that check them.

Every workload is a flat config-entry dict, the same shape a ``.cfg`` file
parses to, derived from the benchmark seed.  The seed only perturbs the
coefficient fields within ranges that keep each workload in its regime, so
work per run stays comparable across seeds.  The triangle kernel width
h = 0.25 is never perturbed: it is a whole number of cells at n = 64, 256
and 1024, which ``validate_instance`` needs.

The oracles re-derive every checked number from the config entries alone
(nodes, weights, kernel and fields are rebuilt here, not taken from the
program) and compare with dense LAPACK solves.  They run outside the timed
region.  Tolerances are the ones pinned in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

GROWTH_TOL = 1e-10
R0_TOL = 1e-8
THRESHOLD_TOL = 1e-6
STATE_TOL = 1e-8
SIGN_DEADBAND = 1e-8
EXTINCTION_SLACK = 0.05

BASELINE = {
    "domain.left": 0.0, "domain.right": 1.0,
    "kernel.family": "triangle", "kernel.h": 0.25,
    "gamma.family": "constant", "gamma.value": 0.9,
    "lambda.family": "constant", "lambda.value": 1.0,
}


def _bump_beta(rng: np.random.Generator) -> dict:
    """The baseline bump (1 + 1.5 exp(-((x - 0.5)/0.2)^2)), perturbed.

    Peak gap beta - gamma stays near 1.6 > 0, so the instance is
    supercritical at small d_I and d* stays inside the doubled bracket.
    """
    return {"beta.family": "bump", "beta.base": 1.0,
            "beta.amp": round(float(rng.uniform(1.45, 1.55)), 6),
            "beta.center": round(float(rng.uniform(0.48, 0.52)), 6),
            "beta.width": 0.2}


def sweep_entries(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {**BASELINE, **_bump_beta(rng), "scenario": "threshold_sweep",
            "seed": seed, "grid.n": 256, "d_S": 1.0, "d_I": 1.0,
            "sweep.lo": 0.05, "sweep.hi": 10.0, "sweep.count": 12,
            "sweep.spacing": "log"}


def verify_entries(seed: int) -> dict:
    return {"scenario": "verify", "seed": seed, "verify.instances": 200,
            "verify.n_max": 64}


def persistence_entries(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {**BASELINE, **_bump_beta(rng), "scenario": "simulate",
            "seed": seed, "grid.n": 64, "d_S": 1.0, "d_I": 0.1,
            "integrator.dt": 0.05, "integrator.t_end": 80.0,
            "integrator.method": "rk4", "integrator.snapshot_stride": 10,
            "init.s.family": "constant",
            "init.s.value": round(float(rng.uniform(0.9, 1.1)), 6),
            "init.i.family": "constant",
            "init.i.value": round(float(rng.uniform(0.08, 0.12)), 6),
            "simulate.tol": 1e-4}


def extinction_entries(seed: int) -> dict:
    """Constant beta < gamma everywhere: growth rate near -1.10."""
    rng = np.random.default_rng(seed)
    return {**BASELINE, "scenario": "simulate", "seed": seed,
            "grid.n": 1024, "d_S": 1.0, "d_I": 0.1,
            "beta.family": "constant",
            "beta.value": round(float(rng.uniform(0.38, 0.42)), 6),
            "gamma.value": round(float(rng.uniform(1.45, 1.55)), 6),
            "integrator.dt": 0.02, "integrator.t_end": 12.0,
            "integrator.method": "rk4", "integrator.snapshot_stride": 10,
            "init.s.family": "constant",
            "init.s.value": round(float(rng.uniform(0.9, 1.1)), 6),
            "init.i.family": "constant",
            "init.i.value": round(float(rng.uniform(0.4, 0.6)), 6),
            "simulate.tol": 1e-4}


WORKLOADS = {
    "sweep-n256": sweep_entries,
    "verify-200": verify_entries,
    "persistence-n64": persistence_entries,
    "extinction-n1024": extinction_entries,
}


def config_text(entries: dict) -> str:
    """Render entries as the ``key = value`` text the CLI reads."""
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float)
                   else f"{key} = {value}\n" for key, value in entries.items())


# ---------------------------------------------------------------------------
# Dense model, rebuilt from the entries
# ---------------------------------------------------------------------------

def _field(entries: dict, prefix: str, x: np.ndarray) -> np.ndarray:
    family = entries[f"{prefix}.family"]
    if family == "constant":
        return np.full(x.size, float(entries[f"{prefix}.value"]))
    if family == "bump":
        base, amp, center, width = (float(entries[f"{prefix}.{k}"])
                                    for k in ("base", "amp", "center", "width"))
        return base + amp * np.exp(-(((x - center) / width) ** 2))
    raise ValueError(f"oracle has no {family!r} field")


class DenseModel:
    """Midpoint grid, triangle kernel matrix and node fields of a config."""

    def __init__(self, entries: dict):
        if entries["kernel.family"] != "triangle":
            raise ValueError("oracle supports the triangle kernel only")
        n = int(entries["grid.n"])
        left, right = float(entries["domain.left"]), float(entries["domain.right"])
        cell = (right - left) / n
        self.x = left + cell * (np.arange(n) + 0.5)
        h = float(entries["kernel.h"])
        dist = np.abs(self.x[:, None] - self.x[None, :])
        # uniform weights: K is symmetric, so no similarity transform is needed
        self.K = cell * np.maximum(h - dist, 0.0) / (h * h)
        self.n = n
        self.beta = _field(entries, "beta", self.x)
        self.gamma = _field(entries, "gamma", self.x)
        self.lam = _field(entries, "lambda", self.x)
        self.d_S = float(entries["d_S"])
        self.d_I = float(entries["d_I"])

    def growth_rate(self, d: float) -> float:
        """Top eigenvalue of d (K - Id) + diag(beta - gamma)."""
        B = d * (self.K - np.eye(self.n)) + np.diag(self.beta - self.gamma)
        return float(scipy.linalg.eigh(B, eigvals_only=True,
                                       subset_by_index=[self.n - 1, self.n - 1])[0])

    def r0(self, d: float) -> float:
        """Top eigenvalue of the pencil (diag(beta), -(d (K - Id) - diag(gamma)))."""
        A = d * (self.K - np.eye(self.n)) - np.diag(self.gamma)
        return float(scipy.linalg.eigh(np.diag(self.beta), -A, eigvals_only=True,
                                       subset_by_index=[self.n - 1, self.n - 1])[0])

    def disease_free(self) -> np.ndarray:
        return np.linalg.solve(np.eye(self.n) - self.K, self.lam / self.d_S)

    def polish_endemic(self, S: np.ndarray, I: np.ndarray) -> tuple:
        """Newton on the full 2n steady-state system, started at (S, I)."""
        n, K, eye = self.n, self.K, np.eye(self.n)
        y = np.concatenate([S, I])
        for _ in range(30):
            S, I = y[:n], y[n:]
            total = S + I
            pressure = self.beta * S * I / total
            G = np.concatenate([
                self.d_S * (K @ S - S) + self.lam - pressure + self.gamma * I,
                self.d_I * (K @ I - I) + pressure - self.gamma * I])
            dP_dS = self.beta * I * I / total**2
            dP_dI = self.beta * S * S / total**2
            J = np.block([
                [self.d_S * (K - eye) - np.diag(dP_dS), np.diag(self.gamma - dP_dI)],
                [np.diag(dP_dS), self.d_I * (K - eye) + np.diag(dP_dI - self.gamma)]])
            step = np.linalg.solve(J, -G)
            y = y + step
            if np.max(np.abs(step)) <= 1e-15 * max(1.0, np.max(np.abs(y))):
                break
        return y[:n], y[n:]


# ---------------------------------------------------------------------------
# Checks: each returns a list of (name, ok, detail)
# ---------------------------------------------------------------------------

def _close(name: str, got, want, tol: float) -> tuple:
    gap = float(np.max(np.abs(np.asarray(got, dtype=float)
                              - np.asarray(want, dtype=float))))
    return (name, gap <= tol, f"gap {gap:.3e} (tol {tol:.0e})")


def check_sweep(entries: dict, outputs: dict, model: DenseModel) -> list:
    checks = []
    for k, row in enumerate(outputs["rows"]):
        d = row["d_I"]
        mu = model.growth_rate(d)
        checks.append(_close(f"rows[{k}].mu_p", row["mu_p"], mu, GROWTH_TOL))
        checks.append(_close(f"rows[{k}].r0", row["r0"], model.r0(d), R0_TOL))
        agree = (abs(row["mu_p"]) <= SIGN_DEADBAND
                 or np.sign(row["r0"] - 1.0) == np.sign(row["mu_p"]))
        checks.append((f"rows[{k}].sign", bool(agree), "sign(r0 - 1) == sign(mu_p)"))
    threshold = outputs.get("threshold")
    if threshold is None:
        return checks + [("threshold", False, "no critical rate reported")]
    at_critical = model.growth_rate(threshold["d_critical"])
    checks.append(("threshold.growth", abs(at_critical) <= THRESHOLD_TOL,
                   f"|mu(d*)| = {abs(at_critical):.3e} (tol {THRESHOLD_TOL:.0e})"))
    return checks


def check_verify(entries: dict, outputs: dict) -> list:
    instances = int(entries["verify.instances"])
    checks = [("failed", outputs["failed"] == 0, f"{outputs['failed']} failed"),
              ("passed", outputs["passed"] == instances,
               f"{outputs['passed']} of {instances} passed")]
    for name, count in outputs["by_check"].items():
        checks.append((f"by_check.{name}", count == instances,
                       f"{count} of {instances}"))
    return checks


def check_simulate(entries: dict, outputs: dict, model: DenseModel,
                   trajectory) -> list:
    mu = model.growth_rate(model.d_I)
    checks = [_close("growth_rate", outputs["growth_rate"], mu, GROWTH_TOL)]
    conv = outputs["convergence"]
    target_S = np.array(conv["target_S"])
    target_I = np.array(conv["target_I"])
    dfe = model.disease_free()
    first, last = trajectory.snapshots[0], trajectory.snapshots[-1]
    if mu > 0:
        checks.append(("regime", conv["regime"] == "persistence", conv["regime"]))
        conserved = model.d_S * target_S + model.d_I * target_I
        checks.append(_close("endemic.conservation", conserved, model.d_S * dfe,
                             STATE_TOL))
        S, I = model.polish_endemic(target_S, target_I)
        checks.append(_close("endemic.S", target_S, S, STATE_TOL))
        checks.append(_close("endemic.I", target_I, I, STATE_TOL))
        checks.append(("endemic.positive", bool(np.all(target_I > 0)), "I > 0"))

        def dist(snap):
            return max(float(np.max(np.abs(snap.S - target_S))),
                       float(np.max(np.abs(snap.I - target_I))))
        checks.append(("approach", dist(last) < dist(first),
                       f"distance {dist(first):.3e} -> {dist(last):.3e}"))
    else:
        checks.append(("regime", conv["regime"] == "extinction", conv["regime"]))
        checks.append(_close("disease_free", target_S, dfe, STATE_TOL))
        t_end = float(trajectory.times[-1])
        bound = float(np.max(first.I)) * np.exp((mu + EXTINCTION_SLACK) * t_end)
        sup_end = float(np.max(last.I))
        checks.append(("extinction.decay", sup_end <= bound,
                       f"sup I(t_end) {sup_end:.3e} <= {bound:.3e}"))
    return checks
