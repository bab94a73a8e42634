"""Configuration-driven scenario runner with machine-readable reports.

Configs are flat ``key = value`` text with dotted sections and ``#``
comments.  Each key's value is text, an integer or a number, checked by
``make_config``.  Recognized keys (see README for the full reference):

    scenario                 spectral | equilibrium | simulate |
                             threshold_sweep | verify
    seed                     integer >= 0, defaults to 0
    output.dir               optional output directory
    domain.left domain.right grid.n
    kernel.family            tophat | triangle | truncated_gaussian
    kernel.h | kernel.sigma kernel.cutoff
    beta.* gamma.* lambda.*  field recipes (family = constant | step |
                             bump | table with their parameters)
    init.s.* init.i.*        initial data recipes for simulate
    d_S d_I                  dispersal rates
    integrator.dt .method .t_end .snapshot_stride
    simulate.tol             > 0, defaults to 1e-4
    sweep.lo sweep.hi sweep.count sweep.spacing
    verify.instances verify.n_max

``make_config`` builds once what the scenario needs, and refuses a value that
can never run, such as a simulate ``integrator.dt`` over the stability
budget, with a ``ConfigError`` naming its key.  The CLI writes ``--scenario``
and ``--seed`` into the parsed entries before that one build.

Reports are JSON with lexicographically ordered keys; everything except
the ``timing`` object is byte-stable for a fixed (config, seed).  Scenario
CSVs use comma separators, ``.`` decimals, a header row and LF endings.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .domain import (
    CoefficientField,
    DomainSpec,
    FieldSpec,
    Grid,
    KernelSpec,
    ModelParams,
    build_field,
    build_grid,
    load_coefficient_table,
    sample_field_values,
    validate_instance,
)
from .dynamics import (IntegratorConfig, State, _check_budget, check_convergence,
                       integrate)
from .equilibrium import solve_disease_free, solve_endemic
from .errors import (
    ConfigError,
    InvalidArgumentError,
    InvalidBracketError,
    InvalidCoefficientError,
    InvalidConfigError,
    NonlocalSISError,
    _Diagnosed,
)
from .operators import DispersalMatrix, assemble_dispersal
from .spectral import (
    SIGN_DEADBAND,
    basic_reproduction_number,
    compute_spectral_report,
    critical_dispersal_rate,
    infection_growth_rate,
)

__all__ = [
    "ExperimentConfig",
    "Instance",
    "RunReport",
    "parse_config",
    "make_config",
    "load_config",
    "run_scenario",
    "write_report",
    "random_instance",
    "run_verify_suite",
]

SCENARIOS = ("spectral", "equilibrium", "simulate", "threshold_sweep", "verify")

_FIELD_KEYS = {"constant": ("value",), "step": ("c1", "c2", "x_split"),
               "bump": ("base", "amp", "center", "width"), "table": ("path",)}
_KERNEL_KEYS = {"tophat": ("h",), "triangle": ("h",),
                "truncated_gaussian": ("sigma", "cutoff")}
_VERIFY_RATES = np.geomspace(0.05, 20.0, 6)  # d_I ladder of the monotonicity check


@dataclass
class Instance:
    """A fully assembled problem instance."""

    grid: Grid
    kernel: KernelSpec
    beta: CoefficientField
    gamma: CoefficientField
    lam: CoefficientField
    params: ModelParams

    @cached_property
    def dispersal(self) -> DispersalMatrix:
        return assemble_dispersal(self.grid, self.kernel)

    @property
    def gap(self) -> np.ndarray:
        """Transmission minus recovery at the nodes."""
        return self.beta.values - self.gamma.values


@dataclass
class ExperimentConfig:
    """A config's entries and the typed objects ``make_config`` built from
    them: ``instance`` for every scenario but verify, ``integrator``,
    ``initial`` and ``tol`` for simulate, ``rates`` for threshold_sweep."""

    scenario: str
    seed: int
    entries: dict
    base_dir: Path
    instance: Instance | None = None
    integrator: IntegratorConfig | None = None
    initial: State | None = None
    tol: float | None = None
    rates: np.ndarray | None = None

    def get(self, key: str, default=None):
        return self.entries.get(key, default)


def _parse_scalar(raw: str):
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def parse_config(text: str, base_dir=None) -> ExperimentConfig:
    """Parse and validate a config document; unknown keys are rejected."""
    return make_config(_parse_entries(text), base_dir)


def _parse_entries(text: str) -> dict:
    """A config document's ``key = value`` entries; unknown keys are rejected."""
    entries: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}",
                              line=lineno)
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if not key or not raw:
            raise ConfigError(f"line {lineno}: empty key or value", line=lineno)
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}",
                              line=lineno, key=key)
        entries[key] = raw if _key_type(key) is str else _parse_scalar(raw)
    return entries


def make_config(entries: dict, base_dir=None) -> ExperimentConfig:
    """Validate parsed entries into a config (also used for overrides) and
    build what its scenario needs.

    Every value must have its key's type: text, an integer, or a number
    (an integer or a float)."""
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    for key, value in entries.items():
        kind = _key_type(key)
        if not isinstance(value, (int, float) if kind is float else kind):
            raise ConfigError(f"{key!r} must be {_TYPE_NAMES[kind]}, got {value!r}",
                              key=key)
    scenario = entries.get("scenario")
    if scenario is None:
        raise ConfigError("missing required key 'scenario'", key="scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}", key="scenario")
    seed = entries.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", key="seed")

    config = ExperimentConfig(scenario=scenario, seed=seed, entries=entries,
                              base_dir=base_dir)
    if scenario == "verify":  # verify draws its own instances
        for key, least in (("verify.instances", 1), ("verify.n_max", 8)):
            if config.get(key, least) < least:
                raise ConfigError(f"verify needs {key} >= {least}", key=key)
        return config
    config.instance = _build_instance(config)
    if scenario == "simulate":
        config.integrator = _integrator(config)
        inst = config.instance
        with _naming(config, "integrator.dt"):
            _check_budget(config.integrator, max(inst.params.d_S, inst.params.d_I),
                          float(inst.beta.values.max()), float(inst.gamma.values.max()))
        config.initial = _initial_data(config, config.instance.grid)
        config.tol = float(config.get("simulate.tol", 1e-4))
        if not 0 < config.tol < np.inf:
            raise ConfigError(f"simulate.tol must be finite and > 0, got {config.tol}",
                              key="simulate.tol")
    elif scenario == "threshold_sweep":
        config.rates = _sweep_rates(config)
    return config


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    return parse_config(path.read_text(encoding="utf-8"), base_dir=path.parent)


_SIMPLE_KEYS = {
    "scenario": str, "seed": int, "output.dir": str,
    "domain.left": float, "domain.right": float, "grid.n": int,
    "kernel.family": str, "kernel.h": float, "kernel.sigma": float,
    "kernel.cutoff": float,
    "d_S": float, "d_I": float,
    "integrator.dt": float, "integrator.method": str, "integrator.t_end": float,
    "integrator.snapshot_stride": int,
    "simulate.tol": float,
    "sweep.lo": float, "sweep.hi": float, "sweep.count": int,
    "sweep.spacing": str,
    "verify.instances": int, "verify.n_max": int,
}
_TYPE_NAMES = {str: "text", int: "an integer", float: "a number"}

_FIELD_PREFIXES = ("beta", "gamma", "lambda", "init.s", "init.i")
_FIELD_NAMES = {"family"}.union(*_FIELD_KEYS.values())


def _key_type(key: str) -> type:
    """Type of the value a key holds: ``str``, ``int`` or ``float``; an
    unknown key raises ``ConfigError``."""
    if key in _SIMPLE_KEYS:
        return _SIMPLE_KEYS[key]
    prefix, _, tail = key.rpartition(".")
    if prefix in _FIELD_PREFIXES and tail in _FIELD_NAMES:
        return str if tail in ("family", "path") else float
    raise ConfigError(f"unknown key {key!r}", key=key)


def _require(config: ExperimentConfig, key: str):
    value = config.get(key)
    if value is None:
        raise ConfigError(f"missing required key {key!r}", key=key)
    return value


@contextmanager
def _naming(config: ExperimentConfig, *keys: str):
    """Re-raise an invalid-input error of the block as ``ConfigError`` naming
    the first of ``keys[:-1]`` whose value is not finite and positive, else
    the last key: the one a constructor checking them in order rejects."""
    try:
        yield
    except (InvalidArgumentError, InvalidCoefficientError, InvalidConfigError) as exc:
        key = next((k for k in keys[:-1] if not 0 < config.get(k) < np.inf), keys[-1])
        raise ConfigError(str(exc), key=key) from None


def _family(config: ExperimentConfig, prefix: str, families: dict) -> str:
    """The ``prefix.family`` of a field or kernel recipe, one of
    ``families`` (each mapped to the parameters it takes).  An unknown
    family, or a ``prefix.*`` key that the family does not take and would
    ignore, raises ``ConfigError`` naming its key."""
    family = _require(config, f"{prefix}.family")
    if family not in families:
        raise ConfigError(f"unknown {prefix} family {family!r}", key=f"{prefix}.family")
    for key in config.entries:
        section, _, name = key.rpartition(".")
        if section == prefix and name not in ("family", *families[family]):
            raise ConfigError(f"{key!r} is not a parameter of {prefix} family "
                              f"{family!r}", key=key)
    return family


def _field_spec(config: ExperimentConfig, prefix: str, n: int) -> FieldSpec:
    family = _family(config, prefix, _FIELD_KEYS)
    params = [_require(config, f"{prefix}.{name}") for name in _FIELD_KEYS[family]]
    if family == "table":
        path = config.base_dir / params[0]
        if not path.exists():
            raise ConfigError(f"table for {prefix!r} not found: {path}",
                              key=f"{prefix}.path")
        with _naming(config, f"{prefix}.path"):
            values = load_coefficient_table(path)
        if values.size != n:
            raise ConfigError(
                f"table for {prefix!r} has {values.size} rows, grid has {n}",
                key=f"{prefix}.path")
        return FieldSpec.table(values)
    return FieldSpec(family, tuple(float(p) for p in params))


def _build_instance(config: ExperimentConfig) -> Instance:
    """The config's grid, kernel, coefficient fields and dispersal rates."""
    left, right = (float(_require(config, k)) for k in ("domain.left", "domain.right"))
    with _naming(config, "domain.right" if np.isfinite(left) else "domain.left"):
        domain = DomainSpec(left, right)
    with _naming(config, "grid.n"):
        grid = build_grid(_require(config, "grid.n"), domain)

    family = _family(config, "kernel", _KERNEL_KEYS)
    widths = {name: float(_require(config, f"kernel.{name}"))
              for name in _KERNEL_KEYS[family]}
    with _naming(config, *(f"kernel.{name}" for name in widths)):
        kernel = KernelSpec(family, **widths)

    fields = []
    for prefix in ("beta", "gamma", "lambda"):
        spec = _field_spec(config, prefix, grid.n)
        with _naming(config, prefix):
            fields.append(build_field(spec, grid, role=prefix))
    with _naming(config, "d_S", "d_I"):
        params = ModelParams(*(float(_require(config, key)) for key in ("d_S", "d_I")))
    return Instance(grid, kernel, *fields, params)


def _integrator(config: ExperimentConfig) -> IntegratorConfig:
    """The integrator settings, added one at a time so that an error names
    the key of the setting it rejects."""
    steps = ("integrator.dt", "integrator.t_end")
    with _naming(config, *steps):
        icfg = IntegratorConfig(*(float(_require(config, key)) for key in steps))
    for name, default in (("method", "rk4"), ("snapshot_stride", 1)):
        with _naming(config, f"integrator.{name}"):
            icfg = replace(icfg, **{name: config.get(f"integrator.{name}", default)})
    return icfg


def _initial_data(config: ExperimentConfig, grid: Grid) -> State:
    """The ``init.s`` and ``init.i`` recipes sampled at the nodes; each must
    be finite and nonnegative, and the infected mass positive, or
    ``ConfigError`` names the offending key."""
    fields = []
    for prefix in ("init.s", "init.i"):
        spec = _field_spec(config, prefix, grid.n)
        with _naming(config, prefix):
            values = sample_field_values(spec, grid)
        if not np.all((0.0 <= values) & (values < np.inf)):
            raise ConfigError(f"initial data {prefix!r} must be finite and "
                              "nonnegative", key=prefix)
        fields.append(values)
    if float(grid.weights @ fields[1]) <= 0:
        raise ConfigError("epidemic run needs positive initial infected mass",
                          key="init.i")
    return State(*fields)


def _sweep_rates(config: ExperimentConfig) -> np.ndarray:
    lo, hi = float(_require(config, "sweep.lo")), float(_require(config, "sweep.hi"))
    count = _require(config, "sweep.count")
    key = ("sweep.count" if count < 2 else "sweep.hi" if not abs(hi) < np.inf
           else "sweep.lo" if not 0 < lo < hi else None)
    if key is not None:
        raise ConfigError("sweep needs finite 0 < lo < hi and count >= 2", key=key)
    spacing = config.get("sweep.spacing", "log")
    if spacing not in ("log", "linear"):
        raise ConfigError(f"unknown sweep spacing {spacing!r}", key="sweep.spacing")
    return (np.geomspace if spacing == "log" else np.linspace)(lo, hi, count)


@dataclass
class RunReport:
    scenario: str
    config_echo: dict
    validation: dict
    outputs: dict
    status: str
    errors: list
    timing: dict
    tool_version: str = __version__

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def stable_dict(self) -> dict:
        outputs = {k: v for k, v in self.outputs.items() if not k.startswith("_")}
        return {
            "config": self.config_echo,
            "errors": list(self.errors),
            "outputs": outputs,
            "scenario": self.scenario,
            "status": self.status,
            "tool": "nonlocal-sis",
            "version": self.tool_version,
            "validation": self.validation,
        }

    def to_dict(self) -> dict:
        out = self.stable_dict()
        out["timing"] = self.timing
        return out


def run_scenario(config: ExperimentConfig) -> RunReport:
    """Execute a scenario; module errors land in the report, not a traceback."""
    started = time.perf_counter()
    outputs: dict = {}
    errors: list[str] = []
    validation: dict = {}
    try:
        if config.scenario == "verify":
            outputs = run_verify_suite(config.seed, config.get("verify.instances", 200),
                                       config.get("verify.n_max", 64))
            if outputs["failed"] > 0:
                errors.append(f"{outputs['failed']} verify properties failed")
        else:
            inst = config.instance
            report = validate_instance(inst.grid, inst.kernel, inst.beta,
                                       inst.gamma, inst.lam, inst.params,
                                       dispersal=inst.dispersal)
            validation = report.to_dict()
            if not report.passed:
                errors.append("validation failed: " + ", ".join(report.failures()))
            else:
                outputs = _run_instance_scenario(config, inst)
                if "threshold_error" in outputs:
                    errors.append(outputs["threshold_error"])
    except NonlocalSISError as exc:
        message = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, _Diagnosed):
            message += f" (residual={exc.residual}, iterations={exc.iterations})"
        errors.append(message)
    echo = dict(sorted(config.entries.items()))
    return RunReport(scenario=config.scenario, config_echo=echo, validation=validation,
                     outputs=outputs, status="error" if errors else "ok",
                     errors=errors, timing={"seconds": time.perf_counter() - started})


def _run_instance_scenario(config: ExperimentConfig, inst: Instance) -> dict:
    K = inst.dispersal
    if config.scenario == "spectral":
        report = compute_spectral_report(K, inst.params, inst.beta, inst.gamma)
        return {"spectral": report.to_dict()}
    if config.scenario == "threshold_sweep":
        return _run_sweep(config.rates, inst, K)

    # equilibrium and simulate both start from the stationary states
    dfe = solve_disease_free(K, inst.params.d_S, inst.lam)
    growth = infection_growth_rate(K, inst.params.d_I, inst.gap).value
    endemic = (solve_endemic(K, inst.params, inst.beta, inst.gamma, dfe.field)
               if growth > SIGN_DEADBAND else None)
    if config.scenario == "equilibrium":
        out = {"disease_free": dfe.to_dict(), "growth_rate": growth}
        if endemic is not None:
            out["endemic"] = endemic.to_dict()
        return out

    regime = "extinction" if endemic is None else "persistence"
    target_s = dfe.field if endemic is None else endemic.susceptible
    target_i = np.zeros(inst.grid.n) if endemic is None else endemic.infected
    icfg = config.integrator
    traj = integrate(config.initial, icfg, inst.params, K, inst.beta,
                     inst.gamma, inst.lam, s_target=target_s)
    entered = check_convergence(traj, s_target=target_s, i_target=target_i,
                                tol=config.tol)
    return {
        "clip_events": traj.clip_events,
        "convergence": {
            "entered_at": entered,
            "regime": regime,
            "target_I": [float(v) for v in target_i],
            "target_S": [float(v) for v in target_s],
            "tol": config.tol,
        },
        "growth_rate": growth,
        "nodes": [float(x) for x in inst.grid.nodes],
        "trajectory": {"dt": icfg.dt, "method": icfg.method,
                       "snapshots": len(traj.times), "t_end": icfg.t_end},
        "_trajectory_obj": (traj, inst.grid.nodes),
    }


def _run_sweep(rates: np.ndarray, inst: Instance, K) -> dict:
    rows = []
    for d in rates:
        mu = infection_growth_rate(K, d, inst.gap).value
        r0 = basic_reproduction_number(K, d, inst.beta, inst.gamma).value
        rows.append({"d_I": float(d), "mu_p": mu, "r0": r0})
    out = {"rows": rows}
    try:
        threshold = critical_dispersal_rate(K, inst.beta, inst.gamma)
        out["threshold"] = threshold.to_dict()
    except InvalidBracketError as exc:
        out["threshold"] = None
        out["threshold_error"] = f"InvalidBracketError: {exc}"
    return out


# ---------------------------------------------------------------------------
# Random instances and the verify property suite
# ---------------------------------------------------------------------------

def _random_kernel(rng: np.random.Generator, length: float, n: int) -> KernelSpec:
    """Kernel whose width is aligned with the cell size.

    Alignment (half-integer cells for the tophat, whole cells for the
    triangle, wide smooth gaussians) keeps the midpoint quadrature of the
    unit-mass kernel from overshooting 1 at any node.
    """
    delta = length / n
    family = str(rng.choice(["tophat", "triangle", "truncated_gaussian"]))
    if family != "truncated_gaussian":
        k = int(rng.integers(2, n + 1)) + (0.5 if family == "tophat" else 0)
        return KernelSpec(family, h=k * delta)
    sigma = rng.uniform(0.5, 1.5) * length
    return KernelSpec.truncated_gaussian(sigma, rng.uniform(2.0, 4.0) * sigma)


def _bumpy_field(rng: np.random.Generator, grid: Grid, base: float,
                 amp_cap: float) -> np.ndarray:
    spec = FieldSpec.bump(base, rng.uniform(-amp_cap, amp_cap),
                          rng.uniform(grid.domain.left, grid.domain.right),
                          rng.uniform(0.1, 0.5) * grid.domain.length)
    return sample_field_values(spec, grid)


def random_instance(rng: np.random.Generator, n_max: int = 64,
                    risk: str = "mixed",
                    dispersal_ratio: float = 1.0) -> Instance:
    """Draw a reproducible instance from the documented distribution.

    ``risk`` shapes the transmission/recovery gap: ``high`` guarantees a
    node with a comfortably positive gap, ``low`` makes the gap negative
    everywhere, ``mixed`` leaves it free.  ``dispersal_ratio`` sets
    ``d_S = ratio * d_I``.
    """
    n = int(rng.integers(8, max(8, n_max) + 1))
    length = rng.uniform(0.5, 2.0)
    grid = build_grid(n, DomainSpec(0.0, length))
    kernel = _random_kernel(rng, length, n)

    gamma_v = _bumpy_field(rng, grid, base=rng.uniform(0.4, 1.5), amp_cap=0.1)
    if risk == "high":
        offset = rng.uniform(0.4, 1.0)
        beta_v = gamma_v + offset + _bumpy_field(rng, grid, 0.0, 0.1)
    elif risk == "low":
        beta_v = gamma_v * rng.uniform(0.4, 0.85)
    else:
        beta_v = _bumpy_field(rng, grid, base=rng.uniform(0.4, 1.5), amp_cap=0.1)
    lam_v = _bumpy_field(rng, grid, base=rng.uniform(0.5, 2.0), amp_cap=0.2)

    d_i = float(np.exp(rng.uniform(np.log(0.05), np.log(20.0))))
    params = ModelParams(d_S=dispersal_ratio * d_i, d_I=d_i)
    return Instance(grid=grid, kernel=kernel,
                    beta=CoefficientField(beta_v, "beta"),
                    gamma=CoefficientField(gamma_v, "gamma"),
                    lam=CoefficientField(lam_v, "lambda"),
                    params=params)


def _verify_one(seed: int, index: int, n_max: int) -> dict:
    rng = np.random.default_rng([seed, index])
    inst = random_instance(rng, n_max=n_max)
    K = inst.dispersal
    d = inst.params.d_I
    checks = {}

    mu = infection_growth_rate(K, d, inst.gap).value
    r0 = basic_reproduction_number(K, d, inst.beta, inst.gamma).value
    checks["sign_consistency"] = bool(abs(mu) <= SIGN_DEADBAND
                                      or np.sign(r0 - 1.0) == np.sign(mu))

    scaled = d * infection_growth_rate(K, 1.0, inst.gap / d).value
    checks["scaling_identity"] = bool(abs(mu - scaled) <= 1e-10)

    mus = [infection_growth_rate(K, dd, inst.gap).value for dd in _VERIFY_RATES]
    checks["monotone_in_rate"] = all(mus[k + 1] <= mus[k] + 1e-12
                                     for k in range(len(mus) - 1))

    delta = 0.1
    lip = abs(infection_growth_rate(K, d + delta, inst.gap).value - mu)
    checks["lipschitz_bound"] = bool(lip <= 2.0 * delta + 1e-12)

    bound = infection_growth_rate(K, d, -inst.gamma.values).value
    checks["spectral_bound_negative"] = bool(bound < 0.0)
    checks["r0_positive"] = bool(r0 > 0.0)

    return {"index": index, "checks": checks,
            "passed": all(checks.values()),
            "mu_p": mu, "r0": r0}


def run_verify_suite(seed: int, instances: int = 200, n_max: int = 64) -> dict:
    """Seeded random-instance property suite; returns stable pass counts."""
    results = [_verify_one(seed, k, n_max) for k in range(instances)]
    failed = [r for r in results if not r["passed"]]
    names = sorted({name for r in results for name in r["checks"]})
    return {
        "by_check": {name: sum(r["checks"][name] for r in results) for name in names},
        "failed": len(failed),
        "failed_indices": [r["index"] for r in failed],
        "instances": instances,
        "passed": len(results) - len(failed),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Report writing
# ---------------------------------------------------------------------------

def write_report(report: RunReport, out_dir) -> list[Path]:
    """Write report.json plus scenario CSVs; returns the paths written.

    JSON keys are sorted, so everything except the ``timing`` object is
    byte-stable across reruns of the same (config, seed).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []

    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True)
                           + "\n", encoding="utf-8")
    paths.append(report_path)

    packed = report.outputs.get("_trajectory_obj")
    if report.scenario == "simulate" and packed is not None:
        traj, nodes = packed  # a simulate run always records |S - target|
        n = len(nodes)
        rows = traj.states.reshape(len(traj.times), 2 * n)  # S then I per row
        paths.append(_write_csv(
            out_dir / "trajectory.csv",
            ["t"] + [f"S_x{i}" for i in range(n)] + [f"I_x{i}" for i in range(n)],
            ([t] + row.tolist() for t, row in zip(traj.times.tolist(), rows))))
        paths.append(_write_csv(
            out_dir / "norms.csv", ["t", "sup_norm_I", "sup_norm_S_minus_target"],
            np.column_stack([traj.times, traj.sup_norm_I,
                             traj.sup_norm_S_minus_target]).tolist()))

    if report.scenario == "threshold_sweep" and "rows" in report.outputs:
        header = ["d_I", "mu_p", "r0"]
        paths.append(_write_csv(out_dir / "sweep.csv", header,
                                ([row[k] for k in header]
                                 for row in report.outputs["rows"])))

    return paths


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write one CSV file in the dialect of the module docstring; return
    its path.

    Every cell is ``repr`` of a Python float, so rows come from
    ``ndarray.tolist()``: a NumPy scalar would print as ``np.float64(...)``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(repr, row)) + "\n")
    return path
