"""Benchmark harness for nonlocal-sis.

Usage (from the repository root):

    python3 bench/run.py --workload sweep-n256 --seed 1 --seconds 20 --trace 0

One run is one process with BLAS and the package's own pool pinned to one
thread.  It derives the workload's config entries from ``--seed``, then
repeats the CLI's work (parse the config, ``run_scenario``,
``write_report`` to disk) until ``--seconds`` have passed, and checks the
outputs against the dense oracles in ``workloads.py`` outside the timed
region.

``--trace 0`` reports the end-to-end metrics: medians over the repetitions
of wall and CPU time, the median of several cold set-ups in fresh
processes, and the peak resident memory of this process.

``--trace 1`` alternates untraced and traced repetitions.  The traced ones
wrap every public function of each module (see ``tracer.py``) and report
per-function counts and times; the traced report must equal the untraced
one, and the spans' summed self time must cover the traced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the
environment, every repetition and every check, goes to
``.bench_runs/BENCH_<workload>_seed<seed>_trace<0|1>.json``.
"""

import os

# Pin threads before NumPy loads: runs on a shared 2-core machine must be
# comparable, and a thread pool added later must show as a wall/CPU split.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["NONLOCAL_SIS_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
COVERAGE = 0.95

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

STAT_UNITS = {"calls": "count", "total_s": "s", "self_s": "s",
              "iterations": "count", "failures": "count", "matrix_bytes": "B",
              "steps": "count", "us_per_step": "us", "bytes": "B"}

# (function, stats) pairs of the per-layer metrics; names are
# <module>.<function>.<stat>.
TRACED = (
    ("spectral.extreme_eigenpair", ("calls", "self_s", "iterations")),
    ("spectral.basic_reproduction_number", ("calls", "self_s", "iterations")),
    ("spectral.critical_dispersal_rate", ("calls", "total_s", "iterations")),
    ("spectral.infection_growth_rate", ("calls",)),
    ("spectral.dispersal_principal_eigenpair", ("calls",)),
    ("equilibrium.solve_endemic",
     ("calls", "self_s", "total_s", "iterations", "failures")),
    ("equilibrium.solve_disease_free", ("calls", "self_s", "total_s", "iterations")),
    ("dynamics.integrate", ("calls", "self_s", "steps", "us_per_step")),
    ("dynamics.check_convergence", ("self_s",)),
    ("operators.assemble_dispersal", ("calls", "self_s", "matrix_bytes")),
    ("operators.assemble_reaction_operator", ("calls", "self_s", "matrix_bytes")),
    ("domain.validate_instance", ("self_s",)),
    ("experiments.run_scenario", ("self_s",)),
    ("experiments.run_verify_suite", ("self_s",)),
    ("experiments.write_report", ("self_s", "bytes")),
)

PER_LAYER = {f"{fn}.{stat}": STAT_UNITS[stat] for fn, stats in TRACED
             for stat in stats}
PER_LAYER["trace.overhead_s"] = "s"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import the package from this checkout's ``src``, and nowhere else."""
    if not (SRC / "nonlocal_sis" / "__init__.py").is_file():
        raise SystemExit(f"no package sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nonlocal_sis
    if Path(nonlocal_sis.__file__).resolve().parent != SRC / "nonlocal_sis":
        raise SystemExit(f"imported nonlocal_sis from {nonlocal_sis.__file__}, "
                         f"not from {SRC}")
    return nonlocal_sis


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "NONLOCAL_SIS_THREADS": os.environ["NONLOCAL_SIS_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(text: str) -> list[float]:
    """Cold set-up times, one fresh interpreter each."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC)],
            input=text, text=True, capture_output=True, cwd=ROOT,
            timeout=PROBE_TIMEOUT_S, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not probe["passed"]:
            raise SystemExit("set-up probe: validate_instance rejected the instance")
        times.append(probe["setup_s"])
    return times


def one_run(ns, text: str, out_dir: Path) -> tuple:
    """The CLI's work, timed: config text -> run_scenario -> report on disk."""
    wall, cpu = time.perf_counter(), time.process_time()
    config = ns.parse_config(text, base_dir=ROOT)
    report = ns.run_scenario(config)
    ns.write_report(report, out_dir)
    return report, time.perf_counter() - wall, time.process_time() - cpu


def operations(entries: dict) -> int:
    return int(entries["verify.instances"]) if entries["scenario"] == "verify" else 1


def oracle_checks(entries: dict, report) -> list:
    """Checks of one report against the dense oracles, as (name, ok, detail)."""
    checks = [("status", report.ok, f"{report.status} {report.errors}")]
    if not report.ok:
        return checks
    scenario = entries["scenario"]
    if scenario == "verify":
        return checks + workloads.check_verify(entries, report.outputs)
    model = workloads.DenseModel(entries)
    if scenario == "threshold_sweep":
        return checks + workloads.check_sweep(entries, report.outputs, model)
    trajectory, _ = report.outputs["_trajectory_obj"]
    return checks + workloads.check_simulate(entries, report.outputs, model,
                                             trajectory)


def count_failures(entries: dict, reports: list, checks: list) -> int:
    """Failed operations over all repetitions.

    A repetition whose stable output differs from the first one's fails
    whole.  The others share the first one's checks: if any failed, a
    verify run fails the instances it reports failed (all of them if it
    reports none), and a scenario run fails.
    """
    ops = operations(entries)
    reference = reports[0].stable_dict()
    checks_ok = all(ok for _, ok, _ in checks)
    failed = 0
    for report in reports:
        if report.stable_dict() != reference:
            failed += ops
        elif not checks_ok:
            failed += report.outputs.get("failed", 0) or ops
    return failed


def layer_metrics(summary: dict) -> dict:
    out = {}
    for fn, stats in TRACED:
        entry = summary.get(fn, {})
        for stat in stats:
            if stat == "us_per_step":
                steps = entry.get("steps", 0)
                value = 1e6 * entry["self_s"] / steps if steps else 0.0
            else:
                value = entry.get(stat, 0)
            out[f"{fn}.{stat}"] = value
    return out


def run_untraced(ns, text: str, out_dir: Path, seconds: float) -> dict:
    setup = measure_setup(text)
    reports, walls, cpus = [], [], []
    started = time.perf_counter()
    while not reports or time.perf_counter() - started < seconds:
        report, wall, cpu = one_run(ns, text, out_dir)
        reports.append(report)
        walls.append(wall)
        cpus.append(cpu)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus),
               "setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb}
    return {"reports": reports, "metrics": metrics, "extra_checks": [],
            "samples": {"wall_s": walls, "cpu_s": cpus, "setup_s": setup},
            "spans": None}


def run_traced(ns, text: str, out_dir: Path, seconds: float) -> dict:
    from tracer import Tracer

    reports, plain_walls, traced_walls, layers, coverage = [], [], [], [], []
    tracer = None
    started = time.perf_counter()
    while not reports or time.perf_counter() - started < seconds:
        report, wall, _ = one_run(ns, text, out_dir)
        reports.append(report)
        plain_walls.append(wall)
        tracer = Tracer(ns, ns.NonlocalSISError)
        with tracer:
            report, wall, _ = one_run(ns, text, out_dir)
        reports.append(report)
        traced_walls.append(wall)
        summary = tracer.summary()
        layers.append(layer_metrics(summary))
        coverage.append(sum(entry["self_s"] for entry in summary.values()) / wall)
    metrics = {name: statistics.median_low(rep[name] for rep in layers)
               for name in layers[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(plain_walls))
    worst = min(coverage)
    extra = [("trace.stable_equal",
              all(r.stable_dict() == reports[0].stable_dict() for r in reports),
              "traced stable_dict() == untraced stable_dict()"),
             ("trace.self_time_coverage", COVERAGE <= worst <= 1.0 + 1e-9,
              f"summed self time / traced wall >= {worst:.4f}")]
    return {"reports": reports, "metrics": metrics, "extra_checks": extra,
            "samples": {"wall_s": plain_walls, "traced_wall_s": traced_walls,
                        "self_time_coverage": coverage},
            "spans": tracer.dump()}


def main(argv=None) -> int:
    args = parse_args(argv)
    ns = import_package()
    entries = workloads.WORKLOADS[args.workload](args.seed)
    text = workloads.config_text(entries)
    RUNS.mkdir(exist_ok=True)
    out_dir = RUNS / f"{args.workload}-seed{args.seed}"
    measure = run_traced if args.trace else run_untraced
    result = measure(ns, text, out_dir, args.seconds)

    reports = result["reports"]
    checks = oracle_checks(entries, reports[0]) + result["extra_checks"]
    attempted = operations(entries) * len(reports)
    failed = count_failures(entries, reports, checks)
    correct = failed == 0 and all(ok for _, ok, _ in checks)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}

    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed),
        "entries": entries, "repetitions": len(reports),
        "samples": result["samples"], "metrics": metrics,
        "fail_ratio": {"value": failed / attempted, "failed": failed,
                       "attempted": attempted},
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks],
        "correct": correct,
    }
    (RUNS / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n",
                                             encoding="utf-8")
    if result["spans"] is not None:
        (RUNS / f"spans_{stem}.json").write_text(json.dumps(result["spans"]),
                                                 encoding="utf-8")
    for name, ok, detail in checks:
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
