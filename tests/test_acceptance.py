"""Acceptance criteria, one test per criterion, tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import time

import numpy as np

from nonlocal_sis import (
    DomainSpec,
    CoefficientField,
    IntegratorConfig,
    KernelSpec,
    ModelParams,
    State,
    assemble_dispersal,
    basic_reproduction_number,
    build_grid,
    check_convergence,
    critical_dispersal_rate,
    dispersal_principal_eigenpair,
    estimate_rate,
    infection_growth_rate,
    integrate,
    integrate_linear_infection,
    integrate_total_population,
    parse_config,
    recovery_spectral_bound,
    run_scenario,
    solve_disease_free,
    solve_endemic,
    solve_logistic_stationary,
    write_report,
)
from nonlocal_sis.experiments import random_instance

SIGN_DEADBAND = 1e-8


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    assert ok, label


def two_cell_instance(beta=2.0, gamma=0.5, lam=1.0, d_s=1.0, d_i=1.0):
    grid = build_grid(2, DomainSpec(0.0, 1.0))
    K = assemble_dispersal(grid, KernelSpec.tophat(1.0))
    return (grid, K,
            CoefficientField(np.full(2, beta), "beta"),
            CoefficientField(np.full(2, gamma), "gamma"),
            CoefficientField(np.full(2, lam), "lambda"),
            ModelParams(d_S=d_s, d_I=d_i))


def instance_rng(criterion: int, index: int) -> np.random.Generator:
    return np.random.default_rng([2026, criterion, index])


def budget_dt(inst, d_override=None):
    rate = d_override if d_override is not None else max(inst.params.d_S,
                                                         inst.params.d_I)
    return 0.4 * 0.5 / (rate + inst.beta.values.max() + inst.gamma.values.max())


def test_criterion_01_closed_form_battery():
    started = time.perf_counter()
    grid, K, beta, gamma, lam, params = two_cell_instance()

    lam1 = dispersal_principal_eigenpair(K)
    ok = abs(lam1.value - 0.5) <= 1e-10

    mu = infection_growth_rate(K, 1.0, beta.values - gamma.values)
    ok &= abs(mu.value - 1.0) <= 1e-10

    bound = recovery_spectral_bound(K, 1.0, gamma)
    ok &= abs(bound - (-1.0)) <= 1e-10

    r0 = basic_reproduction_number(K, 1.0, beta, gamma)
    ok &= abs(r0.value - 2.0) <= 1e-8

    dfe = solve_disease_free(K, 1.0, lam)
    ok &= np.max(np.abs(dfe.field - 2.0)) <= 1e-10

    endemic = solve_endemic(K, params, beta, gamma, dfe.field)
    ok &= np.max(np.abs(endemic.infected - 1.0)) <= 1e-8
    ok &= np.max(np.abs(endemic.susceptible - 1.0)) <= 1e-8

    threshold = critical_dispersal_rate(K, beta, gamma)
    ok &= abs(threshold.d_critical - 3.0) <= 1e-5

    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    report(ok, f"criterion 1: two-cell closed-form battery ({elapsed:.2f}s)")


def test_criterion_02_sign_consistency():
    started = time.perf_counter()
    checked = failures = 0
    for k in range(200):
        inst = random_instance(instance_rng(2, k))
        K = inst.dispersal
        mu = infection_growth_rate(K, inst.params.d_I, inst.gap).value
        if abs(mu) <= SIGN_DEADBAND:
            continue
        r0 = basic_reproduction_number(K, inst.params.d_I, inst.beta,
                                       inst.gamma).value
        checked += 1
        if np.sign(r0 - 1.0) != np.sign(mu):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and checked > 100 and elapsed < 60.0
    report(ok, f"criterion 2: sign(r0-1) == sign(growth) on 200 instances "
               f"({checked} decisive, {failures} failures, {elapsed:.1f}s)")


def test_criterion_03_r0_oracle_equivalence():
    worst = 0.0
    for k in range(50):
        inst = random_instance(instance_rng(3, k))
        K = inst.dispersal
        d = inst.params.d_I
        iterative = basic_reproduction_number(K, d, inst.beta, inst.gamma).value
        A = d * (K.entries - np.eye(K.n)) - np.diag(inst.gamma.values)
        M = np.diag(inst.beta.values) @ np.linalg.inv(-A)
        dense = float(np.max(np.abs(np.linalg.eigvals(M))))
        worst = max(worst, abs(iterative - dense))
    ok = worst <= 1e-8
    report(ok, f"criterion 3: iterative r0 vs dense next-generation matrix "
               f"(worst gap {worst:.2e})")


def test_criterion_04_growth_rate_identities():
    worst_scaling = 0.0
    monotone_ok = True
    lipschitz_ok = True
    for k in range(50):
        inst = random_instance(instance_rng(4, k))
        K, m = inst.dispersal, inst.gap
        d = inst.params.d_I
        direct = infection_growth_rate(K, d, m).value
        scaled = d * infection_growth_rate(K, 1.0, m / d).value
        worst_scaling = max(worst_scaling, abs(direct - scaled))
        mus = [infection_growth_rate(K, dd, m).value
               for dd in np.geomspace(0.05, 20.0, 10)]
        monotone_ok &= all(b <= a + 1e-12 for a, b in zip(mus, mus[1:]))
        for delta in (0.01, 0.1, 1.0):
            shifted = infection_growth_rate(K, d + delta, m).value
            lipschitz_ok &= abs(shifted - direct) <= 2.0 * delta + 1e-12
    ok = worst_scaling <= 1e-10 and monotone_ok and lipschitz_ok
    report(ok, f"criterion 4: growth-rate scaling/monotonicity/Lipschitz "
               f"(worst scaling gap {worst_scaling:.2e})")


def test_criterion_05_threshold_behavior():
    ok = True
    for k in range(20):
        inst = random_instance(instance_rng(5, k), risk="high")
        K = inst.dispersal
        threshold = critical_dispersal_rate(K, inst.beta, inst.gamma)
        below = basic_reproduction_number(K, threshold.d_critical / 2,
                                          inst.beta, inst.gamma).value
        above = basic_reproduction_number(K, 2 * threshold.d_critical,
                                          inst.beta, inst.gamma).value
        ok &= below > 1.0 and above < 1.0
    for k in range(20):
        inst = random_instance(instance_rng(5, 100 + k), risk="low")
        K = inst.dispersal
        for d in np.geomspace(0.05, 20.0, 10):
            mu = infection_growth_rate(K, d, inst.gap).value
            r0 = basic_reproduction_number(K, d, inst.beta, inst.gamma).value
            ok &= mu < 0 and r0 < 1.0
    report(ok, "criterion 5: critical rate separates regimes; low-risk "
               "instances stay subcritical")


def test_criterion_06_extinction_dynamics():
    started = time.perf_counter()
    grid, K, beta, gamma, lam, params = two_cell_instance(beta=0.5, gamma=1.0)
    mu = infection_growth_rate(K, 1.0, beta.values - gamma.values).value
    dfe = solve_disease_free(K, 1.0, lam)
    cfg = IntegratorConfig(dt=0.01, t_end=80.0, snapshot_stride=10)
    traj = integrate(State(S=np.full(2, 2.0), I=np.full(2, 0.5)), cfg, params,
                     K, beta, gamma, lam, s_target=dfe.field)
    est = estimate_rate(traj.times, traj.sup_norm_I)
    s_final = traj.sup_norm_S_minus_target[-1]
    elapsed = time.perf_counter() - started
    ok = (abs(mu - (-1.0)) <= 1e-10
          and est.slope <= mu / 3.0
          and abs(est.slope - mu) <= 0.05
          and s_final <= 1e-4
          and elapsed < 10.0)
    report(ok, f"criterion 6: extinction decay slope {est.slope:.4f} "
               f"(bound {mu / 3.0:.3f}, sharp {mu:.1f}), "
               f"susceptible gap {s_final:.1e} ({elapsed:.1f}s)")


def test_criterion_07_persistence_dynamics():
    grid, K, beta, gamma, lam, params = two_cell_instance()
    dfe = solve_disease_free(K, 1.0, lam)
    endemic = solve_endemic(K, params, beta, gamma, dfe.field)
    ok = endemic.bracket_gap <= 1e-8

    reduced = solve_logistic_stationary(K, 1.0, beta.values - gamma.values,
                                        beta.values / dfe.field)
    ok &= np.max(np.abs(reduced.field - endemic.infected)) <= 1e-8

    starts = [
        State(S=np.full(2, 2.0), I=np.full(2, 0.1)),
        State(S=np.full(2, 0.5), I=np.full(2, 1.5)),
        State(S=np.array([3.0, 1.0]), I=np.array([0.2, 1.2])),
    ]
    cfg = IntegratorConfig(dt=0.01, t_end=80.0, snapshot_stride=10)
    entries = []
    for s0 in starts:
        traj = integrate(s0, cfg, params, K, beta, gamma, lam)
        hit = check_convergence(traj, s_target=endemic.susceptible,
                                i_target=endemic.infected, tol=1e-4)
        entries.append(hit)
        ok &= hit is not None and hit < 80.0
    report(ok, f"criterion 7: persistence from three starts "
               f"(entry times {entries}), bracket gap "
               f"{endemic.bracket_gap:.1e}")


def test_criterion_08_total_population_identity_and_decay():
    grid, K, beta, gamma, lam, params = two_cell_instance()
    dfe = solve_disease_free(K, 1.0, lam)
    lam1 = dispersal_principal_eigenpair(K).value
    s0, i0 = np.full(2, 2.0), np.full(2, 0.1)
    cfg = IntegratorConfig(dt=0.01, t_end=80.0, snapshot_stride=10)
    full = integrate(State(S=s0, I=i0), cfg, params, K, beta, gamma, lam)
    linear = integrate_total_population(s0 + i0, cfg, 1.0, K, lam,
                                        target=dfe.field)
    worst = max(float(np.max(np.abs(full.snapshots[k].S + full.snapshots[k].I
                                    - linear.fields[k])))
                for k in range(len(full.times)))
    est = estimate_rate(linear.times, linear.sup_norm_minus_target,
                        window=(5.0, 40.0))
    ok = worst <= 1e-8 and est.slope <= -1.0 * lam1 + 0.05
    report(ok, f"criterion 8: compartment sum vs linear balance "
               f"(gap {worst:.1e}), decay slope {est.slope:.4f} "
               f"<= {-lam1 + 0.05:.3f}")


def test_criterion_09_endemic_bounds():
    ok = True
    count = 0
    for ratio, block in ((0.5, 0), (1.0, 1), (2.0, 2)):
        for k in range(10):
            inst = random_instance(instance_rng(9, 100 * block + k),
                                   risk="high", dispersal_ratio=ratio)
            K = inst.dispersal
            d_i = inst.params.d_I
            while infection_growth_rate(K, d_i, inst.gap).value < 0.05:
                d_i *= 0.5
            params = ModelParams(d_S=ratio * d_i, d_I=d_i)
            dfe = solve_disease_free(K, params.d_S, inst.lam)
            pair = solve_endemic(K, params, inst.beta, inst.gamma, dfe.field)
            high = (params.d_S / params.d_I) * dfe.field
            conserved = np.max(np.abs(params.d_S * pair.susceptible
                                      + params.d_I * pair.infected
                                      - params.d_S * dfe.field))
            ok &= bool(np.all(pair.infected > 0)
                       and np.all(pair.infected < high)
                       and np.all(pair.susceptible > 0)
                       and conserved <= 1e-8)
            count += 1
    report(ok, f"criterion 9: endemic bound and conservation on {count} "
               "supercritical instances (ratios 0.5, 1, 2)")


def test_criterion_10_comparison_principle():
    ok = True
    for k in range(10):
        rng = instance_rng(10, k)
        inst = random_instance(rng, n_max=32)
        K = inst.dispersal
        d = min(inst.params.d_I, 4.0)
        dt = 0.4 * 0.5 / (d + inst.beta.values.max() + inst.gamma.values.max())
        cfg = IntegratorConfig(dt=dt, t_end=200 * dt, snapshot_stride=10)
        w0a = np.abs(rng.standard_normal(inst.grid.n)) + 0.01
        w0b = w0a + np.abs(rng.standard_normal(inst.grid.n))
        ta = integrate_linear_infection(w0a, cfg, d, K, inst.beta, inst.gamma)
        tb = integrate_linear_infection(w0b, cfg, d, K, inst.beta, inst.gamma)
        ok &= bool(np.all(ta.fields <= tb.fields + 1e-10))

        params = ModelParams(d_S=d, d_I=d)
        full = integrate(State(S=np.full(inst.grid.n, 1.0), I=w0a), cfg,
                         params, K, inst.beta, inst.gamma, inst.lam)
        for idx in range(len(full.times)):
            ok &= bool(np.all(full.snapshots[idx].I <= ta.fields[idx] + 1e-10))
    report(ok, "criterion 10: linear comparison preserves ordering and "
               "majorizes the nonlinear infection on 10 instances")


def test_criterion_11_determinism(tmp_path):
    text = "scenario = verify\nseed = 42\nverify.instances = 10\n"
    blobs = []
    for sub in ("first", "second"):
        config = parse_config(text)
        rep = run_scenario(config)
        write_report(rep, tmp_path / sub)
        loaded = json.loads((tmp_path / sub / "report.json").read_text())
        loaded.pop("timing")
        blobs.append(json.dumps(loaded, indent=2, sort_keys=True))
    ok = blobs[0] == blobs[1]
    report(ok, "criterion 11: repeated verify runs are byte-identical "
               "outside the timing block")
