import numpy as np
import pytest
import scipy.linalg

from nonlocal_sis import (
    DomainSpec,
    IntegratorConfig,
    IntegrationFailure,
    InvalidArgumentError,
    InvalidConfigError,
    InvalidStateError,
    InvalidWindowError,
    KernelSpec,
    State,
    assemble_dispersal,
    build_grid,
    check_convergence,
    dynamics,
    estimate_rate,
    infection_growth_rate,
    integrate,
    integrate_linear_infection,
    integrate_logistic,
    integrate_total_population,
    parse_config,
    rhs,
    solve_disease_free,
    solve_endemic,
)
from nonlocal_sis.experiments import random_instance

from conftest import const_field


class TestRhs:
    def test_no_infection_invariant_subspace(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        dS, dI = rhs(State(S=np.array([1.0, 3.0]), I=np.zeros(2)),
                     params, K, beta, gamma, lam)
        np.testing.assert_array_equal(dI, 0.0)
        # susceptible side reduces to dispersal plus recruitment
        expected = 1.0 * (K.entries @ np.array([1.0, 3.0]) - np.array([1.0, 3.0])) + 1.0
        np.testing.assert_allclose(dS, expected, atol=1e-15)

    def test_endemic_state_is_stationary(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        dS, dI = rhs(State(S=np.ones(2), I=np.ones(2)), params, K, beta,
                     gamma, lam)
        assert np.max(np.abs(dS)) <= 1e-12
        assert np.max(np.abs(dI)) <= 1e-12

    def test_extinct_susceptibles_at_a_node(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        S = np.array([0.0, 1.0])
        I = np.array([2.0, 1.0])
        dS, dI = rhs(State(S=S, I=I), params, K, beta, gamma, lam)
        # no infection where S vanishes: only dispersal and recovery act
        expected_dI0 = 1.0 * (K.entries @ I - I)[0] - 0.5 * I[0]
        assert dI[0] == pytest.approx(expected_dI0, abs=1e-15)

    def test_negative_state_rejected(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        with pytest.raises(InvalidStateError):
            rhs(State(S=np.array([-0.1, 1.0]), I=np.ones(2)), params, K,
                beta, gamma, lam)


class TestIntegrate:
    def test_budget_enforced(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        cfg = IntegratorConfig(dt=0.2, t_end=1.0)  # 0.2 * 3.5 > 0.5
        with pytest.raises(InvalidConfigError):
            integrate(State(S=np.ones(2), I=np.ones(2)), cfg, params, K,
                      beta, gamma, lam)

    @pytest.mark.parametrize("stride", [0, 2.5])
    def test_snapshot_stride_must_be_positive_integer(self, stride):
        with pytest.raises(InvalidConfigError):
            IntegratorConfig(dt=0.01, t_end=1.0, snapshot_stride=stride)

    @pytest.mark.parametrize("dt", [0.03, 0.06, 0.07, 2.0])
    def test_t_end_must_be_whole_number_of_steps(self, dt):
        # 1.0 / dt steps would end at 0.99, 1.02, 0.98 or before one step
        with pytest.raises(InvalidConfigError):
            IntegratorConfig(dt=dt, t_end=1.0)

    def test_zero_infection_stays_zero(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        cfg = IntegratorConfig(dt=0.05, t_end=5.0, snapshot_stride=10)
        traj = integrate(State(S=np.full(2, 0.5), I=np.zeros(2)), cfg,
                         params, K, beta, gamma, lam)
        assert all(np.all(s.I == 0.0) for s in traj.snapshots)
        assert traj.clip_events == 0

    @pytest.mark.parametrize("method", ["explicit_euler", "rk4"])
    def test_persistence_run_reaches_endemic(self, endemic_setup, method):
        grid, K, beta, gamma, lam, params = endemic_setup
        cfg = IntegratorConfig(dt=0.01, t_end=80.0, method=method,
                               snapshot_stride=50)
        traj = integrate(State(S=np.full(2, 2.0), I=np.full(2, 0.1)), cfg,
                         params, K, beta, gamma, lam)
        final = traj.snapshots[-1]
        np.testing.assert_allclose(final.S, 1.0, atol=1e-4)
        np.testing.assert_allclose(final.I, 1.0, atol=1e-4)
        assert traj.clip_events == 0

    def test_extinction_run_reaches_disease_free(self, two_cell_K, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        low_beta = const_field(grid, 0.5)
        high_gamma = const_field(grid, 1.0)
        cfg = IntegratorConfig(dt=0.01, t_end=80.0, snapshot_stride=50)
        traj = integrate(State(S=np.full(2, 2.0), I=np.full(2, 0.5)), cfg,
                         params, K, low_beta, high_gamma, lam,
                         s_target=np.full(2, 2.0))
        final = traj.snapshots[-1]
        np.testing.assert_allclose(final.S, 2.0, atol=1e-4)
        assert np.max(final.I) <= 1e-4
        assert traj.sup_norm_S_minus_target is not None

    def test_nonnegative_throughout(self):
        rng = np.random.default_rng(41)
        inst = random_instance(rng, n_max=24)
        rates = max(inst.params.d_S, inst.params.d_I)
        dt = 0.4 * 0.5 / (rates + inst.beta.values.max() + inst.gamma.values.max())
        cfg = IntegratorConfig(dt=dt, t_end=200 * dt, snapshot_stride=5)
        traj = integrate(State(S=np.full(inst.grid.n, 0.3),
                               I=np.full(inst.grid.n, 0.2)),
                         cfg, inst.params, inst.dispersal, inst.beta,
                         inst.gamma, inst.lam)
        for snap in traj.snapshots:
            assert snap.S.min() >= 0.0 and snap.I.min() >= 0.0


class TestLinearInfection:
    def test_modal_solution(self, endemic_setup):
        # start on the principal eigenvector: the run is a pure exponential
        grid, K, beta, gamma, lam, params = endemic_setup
        pair = infection_growth_rate(K, 1.0, beta.values - gamma.values)
        cfg = IntegratorConfig(dt=0.001, t_end=1.0, snapshot_stride=1000)
        traj = integrate_linear_infection(pair.vector, cfg, 1.0, K, beta, gamma)
        expected = np.exp(pair.value * 1.0) * pair.vector
        np.testing.assert_allclose(traj.fields[-1], expected, rtol=1e-6)

    def test_zero_stays_zero(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        cfg = IntegratorConfig(dt=0.01, t_end=1.0)
        traj = integrate_linear_infection(np.zeros(2), cfg, 1.0, K, beta, gamma)
        assert np.all(traj.fields == 0.0)

    def test_majorizes_nonlinear_infection(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        i0 = np.array([0.3, 0.7])
        cfg = IntegratorConfig(dt=0.01, t_end=20.0, snapshot_stride=10)
        full = integrate(State(S=np.full(2, 2.0), I=i0), cfg, params, K,
                         beta, gamma, lam)
        lin = integrate_linear_infection(i0, cfg, 1.0, K, beta, gamma)
        for k in range(len(full.times)):
            assert np.all(full.snapshots[k].I <= lin.fields[k] + 1e-10)

    def test_comparison_preserves_ordering(self):
        rng = np.random.default_rng(42)
        inst = random_instance(rng, n_max=24)
        K = inst.dispersal
        d = min(inst.params.d_I, 2.0)
        dt = 0.4 * 0.5 / (d + inst.beta.values.max() + inst.gamma.values.max())
        cfg = IntegratorConfig(dt=dt, t_end=300 * dt, snapshot_stride=10)
        w0a = np.abs(rng.standard_normal(inst.grid.n))
        w0b = w0a + np.abs(rng.standard_normal(inst.grid.n))
        ta = integrate_linear_infection(w0a, cfg, d, K, inst.beta, inst.gamma)
        tb = integrate_linear_infection(w0b, cfg, d, K, inst.beta, inst.gamma)
        assert np.all(ta.fields <= tb.fields + 1e-10)


class TestTotalPopulation:
    def test_disease_free_profile_is_stationary(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        dfe = solve_disease_free(K, 1.0, lam)
        cfg = IntegratorConfig(dt=0.01, t_end=2.0, snapshot_stride=10)
        traj = integrate_total_population(dfe.field, cfg, 1.0, K, lam)
        for f in traj.fields:
            np.testing.assert_allclose(f, dfe.field, atol=1e-10)

    def test_matches_sum_of_compartments(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        s0, i0 = np.full(2, 1.5), np.array([0.2, 0.6])
        cfg = IntegratorConfig(dt=0.01, t_end=10.0, snapshot_stride=10)
        full = integrate(State(S=s0, I=i0), cfg, params, K, beta, gamma, lam)
        lin = integrate_total_population(s0 + i0, cfg, 1.0, K, lam)
        worst = max(float(np.max(np.abs(full.snapshots[k].S
                                        + full.snapshots[k].I - lin.fields[k])))
                    for k in range(len(full.times)))
        assert worst <= 1e-8


class TestLogisticDynamics:
    def test_approaches_stationary_state(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        from nonlocal_sis import solve_logistic_stationary
        b = beta.values - gamma.values
        a = np.ones(2)
        stat = solve_logistic_stationary(K, 1.0, b, a)
        cfg = IntegratorConfig(dt=0.01, t_end=60.0, snapshot_stride=100)
        traj = integrate_logistic(np.full(2, 0.1), cfg, 1.0, K, b, a)
        np.testing.assert_allclose(traj.fields[-1], stat.field, atol=1e-6)


BAD_DYNAMICS_INPUTS = [
    pytest.param(lambda: State(S=np.ones(2), I=np.ones(3)), InvalidStateError,
                 "S and I must have the same shape", id="state-shape"),
    pytest.param(lambda: estimate_rate(np.linspace(0.0, 1.0, 11), np.ones(10)),
                 InvalidArgumentError,
                 "times and values must be 1-d and equal length", id="rate-shape"),
    pytest.param(lambda: estimate_rate(np.linspace(0.0, 1.0, 3), [1.0, 2.0, np.inf]),
                 InvalidArgumentError, "times and values must be finite",
                 id="rate-value-inf"),
    pytest.param(lambda: estimate_rate([0.0, np.nan, 1.0], np.ones(3)),
                 InvalidArgumentError, "times and values must be finite",
                 id="rate-time-nan"),
    pytest.param(lambda: estimate_rate(np.linspace(0.0, 1.0, 11), np.zeros(11)),
                 InvalidWindowError, "series has no positive values",
                 id="rate-no-positive"),
    pytest.param(lambda: estimate_rate(np.linspace(0.0, 1.0, 11), np.ones(11),
                                       window=(0.0, 0.05)),
                 InvalidWindowError, "window contains fewer than two samples",
                 id="rate-one-sample"),
]


@pytest.mark.parametrize("call, error, message", BAD_DYNAMICS_INPUTS)
def test_invalid_dynamics_input_rejected(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestEstimateRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 201)
        est = estimate_rate(t, np.exp(-t), window=(0.0, 10.0))
        assert est.slope == pytest.approx(-1.0, abs=1e-6)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 50)
        est = estimate_rate(t, np.full(50, 2.5))
        assert est.slope == pytest.approx(0.0, abs=1e-12)
        assert est.r_squared == 1.0

    def test_default_window_is_tail_half(self):
        t = np.linspace(0.0, 10.0, 101)
        est = estimate_rate(t, np.exp(-0.5 * t))
        assert est.window[0] == pytest.approx(5.0)
        assert est.window[1] == pytest.approx(10.0)

    def test_nonpositive_values_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        v = np.ones(11)
        v[5] = 0.0
        with pytest.raises(InvalidWindowError):
            estimate_rate(t, v, window=(0.0, 1.0))

    def test_window_outside_span_rejected(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(InvalidWindowError):
            estimate_rate(t, np.ones(11), window=(0.5, 2.0))


# the persistence-n64 benchmark instance at seed 1
PERSISTENCE_N64 = """
scenario = simulate
grid.n = 64
domain.left = 0.0
domain.right = 1.0
kernel.family = triangle
kernel.h = 0.25
beta.family = bump
beta.base = 1.0
beta.amp = 1.501182
beta.center = 0.518019
beta.width = 0.2
gamma.family = constant
gamma.value = 0.9
lambda.family = constant
lambda.value = 1.0
d_S = 1.0
d_I = 0.1
integrator.dt = 0.05
integrator.t_end = 60.0
integrator.snapshot_stride = 10
init.s.family = constant
init.s.value = 0.928832
init.i.family = constant
init.i.value = 0.117946
"""


def test_persistence_decays_at_the_linearized_rate():
    # the sup distance to (S*, I*) decays at the top eigenvalue of the
    # dense 2n x 2n Jacobian there: measured -0.021652 against -0.021690
    config = parse_config(PERSISTENCE_N64)
    inst = config.instance
    K, params = inst.dispersal, inst.params
    beta, gamma, lam = inst.beta.values, inst.gamma.values, inst.lam.values
    dfe = solve_disease_free(K, params.d_S, lam).field
    pair = solve_endemic(K, params, beta, gamma, dfe)
    traj = integrate(config.initial, config.integrator, params, K, beta, gamma, lam)
    target = np.stack([pair.susceptible, pair.infected])
    distance = np.abs(traj.states - target).max(axis=(1, 2))
    est = estimate_rate(traj.times, distance, window=(40.0, 60.0))

    # infection b S I / (S + I): its partial derivatives at (S*, I*)
    S, I = pair.susceptible, pair.infected
    by_s, by_i = beta * I**2 / (S + I) ** 2, beta * S**2 / (S + I) ** 2
    L = K.entries - np.eye(K.n)
    jacobian = np.block([
        [params.d_S * L - np.diag(by_s), np.diag(gamma - by_i)],
        [np.diag(by_s), params.d_I * L + np.diag(by_i - gamma)]])
    top = float(np.max(scipy.linalg.eigvals(jacobian).real))
    assert top < 0
    assert est.r_squared > 0.9999
    assert est.slope == pytest.approx(top, rel=0.01)


class TestCheckConvergence:
    def test_already_at_target(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        cfg = IntegratorConfig(dt=0.01, t_end=1.0, snapshot_stride=10)
        traj = integrate(State(S=np.ones(2), I=np.ones(2)), cfg, params, K,
                         beta, gamma, lam)
        hit = check_convergence(traj, s_target=np.ones(2), i_target=np.ones(2),
                                tol=1e-6)
        assert hit == 0.0

    def test_wrong_target_never_converges(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        cfg = IntegratorConfig(dt=0.01, t_end=5.0, snapshot_stride=10)
        traj = integrate(State(S=np.full(2, 2.0), I=np.full(2, 0.1)), cfg,
                         params, K, beta, gamma, lam)
        assert check_convergence(traj, s_target=np.full(2, 40.0),
                                 tol=1e-4) is None

    def test_detects_entry_time(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        dfe = solve_disease_free(K, 1.0, lam)
        pair = solve_endemic(K, params, beta, gamma, dfe.field)
        cfg = IntegratorConfig(dt=0.01, t_end=80.0, snapshot_stride=10)
        traj = integrate(State(S=np.full(2, 2.0), I=np.full(2, 0.1)), cfg,
                         params, K, beta, gamma, lam)
        hit = check_convergence(traj, s_target=pair.susceptible,
                                i_target=pair.infected, tol=1e-4)
        assert hit is not None and 0.0 < hit < 80.0


def test_sandwich_brackets_infection_past_entry_time(endemic_setup):
    # once the total population is within eps of the disease-free profile,
    # the two logistic problems with damping beta/(dfe +- eps) bracket the
    # infected compartment
    grid, K, beta, gamma, lam, params = endemic_setup
    dfe = solve_disease_free(K, 1.0, lam).field
    eps = 0.05
    cfg = IntegratorConfig(dt=0.01, t_end=80.0, snapshot_stride=10)
    full = integrate(State(S=np.full(2, 2.5), I=np.full(2, 0.2)), cfg,
                     params, K, beta, gamma, lam)
    totals = [s.S + s.I for s in full.snapshots]
    entry = next(k for k, v in enumerate(totals)
                 if np.max(np.abs(v - dfe)) <= eps)
    t_entry = full.times[entry]
    assert t_entry < 80.0

    i_entry = full.snapshots[entry].I
    b = beta.values - gamma.values
    tail_cfg = IntegratorConfig(dt=0.01, t_end=80.0 - t_entry,
                                snapshot_stride=10)
    over = integrate_logistic(i_entry, tail_cfg, 1.0, K, b,
                              beta.values / (dfe + eps))
    under = integrate_logistic(i_entry, tail_cfg, 1.0, K, b,
                               beta.values / (dfe - eps))
    for j, t in enumerate(over.times):
        snap = full.snapshots[entry + j]
        assert np.isclose(full.times[entry + j], t_entry + t)
        assert np.all(snap.I <= over.fields[j] + 1e-9)
        assert np.all(snap.I >= under.fields[j] - 1e-9)


def test_trajectory_times_strictly_increasing(endemic_setup):
    grid, K, beta, gamma, lam, params = endemic_setup
    cfg = IntegratorConfig(dt=0.01, t_end=1.05, snapshot_stride=10)
    traj = integrate(State(S=np.ones(2), I=np.ones(2)), cfg, params, K,
                     beta, gamma, lam)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(1.05)


def test_step_halving_stability(endemic_setup):
    # halving dt moves the reported final state by far less than the
    # acceptance tolerance
    grid, K, beta, gamma, lam, params = endemic_setup
    finals = []
    for dt in (0.02, 0.01):
        cfg = IntegratorConfig(dt=dt, t_end=40.0, snapshot_stride=100)
        traj = integrate(State(S=np.full(2, 2.0), I=np.full(2, 0.1)), cfg,
                         params, K, beta, gamma, lam)
        finals.append(np.concatenate([traj.snapshots[-1].S,
                                      traj.snapshots[-1].I]))
    assert np.max(np.abs(finals[0] - finals[1])) < 0.1 * 1e-4


@pytest.mark.parametrize("integrator", ["integrate", "linear_infection",
                                        "total_population", "logistic"])
def test_negative_initial_data_rejected(endemic_setup, integrator):
    grid, K, beta, gamma, lam, params = endemic_setup
    cfg = IntegratorConfig(dt=0.01, t_end=1.0)
    w = np.array([-0.1, 1.0])
    runs = {
        "integrate": lambda: integrate(State(S=np.ones(2), I=w), cfg, params,
                                       K, beta, gamma, lam),
        "linear_infection": lambda: integrate_linear_infection(w, cfg, 1.0, K,
                                                               beta, gamma),
        "total_population": lambda: integrate_total_population(w, cfg, 1.0, K,
                                                               lam),
        "logistic": lambda: integrate_logistic(w, cfg, 1.0, K,
                                               beta.values - gamma.values,
                                               np.ones(2)),
    }
    with pytest.raises(InvalidStateError):
        runs[integrator]()


def _loop_norms(traj, s_target):
    """Norm histories computed snapshot by snapshot."""
    norm_i = np.array([float(np.max(np.abs(s.I))) for s in traj.snapshots])
    if s_target is None:
        return norm_i, None
    return norm_i, np.array([float(np.max(np.abs(s.S - s_target)))
                             for s in traj.snapshots])


def _loop_convergence(traj, s_target, i_target, tol):
    """check_convergence written as a loop over snapshots."""
    dist = np.zeros(len(traj.snapshots))
    for k, snap in enumerate(traj.snapshots):
        d = 0.0
        if s_target is not None:
            d = max(d, float(np.max(np.abs(snap.S - s_target))))
        if i_target is not None:
            d = max(d, float(np.max(np.abs(snap.I - i_target))))
        dist[k] = d
    inside = dist <= tol
    if not inside[-1]:
        return None
    above = np.nonzero(~inside)[0]
    first = 0 if above.size == 0 else above[-1] + 1
    return float(traj.times[first])


@pytest.mark.parametrize("s_given", [True, False])
@pytest.mark.parametrize("i_given", [True, False])
def test_stack_reductions_match_snapshot_loop(endemic_setup, s_given, i_given):
    grid, K, beta, gamma, lam, params = endemic_setup
    dfe = solve_disease_free(K, 1.0, lam)
    pair = solve_endemic(K, params, beta, gamma, dfe.field)
    s_target = pair.susceptible if s_given else None
    i_target = pair.infected if i_given else None
    cfg = IntegratorConfig(dt=0.01, t_end=40.0, snapshot_stride=7)
    traj = integrate(State(S=np.array([2.0, 1.5]), I=np.array([0.1, 0.3])),
                     cfg, params, K, beta, gamma, lam, s_target=s_target)

    norm_i, norm_s = _loop_norms(traj, s_target)
    np.testing.assert_array_equal(traj.sup_norm_I, norm_i)
    if s_target is None:
        assert traj.sup_norm_S_minus_target is None
    else:
        np.testing.assert_array_equal(traj.sup_norm_S_minus_target, norm_s)

    if s_target is None and i_target is None:
        with pytest.raises(InvalidArgumentError):
            check_convergence(traj)
        return
    for tol in (1e-2, 1e-4, 1e-13):
        assert (check_convergence(traj, s_target, i_target, tol)
                == _loop_convergence(traj, s_target, i_target, tol))


def test_snapshots_are_views_into_the_stack(endemic_setup):
    grid, K, beta, gamma, lam, params = endemic_setup
    cfg = IntegratorConfig(dt=0.01, t_end=1.05, snapshot_stride=10)
    traj = integrate(State(S=np.ones(2), I=np.full(2, 0.5)), cfg, params, K,
                     beta, gamma, lam)
    assert traj.states.shape == (len(traj.times), 2, 2)
    assert traj.snapshots is traj.snapshots
    for k, snap in enumerate(traj.snapshots):
        assert snap.t == traj.times[k]
        assert np.shares_memory(snap.S, traj.states)
        np.testing.assert_array_equal(snap.S, traj.states[k, 0])
        np.testing.assert_array_equal(snap.I, traj.states[k, 1])


class TestIntegrationFailure:
    """Both raise sites of the stepping loop carry the step reached and, for
    a dip, its depth."""

    def test_dip_carries_its_depth_and_step(self):
        # y' = -1 by explicit Euler: 1, 0.5, 0, then -0.5 at step 3
        cfg = IntegratorConfig(dt=0.5, t_end=2.0, method="explicit_euler")
        with pytest.raises(IntegrationFailure) as info:
            dynamics._run(np.ones(2), cfg, lambda y: -np.ones_like(y))
        assert str(info.value) == "state dipped to -5.000e-01 at t=1.5"
        assert info.value.residual == -0.5
        assert info.value.iterations == 3

    def test_non_finite_state_carries_its_step(self):
        # y' = 1e200 y: 1, then 5e199, then overflow at step 2
        cfg = IntegratorConfig(dt=0.5, t_end=2.0, method="explicit_euler")
        with np.errstate(over="ignore"), pytest.raises(IntegrationFailure) as info:
            dynamics._run(np.ones(2), cfg, lambda y: 1e200 * y)
        assert str(info.value) == "non-finite state at t=1"
        assert info.value.residual is None
        assert info.value.iterations == 2


@pytest.mark.parametrize("n", [64, 1024])
def test_lean_step_keeps_the_textbook_bits(n):
    # the right-hand side written into the product of K and the RK4 step
    # summed in one of its stages give the bits of the out-of-place
    # formulas, on a dense K (n = 64) and a matrix-free one (n = 1024);
    # reordering any operation of either breaks the equality
    K = assemble_dispersal(build_grid(n, DomainSpec(0.0, 1.0)),
                           KernelSpec.triangle(0.25))
    assert K.matrix_free == (n == 1024)
    rng = np.random.default_rng(n)
    beta, gamma, lam = (rng.uniform(0.5, 2.0, n) for _ in range(3))
    y = rng.uniform(0.0, 2.0, (2, n))
    y[:, :3] = 0.0  # nodes with no population take the masked branch
    before = y.copy()
    d_s, d_i, dt = 1.0, 0.1, 0.05

    def f(y):
        return dynamics._rhs_raw(y, d_s, d_i, K, beta, gamma, lam)

    S, I = y
    KS, KI = K.matvec(y)
    total = S + I
    infect = np.divide(beta * S * I, total, out=np.zeros_like(total),
                       where=total > 0.0)
    dS = d_s * (KS - S) + lam - infect + gamma * I
    dI = d_i * (KI - I) + infect - gamma * I
    np.testing.assert_array_equal(f(y), np.stack([dS, dI]))

    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    np.testing.assert_array_equal(dynamics._step(y, dt, f, "rk4"),
                                  y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    np.testing.assert_array_equal(dynamics._step(y, dt, f, "explicit_euler"),
                                  y + dt * k1)
    np.testing.assert_array_equal(y, before)
