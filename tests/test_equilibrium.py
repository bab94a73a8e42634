import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sis import (
    DispersalMatrix,
    DomainSpec,
    FieldSpec,
    InvalidArgumentError,
    KernelSpec,
    ModelParams,
    NoEndemicState,
    NoPositiveState,
    PreconditionError,
    SolverFailure,
    SolverInconsistency,
    UniquenessViolation,
    assemble_dispersal,
    build_grid,
    equilibrium,
    operators,
    sample_field_values,
    solve_disease_free,
    solve_endemic,
    solve_logistic_stationary,
    spectral,
)
from nonlocal_sis.experiments import random_instance

from conftest import KERNELS, const_field


class TestDiseaseFree:
    def test_hand_instance(self, two_cell_K):
        # (Id - K) u = 1 with equal rows: 0.5 u = 1
        res = solve_disease_free(two_cell_K, 1.0, np.ones(2))
        np.testing.assert_allclose(res.field, [2.0, 2.0], atol=1e-12)
        assert res.residual <= 1e-10

    def test_rate_scaling(self, two_cell_K):
        res = solve_disease_free(two_cell_K, 2.0, np.ones(2))
        np.testing.assert_allclose(res.field, [1.0, 1.0], atol=1e-12)

    def test_doubling_recruitment_doubles_state(self, two_cell_K):
        a = solve_disease_free(two_cell_K, 1.0, np.ones(2))
        b = solve_disease_free(two_cell_K, 1.0, np.full(2, 2.0))
        np.testing.assert_array_equal(b.field, 2.0 * a.field)

    def test_random_instances_positive_and_certified(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            inst = random_instance(rng, n_max=48)
            res = solve_disease_free(inst.dispersal, inst.params.d_S, inst.lam)
            assert np.all(res.field > 0)
            assert res.residual <= 1e-8

    @pytest.mark.parametrize("n", [64, 1024])
    def test_runs_no_eigensolve(self, n, monkeypatch):
        # dense below the crossover, Levinson above it
        def refuse(*args, **kwargs):
            raise AssertionError("solve_disease_free ran an eigensolve")

        monkeypatch.setattr(spectral, "_eigh_at", refuse)
        monkeypatch.setattr(spectral, "_lanczos_top", refuse)
        K = assemble_dispersal(build_grid(n, DomainSpec(0.0, 1.0)),
                               KernelSpec.triangle(0.25))
        res = solve_disease_free(K, 1.0, np.ones(n))
        assert np.all(res.field > 0) and res.residual <= 1e-8

    def test_non_dissipative_dispersal_rejected(self):
        # K = Id spends no mass: Id - K is singular
        K = DispersalMatrix(entries=np.eye(8),
                            grid=build_grid(8, DomainSpec(0.0, 1.0)))
        with pytest.raises(PreconditionError, match="not dissipative"):
            solve_disease_free(K, 1.0, np.ones(8))

    def test_corrupted_direct_solve_is_caught(self, two_cell_K, monkeypatch):
        fake_np = SimpleNamespace(**vars(np))
        fake_np.linalg = SimpleNamespace(
            solve=lambda a, b: np.linalg.solve(a, b) + 1e-6)
        monkeypatch.setattr(operators, "np", fake_np)
        with pytest.raises(SolverInconsistency):
            solve_disease_free(two_cell_K, 1.0, np.ones(2))

    def test_inconsistency_carries_diagnostics(self, two_cell_K, monkeypatch):
        fake_np = SimpleNamespace(**vars(np))
        fake_np.linalg = SimpleNamespace(
            solve=lambda a, b: np.linalg.solve(a, b) + 1e-6)
        monkeypatch.setattr(operators, "np", fake_np)
        with pytest.raises(SolverInconsistency) as info:
            solve_disease_free(two_cell_K, 1.0, np.ones(2))
        assert info.value.iterations == 1
        # (Id - K) maps the 1e-6 error to a residual of 0.5e-6
        assert 4e-7 <= info.value.residual <= 6e-7

    def test_nan_residual_is_caught(self, two_cell_K, monkeypatch):
        monkeypatch.setattr(equilibrium, "_fresh_residual", lambda *args: math.nan)
        with pytest.raises(SolverInconsistency):
            solve_disease_free(two_cell_K, 1.0, np.ones(2))


def _fsum_gain(K, u):
    """``K u`` with every entry a correctly rounded ``math.fsum`` of its
    row's products: the independent oracle for ``certified_product``."""
    return np.array([math.fsum(row * u) for row in K.entries])


def _fsum_residual(K, d, u, reaction):
    """Sup-norm of ``d (K u - u) + reaction`` on the ``math.fsum`` gain:
    the independent oracle for ``_fresh_residual``, which must bound it."""
    return float(np.max(np.abs(d * (_fsum_gain(K, u) - u) + reaction)))


@given(kernel=KERNELS, n=st.one_of(st.integers(8, 64), st.integers(512, 1100)),
       length=st.floats(0.5, 2.0), d=st.floats(0.1, 5.0),
       scaling=st.sampled_from(["well", "wide"]), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_fresh_residual_bounds_fsum_oracle(kernel, n, length, d, scaling, seed):
    # dense rows below the crossover, band sums from the column above it
    K = assemble_dispersal(build_grid(n, DomainSpec(0.0, length)), kernel)
    assert K.matrix_free == (n >= 512)
    rng = np.random.default_rng(seed)
    signs = rng.choice([-1.0, 1.0], n)
    if scaling == "well":
        u = signs * rng.uniform(0.1, 3.0, n)
    else:
        u = signs * 10.0 ** rng.uniform(-300.0, 3.0, n)
    gain = _fsum_gain(K, u)
    reaction = d * (u - gain) + rng.normal(scale=1e-9, size=n)

    certified = equilibrium._fresh_residual(K, d, u, reaction)
    oracle = float(np.max(np.abs(d * (gain - u) + reaction)))
    assert oracle <= certified
    if scaling == "well":
        assert certified - oracle <= 1e-10
    got, error = K.certified_product(u)
    assert np.all(np.abs(got - gain) <= error + 2.0**-53 * np.abs(gain))


def test_band_sums_certify_a_large_field_under_a_narrow_kernel():
    # a narrow kernel leaks little mass, so the field reaches ~3e4
    K = assemble_dispersal(build_grid(1100, DomainSpec(0.0, 1.0)),
                           KernelSpec.tophat(0.005))
    assert K.matrix_free
    res = solve_disease_free(K, 1.0, np.ones(K.n))
    assert np.max(res.field) > 1e4
    oracle = _fsum_residual(K, 1.0, res.field, np.ones(K.n))
    assert oracle <= res.residual <= 1e-9


ONES = np.ones(2)

# Each call hands one stationary solver an input it must refuse on the
# two-cell instance (n = 2, d_S = d_I = 1).
BAD_STATIONARY_INPUTS = {
    "disease_free-d_S-nan": lambda K, p: solve_disease_free(K, math.nan, ONES),
    "disease_free-d_S-negative": lambda K, p: solve_disease_free(K, -1.0, ONES),
    "disease_free-d_S-zero": lambda K, p: solve_disease_free(K, 0.0, ONES),
    "disease_free-lam-nan": lambda K, p: solve_disease_free(
        K, 1.0, np.array([1.0, math.nan])),
    "disease_free-lam-length": lambda K, p: solve_disease_free(K, 1.0, np.ones(3)),
    "endemic-beta-length": lambda K, p: solve_endemic(
        K, p, np.full(3, 2.0), 0.5 * ONES, 2.0 * ONES),
    # beta - gamma = 2 > 0, but neither rate is a rate
    "endemic-beta-gamma-negative": lambda K, p: solve_endemic(
        K, p, -1.0 * ONES, -3.0 * ONES, 2.0 * ONES),
    "endemic-dfe-length": lambda K, p: solve_endemic(
        K, p, 2.0 * ONES, 0.5 * ONES, np.full(3, 2.0)),
    "endemic-dfe-nan": lambda K, p: solve_endemic(
        K, p, 2.0 * ONES, 0.5 * ONES, np.array([2.0, math.nan])),
    "endemic-dfe-zero": lambda K, p: solve_endemic(
        K, p, 2.0 * ONES, 0.5 * ONES, np.array([2.0, 0.0])),
    "logistic-a-length": lambda K, p: solve_logistic_stationary(
        K, 1.0, ONES, np.ones(3)),
    "logistic-a-nan": lambda K, p: solve_logistic_stationary(
        K, 1.0, ONES, np.array([1.0, math.nan])),
}


@pytest.mark.parametrize("call", BAD_STATIONARY_INPUTS.values(),
                         ids=BAD_STATIONARY_INPUTS.keys())
def test_stationary_solvers_reject_invalid_inputs(call, endemic_setup):
    _, K, _, _, _, params = endemic_setup
    with pytest.raises(InvalidArgumentError):
        call(K, params)


def test_growth_inside_sign_deadband_admits_no_positive_state(endemic_setup,
                                                               monkeypatch):
    # the runner and both solvers read a growth rate within
    # spectral.SIGN_DEADBAND of zero as zero
    _, K, beta, gamma, lam, params = endemic_setup
    dfe = solve_disease_free(K, params.d_S, lam).field
    growth = equilibrium.infection_growth_rate
    monkeypatch.setattr(equilibrium, "infection_growth_rate", lambda *args:
                        dataclasses.replace(growth(*args), value=5e-9))
    with pytest.raises(NoEndemicState):
        solve_endemic(K, params, beta, gamma, dfe)
    with pytest.raises(NoPositiveState):
        solve_logistic_stationary(K, params.d_I, beta.values - gamma.values,
                                  beta.values / dfe)


def _persistence_n64(d_S):
    """The persistence-n64 benchmark instance (triangle h = 0.25, n = 64,
    bump beta, unit recruitment): K, beta and the disease-free state at
    ``d_S``."""
    grid = build_grid(64, DomainSpec(0.0, 1.0))
    K = assemble_dispersal(grid, KernelSpec.triangle(0.25))
    beta = sample_field_values(FieldSpec.bump(1.0, 1.5, 0.5, 0.2), grid)
    return K, beta, solve_disease_free(K, d_S, np.ones(64)).field


class TestTwoSidedDriver:
    def test_disagreeing_limits_raise(self, two_cell_K, monkeypatch):
        # on constants the two-cell dispersal is -0.5 u, so the constant
        # states solve -u (u - 1)(u - 2)(u - 3) = 0: the downward iteration
        # stops at 3, and the upward one at 1, where no node rises any more
        def reaction(u):
            return 0.5 * u - u * (u - 1.0) * (u - 2.0) * (u - 3.0)

        def slope(u):
            return 0.5 - (4.0 * u**3 - 18.0 * u**2 + 22.0 * u - 6.0)

        calls = self._count_matvecs(two_cell_K, monkeypatch)
        with pytest.raises(UniquenessViolation, match="disagree") as info:
            equilibrium._two_sided_solve(two_cell_K, 1.0, reaction, slope, 60.0,
                                         np.full(2, 0.5), np.full(2, 4.0))
        # the runner reports the gap and the steps of both sides: one F per
        # step of either side, F at the lower end serving the first relaxed
        # step, and none after the last (dense Newton solves make no product)
        assert isinstance(info.value, SolverInconsistency)
        assert info.value.residual == pytest.approx(2.0, abs=1e-9)
        assert info.value.iterations == calls.total

    def test_lower_end_that_is_no_subsolution_fails_at_once(self, two_cell_K):
        # F(sub) > 0 at the first node and < 0 at the second
        def reaction(u):
            return 1.5 * u - u * u

        sub = np.array([0.1, 2.0])
        values = 1.0 * (two_cell_K.matvec(sub) - sub) + reaction(sub)
        assert values[0] > 0 > values[1]
        with pytest.raises(SolverFailure, match="not a subsolution") as info:
            equilibrium._two_sided_solve(
                two_cell_K, 1.0, reaction, lambda u: 1.5 - 2.0 * u, 5.0, sub,
                np.full(2, 1.5))
        assert info.value.iterations == 0
        assert info.value.residual == -np.min(values) > 0

    def test_no_subsolution_reports_diagnostics(self, endemic_setup,
                                                monkeypatch):
        # a growth eigenvector of the wrong sign makes the closed-form lower
        # end fail the subsolution check before the first step
        grid, K, beta, gamma, lam, params = endemic_setup
        true_growth = equilibrium.infection_growth_rate

        def flipped(*args):
            pair = true_growth(*args)
            return SimpleNamespace(value=pair.value, vector=-pair.vector)

        monkeypatch.setattr(equilibrium, "infection_growth_rate", flipped)
        with pytest.raises(SolverFailure, match="subsolution") as info:
            solve_endemic(K, params, beta, gamma, np.full(2, 2.0))
        assert info.value.iterations == 0
        assert info.value.residual is not None and info.value.residual > 0

    def test_newton_cap_reports_diagnostics(self, endemic_setup, monkeypatch):
        grid, K, beta, gamma, lam, params = endemic_setup
        dfe = solve_disease_free(K, params.d_S, lam).field
        monkeypatch.setattr(equilibrium, "NEWTON_CAP", 1)
        with pytest.raises(SolverFailure, match="Newton") as info:
            solve_endemic(K, params, beta, gamma, dfe)
        # on constants F(I) = I - I^2: one Newton step from 2 lands on 4/3
        assert info.value.iterations == 1
        assert info.value.residual == pytest.approx(4.0 / 9.0)

    def test_failing_newton_side_stops_the_solve_at_once(self, monkeypatch):
        # Newton runs first, so the capped Newton pass raises before the
        # ~40,000 relaxed steps begin
        K, beta, dfe = _persistence_n64(d_S=1.0)
        calls = self._count_matvecs(K, monkeypatch)
        monkeypatch.setattr(equilibrium, "NEWTON_CAP", 1)
        with pytest.raises(SolverFailure, match="Newton") as info:
            solve_endemic(K, ModelParams(d_S=1.0, d_I=0.1), beta,
                          np.full(64, 0.9), dfe)
        assert info.value.iterations == 1
        # growth-rate residual, F at both ends, F after the one Newton step
        assert calls.total <= 5

    def test_singular_newton_step_reports_diagnostics(self, two_cell_K):
        # a wrong slope of 0.5 makes -J = [[0.25, -0.25], [-0.25, 0.25]]
        with pytest.raises(SolverFailure, match="Jacobian solve") as info:
            equilibrium._two_sided_solve(
                two_cell_K, 1.0, lambda u: 1.5 * u - u * u,
                lambda u: np.full(2, 0.5), 5.0, np.full(2, 0.1),
                np.full(2, 1.5))
        # |F(1.5)| on constants, where F(u) = u - u^2
        assert info.value.iterations == 0
        assert info.value.residual == pytest.approx(0.75)

    def test_stalled_relaxed_pass_reports_diagnostics(self, two_cell_K,
                                                      monkeypatch):
        # on constants F(u) = u - u^2, so F(0.5) = 0.25, and the first
        # relaxed step 0.25 / rho is below half an ulp of 0.5: no node
        # rises, the pass stops there, and its limit 0.5 disagrees with the
        # Newton limit 1
        assert 0.5 + 0.25 / 1e17 == 0.5
        calls = self._count_matvecs(two_cell_K, monkeypatch)
        with pytest.raises(UniquenessViolation, match="disagree") as info:
            equilibrium._two_sided_solve(
                two_cell_K, 1.0, lambda u: 1.5 * u - u * u,
                lambda u: 1.5 - 2.0 * u, 1e17, np.full(2, 0.5),
                np.full(2, 1.5))
        assert info.value.residual == pytest.approx(0.5, abs=1e-10)
        # the Newton steps and the one relaxed step
        assert info.value.iterations == calls.total

    def test_relaxed_cap_reports_the_gap(self, two_cell_K, monkeypatch):
        # on constants F(u) = u - u^2 and the Newton limit is 1, so after
        # three relaxed steps the gap is 1 - lo
        monkeypatch.setattr(equilibrium, "ITERATION_CAP", 3)
        with pytest.raises(SolverFailure, match="iteration cap") as info:
            equilibrium._two_sided_solve(
                two_cell_K, 1.0, lambda u: 1.5 * u - u * u,
                lambda u: 1.5 - 2.0 * u, 5.0, np.full(2, 0.5),
                np.full(2, 1.5))
        lo = 0.5
        for _ in range(3):
            lo += (lo - lo * lo) / 5.0
        assert info.value.iterations == 3
        assert info.value.residual == pytest.approx(1.0 - lo, abs=1e-10)

    def test_crossing_limits_raise(self, two_cell_K, monkeypatch):
        # on constants F(u) = -(u - 1)(u - 2)(u - 3) exp(-1.5 u): F is flat
        # at high = 4, so the first Newton step lands on the root 1, and the
        # relaxed map with a rho far too small is not order-preserving: its
        # first step from 0.5 overshoots to high, 3 above the Newton limit,
        # where the gap is negative and the pass stops
        def reaction(u):
            return 0.5 * u - (u - 1.0) * (u - 2.0) * (u - 3.0) * np.exp(-1.5 * u)

        def slope(u):
            cubic = (u - 1.0) * (u - 2.0) * (u - 3.0)
            return 0.5 - (3.0 * u**2 - 12.0 * u + 11.0 - 1.5 * cubic) * np.exp(-1.5 * u)

        calls = self._count_matvecs(two_cell_K, monkeypatch)
        with pytest.raises(UniquenessViolation, match="crossed") as info:
            equilibrium._two_sided_solve(two_cell_K, 1.0, reaction, slope, 0.1,
                                         np.full(2, 0.5), np.full(2, 4.0))
        assert info.value.residual == pytest.approx(3.0, abs=1e-8)
        assert info.value.iterations == calls.total

    def test_nan_certified_residual_is_caught(self, endemic_setup, monkeypatch):
        grid, K, beta, gamma, lam, params = endemic_setup
        dfe = solve_disease_free(K, params.d_S, lam).field
        pair = solve_endemic(K, params, beta, gamma, dfe)
        monkeypatch.setattr(equilibrium, "_fresh_residual", lambda *args: math.nan)
        with pytest.raises(SolverInconsistency, match="certified residual") as info:
            solve_endemic(K, params, beta, gamma, dfe)
        # the steps of both passes
        assert info.value.iterations == pair.iterations
        assert math.isnan(info.value.residual)

    @staticmethod
    def _count_matvecs(K, monkeypatch):
        """Count ``K.matvec`` calls."""
        calls = SimpleNamespace(total=0)
        matvec = K.matvec

        def counted_matvec(u):
            calls.total += 1
            return matvec(u)

        monkeypatch.setattr(K, "matvec", counted_matvec)
        return calls

    def test_one_dispersal_product_per_endemic_step(self, two_cell_K,
                                                    monkeypatch):
        # growth rate 0.05, just above threshold: over a thousand relaxed
        # steps upward, then a few Newton steps downward
        dfe = solve_disease_free(two_cell_K, 1.0, np.ones(2)).field
        calls = self._count_matvecs(two_cell_K, monkeypatch)
        pair = solve_endemic(two_cell_K, ModelParams(1.0, 1.0),
                             np.full(2, 1.05), np.full(2, 0.5), dfe)
        assert pair.iterations >= 1000
        # the growth-rate residual, then one F per step of either side; a
        # dense Newton solve makes no product
        assert calls.total == pair.iterations + 1

    def test_one_dispersal_product_per_logistic_step(self, two_cell_K,
                                                     monkeypatch):
        # principal eigenvalue 0.02: over a thousand relaxed steps upward,
        # then a few Newton steps downward
        calls = self._count_matvecs(two_cell_K, monkeypatch)
        res = solve_logistic_stationary(two_cell_K, 1.0, np.full(2, 0.52),
                                        np.ones(2))
        assert res.iterations >= 1000
        assert calls.total == res.iterations + 1


class TestEndemic:
    def test_hand_instance(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        dfe = solve_disease_free(K, params.d_S, lam)
        pair = solve_endemic(K, params, beta, gamma, dfe.field)
        np.testing.assert_allclose(pair.infected, [1.0, 1.0], atol=1e-8)
        np.testing.assert_allclose(pair.susceptible, [1.0, 1.0], atol=1e-8)
        assert pair.bracket_gap <= 1e-8
        assert pair.residual <= 1e-8

    def test_zero_growth_raises(self, two_cell_K):
        # unit transmission against half recovery puts the growth rate at 0
        params = ModelParams(1.0, 1.0)
        with pytest.raises(NoEndemicState):
            solve_endemic(two_cell_K, params, np.ones(2), np.full(2, 0.5),
                          np.full(2, 2.0))

    def test_unequal_rates_bound_and_conservation(self, two_cell):
        grid, kernel = two_cell
        from nonlocal_sis import assemble_dispersal
        K = assemble_dispersal(grid, kernel)
        params = ModelParams(d_S=1.0, d_I=0.5)
        beta, gamma = const_field(grid, 2.0), const_field(grid, 0.5)
        dfe = solve_disease_free(K, params.d_S, const_field(grid, 1.0))
        pair = solve_endemic(K, params, beta, gamma, dfe.field)
        ratio = params.d_S / params.d_I
        assert np.all(pair.infected > 0)
        assert np.all(pair.infected < ratio * dfe.field)
        np.testing.assert_allclose(
            params.d_S * pair.susceptible + params.d_I * pair.infected,
            params.d_S * dfe.field, atol=1e-8)
        assert pair.residual <= 1e-8

    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0])
    def test_random_instances_obey_bounds(self, ratio):
        rng = np.random.default_rng(32)
        done = 0
        while done < 6:
            inst = random_instance(rng, n_max=32, risk="high",
                                   dispersal_ratio=ratio)
            from nonlocal_sis import infection_growth_rate
            K = inst.dispersal
            d_i = inst.params.d_I
            while infection_growth_rate(K, d_i, inst.gap).value < 0.05:
                d_i *= 0.5
            params = ModelParams(d_S=ratio * d_i, d_I=d_i)
            dfe = solve_disease_free(K, params.d_S, inst.lam)
            pair = solve_endemic(K, params, inst.beta, inst.gamma, dfe.field)
            assert np.all(pair.infected > 0)
            assert np.all(pair.infected < (params.d_S / params.d_I) * dfe.field)
            assert np.all(pair.susceptible > 0)
            np.testing.assert_allclose(
                params.d_S * pair.susceptible + params.d_I * pair.infected,
                params.d_S * dfe.field, atol=1e-8)
            # the infection pressure's denominator stays above its floor
            denom = (params.d_S * dfe.field
                     + (params.d_S - params.d_I) * pair.infected)
            assert np.all(denom >= params.d_S * dfe.field * min(1.0, ratio))
            assert pair.bracket_gap <= 1e-8
            assert pair.monotone_defect <= 1e-12
            done += 1

    @pytest.mark.parametrize("delta", [1e-6, 1e-7])
    def test_near_threshold_fails_at_the_cap(self, delta, monkeypatch):
        # the persistence-n64 benchmark instance at d_I = (1 - delta) d*:
        # the residual at the subsolution is already tiny, yet the lower pass
        # is still about 11 delta below the Newton limit, so it runs on the
        # gap to its cap and reports the gap, not a false UniquenessViolation
        K, beta, dfe = _persistence_n64(d_S=1.0)
        gamma = np.full(64, 0.9)
        d_I = (1.0 - delta) * spectral.critical_dispersal_rate(
            K, beta, gamma).d_critical
        monkeypatch.setattr(equilibrium, "ITERATION_CAP", 5_000)
        with pytest.raises(SolverFailure, match="iteration cap") as info:
            solve_endemic(K, ModelParams(d_S=1.0, d_I=d_I), beta, gamma, dfe)
        assert info.value.iterations == 5_000
        # the gap: above AGREEMENT_TOL, below the bracket's top max(dfe) / d_I
        assert equilibrium.AGREEMENT_TOL < info.value.residual < np.max(dfe) / d_I

    @pytest.mark.xfail(strict=True, raises=SolverFailure, reason=(
        "ROADMAP item 2: the loose relaxation constant (rho ~ 4512 here) "
        "needs over 100,000 relaxed steps; the tight one (~4.7) needs ~600"))
    def test_fast_susceptible_dispersal_solves(self, monkeypatch):
        # the persistence-n64 benchmark instance with d_S = 4; a lower cap
        # makes the loose constant fail in a fraction of a second
        K, beta, dfe = _persistence_n64(d_S=4.0)
        params = ModelParams(d_S=4.0, d_I=0.1)
        monkeypatch.setattr(equilibrium, "ITERATION_CAP", 5_000)
        pair = solve_endemic(K, params, beta, np.full(64, 0.9), dfe)
        assert pair.bracket_gap <= 1e-8
        assert pair.residual <= 1e-8


class TestLogisticStationary:
    def test_hand_instance(self, two_cell_K):
        # constant coefficients: root of (b - d*lam1) - a*u = 0
        res = solve_logistic_stationary(two_cell_K, 1.0, np.full(2, 1.5),
                                        np.ones(2))
        np.testing.assert_allclose(res.field, [1.0, 1.0], atol=1e-8)
        assert res.residual <= 1e-8

    def test_negative_growth_everywhere(self, two_cell_K):
        with pytest.raises(NoPositiveState):
            solve_logistic_stationary(two_cell_K, 1.0, np.full(2, -1.0),
                                      np.ones(2))

    def test_nonpositive_damping_rejected(self, two_cell_K):
        with pytest.raises(NoPositiveState):
            solve_logistic_stationary(two_cell_K, 1.0, np.ones(2),
                                      np.array([1.0, 0.0]))

    def test_joint_scaling_leaves_constant_state_fixed(self, two_cell_K):
        # scaling (b - d*lam1) and a together keeps the constant root
        base = solve_logistic_stationary(two_cell_K, 1.0, np.full(2, 1.5),
                                         np.ones(2))
        lam1 = 0.5
        factor = 3.0
        b2 = factor * (1.5 - 1.0 * lam1) + 1.0 * lam1
        scaled = solve_logistic_stationary(two_cell_K, 1.0, np.full(2, b2),
                                           np.full(2, factor))
        np.testing.assert_allclose(scaled.field, base.field, atol=1e-8)

    def test_agrees_with_endemic_for_equal_rates(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        dfe = solve_disease_free(K, params.d_S, lam)
        pair = solve_endemic(K, params, beta, gamma, dfe.field)
        logi = solve_logistic_stationary(K, params.d_I, beta.values - gamma.values,
                                         beta.values / dfe.field)
        np.testing.assert_allclose(logi.field, pair.infected, atol=1e-8)

    def test_bracket_and_positivity_random(self):
        rng = np.random.default_rng(33)
        done = 0
        while done < 8:
            inst = random_instance(rng, n_max=32, risk="high")
            from nonlocal_sis import infection_growth_rate
            K = inst.dispersal
            d = inst.params.d_I
            while infection_growth_rate(K, d, inst.gap).value < 0.05:
                d *= 0.5
            res = solve_logistic_stationary(K, d, inst.gap,
                                            inst.beta.values)
            assert np.all(res.field > 0)
            # the clamp at the constant supersolution
            assert np.all(res.field <= np.max(inst.gap) / np.min(inst.beta.values))
            assert res.residual <= 1e-8
            assert res.monotone_defect <= 1e-12
            done += 1
