import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from nonlocal_sis import (
    DispersalMatrix,
    DomainSpec,
    FieldSpec,
    InvalidArgumentError,
    InvalidBracketError,
    KernelSpec,
    PreconditionError,
    SolverFailure,
    assemble_dispersal,
    basic_reproduction_number,
    build_grid,
    compute_spectral_report,
    critical_dispersal_rate,
    dispersal_principal_eigenpair,
    extreme_eigenpair,
    infection_growth_rate,
    recovery_spectral_bound,
    sample_field_values,
)
from nonlocal_sis.experiments import random_instance
from nonlocal_sis import spectral

from conftest import const_field, graded


def dense_top(K, d, c):
    """Oracle: full symmetric eigendecomposition of ``d (K - Id) + diag(c)``
    in weighted coordinates."""
    w = np.sqrt(K.grid.weights)
    B = d * (K.entries - np.eye(K.n)) + np.diag(c)
    S = w[:, None] * B / w[None, :]
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    return vals[-1], vecs[:, -1] / w


class TestExtremeEigenpair:
    def test_two_cell_largest(self, two_cell_K):
        pair = extreme_eigenpair(two_cell_K, 1.0, np.zeros(2))
        assert pair.value == pytest.approx(-0.5, abs=1e-12)
        np.testing.assert_allclose(pair.vector, [1.0, 1.0], atol=1e-10)

    def test_diagonal_operator(self):
        # kernel with no off-diagonal overlap: the top is just the largest
        # reaction minus the dispersal loss
        grid = build_grid(3, DomainSpec(0.0, 3.0))
        K = assemble_dispersal(grid, KernelSpec.tophat(0.25))
        c = np.array([0.3, 2.0, -1.0])
        diag = np.diag(K.entries) - 1.0 + c
        assert extreme_eigenpair(K, 1.0, c).value == pytest.approx(
            diag.max(), abs=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            inst = random_instance(rng, n_max=48)
            pair = extreme_eigenpair(inst.dispersal, inst.params.d_I, inst.gap)
            assert pair.residual <= 1e-10
            assert np.max(np.abs(pair.vector)) == pytest.approx(1.0)

    def test_oracle_agreement(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            inst = random_instance(rng, n_max=48)
            K, d = inst.dispersal, inst.params.d_I
            pair = extreme_eigenpair(K, d, inst.gap)
            val, _ = dense_top(K, d, inst.gap)
            assert pair.value == pytest.approx(val, abs=1e-10)

    def test_nan_residual_raises(self, two_cell_K, monkeypatch):
        monkeypatch.setattr(spectral, "_residual", lambda *args: float("nan"))
        with pytest.raises(SolverFailure):
            extreme_eigenpair(two_cell_K, 1.0, np.zeros(2))

    def test_unreachable_tolerance_raises(self, two_cell_K, monkeypatch):
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(SolverFailure) as info:
            extreme_eigenpair(two_cell_K, 1.0, np.zeros(2))
        assert info.value.residual is not None


class TestUnequalCells:
    """A graded grid: K is self-adjoint only in the weighted pairing, so
    every eigensolve goes through ``D^{1/2} K D^{-1/2}``.  The oracles work
    on the nonsymmetric matrices as they stand."""

    @pytest.fixture
    def instance(self, graded_grid):
        K = assemble_dispersal(graded_grid, KernelSpec.triangle(0.25))
        x = graded_grid.nodes
        beta = 1.0 + 1.5 * np.exp(-(((x - 0.5) / 0.2) ** 2))
        return K, beta, np.full(K.n, 0.9)

    def test_growth_rate(self, instance):
        K, beta, gamma = instance
        d = 0.3
        pair = infection_growth_rate(K, d, beta - gamma)
        B = d * (K.entries - np.eye(K.n)) + np.diag(beta - gamma)
        vals, vecs = np.linalg.eig(B)
        top = int(np.argmax(vals.real))
        assert pair.value == pytest.approx(vals[top].real, abs=1e-10)
        v = vecs[:, top].real
        np.testing.assert_allclose(pair.vector, v / v[np.argmax(np.abs(v))],
                                   atol=1e-8)

    def test_r0(self, instance):
        K, beta, gamma = instance
        d = 0.3
        res = basic_reproduction_number(K, d, beta, gamma)
        A = d * (K.entries - np.eye(K.n)) - np.diag(gamma)
        M = np.diag(beta) @ np.linalg.inv(-A)
        assert res.value == pytest.approx(np.max(np.abs(np.linalg.eigvals(M))),
                                          abs=1e-8)

    def test_critical_rate(self, instance):
        # oracle: d* is the top eigenvalue of (Id - K)^{-1} diag(beta - gamma)
        K, beta, gamma = instance
        res = critical_dispersal_rate(K, beta, gamma)
        M = np.linalg.solve(np.eye(K.n) - K.entries, np.diag(beta - gamma))
        assert res.d_critical == pytest.approx(np.linalg.eigvals(M).real.max(),
                                               abs=1e-6)
        assert abs(res.growth_at_critical) <= 1e-9


@pytest.mark.parametrize("n", [1, 2, 17, 40, 64, 256])
def test_eigh_at_matches_scipy_eigh_bitwise(n):
    # the direct dsyevr call sizes its workspace as scipy.linalg.eigh does,
    # so both ends of the spectrum keep eigh's exact bits
    x = np.random.default_rng(n).standard_normal((n, n))
    a = x + x.T
    for k in {0, n - 1}:
        vals, vecs = scipy.linalg.eigh(a, subset_by_index=[k, k])
        value, vector = spectral._eigh_at(a.copy(), k)
        assert value == vals[0]
        np.testing.assert_array_equal(vector, vecs[:, 0])


def test_dense_eigensolve_memory():
    # one n x n array for the growth rate and for R0, two for the d* pencil,
    # plus LAPACK workspace: the matrices go to LAPACK without copies, and
    # on unequal cells the symmetric form of K is formed once, on first use
    n = 256

    def bump_instance(grid):
        beta = 1.0 + 1.5 * np.exp(-(((grid.nodes - 0.5) / 0.2) ** 2))
        K = assemble_dispersal(grid, KernelSpec.triangle(0.25))
        return K, beta, np.full(n, 0.9)

    K, beta, gamma = bump_instance(build_grid(n, DomainSpec(0.0, 1.0)))
    Kg, beta_g, gamma_g = bump_instance(graded(n))
    budgets = [
        (lambda: infection_growth_rate(K, 0.1, beta - gamma), 1.5),
        (lambda: basic_reproduction_number(K, 0.1, beta, gamma), 1.5),
        (lambda: critical_dispersal_rate(K, beta, gamma), 2.5),
        (lambda: infection_growth_rate(Kg, 0.1, beta_g - gamma_g), 1.5),
        (lambda: basic_reproduction_number(Kg, 0.1, beta_g, gamma_g), 1.5),
    ]
    for solve, budget in budgets:
        solve()  # first call: imports and LAPACK set-up
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget * n * n * 8


def _reference_generator(K, d, c):
    """Reference for the lean path's bits: the symmetric generator formed
    anew from K, with the diagonal added through ``flat``."""
    w = K.grid.weights
    if np.all(w == w[0]):
        Ks = K.entries
    else:
        sqrt_w = np.sqrt(w)
        Ks = sqrt_w[:, None] * K.entries / sqrt_w[None, :]
        Ks = 0.5 * (Ks + Ks.T)
    G = np.multiply(d, Ks)
    G.flat[::K.n + 1] += c - d
    return G


def _reference_apply(K, d, c, v):
    return d * (K.matvec(v) - v) + c * v


def _reference_growth(K, d, c):
    value, y = spectral._eigh_at(_reference_generator(K, d, c), K.n - 1)
    v = y / np.sqrt(K.grid.weights)
    k = int(np.argmax(np.abs(v)))
    if v[k] < 0:
        v = -v
    v = v / np.abs(v[k])
    return value, v, float(np.max(np.abs(_reference_apply(K, d, c, v) - value * v)))


def _reference_r0(K, d, beta, gamma):
    s = 1.0 / np.sqrt(beta)
    a = _reference_generator(K, d, -gamma)
    a *= s[:, None]
    a *= -s
    w, z = spectral._eigh_at(a, 0)
    value = 1.0 / w
    phi = s * z / np.sqrt(w * K.grid.weights)
    u = beta * phi
    scale = 1.0 / u[np.argmax(np.abs(u))]
    u, phi = scale * u, scale * phi
    residual = float(np.max(np.abs(u + value * _reference_apply(K, d, -gamma, phi))))
    return value, u, residual


def _bump_case(grid, kernel, rng):
    x = grid.nodes
    beta = 1.0 + rng.uniform(1.0, 2.0) * np.exp(-(((x - 0.5) / 0.2) ** 2))
    gamma = rng.uniform(0.5, 1.5) + 0.1 * np.sin(3.0 * x)
    return assemble_dispersal(grid, kernel), rng.uniform(0.05, 5.0), beta, gamma


def _lean_path_cases(graded_grid):
    rng = np.random.default_rng(2025)
    for _ in range(6):
        inst = random_instance(rng, n_max=64)
        yield inst.dispersal, inst.params.d_I, inst.beta.values, inst.gamma.values
    for n in (1, 2, 64, 256):
        grid = build_grid(n, DomainSpec(0.0, 1.0))
        kernel = KernelSpec.tophat(1.0) if n < 64 else KernelSpec.triangle(0.25)
        yield _bump_case(grid, kernel, rng)
    yield _bump_case(graded_grid, KernelSpec.triangle(0.25), rng)
    yield _bump_case(graded(256), KernelSpec.triangle(0.25), rng)


def test_lean_eigensolve_path_keeps_every_bit(graded_grid):
    # the cached symmetric form, the strided diagonal and the in-place
    # residuals give the bits of the out-of-place reference formulas
    for K, d, beta, gamma in _lean_path_cases(graded_grid):
        growth = infection_growth_rate(K, d, beta - gamma)
        value, vector, residual = _reference_growth(K, d, beta - gamma)
        assert growth.value == value and growth.residual == residual
        np.testing.assert_array_equal(growth.vector, vector)
        form = K.symmetric
        r0 = basic_reproduction_number(K, d, beta, gamma)
        value, vector, residual = _reference_r0(K, d, beta, gamma)
        assert r0.value == value and r0.residual == residual
        np.testing.assert_array_equal(r0.vector, vector)
        assert K.symmetric is form  # formed once, by the first eigensolve
        if np.all(K.grid.weights == K.grid.weights[0]):
            assert form is K.entries


class TestDispersalPrincipalEigenpair:
    def test_two_cell(self, two_cell_K):
        pair = dispersal_principal_eigenpair(two_cell_K)
        assert pair.value == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(pair.vector, [1.0, 1.0], atol=1e-10)

    def test_single_cell(self):
        grid = build_grid(1, DomainSpec(0.0, 1.0))
        K = assemble_dispersal(grid, KernelSpec.tophat(1.0))
        pair = dispersal_principal_eigenpair(K)
        assert pair.value == pytest.approx(0.5, abs=1e-14)

    def test_in_unit_interval_and_positive_eigenfunction(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            inst = random_instance(rng, n_max=48)
            pair = dispersal_principal_eigenpair(inst.dispersal)
            assert 0.0 < pair.value < 1.0
            assert pair.vector.min() > 0.0


class TestInfectionGrowthRate:
    def test_constant_unit_gap(self, two_cell_K):
        pair = infection_growth_rate(two_cell_K, 1.0, np.ones(2))
        assert pair.value == pytest.approx(0.5, abs=1e-12)

    def test_hand_instance(self, two_cell_K):
        pair = infection_growth_rate(two_cell_K, 1.0, np.full(2, 1.5))
        assert pair.value == pytest.approx(1.0, abs=1e-12)

    def test_zero_gap_matches_dispersal_eigenvalue(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            inst = random_instance(rng, n_max=48)
            K = inst.dispersal
            d = inst.params.d_I
            lam = dispersal_principal_eigenpair(K).value
            mu = infection_growth_rate(K, d, np.zeros(inst.grid.n)).value
            assert mu == pytest.approx(-d * lam, abs=1e-10)


class TestRecoverySpectralBound:
    def test_hand_instance(self, two_cell_K):
        bound = recovery_spectral_bound(two_cell_K, 1.0, np.full(2, 0.5))
        assert bound == pytest.approx(-1.0, abs=1e-12)

    def test_constant_recovery_shift_structure(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            inst = random_instance(rng, n_max=48)
            K = inst.dispersal
            d = inst.params.d_I
            g = 0.7
            lam = dispersal_principal_eigenpair(K).value
            bound = recovery_spectral_bound(K, d, np.full(inst.grid.n, g))
            assert bound == pytest.approx(-d * lam - g, abs=1e-10)

    def test_dominated_by_minimum_recovery(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            inst = random_instance(rng, n_max=48)
            bound = recovery_spectral_bound(inst.dispersal, inst.params.d_I,
                                            inst.gamma)
            assert bound <= -inst.gamma.values.min() + 1e-10
            assert bound < 0


class TestBasicReproductionNumber:
    def test_hand_instance(self, two_cell_K):
        res = basic_reproduction_number(two_cell_K, 1.0, np.full(2, 2.0),
                                        np.full(2, 0.5))
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.vector.min() > 0

    def test_boundary_case_unity(self, two_cell_K):
        res = basic_reproduction_number(two_cell_K, 1.0, np.ones(2),
                                        np.full(2, 0.5))
        assert res.value == pytest.approx(1.0, abs=1e-10)
        mu = infection_growth_rate(two_cell_K, 1.0, np.full(2, 0.5)).value
        assert abs(mu) <= 1e-10

    def test_linear_in_transmission(self, two_cell_K):
        base = basic_reproduction_number(two_cell_K, 1.0, np.full(2, 2.0),
                                         np.full(2, 0.5)).value
        scaled = basic_reproduction_number(two_cell_K, 1.0, np.full(2, 6.0),
                                           np.full(2, 0.5)).value
        assert scaled == pytest.approx(3.0 * base, rel=1e-10)

    def test_dense_oracle_agreement(self):
        # oracle: spectral radius of the literal next-generation matrix
        rng = np.random.default_rng(17)
        for _ in range(25):
            inst = random_instance(rng, n_max=48)
            K = inst.dispersal
            d = inst.params.d_I
            res = basic_reproduction_number(K, d, inst.beta, inst.gamma)
            A = d * (K.entries - np.eye(K.n)) - np.diag(inst.gamma.values)
            M = np.diag(inst.beta.values) @ np.linalg.inv(-A)
            oracle = np.max(np.abs(np.linalg.eigvals(M)))
            assert res.value == pytest.approx(oracle, abs=1e-8)

    def test_wide_transmission_range(self):
        # beta over four decades: the congruence s (-A) s with s = beta^{-1/2}
        # is then far from a multiple of -A
        rng = np.random.default_rng(18)
        for _ in range(25):
            inst = random_instance(rng, n_max=48)
            K, d = inst.dispersal, inst.params.d_I
            beta = 10.0 ** rng.uniform(-2.0, 2.0, K.n)
            res = basic_reproduction_number(K, d, beta, inst.gamma)
            A = d * (K.entries - np.eye(K.n)) - np.diag(inst.gamma.values)
            oracle = np.max(np.abs(np.linalg.eigvals(np.diag(beta)
                                                     @ np.linalg.inv(-A))))
            assert res.value == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_nonpositive_transmission_rejected(self, two_cell_K, bad):
        with pytest.raises(InvalidArgumentError):
            basic_reproduction_number(two_cell_K, 1.0, np.array([2.0, bad]),
                                      np.full(2, 0.5))

    def test_undamped_generator_rejected(self, two_cell_K):
        # a negative "recovery" makes the damped generator unstable, so
        # the next-generation operator is undefined
        from nonlocal_sis import PreconditionError
        with pytest.raises(PreconditionError):
            basic_reproduction_number(two_cell_K, 1.0, np.ones(2),
                                      np.full(2, -1.0))

    def test_stagnation_reported(self, two_cell_K, monkeypatch):
        # spatially varying transmission leaves a roundoff residual that no
        # double-precision eigensolve can push below 1e-300
        monkeypatch.setattr(spectral, "RESIDUAL_TOL", 1e-300)
        with pytest.raises(SolverFailure) as info:
            basic_reproduction_number(two_cell_K, 1.0, np.array([2.0, 3.0]),
                                      np.full(2, 0.5))
        assert info.value.residual is not None


class TestCriticalDispersalRate:
    def test_hand_instance(self, two_cell_K):
        # constant coefficients: growth is 1.5 - 0.5 d, root at 3
        res = critical_dispersal_rate(two_cell_K, np.full(2, 2.0),
                                      np.full(2, 0.5))
        assert res.d_critical == pytest.approx(3.0, abs=1e-5)
        assert abs(res.growth_at_critical) <= 1e-6

    def test_root_returned_wherever_it_lies(self, two_cell_K):
        # growth is gap - 0.5 d, so the root 2 * gap may lie anywhere
        for gap in (0.005, 199.5):
            res = critical_dispersal_rate(two_cell_K, np.full(2, 0.5 + gap),
                                          np.full(2, 0.5))
            assert res.d_critical == pytest.approx(2.0 * gap, rel=1e-9)

    def test_low_risk_has_no_bracket(self, two_cell_K):
        # growth is -0.1 - 0.5 d < 0 for every rate
        with pytest.raises(InvalidBracketError):
            critical_dispersal_rate(two_cell_K, np.full(2, 0.4),
                                    np.full(2, 0.5))

    def test_non_dissipative_dispersal_rejected(self, two_cell_K):
        # row mass 1.3 makes Id - K indefinite, so no critical rate exists
        K = DispersalMatrix(entries=[[0.8, 0.5], [0.5, 0.8]],
                            grid=two_cell_K.grid)
        with pytest.raises(PreconditionError):
            critical_dispersal_rate(K, np.full(2, 2.0), np.full(2, 0.5))

    @pytest.mark.parametrize("beta, gamma", [
        (np.where(np.arange(64) == 3, np.nan, 2.0), np.full(64, 0.5)),
        (np.full(63, 2.0), np.full(63, 0.5)),
        (np.full(63, 2.0), np.full(64, 0.5)),
    ], ids=["nan-at-node-3", "length-63", "length-63-beta"])
    def test_invalid_field_rejected(self, beta, gamma):
        K = assemble_dispersal(build_grid(64, DomainSpec(0.0, 1.0)),
                               KernelSpec.tophat(0.25))
        with pytest.raises(InvalidArgumentError):
            critical_dispersal_rate(K, beta, gamma)

    def test_dense_oracle_root(self):
        # oracle: np.linalg.eigh of the symmetrized d (K - Id) + diag(m)
        def mu(inst, d):
            w = np.sqrt(inst.grid.weights)
            K = inst.dispersal.entries
            B = d * (K - np.eye(inst.grid.n)) + np.diag(inst.gap)
            S = w[:, None] * B / w[None, :]
            return np.linalg.eigh(0.5 * (S + S.T))[0][-1]

        rng = np.random.default_rng(22)
        for _ in range(20):
            inst = random_instance(rng, n_max=48, risk="high")
            res = critical_dispersal_rate(inst.dispersal, inst.beta, inst.gamma)
            d = res.d_critical
            assert abs(mu(inst, d)) <= 1e-9
            assert mu(inst, d * (1 - 1e-6)) > 0 > mu(inst, d * (1 + 1e-6))

    def test_threshold_separates_regimes(self, two_cell_K):
        beta, gamma = np.full(2, 2.0), np.full(2, 0.5)
        res = critical_dispersal_rate(two_cell_K, beta, gamma)
        below = basic_reproduction_number(two_cell_K, res.d_critical / 2,
                                          beta, gamma).value
        above = basic_reproduction_number(two_cell_K, 2 * res.d_critical,
                                          beta, gamma).value
        assert below > 1.0
        assert above < 1.0


class TestGrowthRateIdentities:
    def test_scaling_identity(self):
        rng = np.random.default_rng(18)
        for _ in range(15):
            inst = random_instance(rng, n_max=48)
            K, d, m = inst.dispersal, inst.params.d_I, inst.gap
            direct = infection_growth_rate(K, d, m).value
            scaled = d * infection_growth_rate(K, 1.0, m / d).value
            assert direct == pytest.approx(scaled, abs=1e-10)

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            inst = random_instance(rng, n_max=48)
            K, m = inst.dispersal, inst.gap
            mus = [infection_growth_rate(K, d, m).value
                   for d in np.geomspace(0.05, 20.0, 10)]
            assert all(b <= a + 1e-12 for a, b in zip(mus, mus[1:]))

    def test_lipschitz_in_rate(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            inst = random_instance(rng, n_max=48)
            K, d, m = inst.dispersal, inst.params.d_I, inst.gap
            mu = infection_growth_rate(K, d, m).value
            for delta in (0.01, 0.1, 1.0):
                shifted = infection_growth_rate(K, d + delta, m).value
                assert abs(shifted - mu) <= 2.0 * delta + 1e-12

    def test_positive_gap_node_gives_growth_at_small_rate(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            inst = random_instance(rng, n_max=32, risk="high")
            mu = infection_growth_rate(inst.dispersal, 1e-3, inst.gap).value
            assert mu > 0


class TestSpectralReport:
    def test_two_cell_report(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        rep = compute_spectral_report(K, params, beta, gamma)
        assert rep.dispersal_eigenvalue == pytest.approx(0.5, abs=1e-12)
        assert rep.growth_rate == pytest.approx(1.0, abs=1e-12)
        assert rep.spectral_bound == pytest.approx(-1.0, abs=1e-12)
        assert rep.r0 == pytest.approx(2.0, abs=1e-10)

    def test_serializable_and_consistent(self, endemic_setup):
        grid, K, beta, gamma, lam, params = endemic_setup
        rep = compute_spectral_report(K, params, beta, gamma)
        d = rep.to_dict()
        assert d["r0"] == rep.r0
        assert len(d["dispersal_eigenvector"]) == grid.n
        # threshold consistency on this instance: r0 > 1 and growth > 0
        assert (rep.r0 - 1.0) * rep.growth_rate > 0


def test_grid_refinement_stability():
    # sanity probe, not a theorem: quantities at n and 2n within 2%
    domain = DomainSpec(0.0, 1.0)
    kernel = KernelSpec.truncated_gaussian(0.6, 2.0)
    values = {}
    for n in (32, 64):
        grid = build_grid(n, domain)
        K = assemble_dispersal(grid, kernel)
        beta = const_field(grid, 2.0)
        gamma = const_field(grid, 0.5)
        mu = infection_growth_rate(K, 1.0, beta.values - gamma.values).value
        r0 = basic_reproduction_number(K, 1.0, beta, gamma).value
        values[n] = (mu, r0)
    for a, b in zip(values[32], values[64]):
        assert abs(a - b) <= 0.02 * max(abs(a), abs(b))


@pytest.mark.parametrize("kernel", [KernelSpec.triangle(0.25),
                                    KernelSpec.truncated_gaussian(0.1, 0.8)],
                         ids=["triangle", "gaussian"])
def test_threshold_quantities_converge_at_second_order(kernel):
    # mu, R0 and d* of the continuum problem approximated at n = 64 ... 512:
    # each halving of the cell divides their change by about 4, and the
    # Richardson values v_2n + (v_2n - v_n)/3 from (128, 256) and (256, 512)
    # agree within 1% of the last change (measured: at most 0.15%).  The
    # tophat (ratios 2.0 to 2.7) and a gaussian cut off at 3 sigma (1.84,
    # then -2.08) do not converge at second order on these grids.
    values = []
    for n in (64, 128, 256, 512):
        grid = build_grid(n, DomainSpec(0.0, 1.0))
        K = assemble_dispersal(grid, kernel)
        beta = sample_field_values(FieldSpec.bump(1.0, 1.5, 0.5, 0.2), grid)
        gamma = np.full(n, 0.9)
        values.append([infection_growth_rate(K, 1.0, beta - gamma).value,
                       basic_reproduction_number(K, 1.0, beta, gamma).value,
                       critical_dispersal_rate(K, beta, gamma).d_critical])
    diffs = -np.diff(values, axis=0)
    ratios = diffs[:-1] / diffs[1:]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios
    richardson = np.array(values[1:]) - diffs / 3.0
    spread = np.abs(richardson[2] - richardson[1]) / np.abs(diffs[2])
    assert np.all(spread <= 0.01), spread


def _local_limit(N, D):
    """Oracle: ``mu``, R0 and ``D*`` of the diffusive model ``D u'' + (beta -
    gamma) u`` on (0, 1) with u = 0 at both ends, by second differences on
    ``N`` interior nodes; each a tridiagonal eigenvalue of its own."""
    x = np.arange(1, N + 1) / (N + 1)
    beta = 1.0 + 1.5 * np.exp(-(((x - 0.5) / 0.2) ** 2))
    gamma, q = 0.9, (N + 1) ** 2

    def mu(D):
        return scipy.linalg.eigh_tridiagonal(
            beta - gamma - 2 * D * q, np.full(N - 1, D * q), eigvals_only=True,
            select="i", select_range=(N - 1, N - 1))[0]

    # R0 = 1 / w for the bottom eigenvalue w of s (-A) s, s = beta^{-1/2}, with
    # A = D u'' - gamma u: a congruence that keeps the matrix tridiagonal
    s = 1.0 / np.sqrt(beta)
    w = scipy.linalg.eigh_tridiagonal(
        s * s * (2 * D * q + gamma), -s[:-1] * s[1:] * D * q, eigvals_only=True,
        select="i", select_range=(0, 0))[0]
    return np.array([mu(D), 1.0 / w, brentq(mu, 0.01, 1.0, xtol=1e-14)])


def test_threshold_quantities_tend_to_the_local_diffusion_limit():
    # with the kernel J_h(z) = J(z/h)/h and d = 2 D / int z^2 J_h = 12 D/h^2
    # for the triangle, nonlocal dispersal with a hostile exterior tends to
    # D u'' with u = 0 outside (Andreu-Vaillo, Mazon, Rossi & Toledo-Melero,
    # Nonlocal Diffusion Problems, AMS, 2010), so mu, R0 and d* h^2/12 tend
    # to mu, R0 and D* of the diffusive SIS model: an oracle that shares no
    # code with K.  The errors are first order in h (the exterior's boundary
    # layer): measured 2.27e-2, 7.37e-3, 2.85e-3 for mu; the Richardson
    # values 2 v(h/2) - v(h) from h = 0.1, 0.05 are within 0.18%, 0.04% and
    # 0.16% of the oracle, and the oracle at 2N nodes within 5.3e-8 of itself.
    D = 0.02
    oracle = _local_limit(4000, D)
    assert np.all(np.abs(_local_limit(8000, D) / oracle - 1.0) <= 1e-6)
    values = []
    for h in (0.2, 0.1, 0.05):
        n = round(40 / h)
        grid = build_grid(n, DomainSpec(0.0, 1.0))
        K = assemble_dispersal(grid, KernelSpec.triangle(h))
        beta = sample_field_values(FieldSpec.bump(1.0, 1.5, 0.5, 0.2), grid)
        gamma = np.full(n, 0.9)
        d = 12 * D / h**2
        values.append([infection_growth_rate(K, d, beta - gamma).value,
                       basic_reproduction_number(K, d, beta, gamma).value,
                       critical_dispersal_rate(K, beta, gamma).d_critical * h**2 / 12])
    errors = np.abs(np.array(values) - oracle)
    assert np.all(errors[1:] < errors[:-1]), errors
    richardson = 2 * np.array(values[2]) - np.array(values[1])
    assert np.all(np.abs(richardson / oracle - 1.0) <= 0.005), richardson / oracle


def test_infected_dispersal_suppresses_the_disease():
    # the persistence-n64 instance (triangle h = 0.25, n = 64, bump beta,
    # gamma 0.9): R0 = 1 at d*, R0 -> max beta/gamma at first order as
    # d_I -> 0, and R0 d_I -> L as d_I -> oo, with L the top eigenvalue of
    # the pencil (diag beta, Id - K): the hostile exterior keeps L finite, so
    # fast dispersal of the infected suppresses the disease
    grid = build_grid(64, DomainSpec(0.0, 1.0))
    K = assemble_dispersal(grid, KernelSpec.triangle(0.25))
    beta = sample_field_values(FieldSpec.bump(1.0, 1.5, 0.5, 0.2), grid)
    gamma = np.full(64, 0.9)

    def r0(d_I):
        return basic_reproduction_number(K, d_I, beta, gamma).value

    d_star = critical_dispersal_rate(K, beta, gamma).d_critical
    assert abs(r0(d_star) - 1.0) <= 1e-12  # measured 4.4e-15

    # measured 2.7090 and 2.7101
    small = [(np.max(beta / gamma) - r0(d)) / d for d in (1e-4, 1e-5)]
    assert small[0] == pytest.approx(small[1], rel=0.01)

    w = grid.weights
    M = w[:, None] * (np.eye(64) - K.entries)
    L = scipy.linalg.eigh(np.diag(w * beta), 0.5 * (M + M.T),
                          eigvals_only=True)[-1]
    assert L == pytest.approx(45.428, rel=1e-4)
    # measured 976.4 and 995.8
    large = [(L - r0(d) * d) * d for d in (1e3, 1e4)]
    assert large[0] == pytest.approx(large[1], rel=0.05)
