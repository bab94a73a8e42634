"""The matrix-free path for large grids (``TOEPLITZ_MIN_N`` nodes and more).

Every number here is checked against an independent dense computation on
``K.entries``: ``np.linalg.eigh`` for the eigenpairs, ``np.linalg.solve``
for the disease-free state, the dense product for ``K.matvec``, and the
dense path itself (reached by raising ``TOEPLITZ_MIN_N``) for the positivity
ledger of a simulation.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocal_sis import (
    DispersalMatrix,
    DomainSpec,
    FieldSpec,
    IntegratorConfig,
    KernelSpec,
    ModelParams,
    SolverFailure,
    SolverInconsistency,
    State,
    assemble_dispersal,
    build_grid,
    dispersal_principal_eigenpair,
    infection_growth_rate,
    integrate,
    operators,
    parse_config,
    run_scenario,
    sample_field_values,
    solve_disease_free,
    solve_endemic,
    solve_logistic_stationary,
)
from nonlocal_sis.experiments import random_instance

from conftest import KERNELS

N_MIN = operators.TOEPLITZ_MIN_N
SRC = Path(__file__).resolve().parents[1] / "src"


def _extinction_config(n: int, t_end: float, **overrides) -> str:
    """Constant beta < gamma on [0, 1] with a triangle kernel: growth ~ -1.1."""
    entries = {
        "scenario": "simulate", "domain.left": 0.0, "domain.right": 1.0,
        "grid.n": n, "kernel.family": "triangle", "kernel.h": 0.25,
        "beta.family": "constant", "beta.value": 0.4,
        "gamma.family": "constant", "gamma.value": 1.5,
        "lambda.family": "constant", "lambda.value": 1.0,
        "d_S": 1.0, "d_I": 0.1,
        "integrator.dt": 0.02, "integrator.t_end": t_end,
        "integrator.snapshot_stride": 10,
        "init.s.family": "constant", "init.s.value": 1.0,
        "init.i.family": "constant", "init.i.value": 0.5,
        **overrides,
    }
    return "".join(f"{k} = {v}\n" for k, v in entries.items())


def _large_K(n: int = 1024, kernel=None):
    return assemble_dispersal(build_grid(n, DomainSpec(0.0, 1.0)),
                              kernel or KernelSpec.triangle(0.25))


def _dense_top(K, d, c):
    """Top eigenpair of d (K - Id) + diag(c) by np.linalg.eigh (equal
    weights, so the matrix is symmetric), sup-norm 1 and positive."""
    vals, vecs = np.linalg.eigh(d * (K.entries - np.eye(K.n)) + np.diag(c))
    v = vecs[:, -1]
    return vals[-1], v / v[np.argmax(np.abs(v))]


@given(kernel=KERNELS, n=st.integers(N_MIN - 16, 2 * N_MIN),
       length=st.floats(0.5, 2.0), stacked=st.booleans(),
       sign=st.sampled_from(["nonneg", "mixed", "step"]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_matvec_matches_dense_product(kernel, n, length, stacked, sign, seed):
    K = assemble_dispersal(build_grid(n, DomainSpec(0.0, length)), kernel)
    rng = np.random.default_rng(seed)
    shape = (2, n) if stacked else (n,)
    u = rng.uniform(0.0, 1.0, shape) if sign != "mixed" else rng.normal(size=shape)
    if sign == "step":
        u[..., :int(rng.integers(0, n))] = 0.0
    got = K.matvec(u)
    want = u @ K.entries.T
    assert got.shape == shape
    for g, w, field in zip(np.atleast_2d(got), np.atleast_2d(want), np.atleast_2d(u)):
        assert np.max(np.abs(g - w)) <= 1e-13 * np.sum(np.abs(field))
        if sign != "mixed":
            assert np.all(g >= 0.0)
            np.testing.assert_array_equal(g == 0.0, w == 0.0)


def test_dense_path_below_crossover_is_bit_identical():
    # one dense matrix-vector product per field, below the crossover
    K = _large_K(N_MIN - 1)
    assert not K.matrix_free
    u = np.random.default_rng(1).uniform(size=(2, K.n))
    np.testing.assert_array_equal(K.matvec(u), np.stack([K.entries @ f for f in u]))


def test_rows_and_row_masses_from_the_column():
    K = _large_K()
    assert K.matrix_free
    np.testing.assert_allclose(K.row_masses(), K.entries.sum(axis=1), rtol=0,
                               atol=1e-14)
    grid = build_grid(K.n, DomainSpec(0.0, 1.0))
    np.testing.assert_array_equal(
        assemble_dispersal(grid, KernelSpec.triangle(0.25)).row_masses(), K.row_masses())


@pytest.mark.parametrize("n", [512, 1024])
def test_lanczos_eigenpairs_match_dense_eigh(n):
    K = _large_K(n)
    x = K.grid.nodes
    m = 1.0 + 1.5 * np.exp(-((x - 0.5) / 0.2) ** 2) - 0.9
    for d in (0.1, 2.0):
        got = infection_growth_rate(K, d, m)
        value, vector = _dense_top(K, d, m)
        assert abs(got.value - value) <= 1e-10
        np.testing.assert_allclose(got.vector, vector, rtol=0, atol=1e-10)
        assert got.residual <= 1e-10 and got.iterations > 1

    lam1 = dispersal_principal_eigenpair(K)
    value, vector = _dense_top(K, 1.0, np.zeros(n))
    assert abs(lam1.value + value) <= 1e-10
    np.testing.assert_allclose(lam1.vector, vector, rtol=0, atol=1e-10)


def test_lanczos_start_is_fixed():
    K = _large_K()
    a = infection_growth_rate(K, 0.1, np.full(K.n, -1.1))
    b = infection_growth_rate(_large_K(), 0.1, np.full(K.n, -1.1))
    assert a.value == b.value and a.iterations == b.iterations
    np.testing.assert_array_equal(a.vector, b.vector)


def test_lanczos_no_convergence_is_a_solver_failure(monkeypatch):
    K = _large_K()

    def stalled(op, **kwargs):
        v = np.ones((K.n, 1)) / np.sqrt(K.n)
        op.matvec(v[:, 0])
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.array([-0.3]), v)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    with pytest.raises(SolverFailure, match="Lanczos") as info:
        infection_growth_rate(K, 0.1, np.full(K.n, -1.1))
    assert info.value.iterations == 1
    assert info.value.residual is not None and info.value.residual > 0


def test_levinson_disease_free_matches_dense_solve():
    K = _large_K()
    lam = 1.0 + 0.2 * np.sin(3.0 * K.grid.nodes)
    res = solve_disease_free(K, 0.7, lam)
    dense = np.linalg.solve(np.eye(K.n) - K.entries, lam / 0.7)
    np.testing.assert_allclose(res.field, dense, rtol=0, atol=1e-8)
    assert res.residual <= 1e-8 and res.iterations == 1


def test_n8192_disease_free_smoke():
    # the certificate is one FFT product and a normwise bound: no n x n
    # array, and no O(n^2) pass over the rows
    n = 8192
    K = _large_K(n)
    lam = 1.0 + 0.2 * np.sin(3.0 * K.grid.nodes)
    solve_disease_free(_large_K(N_MIN), 0.7, np.ones(N_MIN))  # warm up imports
    tracemalloc.start()
    try:
        res = solve_disease_free(K, 0.7, lam)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.residual <= 1e-8 and res.iterations == 1
    assert np.all(res.field > 0)
    assert "entries" not in vars(K)
    assert peak < n * n * 8 / 8, f"peak {peak} B reaches 1/8 of a dense {n}x{n} matrix"


def test_corrupted_levinson_solve_is_caught(monkeypatch):
    K = _large_K()
    true_solve = scipy.linalg.solve_toeplitz
    monkeypatch.setattr(scipy.linalg, "solve_toeplitz",
                        lambda c, b: true_solve(c, b) + 1e-6)
    with pytest.raises(SolverInconsistency):
        solve_disease_free(K, 1.0, np.ones(K.n))


def _stationary_states(K):
    """Endemic (S, I) and logistic states of one bump instance with
    d_S = d_I, where the relaxed pass takes about a thousand steps."""
    x = K.grid.nodes
    beta = 0.5 + 1.5 * np.exp(-((x - 0.5) / 0.2) ** 2)
    gamma = np.full(K.n, 0.6)
    dfe = solve_disease_free(K, 0.1, np.ones(K.n)).field
    pair = solve_endemic(K, ModelParams(0.1, 0.1), beta, gamma, dfe)
    logistic = solve_logistic_stationary(K, 0.1, beta - gamma, beta / dfe)
    for res in (pair, logistic):
        assert res.residual <= 1e-8 and res.monotone_defect <= 1e-12
    assert pair.bracket_gap <= 1e-8
    return pair.susceptible, pair.infected, logistic.field


def test_matrix_free_stationary_states_match_dense():
    n = N_MIN
    K = _large_K(n)
    assert K.matrix_free
    tracemalloc.start()
    try:
        got = _stationary_states(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "entries" not in vars(K)
    assert peak < n * n * 8, f"peak {peak} B reaches one dense {n}x{n} matrix"
    dense = DispersalMatrix(entries=_large_K(n).entries, grid=K.grid)
    assert not dense.matrix_free
    for field, want in zip(got, _stationary_states(dense)):
        np.testing.assert_allclose(field, want, rtol=0, atol=1e-8)


def test_cg_failure_is_a_solver_failure(monkeypatch):
    K = _large_K(N_MIN)
    true_cg = scipy.sparse.linalg.cg

    def stalled(op, b, **kwargs):
        x, _ = true_cg(op, b, maxiter=1, **kwargs)
        return x, 1

    monkeypatch.setattr(scipy.sparse.linalg, "cg", stalled)
    x = K.grid.nodes
    with pytest.raises(SolverFailure, match="Jacobian solve") as info:
        solve_logistic_stationary(K, 0.1, 1.0 + 0.5 * np.sin(3.0 * x),
                                  np.ones(K.n))
    assert info.value.iterations == 0
    assert info.value.residual > 1e-11


def test_instance_dispersal_is_cached():
    inst = random_instance(np.random.default_rng(2), n_max=16)
    assert inst.dispersal is inst.dispersal


def test_large_simulate_is_deterministic():
    text = _extinction_config(1024, 2.0)
    first, second = (run_scenario(parse_config(text)) for _ in range(2))
    assert first.ok, first.errors
    assert (json.dumps(first.stable_dict(), sort_keys=True)
            == json.dumps(second.stable_dict(), sort_keys=True))


def test_large_simulate_forms_no_dense_matrix():
    n = 1024
    text = _extinction_config(n, 1.0)
    run_scenario(parse_config(text))  # warm up imports and caches
    tracemalloc.start()
    try:
        report = run_scenario(parse_config(text))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok, report.errors
    assert peak < n * n * 8, f"peak {peak} B reaches one dense {n}x{n} matrix"


def test_clip_events_match_dense_path(monkeypatch):
    # exact zeros of K u in the infection-free region must stay exact on
    # the FFT path, or round-off shows up as clipped negative states
    text = _extinction_config(1024, 2.0, **{
        "init.i.family": "step", "init.i.c1": 0.0, "init.i.c2": 0.5,
        "init.i.x_split": 0.9})
    text = text.replace("init.i.value = 0.5\n", "")
    fft_report = run_scenario(parse_config(text))
    monkeypatch.setattr(operators, "TOEPLITZ_MIN_N", 10**9)
    dense_report = run_scenario(parse_config(text))
    assert fft_report.ok and dense_report.ok
    assert fft_report.outputs["clip_events"] == dense_report.outputs["clip_events"] == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the FFT product does not resolve values of K u below its round-off "
    "(~1e-17 of max |u|) inside a kernel band, so a smooth kernel clips "
    "states the dense product keeps nonnegative"))
def test_clip_events_match_dense_path_with_a_smooth_kernel():
    grid = build_grid(1024, DomainSpec(0.0, 1.0))
    K = assemble_dispersal(grid, KernelSpec.truncated_gaussian(0.05, 0.15))
    assert K.matrix_free
    dense = DispersalMatrix(entries=K.entries, grid=grid)
    start = State(np.ones(grid.n),
                  sample_field_values(FieldSpec.step(0.0, 0.5, 0.9), grid))
    config = IntegratorConfig(dt=0.02, t_end=4.0)
    fft, direct = (integrate(start, config, ModelParams(1.0, 0.1), k, 0.4, 1.5,
                             1.0).clip_events for k in (K, dense))
    assert fft == direct


def test_import_leaves_fft_and_sparse_unloaded():
    probe = ("import sys, nonlocal_sis; print(sorted("
             "m for m in ('scipy.fft', 'scipy.sparse') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert done.stdout.strip() == "[]"


def test_n2048_extinction_smoke():
    n = 2048
    report = run_scenario(parse_config(_extinction_config(n, 0.4)))
    assert report.ok, report.errors
    out = report.outputs
    assert out["convergence"]["regime"] == "extinction"
    K = _large_K(n).entries
    top = scipy.linalg.eigh(K, subset_by_index=[n - 1, n - 1], eigvals_only=True)[0]
    assert abs(out["growth_rate"] - (0.1 * (top - 1.0) + 0.4 - 1.5)) <= 1e-10
    dfe = np.linalg.solve(np.eye(n) - K, np.ones(n))
    np.testing.assert_allclose(out["convergence"]["target_S"], dfe, rtol=0, atol=1e-8)
