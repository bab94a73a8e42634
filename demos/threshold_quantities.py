"""Threshold quantities of a hand-checkable two-cell instance.

Walks through the core spectral machinery on the smallest interesting
instance: two midpoint cells on [0, 1] with a unit-radius tophat kernel,
constant transmission 2, recovery 0.5, recruitment 1.  Every number printed
here can be verified with pencil and paper:

  dispersal eigenvalue     1 - 1/2            = 0.5
  infection growth rate    (2 - 0.5) - 0.5    = 1.0
  damped spectral bound    -0.5 - 0.5         = -1.0
  reproduction number      2 / (0.5 + 0.5)    = 2.0
  critical dispersal rate  1.5 / 0.5          = 3.0

The last line leaves the two cells: it estimates mu, R0 and d* of the
continuum problem for a bump of transmission by grid refinement.
"""

import numpy as np

from nonlocal_sis import (
    CoefficientField,
    DomainSpec,
    FieldSpec,
    KernelSpec,
    ModelParams,
    assemble_dispersal,
    basic_reproduction_number,
    build_grid,
    compute_spectral_report,
    critical_dispersal_rate,
    infection_growth_rate,
    sample_field_values,
    validate_instance,
)

grid = build_grid(2, DomainSpec(0.0, 1.0))
kernel = KernelSpec.tophat(1.0)
beta = CoefficientField(np.full(2, 2.0), "beta")
gamma = CoefficientField(np.full(2, 0.5), "gamma")
lam = CoefficientField(np.full(2, 1.0), "lambda")
params = ModelParams(d_S=1.0, d_I=1.0)

report = validate_instance(grid, kernel, beta, gamma, lam, params)
print("instance valid:", report.passed)
print("in-domain kernel mass:", report.diagnostics["min_in_domain_mass"])

K = assemble_dispersal(grid, kernel)
print("\ndispersal matrix:\n", K.entries)

spectral = compute_spectral_report(K, params, beta, gamma)
print("\ndispersal eigenvalue :", spectral.dispersal_eigenvalue)
print("infection growth rate:", spectral.growth_rate)
print("damped spectral bound:", spectral.spectral_bound)
print("reproduction number  :", spectral.r0)

# The growth rate decreases strictly in the dispersal rate of the infected:
# faster movement through a hostile exterior drains the epidemic.
print("\n d_I    growth     r0")
for d in np.geomspace(0.2, 12.0, 7):
    mu = infection_growth_rate(K, d, beta.values - gamma.values).value
    r0 = basic_reproduction_number(K, d, beta, gamma).value
    print(f"{d:5.2f}  {mu:+8.4f}  {r0:6.3f}")

threshold = critical_dispersal_rate(K, beta, gamma)
print("\ncritical dispersal rate:", threshold.d_critical)
print("growth at the root     :", threshold.growth_at_critical)
print("LAPACK eigensolves     :", threshold.iterations)

# The midpoint grid approximates the continuum quantities at second order
# for the triangle kernel, so one Richardson step v_2n + (v_2n - v_n)/3
# removes the leading error: [0, 1], beta = 1 + 1.5 exp(-((x - 0.5)/0.2)^2),
# gamma = 0.9, d_I = 1.
levels = []
for n in (256, 512):
    fine_grid = build_grid(n, DomainSpec(0.0, 1.0))
    K_n = assemble_dispersal(fine_grid, KernelSpec.triangle(0.25))
    b = sample_field_values(FieldSpec.bump(1.0, 1.5, 0.5, 0.2), fine_grid)
    g = np.full(n, 0.9)
    levels.append(np.array([infection_growth_rate(K_n, 1.0, b - g).value,
                            basic_reproduction_number(K_n, 1.0, b, g).value,
                            critical_dispersal_rate(K_n, b, g).d_critical]))
mu_c, r0_c, d_c = levels[1] + (levels[1] - levels[0]) / 3.0
print(f"\ncontinuum limit (n = 256, 512): mu = {mu_c:.6g}, R0 = {r0_c:.6g}, "
      f"d* = {d_c:.6g}")
