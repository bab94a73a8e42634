"""Disease-free equilibrium by one direct solve, endemic by monotone
iteration from below and monotone Newton from above.

The disease-free profile solves a linear balance (one direct solve,
certified by a rigorous bound on its residual).  The endemic profile comes
from the reduced scalar problem after eliminating the susceptibles through
the conserved combination d_S*S + d_I*I; the solver runs relaxed monotone
steps upward from a small multiple of the principal eigenvector and
Newton steps downward from the explicit supersolution
(d_S/d_I) * disease_free, and both limits must agree, which is exactly the
uniqueness statement.  The reported iterations are the relaxed steps plus
the Newton steps.
"""

import numpy as np

from nonlocal_sis import (
    DomainSpec,
    FieldSpec,
    KernelSpec,
    ModelParams,
    assemble_dispersal,
    build_field,
    build_grid,
    solve_disease_free,
    solve_endemic,
    solve_logistic_stationary,
)

# a heterogeneous habitat: transmission peaks in the middle of the domain
grid = build_grid(48, DomainSpec(0.0, 1.0))
kernel = KernelSpec.truncated_gaussian(0.5, 1.5)
K = assemble_dispersal(grid, kernel)
beta = build_field(FieldSpec.bump(1.2, 1.5, 0.5, 0.2), grid, role="beta")
gamma = build_field(FieldSpec.constant(0.8), grid, role="gamma")
lam = build_field(FieldSpec.constant(1.0), grid, role="lambda")
params = ModelParams(d_S=1.0, d_I=0.5)

dfe = solve_disease_free(K, params.d_S, lam)
print("disease-free profile: min %.4f  max %.4f" % (dfe.field.min(),
                                                    dfe.field.max()))
print("direct-solve residual %.2e" % dfe.residual)

endemic = solve_endemic(K, params, beta, gamma, dfe.field)
print("\nendemic infected:    min %.4f  max %.4f" % (endemic.infected.min(),
                                                     endemic.infected.max()))
print("endemic susceptible: min %.4f  max %.4f" % (
    endemic.susceptible.min(), endemic.susceptible.max()))
print("bracket gap %.2e, residual %.2e, %d iterations" % (
    endemic.bracket_gap, endemic.residual, endemic.iterations))

# the structural bound and the conservation identity
high = (params.d_S / params.d_I) * dfe.field
print("\nbound 0 < I* < (d_S/d_I) * dfe holds:",
      bool(np.all(endemic.infected > 0) and np.all(endemic.infected < high)))
conserved = params.d_S * endemic.susceptible + params.d_I * endemic.infected
print("conservation defect:", float(np.max(np.abs(conserved
                                                  - params.d_S * dfe.field))))

# with equal dispersal rates the infected profile also solves a nonlocal
# logistic problem; check the two solvers against each other
params_eq = ModelParams(d_S=1.0, d_I=1.0)
dfe_eq = solve_disease_free(K, 1.0, lam)
endemic_eq = solve_endemic(K, params_eq, beta, gamma, dfe_eq.field)
logistic = solve_logistic_stationary(K, 1.0, beta.values - gamma.values,
                                     beta.values / dfe_eq.field)
print("\nequal-rate reduction agreement:",
      float(np.max(np.abs(logistic.field - endemic_eq.infected))))
