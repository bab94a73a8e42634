"""Time one cold set-up in a fresh interpreter and print it as JSON.

Set-up is what every CLI invocation pays before solving: importing
``nonlocal_sis`` (and with it NumPy and SciPy), parsing the config,
building the grid, fields and kernel, ``validate_instance`` and
``assemble_dispersal``.  The instance is built by the same private helper
``run_scenario`` uses; for the verify scenario it is the suite's first
random instance.

Usage: python3 setup_probe.py <src dir> < config.cfg
"""

import json
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    text = sys.stdin.read()
    clock = time.perf_counter()
    import numpy as np

    import nonlocal_sis as ns
    from nonlocal_sis.experiments import _build_instance

    config = ns.parse_config(text)
    if config.scenario == "verify":
        rng = np.random.default_rng([config.seed, 0])
        inst = ns.random_instance(rng, n_max=int(config.get("verify.n_max")))
    else:
        inst = _build_instance(config)
    report = ns.validate_instance(inst.grid, inst.kernel, inst.beta, inst.gamma,
                                  inst.lam, inst.params)
    K = ns.assemble_dispersal(inst.grid, inst.kernel)
    elapsed = time.perf_counter() - clock
    print(json.dumps({"setup_s": elapsed, "passed": report.passed, "n": K.n}))


if __name__ == "__main__":
    main()
