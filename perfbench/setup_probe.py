"""One set-up measurement in a fresh interpreter.

Times `import wienerlab` (through `wienerlab.cli`, which the console script
loads) and then the building of the workload's functionals or directions,
the work a user pays before the first operation.  For thm33 that includes
validate_eta_mu, which the CLI runs before it builds the functional.

    python3 perfbench/setup_probe.py <root> <workload> <seed>

prints one JSON object: {"import_s": ..., "build_s": ..., "wall_s": ...,
"kernel_s": ...}.  import_s and build_s are CPU times of this process;
wall_s is the wall time of both; kernel_s is the CPU time of one run of the
"interp" reference kernel (calibrate.py) made right after, which run.py
uses to scale the set-up time to the reference speed.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    root, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    ops = workloads.build(workload, seed)
    sys.path.insert(0, str(root / "src"))

    w0, t0 = time.perf_counter(), time.process_time()
    import wienerlab.cli  # noqa: F401
    t1 = time.process_time()
    from wienerlab import (CameronMartinDirection, CylindricalFunctional, Polynomial,
                           TimeGrid, catalog_build, validate_eta_mu)
    built = []
    for op in ops:
        p = op.params
        if workload == "thm31-report":
            built.append(catalog_build("thm31", a=p["a"]))
        elif workload == "thm33-report":
            if not validate_eta_mu(p["eta"], p["mu"]).ok:
                raise SystemExit(f"invalid (eta, mu) = ({p['eta']}, {p['mu']})")
            built.append(catalog_build("thm33", eta=p["eta"], mu=p["mu"]))
        else:
            dirs = [CameronMartinDirection(TimeGrid.uniform(len(d)), d)
                    for d in p["directions"]]
            poly = Polynomial(len(dirs), p["terms"])
            shift = CameronMartinDirection(TimeGrid.uniform(len(p["shift"])), p["shift"])
            built.append((CylindricalFunctional(dirs, poly), shift))
    t2, w2 = time.process_time(), time.perf_counter()
    # the machine's speed drifts within a second, so one kernel run right
    # after the timing tracks it better than the median of several
    import calibrate
    kernel = calibrate.kernel_s("interp")
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "wall_s": w2 - w0,
                      "kernel_s": kernel, "built": len(built)}))


if __name__ == "__main__":
    main()
