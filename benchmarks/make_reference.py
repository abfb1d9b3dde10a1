"""Write reference.json: the outputs of every unit of work of every workload
at the reference seed, which the benchmark's correctness gate compares to.

    python3 benchmarks/make_reference.py

Rerun it only for a change that is meant to alter the estimates, and state
the change.
"""

import json
from dataclasses import asdict

import workloads


def main() -> None:
    out = {}
    for wl in workloads.WORKLOADS.values():
        seed = workloads.REFERENCE_SEED
        units = workloads.prepare(wl, seed)
        items = [workloads.summarize(wl, workloads.run_unit(wl, u, seed)) for u in units]
        out[wl.name] = {"workload": asdict(wl), "items": items}
        print(wl.name, "done", flush=True)
    workloads.REFERENCE.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
