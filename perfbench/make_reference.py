"""Regenerate the benchmark's stored inputs and reference outputs.

    python3 perfbench/make_reference.py

Writes ``data/costs.json`` -- the base and optimized ``PlatformCosts``
the farm workloads price requests with, measured through
``PlatformCosts.measure(..., fixtures.SERVER_1024)`` -- and
``data/reference/<workload>.json``, one round of each workload's exact
outputs at the reference seed.  Run it only when the program's
simulated results are meant to change; ``tests/`` fails when either
file no longer matches what the program computes.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from run import SCRUBBED_ENV  # noqa: E402

for _name in SCRUBBED_ENV:
    os.environ.pop(_name, None)


def measure_costs() -> dict:
    from repro.costs import PlatformCosts
    from repro.platform import SecurityPlatform
    from repro.ssl import fixtures
    return {label: PlatformCosts.measure(platform,
                                         fixtures.SERVER_1024).as_dict()
            for label, platform in (("base", SecurityPlatform.base()),
                                    ("optimized",
                                     SecurityPlatform.optimized()))}


def write_json(path: str, document: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    import workloads
    write_json(workloads.COSTS_PATH, measure_costs())
    for name, cls in workloads.WORKLOADS.items():
        rnd = cls(workloads.REFERENCE_SEED).run_round()
        if rnd.errors:
            print(f"{name}: functional checks failed: "
                  f"{sorted(rnd.errors.values())[:5]}", file=sys.stderr)
            return 1
        write_json(workloads.reference_path(name),
                   {"workload": name, "seed": workloads.REFERENCE_SEED,
                    "outputs": rnd.outputs})
        print(f"{name}: {len(rnd.outputs)} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
