#!/usr/bin/env python3
"""Record the expected outputs of the pinned workloads for some seeds.

Usage, from the root of a checkout::

    python3 perfbench/pin.py SEED [SEED ...]

For ``fig5`` the pin is a digest of both Figure-5 tables; for
``traffic`` it is each campaign point's delivered/dropped/stuck counts,
cycles, throughput and latency in cycles.  ``run.py`` fails a run whose
output differs from the pin of its seed.  Re-pin only when a change is
meant to alter these outputs.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import PINS_PATH, Fig5, Traffic, load_pins  # noqa: E402


def main(argv) -> int:
    seeds = [int(a) for a in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    pins = load_pins()
    for cls in (Fig5, Traffic):
        for seed in seeds:
            workload = cls(seed, ROOT)
            try:
                workload.check_before()
            finally:
                workload.close()
            if workload.problems:
                print(f"{cls.name} seed {seed}: {workload.problems}", file=sys.stderr)
                return 1
            pins.setdefault(cls.name, {})[str(seed)] = workload.pinned()
    with open(PINS_PATH, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
