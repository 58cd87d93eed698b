#!/usr/bin/env python
"""Maintaining the fault model as nodes keep failing.

The paper notes that faulty blocks "can be easily established and
maintained through message exchanges among neighboring nodes".  This
example drives a :class:`repro.core.IncrementalLabeling` through a
sequence of fault injections: each event warm-starts phase 1 from the
existing labels (the change ripples outward from the new faults only)
and re-solves phase 2 on the blocks that changed, and the result is
verified against from-scratch labeling after every step.

Usage::

    python examples/dynamic_faults.py [events] [faults_per_event] [seed]
"""

import sys

import numpy as np

from repro import Mesh2D
from repro.analysis import format_table
from repro.core import IncrementalLabeling, label_mesh
from repro.faults import uniform_random
from repro.viz import render_result


def main() -> None:
    events = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    per_event = int(sys.argv[2]) if len(sys.argv) > 2 else 4
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 11

    mesh = Mesh2D(24, 24)
    engine = IncrementalLabeling(mesh)
    rng = np.random.default_rng(seed)

    rows = []
    for event in range(events):
        batch = uniform_random(mesh.shape, per_event, rng)
        report = engine.inject(batch)
        scratch = label_mesh(mesh, engine.faults)
        ok = engine.verify_against_scratch()
        rows.append(
            [
                event,
                len(engine.faults),
                report.rounds_phase1,
                scratch.rounds_phase1,
                report.newly_unsafe,
                report.newly_disabled,
                "yes" if ok else "NO",
            ]
        )

    print(
        format_table(
            [
                "event",
                "faults",
                "incr rounds",
                "scratch rounds",
                "new unsafe",
                "new disabled",
                "matches scratch",
            ],
            rows,
            title=f"{events} fault events of {per_event} nodes on a 24x24 mesh",
        )
    )
    print()
    print("final state:")
    print(render_result(engine.snapshot()))


if __name__ == "__main__":
    main()
