"""Golden pins: engine statistics and final labels on fixed runs.

Both engines share one run core for construction, crash handling,
heartbeats, epoch accounting and telemetry; their schedulers differ.
These pins hold every observable of four fixed runs — ``RunStats``,
the final per-node snapshots and, for the asynchronous engine, the
position of its delay RNG after the run — to recorded values, so a
refactor of that shared bookkeeping cannot shift a round, a message or
a random draw unnoticed.

The setup is the 8x8 one of ``tests/obs/test_agreement.py`` — same
faults, crash schedule and lossy channel — plus one fault at (4, 4),
diagonal to (5, 5), so that phase 1 (Definition 2b) flips nodes and the
crashes cost recovery rounds.  Each engine runs it static on reliable
links and with the schedule on the dropping/duplicating channel.
"""

import numpy as np
import pytest

from repro.core.protocols import SafetyProgram
from repro.core.status import SafetyDefinition
from repro.fabric import AsynchronousEngine, ChannelModel, SynchronousEngine
from repro.faults import FaultSchedule
from repro.mesh import Mesh2D

FAULTS = [(1, 1), (1, 2), (2, 1), (2, 2), (5, 5), (4, 4)]
SCHEDULE = [(2, (6, 2)), (2, (6, 3)), (5, (3, 6))]


def _factory(ctx):
    return SafetyProgram(ctx, SafetyDefinition.DEF_2B)


def _run(engine, kind):
    """Run one case; return (stats dict, label grid, next async draw)."""
    topo = Mesh2D(8, 8)
    dynamic = kind == "dynamic-lossy"
    schedule = FaultSchedule(SCHEDULE) if dynamic else None
    channel = (
        ChannelModel(
            drop_prob=0.25,
            dup_prob=0.1,
            rng=np.random.default_rng(77),
            max_drops=40,
        )
        if dynamic
        else None
    )
    rng = None
    if engine == "sync":
        eng = SynchronousEngine(
            topo, frozenset(FAULTS), _factory, schedule=schedule, channel=channel
        )
    else:
        rng = np.random.default_rng(3)
        eng = AsynchronousEngine(
            topo,
            frozenset(FAULTS),
            _factory,
            rng=rng,
            schedule=schedule,
            channel=channel,
        )
    result = eng.run()
    # One string per row x, one character per node (x, y): F = no
    # program (faulty or crashed), U = unsafe, . = safe.
    grid = tuple(
        "".join(
            "F"
            if (x, y) not in result.snapshots
            else ("U" if result.snapshots[(x, y)] else ".")
            for y in range(8)
        )
        for x in range(8)
    )
    draw = None if rng is None else int(rng.integers(0, 2**31))
    return result.stats.to_dict(), grid, draw


#: Recorded runs: any difference here is a change of engine behaviour.
GOLDEN = {
    ("sync", "static-reliable"): {
        "grid": (
            "........",
            ".FF.....",
            ".FF.....",
            "........",
            "....FU..",
            "....UF..",
            "........",
            "........",
        ),
        "stats": {
            "rounds": 1,
            "messages_per_round": [184, 4],
            "changes_per_round": [2, 0],
            "epochs": [],
            "dropped_messages": 0,
            "duplicated_messages": 0,
            "heartbeats": 0,
            "total_messages": 188,
            "executed_rounds": 2,
            "recovery_rounds": 0,
        },
        "draw": None,
    },
    ("sync", "dynamic-lossy"): {
        "grid": (
            "........",
            ".FFUUUU.",
            ".FFUUUU.",
            ".UUUUUF.",
            ".UUUFUU.",
            ".UUUUFU.",
            ".UFFUUU.",
            "........",
        ),
        "stats": {
            "rounds": 12,
            "messages_per_round": [
                144, 27, 7, 9, 5, 6, 6, 10, 6, 11, 13, 12, 7, 1, 162, 14
            ],
            "changes_per_round": [2, 2, 3, 1, 2, 2, 2, 2, 3, 3, 3, 2, 0, 0, 0, 0],
            "epochs": [
                {
                    "crashed": [],
                    "at_time": 0,
                    "rounds": 1,
                    "executed_rounds": 1,
                    "messages": 144,
                    "dropped": 40,
                    "duplicated": 27,
                },
                {
                    "crashed": [[6, 2], [6, 3]],
                    "at_time": 2,
                    "rounds": 3,
                    "executed_rounds": 3,
                    "messages": 43,
                    "dropped": 0,
                    "duplicated": 1,
                },
                {
                    "crashed": [[3, 6]],
                    "at_time": 5,
                    "rounds": 8,
                    "executed_rounds": 12,
                    "messages": 253,
                    "dropped": 0,
                    "duplicated": 20,
                },
            ],
            "dropped_messages": 40,
            "duplicated_messages": 48,
            "heartbeats": 1,
            "total_messages": 440,
            "executed_rounds": 16,
            "recovery_rounds": 11,
        },
        "draw": None,
    },
    ("async", "static-reliable"): {
        "grid": (
            "........",
            ".FF.....",
            ".FF.....",
            "........",
            "....FU..",
            "....UF..",
            "........",
            "........",
        ),
        "stats": {
            "rounds": 2,
            "messages_per_round": [188],
            "changes_per_round": [2],
            "epochs": [],
            "dropped_messages": 0,
            "duplicated_messages": 0,
            "heartbeats": 0,
            "total_messages": 188,
            "executed_rounds": 1,
            "recovery_rounds": 0,
        },
        "draw": 1720478868,
    },
    ("async", "dynamic-lossy"): {
        "grid": (
            "........",
            ".FFUUUU.",
            ".FFUUUU.",
            ".UUUUUF.",
            ".UUUFUU.",
            ".UUUUFU.",
            ".UFFUUU.",
            "........",
        ),
        "stats": {
            "rounds": 27,
            "messages_per_round": [426],
            "changes_per_round": [27],
            "epochs": [
                {
                    "crashed": [],
                    "at_time": 0,
                    "rounds": 2,
                    "executed_rounds": 26,
                    "messages": 29,
                    "dropped": 40,
                    "duplicated": 27,
                },
                {
                    "crashed": [[6, 2], [6, 3]],
                    "at_time": 2,
                    "rounds": 3,
                    "executed_rounds": 90,
                    "messages": 100,
                    "dropped": 0,
                    "duplicated": 0,
                },
                {
                    "crashed": [[3, 6]],
                    "at_time": 5,
                    "rounds": 22,
                    "executed_rounds": 263,
                    "messages": 297,
                    "dropped": 0,
                    "duplicated": 21,
                },
            ],
            "dropped_messages": 40,
            "duplicated_messages": 48,
            "heartbeats": 1,
            "total_messages": 426,
            "executed_rounds": 1,
            "recovery_rounds": 25,
        },
        "draw": 346804963,
    },
}


@pytest.mark.parametrize("engine", ["sync", "async"])
@pytest.mark.parametrize("kind", ["static-reliable", "dynamic-lossy"])
def test_run_matches_golden(engine, kind):
    stats, grid, draw = _run(engine, kind)
    want = GOLDEN[(engine, kind)]
    assert grid == want["grid"]
    assert stats == want["stats"]
    assert draw == want["draw"]
