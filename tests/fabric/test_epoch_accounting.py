"""Per-epoch accounting invariants, pinned on both engines.

A dynamic run's epochs partition its work: the epoch message counts
must sum to ``RunStats.total_messages``, the changing-round counts to
``RunStats.rounds``, and ``recovery_rounds`` must exclude the first
epoch (the initial convergence is not recovery cost).
"""

import numpy as np
import pytest

from repro.core.distributed import async_unsafe, distributed_unsafe
from repro.faults import FaultSchedule, FaultSet
from repro.mesh import Mesh2D
from repro.obs import MemorySink, Telemetry

#: A fault block big enough that phase 1 actually propagates, so every
#: epoch has nonzero work to account for.
FAULTS = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]

#: Two crash batches -> three epochs.
TWO_BATCHES = FaultSchedule([(2, (6, 6)), (2, (6, 7)), (5, (0, 5))])


def _run(engine, telemetry=None):
    topo = Mesh2D(9, 9)
    faults = FaultSet.from_coords(topo.shape, FAULTS)
    if engine == "sync":
        _, stats, _ = distributed_unsafe(
            topo, faults, schedule=TWO_BATCHES, telemetry=telemetry
        )
    else:
        _, stats = async_unsafe(
            topo,
            faults,
            np.random.default_rng(11),
            schedule=TWO_BATCHES,
            telemetry=telemetry,
        )
    return stats


@pytest.mark.parametrize("engine", ["sync", "async"])
class TestEpochAccounting:
    def test_three_epochs_with_crash_context(self, engine):
        stats = _run(engine)
        assert len(stats.epochs) == 3
        assert stats.epochs[0].crashed == ()
        assert stats.epochs[0].at_time == 0
        assert stats.epochs[1].crashed == ((6, 6), (6, 7))
        assert stats.epochs[1].at_time == 2
        assert stats.epochs[2].crashed == ((0, 5),)
        assert stats.epochs[2].at_time == 5

    def test_epoch_messages_sum_to_total(self, engine):
        stats = _run(engine)
        assert stats.total_messages > 0
        assert sum(e.messages for e in stats.epochs) == stats.total_messages

    def test_epoch_rounds_sum_to_changing_rounds(self, engine):
        stats = _run(engine)
        assert sum(e.rounds for e in stats.epochs) == stats.rounds

    def test_recovery_rounds_excludes_first_epoch(self, engine):
        stats = _run(engine)
        assert stats.recovery_rounds == sum(e.rounds for e in stats.epochs[1:])
        assert stats.recovery_rounds == stats.rounds - stats.epochs[0].rounds

    def test_to_dict_roundtrips_the_fields(self, engine):
        stats = _run(engine)
        d = stats.to_dict()
        assert d["total_messages"] == stats.total_messages
        assert d["executed_rounds"] == stats.executed_rounds
        assert d["recovery_rounds"] == stats.recovery_rounds
        assert len(d["epochs"]) == 3
        for ed, ep in zip(d["epochs"], stats.epochs):
            assert ed["crashed"] == [[x, y] for x, y in ep.crashed]
            assert ed["rounds"] == ep.rounds
            assert ed["messages"] == ep.messages

    def test_crash_batch_follows_the_epoch_it_closes(self, engine):
        sink = MemorySink()
        stats = _run(engine, Telemetry(sinks=(sink,)))
        log = sink.events()
        crashes = [i for i, e in enumerate(log) if e.name == "crash_batch"]
        assert len(crashes) == 2
        for k, i in enumerate(crashes):
            # batch k+1 opens epoch k+1 right after epoch k's close
            closing = log[i - 1]
            assert closing.name == "epoch_end"
            assert closing.fields["epoch"] == k
            assert log[i].fields["time"] == stats.epochs[k + 1].at_time
            assert log[i].fields["nodes"] == list(stats.epochs[k + 1].crashed)
        assert [e.fields["epoch"] for e in log if e.name == "epoch_end"] == [0, 1, 2]
