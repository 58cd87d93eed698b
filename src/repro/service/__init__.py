"""The incremental relabeling service.

The paper's protocol is distributed and online by design: labels are
"easily established and maintained through message exchanges among
neighboring nodes".  This package is the centralized counterpart of
that maintenance story — a long-lived process holding converged labels
and answering fault deltas without recomputing the world:

* :class:`LabelingService` — the in-process API: instrumented
  ``update``/``query``/``snapshot``/``stats`` over one
  :class:`~repro.core.incremental.IncrementalLabeling` engine.
* :class:`LabelingServer` / :func:`handle_request` — the NDJSON socket
  front end behind ``repro serve`` (TCP or Unix-domain).
* :class:`ServiceClient` — the reference client: retrying, reconnecting,
  idempotent (client id + sequence number on every update).
* :class:`WriteAheadLog` / :class:`SnapshotStore` — the durability
  artefacts of a WAL directory (``repro serve --wal-dir``).
* :func:`recover_state` / :meth:`LabelingService.recover` — crash
  recovery: snapshot + WAL-tail replay, verified bit-for-bit against
  from-scratch labeling.
* :class:`ChaosProxy` / :class:`CrashPlan` — seeded fault injection for
  the wire and the WAL byte stream (the chaos property suite).

Every answer is bit-for-bit the from-scratch fixpoint of the
accumulated fault set; the property tests in
``tests/properties/test_incremental_props.py`` pin that invariant, and
``tests/properties/test_durability_props.py`` extends it across crashes
and retries.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchOutcome",
    "ChaosProxy",
    "ClientState",
    "CrashPlan",
    "DeltaRecord",
    "LabelingServer",
    "LabelingService",
    "RecoveredState",
    "ServiceClient",
    "SimulatedCrash",
    "SnapshotStore",
    "WriteAheadLog",
    "handle_request",
    "list_state",
    "recover_state",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "chaos": ("ChaosProxy", "CrashPlan", "SimulatedCrash"),
    "client": ("ServiceClient",),
    "labeling": ("BatchOutcome", "LabelingService"),
    "recovery": ("ClientState", "RecoveredState", "recover_state"),
    "server": ("LabelingServer", "handle_request"),
    "wal": ("DeltaRecord", "SnapshotStore", "WriteAheadLog", "list_state"),
})
