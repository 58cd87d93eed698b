"""Trial orchestration: seeded, reproducible experiment runs.

Every experiment in this library is "run T independent trials of a
function of an RNG, then aggregate".  :func:`run_trials` implements
that once, with the seeding discipline the HPC guides prescribe: a
single root :class:`numpy.random.SeedSequence` is spawned into one
child per trial, so trials are independent, reproducible from the
root seed alone, and insensitive to the number of trials requested
before them.

Parallelism: ``jobs > 1`` runs the trials on the warm chunked executor
of :mod:`repro.analysis.executor` (the one parallel path of this
package).  Each cell reconstructs its trial's generator from ``(seed,
trial_index)`` alone, so the random streams — and therefore the results
— are identical to a serial run no matter how the work is scheduled.
The trial function must be picklable (a module-level function, not a
lambda or closure) when ``jobs > 1``.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, TypeVar

import numpy as np

from repro.analysis.executor import run_cells

__all__ = ["run_trials", "trial_rngs", "trial_rng"]

T = TypeVar("T")


def trial_rngs(trials: int, seed: int) -> List[np.random.Generator]:
    """One independent generator per trial, spawned from a root seed."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(trials)]


def trial_rng(trials: int, seed: int, index: int) -> np.random.Generator:
    """The ``index``-th generator of ``trial_rngs(trials, seed)``.

    Spawned-child streams depend only on the root seed and the child's
    position: the ``index``-th child is the sequence with spawn key
    ``(index,)``, built here directly in O(1) rather than by spawning
    every sibling.  So a worker process can rebuild exactly the
    generator a serial run would have used for that trial — the key to
    scheduling-independent parallel sweeps.
    """
    if not 0 <= index < trials:
        raise ValueError(f"trial index {index} outside [0, {trials})")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _run_one(task: Tuple[Callable[[np.random.Generator], T], int, int, int]) -> T:
    fn, trials, seed, index = task
    return fn(trial_rng(trials, seed, index))


def run_trials(
    fn: Callable[[np.random.Generator], T],
    trials: int,
    seed: int,
    jobs: int = 1,
) -> List[T]:
    """Run ``fn`` once per trial with its own child generator.

    Results are returned in trial order regardless of ``jobs``; with
    ``jobs > 1`` the trials go through
    :func:`~repro.analysis.executor.run_cells` and ``fn`` must be
    picklable.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    tasks = [(fn, trials, seed, i) for i in range(trials)]
    return run_cells(_run_one, tasks, jobs)[0]
