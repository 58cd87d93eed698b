"""Trial orchestration: seeded, reproducible experiment runs.

Every experiment in this library is "run T independent trials of a
function of an RNG, then aggregate".  :func:`run_trials` implements
that once, with the seeding discipline the HPC guides prescribe: a
single root :class:`numpy.random.SeedSequence` is spawned into one
child per trial, so trials are independent, reproducible from the
root seed alone, and insensitive to the number of trials requested
before them.

Parallelism: ``jobs > 1`` fans the trials out over a
:class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker
reconstructs its trial's generator from ``(seed, trial_index)`` alone,
so the random streams — and therefore the results — are identical to a
serial run no matter how the scheduler interleaves the work.  The trial
function must be picklable (a module-level function, not a lambda or
closure) when ``jobs > 1``.
"""

from __future__ import annotations

from typing import Callable, List, Tuple, TypeVar

import numpy as np

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
    ``jobs > 1`` the trials run in worker processes and ``fn`` must be
    picklable.
    """
    if jobs <= 1:
        return [fn(rng) for rng in trial_rngs(trials, seed)]
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    from concurrent.futures import ProcessPoolExecutor

    tasks = [(fn, trials, seed, i) for i in range(trials)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_one, tasks))
