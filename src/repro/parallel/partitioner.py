"""Trial-range partitioning.

The unit of parallel work in the aggregate analysis is the trial.  These
helpers split the trial index range ``[0, n_trials)`` into work items:

* :func:`block_partition` — ``k`` contiguous, nearly-equal blocks (the static
  OpenMP-style decomposition used with one block per core);
* :func:`chunk_partition` — fixed-size contiguous chunks (the decomposition
  used for dynamic scheduling / oversubscription, where many more chunks than
  workers are queued);
* :func:`cyclic_partition` — round-robin assignment of individual trials (kept
  for completeness; poor locality makes it a baseline, not a recommendation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

__all__ = [
    "TrialRange",
    "block_partition",
    "chunk_partition",
    "cyclic_partition",
    "shard_partition",
]


@dataclass(frozen=True)
class TrialRange:
    """A contiguous range of trial indices ``[start, stop)`` owned by one work item."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise ValueError(f"invalid trial range [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        """Number of trials in the range."""
        return self.stop - self.start

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.start, self.stop))

    def __len__(self) -> int:
        return self.size


def block_partition(n_trials: int, n_blocks: int) -> List[TrialRange]:
    """Split ``n_trials`` into at most ``n_blocks`` contiguous, nearly equal blocks.

    The first ``n_trials % n_blocks`` blocks receive one extra trial.  Every
    returned range is non-empty: with ``n_blocks > n_trials`` only
    ``n_trials`` single-trial blocks are produced, and zero trials produce an
    empty list.  An empty ``TrialRange`` is never emitted — a zero-size work
    item would make a worker pay its scheduling overhead for nothing and
    forces every consumer (executors, accumulators) to special-case it.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be non-negative, got {n_trials}")
    if n_blocks <= 0:
        raise ValueError(f"n_blocks must be positive, got {n_blocks}")
    n_blocks = min(n_blocks, n_trials)
    if n_blocks == 0:
        return []
    base = n_trials // n_blocks
    remainder = n_trials % n_blocks
    ranges: List[TrialRange] = []
    start = 0
    for block in range(n_blocks):
        size = base + (1 if block < remainder else 0)
        ranges.append(TrialRange(start, start + size))
        start += size
    return ranges


def chunk_partition(n_trials: int, chunk_size: int) -> List[TrialRange]:
    """Split ``n_trials`` into contiguous chunks of at most ``chunk_size`` trials.

    Zero trials produce an empty list; like :func:`block_partition`, an empty
    ``TrialRange`` is never emitted.
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be non-negative, got {n_trials}")
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    ranges = []
    for start in range(0, n_trials, chunk_size):
        ranges.append(TrialRange(start, min(start + chunk_size, n_trials)))
    return ranges


def shard_partition(n_trials: int, n_shards: int) -> List[TrialRange]:
    """The trial-shard decomposition of the paper's map/reduce shape.

    Splits ``[0, n_trials)`` into at most ``n_shards`` contiguous, nearly
    equal, non-empty shards — the unit over which
    :class:`~repro.core.results.PartialResult` blocks are computed and merged.
    This is :func:`block_partition` under its sharding name: keeping a
    dedicated entry point lets the plan layer state its contract ("shards are
    disjoint, ordered, and cover the trial range") in one place.
    """
    return block_partition(n_trials, n_shards)


def cyclic_partition(n_trials: int, n_workers: int) -> List[np.ndarray]:
    """Round-robin assignment of trial indices to ``n_workers`` workers.

    Returns one index array per worker (worker ``w`` gets trials
    ``w, w + n_workers, w + 2*n_workers, ...``).
    """
    if n_trials < 0:
        raise ValueError(f"n_trials must be non-negative, got {n_trials}")
    if n_workers <= 0:
        raise ValueError(f"n_workers must be positive, got {n_workers}")
    indices = np.arange(n_trials, dtype=np.int64)
    return [indices[w::n_workers] for w in range(n_workers)]
