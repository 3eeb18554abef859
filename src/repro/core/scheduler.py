"""The plan scheduler: the one shard loop every backend runs.

The paper's engine runs one algorithm on every target: the trials are
partitioned into blocks, and each block's per-trial year losses are computed
(event fetch, ELT lookup, financial terms, layer terms).  The targets differ
only in the inner kernel and in how blocks map onto cores or CUDA blocks.
:class:`PlanScheduler` is that outer loop, written once:

1. split the plan's trial range into ``plan.n_shards or
   EngineConfig.trial_shards`` disjoint shards;
2. price every shard into a :class:`~repro.core.results.PartialResult`;
3. merge the partials in a :class:`~repro.core.results.ResultAccumulator`
   (exact: per-trial reductions are trial-local, so any shard count gives
   the same bits);
4. assemble the :class:`~repro.core.results.EngineResult`, stamped with the
   plan's provenance, the wall time and the phase breakdown.

Each backend is a *pricer*: a subclass whose :meth:`PlanScheduler.open`
does the per-run setup (build the stack, load the C kernels, publish shared
memory) and returns a :class:`ShardRun` that prices one trial range.
:meth:`ShardRun.map` is the inline executor; the multicore backend overrides
it with the process pool that maps trial blocks in parallel, and the fleet
(:mod:`repro.distributed.fleet`) with its socket workers.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.core.config import EngineConfig
from repro.core.plan import ExecutionPlan
from repro.core.results import EngineResult, PartialResult, ResultAccumulator
from repro.parallel.device import KernelEstimate
from repro.parallel.partitioner import TrialRange
from repro.utils.timing import PhaseTimer, Timer
from repro.ylt.table import YearLossTable

__all__ = ["PlanScheduler", "ShardRun"]

#: ``price(trials) -> (losses, max_occurrence)``: one trial range's blocks.
Price = Callable[[TrialRange], Tuple[np.ndarray, "np.ndarray | None"]]


class ShardRun:
    """One run of a pricer over one plan: set up, ready to price shards.

    ``details`` is the backend's entry in ``EngineResult.details`` (the
    scheduler adds ``trial_shards`` and the plan provenance); ``modeled``
    carries simulated-device estimates (gpu only).
    """

    def __init__(
        self,
        price: Price | None,
        details: Dict[str, Any],
        modeled: Sequence[KernelEstimate] = (),
    ) -> None:
        self.price = price
        self.details = details
        self.modeled = tuple(modeled)

    def map(self, shards: Sequence[TrialRange]) -> Iterator[PartialResult]:
        """Price the shards in order, in this process (the inline executor)."""
        for trials in shards:
            yield PartialResult(trials, *self.price(trials))

    def close(self) -> None:
        """Release what :meth:`PlanScheduler.open` acquired (nothing by default)."""


class PlanScheduler:
    """Base class of the six backends: executes a plan shard by shard."""

    name = ""
    #: Whether the pricer times the Fig. 6b phases under ``record_phases``.
    records_phases = True

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config if config is not None else EngineConfig(backend=self.name)

    def open(self, plan: ExecutionPlan, timer: PhaseTimer) -> ShardRun:
        """Per-run setup: a :class:`ShardRun` pricing this plan's shards."""
        raise NotImplementedError

    def run_plan(self, plan: ExecutionPlan) -> EngineResult:
        """Execute an :class:`~repro.core.plan.ExecutionPlan`, one pass per shard."""
        config = self.config
        timer = PhaseTimer(enabled=config.record_phases and self.records_phases)
        wall = Timer().start()
        shards = plan.shard_ranges(plan.n_shards or config.trial_shards)
        accumulator = ResultAccumulator.for_plan(plan)
        run = self.open(plan, timer)
        try:
            for partial in run.map(shards):
                accumulator.add(partial)
        finally:
            run.close()

        details = dict(run.details, trial_shards=len(shards))
        details["plan"] = {
            "source": plan.source,
            "n_rows": plan.n_rows,
            "n_unique_rows": plan.n_unique_rows,
            "n_segments": len(plan.segments),
            "trial_range": [plan.trials.start, plan.trials.stop],
        }
        return EngineResult(
            ylt=YearLossTable(
                accumulator.year_losses(), plan.row_names, accumulator.max_occurrence_losses()
            ),
            backend=self.name,
            wall_seconds=wall.stop(),
            workload_shape=plan.workload_shape(),
            phase_breakdown=timer.breakdown() if timer.enabled else None,
            modeled=run.modeled,
            modeled_seconds=(
                float(sum(est.seconds for est in run.modeled)) if run.modeled else None
            ),
            details=details,
        )

