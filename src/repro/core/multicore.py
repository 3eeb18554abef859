"""Multi-core (multi-process) backend: the OpenMP analogue.

The paper's multi-core engine runs one OpenMP thread per trial with the ELT
direct access tables shared in the process's address space.  The Python
analogue uses worker *processes* (to sidestep the GIL) over *blocks* of
trials.  How the read-only inputs reach the workers depends on the transport:

* under ``fork`` the Year Event Table and the fused loss stack are inherited
  by reference (zero-copy on Linux);
* under ``spawn``/``forkserver`` the plan scheduler publishes the stack and
  the YET columns through :class:`~repro.parallel.shared_memory.SharedArray`
  segments, so each worker *attaches* a zero-copy NumPy view instead of
  unpickling ``n_rows x catalog_size`` doubles per run (the pickling
  transport remains available as the ``EngineConfig.shared_memory="off"``
  baseline).

A stored YET's :class:`~repro.yet.io.YetShardReader` is never published or
pickled as columns: it travels as its store path, each worker maps the
store itself, and every block copies only its own trial window.

``EngineConfig.n_workers`` plays the role of the paper's "number of cores"
(Fig. 3a) and ``EngineConfig.oversubscription`` with dynamic scheduling plays
the role of "threads per core" (Fig. 3b): the trial range is over-decomposed
into ``oversubscription x n_workers`` chunks that idle workers pull from the
pool's queue.

The backend is the one parallel executor under the shared shard loop
(:class:`~repro.core.scheduler.PlanScheduler`): it maps every shard's trial
blocks over the pool, and each worker prices its block with the same fused
and per-layer kernels as the vectorized backend.

For serving workloads the backend can additionally *retain* the published
workspace across runs (``retain_workspaces``): re-executing the same plan
object — which is exactly what the
:class:`~repro.service.service.RiskService` plan cache produces — reuses
the shared segments instead of copying the stack and YET columns back into
``/dev/shm`` per request.  A retained workspace is closed when its plan is
garbage collected, when retention is switched off, or via
:meth:`MulticoreEngine.release_workspaces`; the module-level ``atexit``
guard in :mod:`repro.parallel.shared_memory` backstops process exit.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels import layer_trial_losses_batch, layer_trial_losses_per_layer
from repro.core.plan import ExecutionPlan
from repro.core.results import PartialResult
from repro.core.scheduler import PlanScheduler, ShardRun
from repro.financial.terms import LayerTerms, LayerTermsVectors
from repro.elt.combined import LayerLossMatrix
from repro.parallel.executor import ParallelConfig, TrialBlockExecutor
from repro.parallel.partitioner import TrialRange
from repro.parallel.shared_memory import SharedArrayDescriptor, SharedWorkspace
from repro.utils.timing import PhaseTimer
from repro.yet.io import YetShardReader
from repro.yet.table import YearEventTable

__all__ = ["MulticoreEngine", "MulticoreContext"]


@dataclass
class MulticoreContext:
    """Read-only data shared with the worker processes.

    Attributes
    ----------
    yet:
        The plan's trial source.  An in-memory table is inherited, pickled
        or rebuilt around shared-memory views; a
        :class:`~repro.yet.io.YetShardReader` travels as its store path and
        each worker maps the file itself.
    terms:
        Structure-of-arrays layer terms with ``stack``; one
        :class:`LayerTerms` per layer with ``matrices``.
    use_shortcut, record_max_occurrence:
        Engine options forwarded to the kernel.
    stack:
        Precomputed fused ``(n_rows, catalog_size)`` loss stack; when present
        each worker prices *all* rows of its trial block through the fused
        batch kernel.
    row_map:
        Optional plan-row -> stack-row dedup mapping (see
        :class:`~repro.core.plan.ExecutionPlan`).
    matrices:
        One dense loss matrix per layer: the per-layer ablation, used when
        there is no ``stack``.
    attachments:
        Worker-side keep-alive handles for shared-memory views; ``None``
        when the arrays were inherited or pickled.
    """

    yet: YearEventTable | YetShardReader | None
    terms: LayerTermsVectors | Sequence[LayerTerms]
    use_shortcut: bool
    record_max_occurrence: bool
    stack: np.ndarray | None = None
    row_map: np.ndarray | None = None
    matrices: Sequence[LayerLossMatrix] | None = None
    attachments: Any = None


class _SharedPlanContext:
    """Picklable worker initializer: attach the plan's shared arrays.

    The parent publishes the fused stack — and an in-memory YET's columns —
    as shared segments; each worker calls this factory once (in the pool
    initializer) to attach zero-copy views and fill them into ``template``,
    a :class:`MulticoreContext` without its big arrays.  Only the compact
    descriptors, the small term vectors and (for a reader) the store path
    travel through the pickle channel.
    """

    def __init__(
        self,
        descriptors: Mapping[str, SharedArrayDescriptor],
        template: MulticoreContext,
        catalog_size: int,
    ) -> None:
        self.descriptors = dict(descriptors)
        self.template = template
        self.catalog_size = catalog_size

    def __call__(self) -> MulticoreContext:
        attachments = SharedWorkspace.attach_all(self.descriptors)
        yet = self.template.yet
        if yet is None:
            yet = YearEventTable.from_validated(
                attachments["event_ids"].array,
                attachments["trial_offsets"].array,
                self.catalog_size,
            )
        return replace(
            self.template, yet=yet, stack=attachments["stack"].array, attachments=attachments
        )


def _analyse_block(context: MulticoreContext, block: TrialRange) -> tuple[int, np.ndarray, np.ndarray | None]:
    """Worker-side task: price one block of trials for every row.

    Returns ``(start_trial, losses, max_occurrence)`` where ``losses`` has
    shape ``(n_rows, block_size)``.
    """
    event_ids, offsets = context.yet.trial_window(block.start, block.stop)
    options = dict(
        use_shortcut=context.use_shortcut,
        record_max_occurrence=context.record_max_occurrence,
    )
    if context.stack is not None:
        losses, max_occ = layer_trial_losses_batch(
            (), event_ids, offsets, context.terms,
            stack=context.stack, row_map=context.row_map, **options,
        )
    else:
        losses, max_occ = layer_trial_losses_per_layer(
            context.matrices, event_ids, offsets, context.terms, **options
        )
    return block.start, losses, max_occ


def _publish(plan: ExecutionPlan, stack: np.ndarray) -> SharedWorkspace:
    """A shared-memory workspace holding the stack and an in-memory YET's columns.

    A reader's columns are never published: each worker maps the store.
    """
    workspace = SharedWorkspace()
    workspace.add("stack", stack)
    if isinstance(plan.yet, YearEventTable):
        workspace.add("event_ids", plan.yet.event_ids)
        workspace.add("trial_offsets", plan.yet.trial_offsets)
    return workspace


class _PoolRun(ShardRun):
    """The process-pool executor: every shard's trial blocks mapped in parallel.

    ``workspace`` is the shared-memory workspace this run owns (closed by
    :meth:`close`); retained workspaces outlive the run and are not set.
    """

    def __init__(
        self,
        executor: TrialBlockExecutor,
        details: Dict[str, Any],
        workspace: SharedWorkspace | None = None,
    ) -> None:
        super().__init__(None, details)
        self.executor = executor
        self.workspace = workspace

    def map(self, shards: Sequence[TrialRange]):
        # Each shard is decomposed into the configured worker schedule; the
        # flattened block list runs through one pool (one worker start-up
        # for the whole plan, however many shards it has).  A worker block
        # is a trial shard too — disjoint by construction — so the merged
        # result is bit-identical for any worker count or policy.
        blocks = [
            TrialRange(trials.start + block.start, trials.start + block.stop)
            for trials in shards
            for block in self.executor.schedule_for(trials.size).blocks
        ]
        self.details["n_blocks"] = len(blocks)
        for start, losses, max_occ in self.executor.run(_analyse_block, work_items=blocks):
            yield PartialResult(TrialRange(start, start + losses.shape[1]), losses, max_occ)

    def close(self) -> None:
        # A worker dying mid-block must not leak the shared segments: the
        # owner unlinks them on every exit path (an atexit guard in
        # shared_memory.py backstops even this).
        if self.workspace is not None:
            self.workspace.close()


class MulticoreEngine(PlanScheduler):
    """Multi-process backend partitioning trials over worker processes."""

    name = "multicore"
    # Worker processes do not report phase times back.
    records_phases = False

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        #: Keep published workspaces alive across runs (warm-engine serving).
        self.retain_workspaces = False
        self._retained: "weakref.WeakKeyDictionary[ExecutionPlan, SharedWorkspace]" = (
            weakref.WeakKeyDictionary()
        )
        # Concurrent serving runs executions on a thread pool; without a lock
        # two threads could both miss the lookup and publish (and leak) a
        # second /dev/shm workspace for the same plan.
        self._retained_lock = threading.Lock()

    def _parallel_config(self) -> ParallelConfig:
        config = self.config
        return ParallelConfig(
            n_workers=config.n_workers,
            policy=config.scheduling,
            oversubscription=config.oversubscription,
            start_method=config.start_method,
        )

    def _uses_shared_memory(self) -> bool:
        """Whether the plan scheduler publishes its arrays via shared memory."""
        config = self.config
        if config.n_workers == 1:
            # The executor's serial fast path runs in-process: there is no
            # transport at all, so copying the arrays into /dev/shm would be
            # pure overhead (and tmpfs pressure) even under "on".
            return False
        if config.shared_memory == "on":
            return True
        if config.shared_memory == "off":
            return False
        # auto: fork inherits the parent's address space for free; any other
        # start method would pickle the arrays once per worker.
        return config.start_method != "fork"

    # ------------------------------------------------------------------ #
    # Workspace retention (warm-engine serving)
    # ------------------------------------------------------------------ #
    def _acquire_workspace(self, plan: ExecutionPlan, stack: np.ndarray) -> tuple[SharedWorkspace, bool, bool]:
        """(workspace, this run owns its teardown, it was reused).

        Without retention the caller publishes and closes per run.  With
        retention the workspace is stored against the plan object: a second
        execution of the same plan attaches to the already-published
        segments, and a ``weakref.finalize`` on the plan guarantees the
        segments are unlinked no later than the plan's own death.
        """
        if not self.retain_workspaces:
            return _publish(plan, stack), True, False
        with self._retained_lock:
            workspace = self._retained.get(plan)
            if workspace is not None:
                return workspace, False, True
            workspace = self._retained[plan] = _publish(plan, stack)
            weakref.finalize(plan, workspace.close)
            return workspace, False, False

    def release_workspaces(self) -> None:
        """Close every workspace retained across runs (idempotent)."""
        with self._retained_lock:
            workspaces = list(self._retained.values())
            self._retained.clear()
        for workspace in workspaces:
            workspace.close()

    # ------------------------------------------------------------------ #
    # Per-run setup
    # ------------------------------------------------------------------ #
    def open(self, plan: ExecutionPlan, timer: PhaseTimer) -> ShardRun:
        """Build the worker context and the pool run for one plan.

        Fused runs ship the plan's stack (inherited, pickled or published
        through shared memory); the per-layer ablation ships the layers'
        dense matrices.
        """
        config = self.config
        fused = config.fused_layers or not plan.has_layers
        use_shm = fused and self._uses_shared_memory()
        details: Dict[str, Any] = {
            "n_workers": config.n_workers,
            "scheduling": str(config.scheduling),
            "oversubscription": config.oversubscription,
            "n_blocks": 0,
            "fused_layers": fused,
            "shared_memory": use_shm,
            "workspace_reused": False,
        }
        parallel_config = self._parallel_config()
        options = dict(
            use_shortcut=config.use_aggregate_shortcut,
            record_max_occurrence=config.record_max_occurrence,
        )
        yet = plan.yet
        if isinstance(yet, YearEventTable):
            # Workers read event ids only: the timestamps stay behind.
            yet = YearEventTable.from_validated(yet.event_ids, yet.trial_offsets, yet.catalog_size)
        if fused:
            context = MulticoreContext(
                yet,
                terms=plan.terms,
                stack=plan.stack(timer),
                row_map=plan.row_map,
                **options,
            )
        else:
            context = MulticoreContext(
                yet,
                terms=[layer.terms for layer in plan.layers],
                matrices=[layer.loss_matrix() for layer in plan.layers],
                **options,
            )
        if not use_shm:
            return _PoolRun(TrialBlockExecutor(parallel_config, context=context), details)
        # Publish the big read-only arrays once; workers attach zero-copy
        # views instead of unpickling them per worker.  Under retention a
        # re-executed plan reuses the segments published by its first run.
        workspace, owns_workspace, details["workspace_reused"] = self._acquire_workspace(
            plan, context.stack
        )
        factory = _SharedPlanContext(
            workspace.descriptors(),
            replace(context, yet=None if isinstance(yet, YearEventTable) else yet, stack=None),
            yet.catalog_size,
        )
        return _PoolRun(
            TrialBlockExecutor(parallel_config, context_factory=factory),
            details,
            workspace if owns_workspace else None,
        )
