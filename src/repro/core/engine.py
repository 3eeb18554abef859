"""The public engine facade.

:class:`AggregateRiskEngine` selects one of the six backends from an
:class:`~repro.core.config.EngineConfig` and drives it through the unified
**ExecutionPlan** pipeline: every public workload is *lowered* to an
:class:`~repro.core.plan.ExecutionPlan` (trials x stacked term-netted layer
rows) by a :class:`~repro.core.plan.PlanBuilder`, and the one shard scheduler
(:class:`~repro.core.scheduler.PlanScheduler`) executes that plan with the
backend as its pricer — facade -> plan -> scheduler.  Typical use::

    from repro.core import AggregateRiskEngine, EngineConfig

    engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
    result = engine.run(program, yet)
    year_losses = result.ylt.layer(0)

Many programs (e.g. an underwriter's candidate-term variants, or several
cedants' submissions over one simulated event set) can be priced in a single
engine invocation with :meth:`AggregateRiskEngine.run_many` — their layers
are concatenated into one plan (identical ELT gathers deduplicated across
variants), the whole batch flows through the fused multi-layer kernel in one
pass over the Year Event Table, and the result is split back per program::

    engine = AggregateRiskEngine()          # fused_layers=True by default
    results = engine.run_many([program_a, program_b], yet)
    premium_basis = results[0].ylt.layer(0)  # program_a's first layer

Workloads that synthesise their own term-netted loss rows — above all the
replication-batched secondary-uncertainty engine, which samples ``R``
realisations of a program and prices them as ``R x n_layers`` fused rows —
enter through :meth:`AggregateRiskEngine.run_stacked`; power users can build
and execute plans directly via :class:`~repro.core.plan.PlanBuilder` and
:meth:`AggregateRiskEngine.run_plan`.  Streaming many programs through
blocks of one engine pass — the scenario-diversity path — is the job of
:class:`~repro.portfolio.sweep.PortfolioSweepService` (CLI: ``are sweep``).

The resulting banded quote of the uncertainty path looks like::

    analysis = SecondaryUncertaintyAnalysis(uncertain_layers)
    quote = analysis.quote(yet, n_replications=64, rng=2012)
    print(quote.summary())            # "...: EL=1,234 premium=2,345 aal_band=[...]"
    print(quote.band("aal").relative_spread())

(the CLI equivalent is ``are uncertainty --replications 64``).

Long-lived serving deployments should front the engine with a
:class:`~repro.service.service.RiskService`: it keeps one warm engine, a
content-addressed cache of lowered plans and fused stacks, and (multicore)
retained shared-memory workspaces, so repeated requests skip straight to
the kernel pass — see :meth:`retain_shared_workspaces`.

The scheduler executes a plan as a loop over disjoint **trial shards**
whose :class:`~repro.core.results.PartialResult` blocks merge exactly
(``EngineConfig(trial_shards=8)``, or ``plan.shard(n)`` merged through a
:class:`~repro.core.results.ResultAccumulator`); the merged result is
bit-identical to the monolithic run for any shard count.
A stored YET is a trial source too: ``run``, ``run_many`` and
:meth:`AggregateRiskEngine.run_sharded` accept a
:class:`~repro.yet.io.YetShardReader`, and the same loop prices a table
larger than RAM with one trial window resident per priced shard or block
plus the accumulated year-loss blocks.

The facade also provides :meth:`AggregateRiskEngine.compare_backends`, which
runs the same workload through several backends (optionally through both the
fused multi-layer path and the per-layer path of each backend) and verifies
that they agree — the programmatic form of the library's core correctness
guarantee.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Mapping, Sequence

import numpy as np

from repro.core.chunked import ChunkedEngine
from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.gpu_sim import GPUSimulatedEngine
from repro.core.multicore import MulticoreEngine
from repro.core.native_backend import NativeEngine
from repro.core.plan import ExecutionPlan, PlanBuilder
from repro.core.results import EngineResult
from repro.core.sequential import SequentialEngine
from repro.core.vectorized import VectorizedEngine
from repro.financial.terms import LayerTerms, LayerTermsVectors
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.yet.io import YetShardReader, shard_count_for_budget
from repro.yet.table import YearEventTable

__all__ = ["AggregateRiskEngine", "available_backends"]

_BACKEND_CLASSES: Dict[str, Callable[[EngineConfig], object]] = {
    "sequential": SequentialEngine,
    "vectorized": VectorizedEngine,
    "chunked": ChunkedEngine,
    "multicore": MulticoreEngine,
    "gpu": GPUSimulatedEngine,
    "native": NativeEngine,
}


def available_backends() -> tuple[str, ...]:
    """Names of the engine backends shipped with the library."""
    return BACKEND_NAMES


class AggregateRiskEngine:
    """Facade over the aggregate-analysis backends."""

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config if config is not None else EngineConfig()
        backend_cls = _BACKEND_CLASSES.get(self.config.backend)
        if backend_cls is None:  # pragma: no cover - EngineConfig already validates
            raise ValueError(f"unknown backend {self.config.backend!r}")
        self._backend = backend_cls(self.config)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @property
    def backend_name(self) -> str:
        """Name of the selected backend."""
        return self.config.backend

    def run_plan(self, plan: ExecutionPlan) -> EngineResult:
        """Execute a prebuilt :class:`~repro.core.plan.ExecutionPlan`.

        This is the single execution entry every other method funnels into:
        ``run``/``run_many``/``run_stacked`` only differ in how they *lower*
        their workload to a plan.  The backend runs the plan's shard loop
        and returns the combined result (use
        :meth:`ExecutionPlan.split_result` to break a multi-segment plan's
        result back apart).
        """
        return self._backend.run_plan(plan)

    def run(
        self, program: ReinsuranceProgram | Layer, yet: YearEventTable | YetShardReader
    ) -> EngineResult:
        """Run the aggregate analysis over a YET or a stored YET's reader."""
        return self.run_plan(PlanBuilder.from_program(program, yet))

    def year_loss_table(self, program: ReinsuranceProgram | Layer, yet: YearEventTable):
        """Run the analysis and return only the Year Loss Table."""
        return self.run(program, yet).ylt

    def run_sharded(
        self,
        program: ReinsuranceProgram | Layer,
        source: YearEventTable | YetShardReader,
        n_shards: int = 0,
        max_shard_bytes: int | None = None,
    ) -> EngineResult:
        """Price a program trial shard by trial shard and merge exactly.

        ``source`` is an in-memory :class:`~repro.yet.table.YearEventTable`
        or an out-of-core :class:`~repro.yet.io.YetShardReader`, whose event
        columns are memory-mapped and copied one trial window per priced
        shard: the resident working set is one shard's window plus the
        fused loss stack plus the accumulated year-loss blocks, however
        large the stored table is.  Either way the program lowers to one
        plan over the source with ``n_shards`` trial shards (or as many as
        keep one shard's event columns within ``max_shard_bytes``; ``0`` =
        ``EngineConfig.trial_shards``), executed by :meth:`run_plan`.

        Per-trial reductions are trial-local, so the merged result is
        bit-identical to a monolithic run of the same table for *any* shard
        count — the engine-level form of the paper's YET partitioning.
        """
        if not isinstance(source, (YearEventTable, YetShardReader)):
            raise TypeError(
                "source must be a YearEventTable or a YetShardReader, "
                f"got {type(source).__name__}"
            )
        if max_shard_bytes is not None:
            n_shards = shard_count_for_budget(source.event_bytes, max_shard_bytes)
        result = self.run_plan(
            PlanBuilder.from_program(
                program, source, n_shards=n_shards or self.config.trial_shards
            )
        )
        sharded = {"n_shards": result.details["trial_shards"]}
        return replace(result, details={**result.details, "sharded": sharded})

    def run_distributed(
        self,
        program: ReinsuranceProgram | Layer,
        source,
        workers: Sequence[str],
        n_shards: int = 0,
        timeout: float = 120.0,
        on_partial=None,
    ) -> EngineResult:
        """Price a program across a fleet of socket workers; exact merge.

        The fleet form of :meth:`run_sharded`: the trial domain is cut into
        disjoint shards on a work-stealing queue, each worker executes its
        shards remotely under this engine's plan-relevant config (shipped
        with every request), and the streamed
        :class:`~repro.core.results.PartialResult` blocks merge into one
        accumulator as they arrive.  The result is **bit-identical** to a
        monolithic :meth:`run` on every backend; a worker that times out or
        dies has its shards retried once and then reassigned to survivors.

        ``workers`` are ``"host:port"`` addresses of ``are worker``
        processes.  ``source`` is an in-memory YET (shipped once per
        worker, digest-cached there) or a
        :class:`~repro.yet.io.YetShardReader` over a store directory every
        worker can reach.  See :mod:`repro.distributed` for the protocol.
        """
        from repro.distributed.fleet import FleetEngine

        with FleetEngine(workers, config=self.config, timeout=timeout) as fleet:
            return fleet.run(program, source, n_shards=n_shards, on_partial=on_partial)

    # ------------------------------------------------------------------ #
    # Warm-engine lifecycle (used by the RiskService)
    # ------------------------------------------------------------------ #
    def retain_shared_workspaces(self, enabled: bool = True) -> None:
        """Keep multicore shared-memory workspaces alive across runs.

        With retention enabled, re-executing the *same*
        :class:`~repro.core.plan.ExecutionPlan` object reuses the published
        shared-memory workspace instead of copying the fused stack and YET
        columns back into ``/dev/shm`` per call — the warm-request transport
        of the :class:`~repro.service.service.RiskService`.  A retained
        workspace is released when its plan is garbage collected, when
        retention is disabled, or via :meth:`release_workspaces`.  Backends
        without a shared-memory transport ignore the toggle.
        """
        backend = self._backend
        if hasattr(backend, "retain_workspaces"):
            backend.retain_workspaces = bool(enabled)
            if not enabled:
                backend.release_workspaces()

    def release_workspaces(self) -> None:
        """Close any shared-memory workspaces retained across runs."""
        backend = self._backend
        if hasattr(backend, "release_workspaces"):
            backend.release_workspaces()

    def close(self) -> None:
        """Release every resource the engine holds beyond a single run."""
        self.release_workspaces()

    def run_many(
        self,
        programs: Sequence[ReinsuranceProgram | Layer],
        yet: YearEventTable | YetShardReader,
        dedupe: bool = True,
    ) -> List[EngineResult]:
        """Price many programs over one YET in a single engine invocation.

        The programs' layers are concatenated into one
        :class:`~repro.core.plan.ExecutionPlan` and executed in one backend
        run — with the default ``fused_layers`` configuration that means a
        single stacked gather covering *every* layer of *every* program per
        pass over the Year Event Table.  The combined result is then split
        back into one :class:`EngineResult` per input program (each carrying
        the shared run's wall time and a ``details["batch"]`` entry
        recording the batch shape).

        All programs must reference the same event-catalog size (they are
        priced against the same YET).  With ``dedupe`` (the default) layers
        of different programs that reference the same ELT objects — e.g.
        candidate-term variants built with
        :meth:`~repro.portfolio.layer.Layer.with_terms` — share one stack
        row, so each distinct term-netted gather is read once regardless of
        how many variants request it.
        """
        normalised = [ReinsuranceProgram.wrap(program) for program in programs]
        if not normalised:
            raise ValueError("run_many needs at least one program")
        plan = PlanBuilder.from_programs(normalised, yet, dedupe=dedupe)
        return plan.split_result(self.run_plan(plan))

    def run_stacked(
        self,
        stack: np.ndarray,
        terms: Sequence[LayerTerms] | LayerTermsVectors,
        yet: YearEventTable,
        layer_names: Sequence[str] | None = None,
        n_shards: int = 0,
    ) -> EngineResult:
        """Price precomputed term-netted stack rows over one YET.

        ``stack`` is an ``(n_rows, catalog_size)`` matrix in the layout of
        :func:`~repro.core.kernels.build_layer_loss_stack` — each row a dense
        per-catalog-entry loss vector already net of per-ELT financial terms —
        and ``terms`` supplies one set of layer terms per row.  This is the
        entry point for workloads that synthesise their own rows instead of
        deriving them from :class:`~repro.portfolio.layer.Layer` objects; the
        replication-batched secondary-uncertainty engine prices all ``R``
        sampled realisations of a program as ``R * n_layers`` stacked rows
        through it in a single pass over the Year Event Table.

        The workload lowers to a synthetic :class:`ExecutionPlan` (no source
        layers), so it is supported by the backends with a fused path —
        vectorized, chunked, multicore and native; the sequential and gpu
        reference backends raise ``ValueError``.  ``n_shards`` executes the plan as
        that many exactly-merged trial shards (``0`` = the config default).
        """
        plan = PlanBuilder.from_stack(
            stack, terms, yet, row_names=layer_names, n_shards=n_shards
        )
        return self.run_plan(plan)

    # ------------------------------------------------------------------ #
    # Cross-backend validation
    # ------------------------------------------------------------------ #
    @staticmethod
    def compare_backends(
        program: ReinsuranceProgram | Layer,
        yet: YearEventTable,
        backends: Iterable[str] = ("sequential", "vectorized", "chunked"),
        base_config: EngineConfig | None = None,
        rtol: float = 1e-9,
        atol: float = 1e-6,
        check_fused: bool = False,
    ) -> Mapping[str, EngineResult]:
        """Run several backends on the same workload and assert agreement.

        With ``check_fused=True`` every backend is additionally run with
        ``fused_layers`` inverted relative to ``base_config`` — i.e. the fused
        multi-layer batch path and the per-layer loop are both exercised and
        must agree.  The extra results are stored under ``"<name>:fused"`` /
        ``"<name>:per-layer"`` keys, which reflect the *requested* config:
        backends without a fused path (sequential, gpu) — and configs where
        the fused path is unavailable, such as chunked with
        ``use_aggregate_shortcut=False`` — simply run their reference path
        twice; check ``result.details["fused_layers"]`` for the path a run
        actually took.

        Returns the per-run results; raises ``AssertionError`` with a
        descriptive message if any run's YLT deviates from the first run's
        YLT beyond the tolerances.
        """
        base = base_config if base_config is not None else EngineConfig()
        runs: List[tuple[str, EngineConfig]] = []
        for name in backends:
            runs.append((name, base.with_backend(name)))
            if check_fused:
                flipped = base.with_backend(name, fused_layers=not base.fused_layers)
                suffix = "fused" if flipped.fused_layers else "per-layer"
                runs.append((f"{name}:{suffix}", flipped))

        results: Dict[str, EngineResult] = {}
        reference_name: str | None = None
        for key, config in runs:
            results[key] = AggregateRiskEngine(config).run(program, yet)
            if reference_name is None:
                reference_name = key
                continue
            reference = results[reference_name].ylt.losses
            candidate = results[key].ylt.losses
            if not np.allclose(reference, candidate, rtol=rtol, atol=atol):
                worst = float(np.max(np.abs(reference - candidate)))
                raise AssertionError(
                    f"backend {key!r} disagrees with {reference_name!r}: "
                    f"max abs difference {worst:.3e}"
                )
        return results
