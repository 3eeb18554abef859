"""The RiskService: a long-lived request/response front end for the engine.

The ROADMAP's serving workload — heavy pricing traffic against a stable set
of programs and simulated event sets — is wasteful through the one-shot
:class:`~repro.core.engine.AggregateRiskEngine` facade alone: every call
re-lowers the program to an :class:`~repro.core.plan.ExecutionPlan`,
rebuilds the fused loss stack, and (on multicore) republishes the
shared-memory workspace.  :class:`RiskService` amortises all three across
requests:

* it owns one **warm engine** (created once, reused for every request, with
  multicore shared-workspace retention enabled);
* it keeps a content-addressed :class:`~repro.service.cache.PlanCache` of
  lowered plans + fused stacks, keyed by digests of the program contents,
  the YET and the plan-relevant config (:mod:`repro.service.digests`) — a
  warm request skips straight to the kernel pass and is bit-identical to
  the cold one by construction (same plan object, same kernels);
* it resolves declarative :class:`~repro.service.request.AnalysisRequest`
  documents against a registry of named artifacts (programs, YETs, stacks,
  uncertain layers) with the built-in workload presets as fallback;
* optionally (``result_cache=True`` / ``result_cache_dir=...``) it keeps a
  delta-aware :class:`~repro.service.result_cache.ResultCache` of
  accumulated results for the ``run`` kind: an exact repeat skips the
  kernel pass entirely, a YET extended by appended trials re-prices only
  the appended range, and a program differing in a subset of its layers
  re-prices only the changed stack rows — each served result bit-identical
  to the cold monolithic run by the partial-result merge algebra.

Example::

    service = RiskService(EngineConfig(backend="vectorized"))
    service.register_program("renewal", program)
    service.register_yet("renewal", yet)

    response = service.submit({"kind": "run", "program": "renewal"})
    print(response.summary())           # run on vectorized | cold (...) | 0.0312s
    response = service.submit({"kind": "run", "program": "renewal"})
    print(response.cache.hit)           # True — plan and stack reused
    print(service.cache_stats().summary())

(the CLI equivalents are ``are request --json '{...}'`` for one round trip
and ``are serve`` for a warm NDJSON request loop).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.core.plan import ExecutionPlan, PlanBuilder
from repro.core.results import EngineResult, PartialResult, ResultAccumulator
from repro.financial.terms import LayerTerms
from repro.parallel.device import WorkloadShape
from repro.parallel.partitioner import TrialRange
from repro.portfolio.layer import Layer
from repro.portfolio.pricing import ProgramQuote, price_program
from repro.portfolio.program import ReinsuranceProgram
from repro.service.cache import CacheStats, PlanCache
from repro.service.digests import (
    config_digest,
    layer_digest,
    program_digest,
    stack_digest,
    terms_digest,
    yet_digest,
)
from repro.service.request import AnalysisRequest, RequestValidationError
from repro.service.response import AnalysisResponse, CacheInfo
from repro.service.result_cache import ResultCache, ResultCacheMatch, ResultCacheStats
from repro.yet.table import YearEventTable

__all__ = ["PreparedSubmission", "RiskService", "candidate_variants"]


def candidate_variants(
    program: ReinsuranceProgram | Layer, n: int
) -> List[ReinsuranceProgram]:
    """N candidate-term variants of a program (the Section IV pricing sweep).

    Variant ``i`` scales every layer's occurrence and aggregate retentions by
    ``1 + 0.25 i`` (variant 0 is the program as written).  The layers' cached
    dense loss matrices are shared across variants — only the layer terms
    differ — so a batch over the variants prices them all from one stacked
    gather without rebuilding any matrix.
    """
    program = ReinsuranceProgram.wrap(program)
    if n <= 0:
        raise ValueError(f"variant count must be positive, got {n}")
    # with_terms only shares a matrix that already exists, so build each
    # layer's dense matrix (and its term-netted combined row) before cloning.
    for layer in program.layers:
        layer.loss_matrix().combined_net_losses()
    variants = []
    for i in range(n):
        scale = 1.0 + 0.25 * i
        layers = [
            layer.with_terms(
                LayerTerms(
                    occurrence_retention=layer.terms.occurrence_retention * scale,
                    occurrence_limit=layer.terms.occurrence_limit,
                    aggregate_retention=layer.terms.aggregate_retention * scale,
                    aggregate_limit=layer.terms.aggregate_limit,
                )
            )
            for layer in program.layers
        ]
        variants.append(ReinsuranceProgram(layers, name=f"{program.name}@retx{scale:.2f}"))
    return variants


@dataclass(frozen=True)
class _StackEntry:
    """A registered precomputed stack: rows + per-row terms (+ names)."""

    stack: np.ndarray
    terms: tuple[LayerTerms, ...]
    row_names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PreparedSubmission:
    """A request split at its natural serving seam.

    :meth:`RiskService.prepare` runs the CPU-light half — validation,
    artifact resolution, plan-cache lookup — on the calling thread (the
    serving event loop) and returns this handle; :meth:`execute` runs the
    CPU-heavy kernel pass and is safe to dispatch to a worker thread.
    """

    request: AnalysisRequest
    _execute: Callable[[], "AnalysisResponse"] = field(repr=False)

    def execute(self) -> "AnalysisResponse":
        """Run the deferred heavy half; returns the finalised response."""
        return self._execute()


class _CacheAccounting:
    """Per-request plan-cache bookkeeping (thread-correct by construction).

    The cache's global counters are shared across threads, so a
    before/after delta would attribute another thread's lookups to this
    request; instead every lookup a request performs records itself here.
    """

    __slots__ = ("hits", "misses", "key")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.key = ""

    def record(self, hit: bool, key_prefix: str) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if not self.key:
            self.key = key_prefix

    @property
    def looked_up(self) -> bool:
        return bool(self.hits or self.misses)


class RiskService:
    """Long-lived request/response service over a warm engine and plan cache.

    Parameters
    ----------
    config:
        Engine configuration of the warm engine (ignored when ``engine`` is
        given).
    engine:
        An existing engine to serve from.  Multicore shared-workspace
        retention is enabled on it either way.
    cache_size:
        Maximum number of lowered plans kept warm (LRU).
    volatility_loading, expense_ratio:
        Pricing parameters applied to every quote the service produces.
    result_cache:
        Delta-aware caching of accumulated results for the ``run`` kind
        (:class:`~repro.service.result_cache.ResultCache`).  ``False``/
        ``None`` disables it (the default — plan caching alone), ``True``
        enables an in-memory cache, or pass a configured instance.  When
        ``result_cache_dir`` is given the cache defaults to enabled with
        that persistent tier.
    result_cache_dir:
        Directory of the result cache's on-disk tier (optional).
    result_cache_size:
        Maximum number of accumulated results kept resident (LRU).
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        engine: AggregateRiskEngine | None = None,
        cache_size: int = 32,
        volatility_loading: float = 0.3,
        expense_ratio: float = 0.15,
        result_cache: "ResultCache | bool | None" = None,
        result_cache_dir: str | os.PathLike | None = None,
        result_cache_size: int = 16,
    ) -> None:
        self.engine = engine if engine is not None else AggregateRiskEngine(config)
        self.engine.retain_shared_workspaces(True)
        self.cache = PlanCache(cache_size)
        if isinstance(result_cache, ResultCache):
            self.result_cache: ResultCache | None = result_cache
        elif result_cache or (result_cache is None and result_cache_dir is not None):
            self.result_cache = ResultCache(result_cache_size, disk_dir=result_cache_dir)
        else:
            self.result_cache = None
        self.volatility_loading = float(volatility_loading)
        self.expense_ratio = float(expense_ratio)
        self._programs: Dict[str, ReinsuranceProgram] = {}
        self._yets: Dict[str, YearEventTable] = {}
        self._stacks: Dict[str, _StackEntry] = {}
        self._uncertain: Dict[str, tuple] = {}
        # Generated preset workloads, LRU-bounded: a long-lived serve loop
        # fed ever-changing seeds must not pin one workload per seed forever.
        self._preset_workloads: "OrderedDict[tuple, Any]" = OrderedDict()
        self._max_preset_workloads = 8
        # The serving layer drives concurrent submits from an executor pool;
        # registry mutation and the preset LRU must not race.  Reentrant:
        # _resolve_program -> _preset_workload nests acquisitions.
        self._registry_lock = threading.RLock()

    # ------------------------------------------------------------------ #
    # Artifact registry
    # ------------------------------------------------------------------ #
    def register_program(self, name: str, program: ReinsuranceProgram | Layer) -> None:
        """Register a program under ``name`` for requests to reference."""
        wrapped = ReinsuranceProgram.wrap(program)
        with self._registry_lock:
            self._programs[str(name)] = wrapped

    def register_yet(self, name: str, yet: YearEventTable) -> None:
        """Register a Year Event Table under ``name``."""
        with self._registry_lock:
            self._yets[str(name)] = yet

    def register_stack(
        self,
        name: str,
        stack: np.ndarray,
        terms: Sequence[LayerTerms],
        row_names: Sequence[str] | None = None,
    ) -> None:
        """Register a precomputed term-netted stack for ``run_stacked``."""
        stack = np.ascontiguousarray(stack, dtype=np.float64)
        entry = _StackEntry(
            stack=stack,
            terms=tuple(terms),
            row_names=tuple(str(n) for n in row_names) if row_names is not None else None,
        )
        with self._registry_lock:
            self._stacks[str(name)] = entry

    def register_uncertain(self, name: str, layers: Sequence) -> None:
        """Register uncertain layers (for ``uncertainty`` requests)."""
        with self._registry_lock:
            self._uncertain[str(name)] = tuple(layers)

    def register_workload(self, name: str, workload) -> None:
        """Register a generated workload's program and YET under one name."""
        self.register_program(name, workload.program)
        self.register_yet(name, workload.yet)

    def _preset_workload(self, name: str, seed: int | None):
        from repro.workloads.generator import WorkloadGenerator
        from repro.workloads.presets import preset, preset_names

        if name not in preset_names():
            return None
        key = (name, seed)
        with self._registry_lock:
            if key not in self._preset_workloads:
                spec = preset(name)
                if seed is not None:
                    spec = spec.scaled(seed=seed)
                self._preset_workloads[key] = WorkloadGenerator(spec).generate()
                while len(self._preset_workloads) > self._max_preset_workloads:
                    self._preset_workloads.popitem(last=False)
            self._preset_workloads.move_to_end(key)
            return self._preset_workloads[key]

    def _resolve_program(
        self, name: str, seed: int | None
    ) -> tuple[ReinsuranceProgram, YearEventTable | None]:
        """(program, companion YET) for a registered or preset name."""
        with self._registry_lock:
            if name in self._programs:
                return self._programs[name], self._yets.get(name)
        workload = self._preset_workload(name, seed)
        if workload is not None:
            return workload.program, workload.yet
        raise RequestValidationError(
            f"unknown program {name!r}: not registered and not a workload preset",
            field="program",
        )

    def _resolve_yet(
        self, request: AnalysisRequest, companion: YearEventTable | None
    ) -> YearEventTable:
        if request.yet is not None:
            with self._registry_lock:
                if request.yet in self._yets:
                    return self._yets[request.yet]
            workload = self._preset_workload(request.yet, request.seed)
            if workload is not None:
                return workload.yet
            raise RequestValidationError(
                f"unknown YET {request.yet!r}: not registered and not a workload preset",
                field="yet",
            )
        if companion is None:
            raise RequestValidationError(
                "request names no YET and the program has none registered "
                "under the same name",
                field="yet",
            )
        return companion

    # ------------------------------------------------------------------ #
    # Plan cache plumbing
    # ------------------------------------------------------------------ #
    def _cached_plan(
        self, key: tuple, builder, acct: _CacheAccounting, key_prefix: str
    ) -> tuple[ExecutionPlan, float]:
        """(plan, lowering seconds) — zero-ish seconds on a warm hit."""
        started = time.perf_counter()
        plan, hit = self.cache.get_or_build(key, builder)
        acct.record(hit, key_prefix)
        return plan, time.perf_counter() - started

    def _program_key(
        self, kind: str, programs: Sequence[ReinsuranceProgram], yet: YearEventTable,
        *extras: Any,
    ) -> tuple:
        return (
            kind,
            tuple(program_digest(program) for program in programs),
            yet_digest(yet),
            config_digest(self.engine.config),
            *extras,
        )

    def cache_stats(self) -> CacheStats:
        """Plan-cache counters for monitoring/benchmarks."""
        return self.cache.stats

    def result_cache_stats(self) -> ResultCacheStats | None:
        """Result-cache counters (``None`` when the cache is disabled)."""
        if self.result_cache is None:
            return None
        return self.result_cache.stats

    def close(self) -> None:
        """Release cached plans and any retained shared-memory workspaces."""
        self.cache.clear()
        if self.result_cache is not None:
            self.result_cache.clear()
        self.engine.release_workspaces()

    def __enter__(self) -> "RiskService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Request dispatch
    # ------------------------------------------------------------------ #
    def submit(
        self, request: AnalysisRequest | Mapping[str, Any] | str
    ) -> AnalysisResponse:
        """Validate, resolve and execute one request; returns the response.

        Accepts an :class:`AnalysisRequest`, a plain dict, or a JSON string
        (the three forms ``are request``/``are serve`` and Python callers
        use interchangeably).
        """
        return self.prepare(request).execute()

    def prepare(
        self, request: AnalysisRequest | Mapping[str, Any] | str
    ) -> PreparedSubmission:
        """Split a submission into its CPU-light and CPU-heavy halves.

        Validation, artifact resolution and the plan-cache lookup happen on
        the calling thread before this returns; the returned handle's
        :meth:`~PreparedSubmission.execute` runs the kernel pass (and, for
        the plain ``run`` kind, nothing else that touches the registries).
        The asyncio server keeps the light half on the event loop and ships
        ``execute`` to its executor pool.

        For kinds other than plain ``run`` (and for the result-cache path,
        whose delta lookups interleave with execution) the whole handler is
        deferred into ``execute``; every handler is thread-safe behind the
        registry/plan-cache/result-cache locks, so this is a scheduling
        distinction, not a correctness one.
        """
        if isinstance(request, str):
            request = AnalysisRequest.from_json(request)
        elif isinstance(request, Mapping):
            request = AnalysisRequest.from_dict(request)
        else:
            request.validate()

        started = time.perf_counter()
        acct = _CacheAccounting()

        if request.kind == "run" and not request.workers and not (
            self.result_cache is not None and request.result_cache
        ):
            req = request
            program, companion = self._resolve_program(req.program, req.seed)
            yet = self._resolve_yet(req, companion)
            key = self._program_key("run", [program], yet, req.shards)
            plan, lower_seconds = self._cached_plan(
                key,
                lambda: PlanBuilder.from_program(program, yet, n_shards=req.shards),
                acct,
                key[1][0][:12],
            )

            def execute_run() -> AnalysisResponse:
                executed = time.perf_counter()
                result = self.engine.run_plan(plan)
                execute_seconds = time.perf_counter() - executed
                response = AnalysisResponse(
                    request=req,
                    results=(result,),
                    quotes=self._quotes_for(req, [program], [result]),
                    timings={"lower": lower_seconds, "execute": execute_seconds},
                )
                return self._finalize(req, response, acct, started)

            return PreparedSubmission(request=req, _execute=execute_run)

        handler = {
            "run": self._handle_run,
            "run_many": self._handle_run_many,
            "run_stacked": self._handle_run_stacked,
            "sweep": self._handle_sweep,
            "uncertainty": self._handle_uncertainty,
        }[request.kind]
        req = request

        def execute_deferred() -> AnalysisResponse:
            return self._finalize(req, handler(req, acct), acct, started)

        return PreparedSubmission(request=req, _execute=execute_deferred)

    def _finalize(
        self,
        request: AnalysisRequest,
        response: AnalysisResponse,
        acct: _CacheAccounting,
        started: float,
    ) -> AnalysisResponse:
        """Attach cache accounting, total wall time and backend identity."""
        cache = None
        if acct.looked_up:
            cache = CacheInfo(
                hit=acct.misses == 0,
                hits=acct.hits,
                misses=acct.misses,
                key=acct.key,
            )
        timings = dict(response.timings)
        timings["total"] = time.perf_counter() - started
        return AnalysisResponse(
            request=request,
            results=response.results,
            quotes=response.quotes,
            bands=response.bands,
            cache=cache,
            timings=timings,
            backend=self.engine.backend_name,
            details=response.details,
        )

    # ------------------------------------------------------------------ #
    # Kind handlers (return partially-filled responses; submit finalises)
    # ------------------------------------------------------------------ #
    def _quotes_for(
        self, request: AnalysisRequest, programs: Sequence[ReinsuranceProgram],
        results: Sequence[EngineResult],
    ) -> tuple[ProgramQuote, ...]:
        if not request.quote:
            return ()
        return tuple(
            price_program(
                program,
                result.ylt,
                volatility_loading=self.volatility_loading,
                expense_ratio=self.expense_ratio,
            )
            for program, result in zip(programs, results)
        )

    def _handle_run(
        self, request: AnalysisRequest, acct: _CacheAccounting
    ) -> AnalysisResponse:
        program, companion = self._resolve_program(request.program, request.seed)
        yet = self._resolve_yet(request, companion)
        if request.workers:
            # Fleet execution: the shards are lowered and cached on the
            # workers (digest-keyed), so the local plan and result caches
            # are deliberately bypassed — the merged result is bit-identical
            # to the local run either way.
            executed = time.perf_counter()
            result = self.engine.run_distributed(
                program, yet, workers=request.workers, n_shards=request.shards
            )
            execute_seconds = time.perf_counter() - executed
            return AnalysisResponse(
                request=request,
                results=(result,),
                quotes=self._quotes_for(request, [program], [result]),
                timings={"lower": 0.0, "execute": execute_seconds},
                details={"fleet": dict(result.details.get("fleet", {}))},
            )
        key = self._program_key("run", [program], yet, request.shards)
        if self.result_cache is not None and request.result_cache:
            return self._run_with_result_cache(request, program, yet, key, acct)
        plan, lower_seconds = self._cached_plan(
            key,
            lambda: PlanBuilder.from_program(program, yet, n_shards=request.shards),
            acct,
            key[1][0][:12],
        )
        executed = time.perf_counter()
        result = self.engine.run_plan(plan)
        execute_seconds = time.perf_counter() - executed
        return AnalysisResponse(
            request=request,
            results=(result,),
            quotes=self._quotes_for(request, [program], [result]),
            timings={"lower": lower_seconds, "execute": execute_seconds},
        )

    # ------------------------------------------------------------------ #
    # Result-cache serving (the exact/append/row delta paths of `run`)
    # ------------------------------------------------------------------ #
    def _run_with_result_cache(
        self,
        request: AnalysisRequest,
        program: ReinsuranceProgram,
        yet: YearEventTable,
        plan_key: tuple,
        acct: _CacheAccounting,
    ) -> AnalysisResponse:
        cache = self.result_cache
        assert cache is not None
        started = time.perf_counter()
        pdig, ydig = plan_key[1][0], plan_key[2]
        # request.shards is scheduling, not semantics (merged results are
        # bit-identical for every shard count), but folding it into the
        # config component keeps entries one-to-one with plan-cache keys.
        rc_config = f"{plan_key[3]}|shards={request.shards}"
        row_digests = tuple(layer_digest(layer) for layer in program.layers)
        match = cache.lookup(
            program_digest=pdig,
            config_digest=rc_config,
            yet=yet,
            row_digests=row_digests,
        )

        if match.status == "exact":
            result = match.accumulator.finalize(
                self.engine.backend_name,
                wall_seconds=0.0,
                workload_shape=WorkloadShape.of_program(program, yet),
                details={"result_cache": {"status": "exact"}},
            )
            info = {"status": "exact", "repriced_trials": 0}
            return self._result_cache_response(
                request, program, result, info, time.perf_counter() - started, 0.0
            )
        if match.status == "append":
            return self._serve_append_delta(
                request, program, yet, plan_key, acct, match, rc_config, row_digests
            )
        if match.status == "rows":
            return self._serve_row_delta(
                request, program, yet, plan_key, acct, match, rc_config, row_digests
            )

        return self._run_full_and_store(
            request, program, yet, plan_key, acct, rc_config, row_digests,
            {"status": "miss"},
        )

    def _run_full_and_store(
        self,
        request: AnalysisRequest,
        program: ReinsuranceProgram,
        yet: YearEventTable,
        plan_key: tuple,
        acct: _CacheAccounting,
        rc_config: str,
        row_digests: tuple,
        info: dict,
    ) -> AnalysisResponse:
        """Cold full run of the whole program, stored for later deltas."""
        cache = self.result_cache
        assert cache is not None
        plan, lower_seconds = self._cached_plan(
            plan_key,
            lambda: PlanBuilder.from_program(program, yet, n_shards=request.shards),
            acct,
            plan_key[1][0][:12],
        )
        executed = time.perf_counter()
        result = self.engine.run_plan(plan)
        execute_seconds = time.perf_counter() - executed
        accumulator = ResultAccumulator.for_plan(plan)
        accumulator.add_result(result, plan.trials)
        cache.store(
            program_digest=plan_key[1][0],
            yet_digest=plan_key[2],
            config_digest=rc_config,
            accumulator=accumulator,
            row_digests=row_digests,
            plan_key=plan_key,
        )
        return self._result_cache_response(
            request, program, result, info, lower_seconds, execute_seconds
        )

    def _serve_append_delta(
        self,
        request: AnalysisRequest,
        program: ReinsuranceProgram,
        yet: YearEventTable,
        plan_key: tuple,
        acct: _CacheAccounting,
        match: ResultCacheMatch,
        rc_config: str,
        row_digests: tuple,
    ) -> AnalysisResponse:
        """Price only the appended trial range, merge over the cached blocks.

        Bit-identical to a cold monolithic run by the accumulator algebra:
        the cached blocks are the old trials' columns verbatim, and per-trial
        reductions are trial-local, so pricing the appended range and
        merging is pure column placement.
        """
        cache = self.result_cache
        assert cache is not None
        accumulator = match.accumulator  # extended over [0, yet.n_trials)
        plan, lower_seconds = self._cached_plan(
            plan_key,
            lambda: PlanBuilder.from_program(program, yet, n_shards=request.shards),
            acct,
            plan_key[1][0][:12],
        )
        # The fused stack is YET-independent; borrow the base entry's still-
        # warm plan stack so the delta pass skips the n_rows x catalog build.
        if plan.cached_stack is None and match.plan_key is not None:
            prior = self.cache.peek(match.plan_key)
            if prior is not None and prior.cached_stack is not None:
                plan.adopt_stack(prior.cached_stack)
        executed = time.perf_counter()
        repriced = 0
        for gap in accumulator.missing_ranges():
            accumulator.add_result(self.engine.run_plan(plan.restrict(gap)), gap)
            repriced += gap.size
        execute_seconds = time.perf_counter() - executed
        result = accumulator.finalize(
            self.engine.backend_name,
            wall_seconds=execute_seconds,
            workload_shape=plan.workload_shape(),
            details={"result_cache": {"status": "append", "repriced_trials": repriced}},
        )
        cache.store(
            program_digest=plan_key[1][0],
            yet_digest=plan_key[2],
            config_digest=rc_config,
            accumulator=accumulator,
            row_digests=row_digests,
            plan_key=plan_key,
        )
        info = {
            "status": "append",
            "repriced_trials": repriced,
            "cached_trials": yet.n_trials - repriced,
        }
        return self._result_cache_response(
            request, program, result, info, lower_seconds, execute_seconds
        )

    def _serve_row_delta(
        self,
        request: AnalysisRequest,
        program: ReinsuranceProgram,
        yet: YearEventTable,
        plan_key: tuple,
        acct: _CacheAccounting,
        match: ResultCacheMatch,
        rc_config: str,
        row_digests: tuple,
    ) -> AnalysisResponse:
        """Re-price only the changed stack rows, scatter over cached columns.

        Every kernel path computes stack rows independently (the fused-vs-
        per-layer conformance invariant), so the composed table equals a
        cold run of the full program bit for bit.
        """
        cache = self.result_cache
        assert cache is not None
        changed = list(match.changed_rows)
        sub_program = program.subset(changed)
        sub_key = self._program_key("run", [sub_program], yet, request.shards)
        plan, lower_seconds = self._cached_plan(
            sub_key,
            lambda: PlanBuilder.from_program(sub_program, yet, n_shards=request.shards),
            acct,
            sub_key[1][0][:12],
        )
        executed = time.perf_counter()
        delta_result = self.engine.run_plan(plan)
        execute_seconds = time.perf_counter() - executed
        base = match.accumulator
        # year_losses() returns the single block itself when one block spans
        # the domain — copy before scattering the re-priced rows in.
        losses = base.year_losses().copy()
        losses[changed] = delta_result.ylt.losses
        occ = base.max_occurrence_losses()
        delta_occ = delta_result.ylt.max_occurrence_losses
        if (occ is None) != (delta_occ is None):
            # The cached sibling and the delta run disagree on carrying
            # max-occurrence losses (e.g. the sibling predates occurrence
            # tracking); scattering would silently drop the field, breaking
            # bit-identity with a cold run.  Recompute the full program.
            return self._run_full_and_store(
                request, program, yet, plan_key, acct, rc_config, row_digests,
                {"status": "rows_fallback", "reason": "occurrence_mismatch"},
            )
        if occ is not None:
            occ = occ.copy()
            occ[changed] = delta_occ
        accumulator = ResultAccumulator(
            program.n_layers, TrialRange(0, yet.n_trials), row_names=program.layer_names
        )
        accumulator.add(PartialResult(TrialRange(0, yet.n_trials), losses, occ))
        result = accumulator.finalize(
            self.engine.backend_name,
            wall_seconds=execute_seconds,
            workload_shape=WorkloadShape.of_program(program, yet),
            details={"result_cache": {"status": "rows", "repriced_rows": changed}},
        )
        cache.store(
            program_digest=plan_key[1][0],
            yet_digest=plan_key[2],
            config_digest=rc_config,
            accumulator=accumulator,
            row_digests=row_digests,
            plan_key=plan_key,
        )
        info = {
            "status": "rows",
            "repriced_rows": changed,
            "cached_rows": program.n_layers - len(changed),
        }
        return self._result_cache_response(
            request, program, result, info, lower_seconds, execute_seconds
        )

    def _result_cache_response(
        self,
        request: AnalysisRequest,
        program: ReinsuranceProgram,
        result: EngineResult,
        info: dict,
        lower_seconds: float,
        execute_seconds: float,
    ) -> AnalysisResponse:
        assert self.result_cache is not None
        info = dict(info)
        info["stats"] = self.result_cache.stats.to_dict()
        return AnalysisResponse(
            request=request,
            results=(result,),
            quotes=self._quotes_for(request, [program], [result]),
            timings={"lower": lower_seconds, "execute": execute_seconds},
            details={"result_cache": info},
        )

    def _batch_programs(
        self, request: AnalysisRequest
    ) -> tuple[List[ReinsuranceProgram], YearEventTable]:
        """The program list of a ``run_many``/``sweep`` request."""
        if request.programs:
            programs: List[ReinsuranceProgram] = []
            companion: YearEventTable | None = None
            for name in request.programs:
                program, program_yet = self._resolve_program(name, request.seed)
                programs.append(program)
                companion = companion if companion is not None else program_yet
            return programs, self._resolve_yet(request, companion)
        base, companion = self._resolve_program(request.program, request.seed)
        yet = self._resolve_yet(request, companion)
        return candidate_variants(base, request.variants), yet

    def _handle_run_many(
        self, request: AnalysisRequest, acct: _CacheAccounting
    ) -> AnalysisResponse:
        programs, yet = self._batch_programs(request)
        key = self._program_key(
            "run_many", programs, yet, request.dedupe, request.shards
        )
        plan, lower_seconds = self._cached_plan(
            key,
            lambda: PlanBuilder.from_programs(
                programs, yet, dedupe=request.dedupe, n_shards=request.shards
            ),
            acct,
            key[1][0][:12],
        )
        executed = time.perf_counter()
        results = tuple(plan.split_result(self.engine.run_plan(plan)))
        execute_seconds = time.perf_counter() - executed
        return AnalysisResponse(
            request=request,
            results=results,
            quotes=self._quotes_for(request, programs, results),
            timings={"lower": lower_seconds, "execute": execute_seconds},
        )

    def _handle_run_stacked(
        self, request: AnalysisRequest, acct: _CacheAccounting
    ) -> AnalysisResponse:
        entry = self._stacks.get(request.stack)
        if entry is None:
            raise RequestValidationError(
                f"unknown stack {request.stack!r}: register it with register_stack()",
                field="stack",
            )
        yet = self._resolve_yet(request, None)
        key = (
            "run_stacked",
            stack_digest(entry.stack),
            terms_digest(entry.terms),
            yet_digest(yet),
            config_digest(self.engine.config),
            request.shards,
        )
        plan, lower_seconds = self._cached_plan(
            key,
            lambda: PlanBuilder.from_stack(
                entry.stack,
                entry.terms,
                yet,
                row_names=entry.row_names,
                n_shards=request.shards,
            ),
            acct,
            key[1][:12],
        )
        executed = time.perf_counter()
        result = self.engine.run_plan(plan)
        execute_seconds = time.perf_counter() - executed
        return AnalysisResponse(
            request=request,
            results=(result,),
            timings={"lower": lower_seconds, "execute": execute_seconds},
        )

    def _handle_sweep(
        self, request: AnalysisRequest, acct: _CacheAccounting
    ) -> AnalysisResponse:
        from repro.portfolio.sweep import PortfolioSweepService

        programs, yet = self._batch_programs(request)
        lower_box = [0.0]

        def plan_factory(group, group_yet, dedupe, source, n_shards=0):
            key = self._program_key("sweep", group, group_yet, dedupe, n_shards)
            plan, seconds = self._cached_plan(
                key,
                lambda: PlanBuilder.from_programs(
                    group, group_yet, dedupe=dedupe, source=source, n_shards=n_shards
                ),
                acct,
                key[1][0][:12],
            )
            lower_box[0] += seconds
            return plan

        sweeper = PortfolioSweepService(
            engine=self.engine,
            volatility_loading=self.volatility_loading,
            expense_ratio=self.expense_ratio,
            plan_factory=plan_factory,
            price_quotes=request.quote,
        )
        executed = time.perf_counter()
        results: List[EngineResult] = []
        quotes: List[ProgramQuote] = []
        blocks: List[dict] = []
        for block in sweeper.sweep(
            programs,
            yet,
            max_rows_per_block=request.max_rows_per_block,
            dedupe=request.dedupe,
            shards=request.shards,
        ):
            results.extend(block.results)
            quotes.extend(block.quotes)
            blocks.append(
                {
                    "index": block.index,
                    "n_programs": block.n_programs,
                    "n_rows": block.n_rows,
                    "n_unique_rows": block.n_unique_rows,
                    "wall_seconds": block.wall_seconds,
                    "summary": block.summary(),
                }
            )
        execute_seconds = time.perf_counter() - executed - lower_box[0]
        return AnalysisResponse(
            request=request,
            results=tuple(results),
            quotes=tuple(quotes) if request.quote else (),
            timings={"lower": lower_box[0], "execute": max(execute_seconds, 0.0)},
            details={"blocks": blocks},
        )

    def _handle_uncertainty(
        self, request: AnalysisRequest, acct: _CacheAccounting
    ) -> AnalysisResponse:
        from repro.uncertainty.analysis import SecondaryUncertaintyAnalysis
        from repro.uncertainty.table import LossDistributionFamily, UncertainEventLossTable
        from repro.uncertainty.analysis import UncertainLayer

        registered = self._uncertain.get(request.program)
        if registered is not None:
            uncertain_layers = registered
            base_program = None
            companion = self._yets.get(request.program)
        else:
            base_program, companion = self._resolve_program(request.program, request.seed)
            try:
                family = LossDistributionFamily(request.family)
            except ValueError as exc:
                raise RequestValidationError(
                    f"unknown distribution family {request.family!r}", field="family"
                ) from exc
            uncertain_layers = tuple(
                UncertainLayer(
                    elts=[
                        UncertainEventLossTable.from_elt(
                            elt, cv=request.cv, family=family
                        )
                        for elt in layer.elts
                    ],
                    terms=layer.terms,
                    name=layer.name,
                )
                for layer in base_program.layers
            )
        yet = self._resolve_yet(request, companion)

        analysis = SecondaryUncertaintyAnalysis(
            uncertain_layers, config=self.engine.config, engine=self.engine
        )
        executed = time.perf_counter()
        bands = analysis.run_batched(
            yet,
            request.replications,
            rng=request.seed,
            return_periods=request.return_periods,
            tvar_levels=request.tvar_levels,
            method=request.method,
            replication_block=request.replication_block or None,
            trial_shards=request.shards,
        )
        # Price the expected (mean-loss) program through the cached plan
        # path: the expected program is rebuilt per request, but its content
        # digest is stable, so warm requests reuse the lowered plan.
        expected = analysis.expected_program()
        key = self._program_key("run", [expected], yet, request.shards)
        plan, lower_seconds = self._cached_plan(
            key,
            lambda: PlanBuilder.from_program(expected, yet, n_shards=request.shards),
            acct,
            key[1][0][:12],
        )
        result = self.engine.run_plan(plan)
        execute_seconds = time.perf_counter() - executed - lower_seconds
        quotes = ()
        if request.quote:
            quotes = (
                price_program(
                    expected,
                    result.ylt,
                    volatility_loading=self.volatility_loading,
                    expense_ratio=self.expense_ratio,
                    uncertainty=bands,
                ),
            )
        return AnalysisResponse(
            request=request,
            results=(result,),
            quotes=quotes,
            bands=bands,
            timings={"lower": lower_seconds, "execute": max(execute_seconds, 0.0)},
        )
