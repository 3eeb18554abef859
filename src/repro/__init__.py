"""repro — parallel aggregate risk analysis for catastrophe reinsurance portfolios.

A from-scratch Python reproduction of *Bahl, Baltzer, Rau-Chaplin & Varghese,
"Parallel Simulations for Analysing Portfolios of Catastrophic Event Risk"*
(SC 2012): the Aggregate Risk Engine (ARE) together with every substrate it
depends on — stochastic event catalogs, exposure databases, a catastrophe
model producing Event Loss Tables, Year Event Table simulation, financial and
layer contract terms, Year Loss Tables with PML/TVaR metrics, and parallel
execution backends (vectorized, chunked, multi-process and a simulated
many-core device).

Quickstart::

    from repro import AggregateRiskEngine, EngineConfig
    from repro.workloads import WorkloadGenerator, bench_spec

    workload = WorkloadGenerator(bench_spec()).generate()
    engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
    result = engine.run(workload.program, workload.yet)
    print(result.summary())

Serving deployments front the engine with the request/response layer of
:mod:`repro.service` instead — a warm engine plus a content-addressed cache
of lowered execution plans and fused loss stacks::

    from repro import AnalysisRequest, RiskService

    service = RiskService(EngineConfig(backend="vectorized"))
    service.register_program("renewal", workload.program)
    service.register_yet("renewal", workload.yet)
    response = service.submit({"kind": "run", "program": "renewal"})
    print(response.summary(), service.cache_stats().summary())

(CLI: ``are request`` for one JSON round trip, ``are serve`` for a warm
NDJSON request loop).

Every backend executes as a loop over disjoint *trial shards* whose partial
results merge exactly (``EngineConfig(trial_shards=8)``, ``plan.shard(n)``
+ :class:`~repro.core.results.ResultAccumulator`, a request's ``shards``
field, or ``are run --shards 8``); tables larger than RAM are priced
out-of-core through :class:`~repro.yet.io.YetShardReader`, a trial source
like the in-memory table, with one trial window resident per priced shard.
"""

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine, available_backends
from repro.core.results import (
    EngineResult,
    MetricState,
    PartialResult,
    ResultAccumulator,
)
from repro.elt.table import EventLossTable
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.service import (
    AnalysisRequest,
    AnalysisResponse,
    PlanCache,
    RequestValidationError,
    RiskService,
)
from repro.yet.table import YearEventTable
from repro.ylt.metrics import compute_risk_metrics
from repro.ylt.table import YearLossTable

__version__ = "1.1.0"

__all__ = [
    "__version__",
    "AggregateRiskEngine",
    "AnalysisRequest",
    "AnalysisResponse",
    "EngineConfig",
    "EngineResult",
    "MetricState",
    "PartialResult",
    "PlanCache",
    "ResultAccumulator",
    "RequestValidationError",
    "RiskService",
    "available_backends",
    "EventLossTable",
    "FinancialTerms",
    "LayerTerms",
    "Layer",
    "ReinsuranceProgram",
    "YearEventTable",
    "YearLossTable",
    "compute_risk_metrics",
]
