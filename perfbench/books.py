"""Seeded inputs of the four benchmark workloads and their reference answers.

Everything a run sends to the system is made here from the workload seed:
the book (catalog, YET and program from :class:`~repro.workloads.WorkloadGenerator`),
the request sequence, the open-loop arrival schedule and the delta-refresh
write sequence.  The same seed gives the same inputs; the program under test
only ever sees the generated artifacts.

Reference answers come from a cold monolithic ``AggregateRiskEngine().run``
plus ``price_program`` on a separately generated copy of the same inputs
(:func:`reference_set`, which the workloads call in a child process), so no
cache the served copy warms can leak into the reference.  Answers are
compared exactly: the engine's shard merges are bit-identical, and JSON
round-trips float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro import AggregateRiskEngine, RiskService
from repro.financial.terms import LayerTerms
from repro.portfolio.pricing import ProgramQuote, price_program
from repro.portfolio.program import ReinsuranceProgram
from repro.service import candidate_variants
from repro.workloads import WorkloadGenerator, WorkloadSpec
from repro.yet import YearEventTable, YETSimulator

WORKLOADS = ("quote-interactive", "portfolio-64", "delta-refresh", "fleet-shards")

#: Book shapes: (trials, events/trial, layers, ELTs/layer, catalog size).
SHAPES: Dict[str, Tuple[int, int, int, int, int]] = {
    # The paper's 1M : 1000 : 15 ratios at 1/500 (the `bench` preset).
    "quote-interactive": (2000, 100, 1, 15, 40_000),
    # 51.2M ELT lookups per request.
    "portfolio-64": (2000, 100, 64, 4, 40_000),
    "delta-refresh": (4000, 80, 4, 8, 30_000),
    # The same 51.2M lookups as portfolio-64, spread over 16 layers.
    "fleet-shards": (4000, 100, 16, 8, 40_000),
}

#: Pricing parameters of every service and of the reference quotes.
VOLATILITY_LOADING = 0.3
EXPENSE_RATIO = 0.15

BOOK = "book"

#: quote-interactive: one request in every RUN_MANY_EVERY is a 4-variant
#: `run_many`, at a seeded position, so every window of that many requests
#: carries the same mix.
RUN_MANY_EVERY = 4
RUN_MANY_VARIANTS = 4

#: delta-refresh: trials one append adds, and appends before the YET resets.
APPEND_TRIALS = 100
DELTA_CYCLES = 12
#: Term levels a layer edit steps through (retentions x 1, 1.25, 1.5).
EDIT_LEVELS = 3


def spec_for(workload: str, seed: int) -> WorkloadSpec:
    """The generator spec of ``workload`` under ``seed``."""
    trials, events, layers, elts, catalog = SHAPES[workload]
    return WorkloadSpec(
        n_trials=trials,
        events_per_trial=events,
        n_layers=layers,
        elts_per_layer=elts,
        catalog_size=catalog,
        buildings_per_exposure=100,
        n_regions=32,
        seed=seed,
    )


def generate(workload: str, seed: int):
    """Generate the workload's book (an :class:`AggregateWorkload`)."""
    return WorkloadGenerator(spec_for(workload, seed)).generate()


def new_service(**options: Any) -> RiskService:
    """A service on the default ``EngineConfig()`` with the benchmark's pricing."""
    return RiskService(
        volatility_loading=VOLATILITY_LOADING, expense_ratio=EXPENSE_RATIO, **options
    )


# --------------------------------------------------------------------------- #
# Request sequences
# --------------------------------------------------------------------------- #
def run_document(**extra: Any) -> dict:
    return {"kind": "run", "program": BOOK, "quote": True, **extra}


def run_many_document(**extra: Any) -> dict:
    return {
        "kind": "run_many", "program": BOOK, "variants": RUN_MANY_VARIANTS,
        "quote": True, **extra,
    }


def quote_requests(seed: int, n: int) -> List[dict]:
    """The quote-interactive request mix: `run`+quote and 4-variant `run_many`."""
    rng = np.random.default_rng([seed, 1])
    positions = rng.integers(0, RUN_MANY_EVERY, -(-n // RUN_MANY_EVERY))
    return [
        run_many_document() if i % RUN_MANY_EVERY == positions[i // RUN_MANY_EVERY]
        else run_document()
        for i in range(n)
    ]


def poisson_schedule(seed: int, n: int, rate: float) -> np.ndarray:
    """Due times (seconds from the start) of ``n`` Poisson arrivals at ``rate``/s."""
    rng = np.random.default_rng([seed, 2])
    return np.cumsum(rng.exponential(1.0 / rate, n))


@dataclass(frozen=True)
class DeltaOp:
    """One delta-refresh operation and the state it leaves the book in."""

    kind: str  # "append" | "edit" | "repeat"
    levels: Tuple[int, ...]  # per-layer term level of the program
    appended: int  # appends since the base YET (0 = base)


def delta_ops(seed: int, n_layers: int) -> List[DeltaOp]:
    """One period of the cyclic write/read sequence.

    Each cycle appends trials, edits one layer's terms, and repeats the last
    read.  Every layer is edited ``EDIT_LEVELS`` times per period, so the
    program returns to its base terms, and the YET returns to the base table
    at the period's last append: the sequence repeats forever with bounded
    memory.  The period holds more distinct results than the service's
    result cache keeps, so a state seen a period ago is no longer cached.
    """
    rng = np.random.default_rng([seed, 3])
    edits = rng.permutation(np.repeat(np.arange(n_layers), EDIT_LEVELS))
    cycles = len(edits)
    levels = [0] * n_layers
    ops: List[DeltaOp] = []
    for cycle in range(cycles):
        appended = (cycle + 1) % DELTA_CYCLES if cycle + 1 < cycles else 0
        ops.append(DeltaOp("append", tuple(levels), appended))
        layer = int(edits[cycle])
        levels[layer] = (levels[layer] + 1) % EDIT_LEVELS
        ops.append(DeltaOp("edit", tuple(levels), appended))
        ops.append(DeltaOp("repeat", tuple(levels), appended))
    return ops


class DeltaBook:
    """Materialises delta-refresh states over one generated book."""

    def __init__(self, workload, seed: int) -> None:
        self.program: ReinsuranceProgram = workload.program
        self.base = workload.yet
        events = int(workload.spec.events_per_trial)
        extra = YETSimulator(workload.catalog).simulate_fixed_length(
            APPEND_TRIALS * (DELTA_CYCLES - 1), events, rng=np.random.default_rng([seed, 4])
        )
        self._events = np.concatenate([self.base.event_ids, extra.event_ids])
        self._offsets = np.arange(0, self._events.size + 1, events, dtype=np.int64)

    def yet(self, appended: int) -> YearEventTable:
        """A new table object: the base YET plus ``appended`` appends."""
        n_trials = self.base.n_trials + appended * APPEND_TRIALS
        stop = int(self._offsets[n_trials])
        return YearEventTable(
            self._events[:stop], self._offsets[: n_trials + 1], self.base.catalog_size
        )

    def program_at(self, levels: Sequence[int]) -> ReinsuranceProgram:
        """A new program object with each layer's retentions at its level."""
        layers = []
        for layer, level in zip(self.program.layers, levels):
            scale = 1.0 + 0.25 * level
            layers.append(layer.with_terms(LayerTerms(
                occurrence_retention=layer.terms.occurrence_retention * scale,
                occurrence_limit=layer.terms.occurrence_limit,
                aggregate_retention=layer.terms.aggregate_retention * scale,
                aggregate_limit=layer.terms.aggregate_limit,
            )))
        return ReinsuranceProgram(layers, name=self.program.name)


# --------------------------------------------------------------------------- #
# Reference answers and exact comparison
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Answer:
    """The checked fields of one priced program."""

    program: str
    portfolio_aal: float
    quote: Tuple[Any, ...]
    losses: np.ndarray

    def wire(self) -> Tuple[str, float, float, float]:
        """The fields a TCP client sees: name, AAL, expected loss, premium."""
        return (self.program, self.portfolio_aal, self.quote[1], self.quote[2])


def quote_fields(quote: ProgramQuote) -> Tuple[Any, ...]:
    """Every number of a quote, down to each layer's PML/TVaR table."""
    layers = tuple(
        (
            p.expected_loss, p.volatility_load, p.expense_load, p.technical_premium,
            p.rate_on_line, p.metrics.aal, p.metrics.std,
            tuple(sorted(p.metrics.pml.items())), tuple(sorted(p.metrics.tvar.items())),
            p.metrics.max_loss, p.metrics.n_trials,
        )
        for p in quote.layer_pricings
    )
    return (quote.program_name, quote.total_expected_loss, quote.total_premium, layers)


def reference_answer(program: ReinsuranceProgram, yet: YearEventTable) -> Answer:
    """Cold monolithic run + quote of ``program`` over ``yet``."""
    result = AggregateRiskEngine().run(program, yet)
    quote = price_program(
        program, result.ylt, volatility_loading=VOLATILITY_LOADING, expense_ratio=EXPENSE_RATIO
    )
    return Answer(
        program=quote.program_name,
        portfolio_aal=float(result.ylt.portfolio_losses().mean()),
        quote=quote_fields(quote),
        losses=result.ylt.losses,
    )


def reference_answers(workload, kind: str) -> List[Answer]:
    """Reference answers of a `run` (one) or 4-variant `run_many` request."""
    if kind == "run_many":
        programs = candidate_variants(workload.program, RUN_MANY_VARIANTS)
    else:
        programs = [workload.program]
    return [reference_answer(program, workload.yet) for program in programs]


def reference_set(workload: str, seed: int) -> Dict[Any, List[Answer]]:
    """Every reference answer a run of ``workload`` under ``seed`` checks.

    Keyed by request kind (``"run"``, ``"run_many"``), and for delta-refresh
    by each ``(levels, appended)`` state its operations leave the book in.
    Generates its own copy of the book.
    """
    book = generate(workload, seed)
    if workload == "quote-interactive":
        return {kind: reference_answers(book, kind) for kind in ("run", "run_many")}
    answers: Dict[Any, List[Answer]] = {"run": reference_answers(book, "run")}
    if workload == "delta-refresh":
        states = DeltaBook(book, seed)
        for op in delta_ops(seed, book.program.n_layers):
            key = (op.levels, op.appended)
            if key not in answers:
                answers[key] = [reference_answer(
                    states.program_at(op.levels), states.yet(op.appended)
                )]
    return answers


def response_matches(response, expected: Sequence[Answer]) -> bool:
    """Exact check of an in-process :class:`AnalysisResponse`."""
    if len(response.results) != len(expected) or len(response.quotes) != len(expected):
        return False
    return all(
        quote_fields(quote) == answer.quote
        and float(result.ylt.portfolio_losses().mean()) == answer.portfolio_aal
        and np.array_equal(result.ylt.losses, answer.losses)
        for result, quote, answer in zip(response.results, response.quotes, expected)
    )


def payload_matches(payload: Mapping[str, Any], expected: Sequence[Answer]) -> bool:
    """Exact check of a response line received over TCP."""
    if "error" in payload:
        return False
    results, quotes = payload.get("results", []), payload.get("quotes", [])
    if len(results) != len(expected) or len(quotes) != len(expected):
        return False
    return all(
        (quote["program"], result["portfolio_aal"], quote["expected_loss"], quote["premium"])
        == answer.wire()
        for result, quote, answer in zip(results, quotes, expected)
    )
