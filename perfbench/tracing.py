"""In-memory span tracing installed from outside the program.

The benchmark's traced run wraps public functions of :mod:`repro` at the
attribute each caller looks them up through (``repro.service.service.price_program``
as well as ``repro.portfolio.pricing.price_program`` where both exist), records
one span per call and keeps every span in memory until the run ends.  Nothing
under ``src/`` is edited.

A span is ``(request, span_id, parent_id, name, start, end)`` with times from
``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux, so spans written by the
server process line up with the client's clock).  The request and the parent
travel in a :mod:`contextvars` variable, which asyncio tasks copy; a hand-off
carries it from ``RiskService.prepare`` to ``PreparedSubmission.execute`` on
the server's executor thread, and the fleet coordinator's threads, which start
without a context, fall back to the *ambient* span of the ``FleetEngine.run``
call that started them.

:func:`attribute` turns one request's spans into self times that add up to
the request's client latency exactly: a span keeps the part of its interval
that none of its children cover, and children running at the same time (the
fleet's per-worker threads) share the overlap equally.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import re
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["Tracer", "attribute", "install_layer_spans", "request_id_of_line"]

Span = Tuple[Any, int, int, str, float, float]

_LINE_ID = re.compile(r'\{"id": (\d+)')


def request_id_of_line(text: str) -> int | None:
    """The numeric ``id`` a benchmark client puts first on its request line."""
    match = _LINE_ID.match(text)
    return int(match.group(1)) if match else None


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[Any, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.ambient: Tuple[Any, int] | None = None
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._handoff: Dict[int, contextvars.Context] = {}
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def context(self) -> Tuple[Any, int] | None:
        """``(request, parent span)`` of the calling code, if it is traced."""
        ctx = self._current.get()
        return ctx if ctx is not None else self.ambient

    @contextlib.contextmanager
    def request(self, request: Any):
        """Calls made inside the block belong to ``request`` (under its root)."""
        token = self._current.set((request, 0))
        try:
            yield
        finally:
            self._current.reset(token)

    def root(self, request: Any, start: float, end: float) -> None:
        """Record a request's client-side span (span id 0, no parent)."""
        self.spans.append((request, 0, -1, "client", start, end))

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to a per-request counter of the calling request."""
        ctx = self.context()
        if ctx is not None:
            self.counters[ctx[0]][name] += amount

    def traced(
        self,
        fn: Callable,
        name: str,
        *,
        request_of: Callable[..., Any] | None = None,
        ambient: bool = False,
        capture: bool = False,
        resume: bool = False,
    ) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``request_of(*args)`` opens a new request (a server's line handler);
        otherwise the call joins the caller's request and is left untraced
        outside one.  ``ambient`` publishes the span to threads started
        without a context; ``capture`` remembers the caller's context for
        the returned object, and ``resume`` restores it when that object
        (the first argument) is used on another thread.
        """
        tracer = self
        current = self._current

        def enter(args) -> Tuple[Any, int, int] | None:
            if request_of is not None:
                request = request_of(*args)
                return None if request is None else (request, -1, next(tracer._ids))
            ctx = current.get()
            if ctx is None:
                ctx = tracer.ambient
            if ctx is None:
                return None
            return ctx[0], ctx[1], next(tracer._ids)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                opened = enter(args)
                if opened is None:
                    return await fn(*args, **kwargs)
                request, parent, sid = opened
                token = current.set((request, sid))
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    current.reset(token)
                    tracer.spans.append((request, sid, parent, name, start, end))

            return traced_async

        @functools.wraps(fn)
        def traced_sync(*args, **kwargs):
            if resume:
                handed = tracer._handoff.pop(id(args[0]), None)
                if handed is not None and current.get() is None:
                    return handed.run(traced_sync, *args, **kwargs)
            opened = enter(args)
            if opened is None:
                return fn(*args, **kwargs)
            request, parent, sid = opened
            token = current.set((request, sid))
            previous_ambient = tracer.ambient
            if ambient:
                tracer.ambient = (request, sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                current.reset(token)
                if ambient:
                    tracer.ambient = previous_ambient
                tracer.spans.append((request, sid, parent, name, start, end))
            if capture:
                tracer._handoff[id(result)] = contextvars.copy_context()
            return result

        return traced_sync

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` (remembering the original for :meth:`uninstall`)."""
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, name: str, **options: Any) -> None:
        """Trace ``owner.attr`` (a module function or a class's method)."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            replacement: Any = staticmethod(self.traced(raw.__func__, name, **options))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.traced(raw.__func__, name, **options))
        else:
            replacement = self.traced(raw, name, **options)
        self.patch(owner, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Export
    # ------------------------------------------------------------------ #
    def by_request(self) -> Dict[Any, List[Span]]:
        grouped: Dict[Any, List[Span]] = defaultdict(list)
        for span in self.spans:
            grouped[span[0]].append(span)
        return grouped


class _WaitTimedStream:
    """A frame stream whose blocking ``readline`` is a ``fleet.wait`` span.

    ``recv_frame`` first blocks on the reply's control line — the time the
    worker spends pricing the shard — and then reads the binary payload;
    splitting the two keeps waiting out of ``fleet.frame_recv``.
    """

    def __init__(self, stream: Any, readline: Callable[[], bytes]) -> None:
        self._stream = stream
        self.readline = readline

    def read(self, n: int) -> bytes:
        return self._stream.read(n)


def install_layer_spans(tracer: Tracer, *, server: bool = False) -> None:
    """Wrap every layer boundary the benchmark reports.

    ``server`` also wraps the asyncio server's line handler (which opens one
    request per NDJSON line whose ``id`` the client put first) and its JSON
    codec, for the process that runs :class:`~repro.service.server.RiskServer`.
    """
    import json

    import repro.distributed.fleet as fleet_mod
    import repro.portfolio.pricing as pricing_mod
    import repro.service.digests as digests_mod
    import repro.service.result_cache as result_cache_mod
    import repro.service.server as server_mod
    import repro.service.service as service_mod
    from repro.core.engine import AggregateRiskEngine
    from repro.core.plan import ExecutionPlan, PlanBuilder
    from repro.core.results import PartialResult, ResultAccumulator
    from repro.distributed.fleet import FleetEngine
    from repro.service.cache import PlanCache
    from repro.service.request import AnalysisRequest
    from repro.service.response import AnalysisResponse
    from repro.service.result_cache import ResultCache
    from repro.service.service import PreparedSubmission, RiskService

    wrap = tracer.wrap
    if server:
        wrap(server_mod.RiskServer, "_serve_line", "server.self",
             request_of=lambda _self, text, *rest: request_id_of_line(text))
        tracer.patch(server_mod, "json", types.SimpleNamespace(
            loads=tracer.traced(json.loads, "request.decode"),
            dumps=tracer.traced(json.dumps, "response.encode"),
            JSONDecodeError=json.JSONDecodeError,
        ))
    wrap(AnalysisRequest, "from_dict", "request.decode")
    wrap(AnalysisRequest, "from_json", "request.decode")
    wrap(RiskService, "prepare", "service.prepare", capture=True)
    wrap(PreparedSubmission, "execute", "service.execute", resume=True)
    for module in (service_mod, fleet_mod):
        wrap(module, "program_digest", "digests.program")
        wrap(module, "yet_digest", "digests.yet")
    wrap(digests_mod, "layer_digest", "digests.layer")
    wrap(digests_mod, "yet_digest", "digests.yet")
    wrap(service_mod, "layer_digest", "digests.layer")
    wrap(result_cache_mod, "yet_digest", "digests.yet")
    wrap(result_cache_mod, "yet_prefix_digest", "digests.yet")
    wrap(PlanCache, "get_or_build", "plan_cache.lookup")
    wrap(ResultCache, "lookup", "result_cache.lookup")
    wrap(ResultCache, "store", "result_cache.store")
    wrap(PlanBuilder, "from_program", "plan.lower")
    wrap(PlanBuilder, "from_programs", "plan.lower")
    wrap(ExecutionPlan, "stack", "plan.stack_build")
    wrap(ExecutionPlan, "restrict", "plan.restrict")
    wrap(AggregateRiskEngine, "run_plan", "engine.kernel")
    for method in ("add", "add_result", "finalize"):
        wrap(ResultAccumulator, method, "results.merge")
    wrap(service_mod, "price_program", "pricing.quote")
    wrap(pricing_mod, "compute_risk_metrics", "metrics.risk_metrics")
    wrap(AnalysisResponse, "to_dict", "response.encode")
    wrap(FleetEngine, "run", "fleet.run", ambient=True)
    wrap(fleet_mod, "send_frame", "fleet.frame_send")
    wrap(PartialResult, "from_bytes", "fleet.partial_decode")

    recv_frame = fleet_mod.recv_frame
    traced_recv = tracer.traced(recv_frame, "fleet.frame_recv")

    def recv_frame_split(stream):
        stream = _WaitTimedStream(stream, tracer.traced(stream.readline, "fleet.wait"))
        document, payload = traced_recv(stream)
        if payload is not None:
            tracer.count("fleet.bytes_received", len(payload))
        return document, payload

    tracer.patch(fleet_mod, "recv_frame", recv_frame_split)


# --------------------------------------------------------------------------- #
# Self-time attribution
# --------------------------------------------------------------------------- #
def attribute(spans: Sequence[Span]) -> Dict[str, float]:
    """Seconds of one request's client latency per span name.

    ``spans`` holds the request's spans including its ``client`` root (span
    id 0); spans recorded in another process with no parent hang off the
    root.  The returned values sum to the root's duration.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    root = None
    for span in spans:
        if span[1] == 0:
            root = span
        else:
            children[span[2] if span[2] != -1 else 0].append(span)
    if root is None:
        raise ValueError("request has no client root span")
    totals: Dict[str, float] = defaultdict(float)
    _attribute(root, [(root[4], root[5], 1.0)], children, totals)
    return dict(totals)


def _attribute(
    span: Span,
    segments: Iterable[Tuple[float, float, float]],
    children: Dict[int, List[Span]],
    totals: Dict[str, float],
) -> None:
    kids = children.get(span[1], [])
    shares: Dict[int, List[Tuple[float, float, float]]] = defaultdict(list)
    for lo, hi, weight in segments:
        cuts = sorted({lo, hi, *(
            t for kid in kids for t in (kid[4], kid[5]) if lo < t < hi
        )})
        for a, b in zip(cuts, cuts[1:]):
            active = [i for i, kid in enumerate(kids) if kid[4] <= a and kid[5] >= b]
            if not active:
                totals[span[3]] += weight * (b - a)
                continue
            for i in active:
                shares[i].append((a, b, weight / len(active)))
    for i, kid_segments in shares.items():
        _attribute(kids[i], kid_segments, children, totals)
