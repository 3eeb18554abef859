"""Self-tests of the benchmark's generators, tracing and output.

    python3 -m pytest -q perfbench/test_perfbench.py

Not part of the tier-1 suite (``pytest.ini`` pins ``testpaths = tests``); the
smoke passes start servers and workers and take about two minutes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import books  # noqa: E402
import numpy as np  # noqa: E402
from repro.service import program_digest, yet_digest  # noqa: E402
from tracing import attribute  # noqa: E402

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def inputs_of(workload: str, seed: int):
    generated = books.generate(workload, seed)
    digests = (program_digest(generated.program), yet_digest(generated.yet))
    if workload == "delta-refresh":
        book = books.DeltaBook(generated, seed)
        ops = books.delta_ops(seed, generated.program.n_layers)
        digests += tuple(
            (op.kind, program_digest(book.program_at(op.levels)), yet_digest(book.yet(op.appended)))
            for op in ops
        )
    return digests


@pytest.mark.parametrize("workload", books.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    inputs = inputs_of(workload, 5)
    assert inputs_of(workload, 5) == inputs
    assert inputs_of(workload, 6)[:2] != inputs[:2]


def test_request_sequences_follow_the_seed():
    assert books.quote_requests(3, 200) == books.quote_requests(3, 200)
    assert books.quote_requests(3, 200) != books.quote_requests(4, 200)
    kinds = {document["kind"] for document in books.quote_requests(3, 200)}
    assert kinds == {"run", "run_many"}
    assert list(books.poisson_schedule(3, 50, 100.0)) == list(books.poisson_schedule(3, 50, 100.0))
    assert list(books.poisson_schedule(3, 50, 100.0)) != list(books.poisson_schedule(4, 50, 100.0))
    assert books.delta_ops(3, 4) == books.delta_ops(3, 4)
    assert books.delta_ops(3, 4) != books.delta_ops(4, 4)


def test_delta_sequence_is_periodic():
    ops = books.delta_ops(9, 4)
    assert [op.kind for op in ops[:3]] == ["append", "edit", "repeat"]
    assert ops[-1].levels == (0, 0, 0, 0) and ops[-1].appended == 0
    states = {(op.levels, op.appended) for op in ops if op.kind != "repeat"}
    assert len(states) > 16  # more than the result cache keeps resident


def test_answer_check_catches_a_one_ulp_difference():
    workload = books.generate("quote-interactive", 2)
    [answer] = books.reference_answers(workload, "run")
    with books.new_service() as service:
        service.register_workload(books.BOOK, workload)
        response = service.submit(books.run_document())
    payload = json.loads(json.dumps(response.to_dict()))
    assert books.response_matches(response, [answer])
    assert books.payload_matches(payload, [answer])

    name, expected_loss, premium, layers = answer.quote
    dearer = dataclasses.replace(
        answer, quote=(name, expected_loss, float(np.nextafter(premium, np.inf)), layers)
    )
    assert not books.response_matches(response, [dearer])
    assert not books.payload_matches(payload, [dearer])
    losses = answer.losses.copy()
    losses.flat[0] = np.nextafter(losses.flat[0], np.inf)
    assert not books.response_matches(response, [dataclasses.replace(answer, losses=losses)])


def test_attribution_adds_up_and_shares_overlap():
    spans = [
        ("r", 0, -1, "client", 0.0, 10.0),
        ("r", 1, 0, "service.execute", 1.0, 9.0),
        ("r", 2, 1, "fleet.wait", 2.0, 6.0),
        ("r", 3, 1, "fleet.wait", 4.0, 8.0),
        ("r", 4, -1, "server.self", 9.5, 9.75),
    ]
    shares = attribute(spans)
    assert math.isclose(sum(shares.values()), 10.0)
    assert math.isclose(shares["fleet.wait"], 6.0)
    assert math.isclose(shares["service.execute"], 2.0)
    assert math.isclose(shares["server.self"], 0.25)
    assert math.isclose(shares["client"], 1.75)


def test_benchmark_names_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.fullmatch(name), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(books.WORKLOADS)


def run_bench(workload: str, trace: int, seconds: float = 2.0) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "17",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", books.WORKLOADS)
def test_smoke_untraced(workload):
    result = run_bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", books.WORKLOADS)
def test_smoke_traced(workload):
    result = run_bench(workload, 1)
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert result["correct"] and metrics["error_ratio"] == 0
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    for metric in BENCHMARK["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    layers = sum(value for name, value in metrics.items()
                 if name.endswith("_ms") and not name.startswith(("kernel.", "engine.kernel_ms."))
                 and not name.startswith(("schedule_lag_", "open_loop."))
                 and name not in ("server.stats_p50_ms", "latency_mean_ms"))
    assert math.isclose(layers, metrics["latency_mean_ms"], rel_tol=1e-9)
    assert metrics["trace_overhead_ratio"] > 0
