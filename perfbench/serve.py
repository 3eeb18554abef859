"""Server process of the quote-interactive workload.

    python3 perfbench/serve.py --seed N [--trace]

Generates the seeded book, registers it with a :class:`RiskService` on the
default ``EngineConfig()``, serves it through :class:`RiskServer` on an
ephemeral localhost port and prints one JSON line when it is listening
(``port``, ``generate_s``, ``ready_s``).  ``{"op": "shutdown"}`` drains it;
it then prints one last JSON line with its peak resident memory and, with
``--trace``, every span it recorded.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import books
    from repro.service import RiskServer
    from tracing import Tracer, install_layer_spans

    generating = time.perf_counter()
    workload = books.generate("quote-interactive", args.seed)
    generate_s = time.perf_counter() - generating

    tracer = Tracer()
    if args.trace:
        install_layer_spans(tracer, server=True)
    with books.new_service() as service:
        service.register_workload(books.BOOK, workload)
        server = RiskServer(service)

        async def serve() -> None:
            await server.start()
            print(json.dumps({
                "port": server.port,
                "generate_s": generate_s,
                "ready_s": time.perf_counter() - started,
            }), flush=True)
            await server.run()

        asyncio.run(serve())
    tracer.uninstall()
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
