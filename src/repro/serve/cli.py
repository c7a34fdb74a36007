"""Command-line entry point for the serving layer.

Examples::

    # Run a server (Ctrl-C to stop):
    python -m repro.serve serve --port 8080 --cache-dir .serve-cache

    # Sweep a grid through a running server, streaming JSONL rows
    # (the grid flags are the exact flags `repro.experiments.cli` takes,
    # so the cells -- and their cache keys -- are identical):
    python -m repro.serve sweep --connect 127.0.0.1:8080 \\
        --workloads c-ray sparselu --managers ideal "nexus#6" \\
        --cores 1 4 16 --scale 0.05 --output rows.jsonl

    # Throw a seeded load mix at a server and print the report:
    python -m repro.serve load --connect 127.0.0.1:8080 \\
        --requests 200 --concurrency 8 --seed 7
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence, Tuple

from repro.experiments.cli import _add_grid_arguments
from repro.serve.app import ServeConfig, Server
from repro.serve.client import ServeClient
from repro.serve.loadgen import build_requests, run_load


def _parse_connect(value: str) -> Tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}")
    return host or "127.0.0.1", int(port)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="HTTP/JSON serving for simulation requests "
                    "(submit traces and grids, get makespans and sweeps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run a server in the foreground")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080,
                         help="listen port (0 = ephemeral; default 8080)")
    p_serve.add_argument("--cache-dir", default=None,
                         help="content-addressed result cache directory "
                              "(shared with sweep runs over the same dir)")
    p_serve.add_argument("--block-cells", type=int, default=8,
                         help="cells per executor block (default 8)")
    p_serve.add_argument("--batch-window-ms", type=float, default=2.0,
                         help="milliseconds a partial block waits to fill "
                              "before running anyway (default 2)")
    p_serve.add_argument("--max-pending", type=int, default=256,
                         help="bounded-queue depth past which requests get "
                              "429 + Retry-After (default 256)")
    p_serve.add_argument("--executor-threads", type=int, default=2,
                         help="simulation threads (default 2)")
    p_serve.add_argument("--fabric-workers", type=int, default=0,
                         help="> 0: run large blocks on the distributed "
                              "sweep fabric with this many local workers")

    p_sweep = sub.add_parser(
        "sweep", help="run a sweep grid through a server (streamed JSONL)")
    p_sweep.add_argument("--connect", type=_parse_connect, required=True,
                         metavar="HOST:PORT", help="server to talk to")
    _add_grid_arguments(p_sweep)
    p_sweep.add_argument("--output", default=None,
                         help="write the streamed JSONL rows to this file "
                              "(default: stdout)")

    p_load = sub.add_parser(
        "load", help="replay a seeded request mix against a server")
    p_load.add_argument("--connect", type=_parse_connect, required=True,
                        metavar="HOST:PORT", help="server to talk to")
    p_load.add_argument("--requests", type=int, default=100)
    p_load.add_argument("--concurrency", type=int, default=8)
    p_load.add_argument("--seed", type=int, default=0)
    p_load.add_argument("--scale", type=float, default=0.05,
                        help="workload scale of the mix (default 0.05)")
    p_load.add_argument("--retry-on-429", action="store_true",
                        help="honour Retry-After instead of counting 429s")
    return parser


def _run_server(args: argparse.Namespace) -> int:
    import asyncio

    config = ServeConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        block_cells=args.block_cells,
        batch_window=args.batch_window_ms / 1e3,
        max_pending=args.max_pending,
        executor_threads=args.executor_threads,
        fabric_workers=args.fabric_workers,
    )

    async def main() -> None:
        server = Server(config)
        await server.start()
        assert server.address is not None
        print(f"serving on http://{server.address[0]}:{server.address[1]} "
              f"(max_pending={config.max_pending}, "
              f"block_cells={config.block_cells})", file=sys.stderr)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("stopped", file=sys.stderr)
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    # The same flag -> SweepSpec mapping as `repro.experiments.cli`
    # (_spec_from_args), expressed as /v1/sweep request fields — which
    # is what keeps CLI-submitted grids cache-key-identical to local
    # sweeps over the same flags.
    fields = {
        "workloads": list(args.workloads),
        "managers": list(args.managers),
        "core_counts": list(args.cores),
        "scale": args.scale,
        "stream": bool(args.stream),
        "dynamic": bool(args.dynamic),
    }
    if args.seeds:
        fields["seeds"] = list(args.seeds)
    if args.nanos_max_cores:
        fields["max_cores"] = {"Nanos": args.nanos_max_cores}
    if args.schedulers:
        fields["schedulers"] = list(args.schedulers)
    if args.topologies:
        fields["topologies"] = list(args.topologies)
    if args.max_tasks is not None:
        fields["max_tasks"] = args.max_tasks
    if args.depths:
        fields["depths"] = list(args.depths)
    host, port = args.connect
    with ServeClient(host, port) as client:
        raw = client.sweep_raw(**fields)
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(raw)
        rows = raw.count(b"\n")
        print(f"{rows} rows -> {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(raw.decode("utf-8"))
    return 0


def _run_load(args: argparse.Namespace) -> int:
    from repro.serve.loadgen import default_mix

    requests = build_requests(args.seed, args.requests,
                              default_mix(scale=args.scale))
    host, port = args.connect
    report = run_load(host, port, requests, concurrency=args.concurrency,
                      retry_on_429=args.retry_on_429)
    print(json.dumps(report.to_json(), indent=2))
    return 0 if report.errors == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "serve":
        return _run_server(args)
    if args.command == "sweep":
        return _run_sweep(args)
    return _run_load(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
