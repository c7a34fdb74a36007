"""serve_mixed: a closed loop of two keep-alive clients against one server.

Each round starts a fresh ``python -m repro.serve serve`` server (run
through :mod:`perfbench.serve_server`, which times the blocks it
executes) on a fresh on-disk store that already holds the round's
store-hit cells,
replays the seeded request lists of :func:`perfbench.grids.serve_plan`
and stops the server.
"""

from __future__ import annotations

import json
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from perfbench import grids, layers
from perfbench.checks import Checker

#: Seconds the server may take to come up or to shut down.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


def build_template(plan: Dict[str, Any], directory: Path) -> None:
    """Simulate the prefill cells once into a store copied into each round."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.spec import SweepSpec, WorkloadSpec
    from repro.trace.serialization import result_to_json

    cache = ResultCache(directory)
    for body in plan["prefill"]:
        spec = SweepSpec([WorkloadSpec.of(body["workload"], scale=body["scale"])],
                         [body["manager"]], [body["cores"]], seeds=[body["seed"]],
                         keep_schedule=bool(body.get("keep_schedule")))
        [point] = spec.points()
        cache.put(point.cache_key(), result_to_json(point.run()))


def _server_command(store: Path, spans_out: Path, traced: bool) -> List[str]:
    # One simulation thread: simulation holds the GIL, so a second thread
    # adds lock hand-offs rather than throughput, and on a 2-CPU host it
    # made round-to-round times several times noisier.
    serve = ["serve", "--host", "127.0.0.1", "--port", "0", "--cache-dir", str(store),
             "--executor-threads", "1"]
    return ([sys.executable, "-m", "perfbench.serve_server", "--spans-out", str(spans_out)]
            + (["--layers"] if traced else []) + ["--"] + serve)


def _peak_rss_mb(pid: int) -> Optional[float]:
    """The live process's peak RSS (Linux); ``None`` where unavailable."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def run_round(plan: Dict[str, Any], template: Path, workdir: Path, env: Dict[str, str],
              checker: Checker, spans_out: Path, traced: bool) -> Dict[str, Any]:
    """One round: set up server + store, replay both clients, stop.

    The server writes its spans to ``spans_out`` when it stops: every
    layer with ``traced``, else only the blocks it executed.
    """
    from repro.serve.client import ServeClient

    store = workdir / "store"
    started = time.perf_counter()
    shutil.copytree(template, store)
    process = subprocess.Popen(
        _server_command(store, spans_out, traced), env=env, cwd=env["PERFBENCH_ROOT"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        port = _await_port(process)
        setup_s = time.perf_counter() - started
        records: List[List[tuple]] = [[], []]
        barrier = threading.Barrier(2)
        errors: List[str] = []

        def client(index: int) -> None:
            try:
                with ServeClient("127.0.0.1", port, retry=None) as conn:
                    for kind, body in plan["clients"][index]:
                        if kind == "coalesce":
                            barrier.wait(timeout=START_TIMEOUT)
                        sent = time.perf_counter()
                        response = conn.simulate(**body)
                        records[index].append(
                            (kind, time.perf_counter() - sent, response, body))
            except Exception as exc:  # counted as failures below
                barrier.abort()
                errors.append(f"client {index}: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=client, args=(i,)) for i in range(2)]
        replay_started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - replay_started
        with ServeClient("127.0.0.1", port, retry=None) as conn:
            stats = conn.stats()
        rss_mb = _peak_rss_mb(process.pid)
    finally:
        _stop(process)
    if rss_mb is None:  # largest finished child so far: the servers
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    for message in errors:
        checker.fail(message)
    spans = json.loads(spans_out.read_text(encoding="utf-8"))
    summary = _summarise(records, stats, wall_s, setup_s, rss_mb, checker)
    summary["served_cell_s"] = layers.served_cell_times(spans)
    if traced:
        summary["spans_file"] = str(spans_out)
    return summary


def _await_port(process: subprocess.Popen) -> int:
    """Read the server's stderr until it announces its address."""
    found: List[int] = []

    def reader() -> None:
        assert process.stderr is not None
        for line in process.stderr:
            if not found and line.startswith("serving on http://"):
                found.append(int(line.split()[2].rsplit(":", 1)[1]))
                ready.set()
        ready.set()

    ready = threading.Event()
    threading.Thread(target=reader, daemon=True).start()
    if not ready.wait(START_TIMEOUT) or not found:
        raise RuntimeError("server did not start")
    return found[0]


def _summarise(records, stats, wall_s, setup_s, rss_mb, checker):
    """Latency samples and failure counts of one round; checks every answer."""
    expected = grids.serve_expectations()
    latencies: Dict[str, List[float]] = {"warm": [], "cold": []}
    simulated = set()
    sim_tasks = 0
    done = sum(len(client_records) for client_records in records)
    failed = expected["requests"] - done  # never answered: a client failed
    for client_records in records:
        for kind, latency, response, body in client_records:
            key = grids.request_key(body)
            document = response["result"]
            cold = not response.get("cached")
            latencies["cold" if cold else "warm"].append(latency)
            if cold and key not in simulated:
                simulated.add(key)
                sim_tasks += int(document["num_tasks"])
            ok = checker.check(key, document)
            if kind in ("miss", "store") and cold != (kind == "miss"):
                checker.fail(f"{key}: {kind} request answered cached={response.get('cached')}")
                ok = False
            failed += not ok
    if stats.get("executed") != expected["executed"]:
        checker.fail(f"server executed {stats.get('executed')} cells, "
                     f"expected {expected['executed']}")
        failed += 1
    summary = {
        "setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb,
        "warm_s": latencies["warm"], "cold_s": latencies["cold"],
        "sim_tasks": sim_tasks, "attempted": expected["requests"], "failed": failed,
        "coalesced": stats.get("coalesced", 0), "rejected": stats.get("rejected_requests", 0),
    }
    return summary
