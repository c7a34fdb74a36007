"""Repository benchmark: one command, three workloads, end-to-end or per-layer.

    python3 perfbench/run.py --workload sweep_static --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (plus its tracing overhead against untraced
rounds of the same run).  A readable table goes first; the last line of
standard output is one JSON object.  Details, spans and host context go
to ``.perfbench_out/``.  The exit code is non-zero when any output is
incorrect.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep_static", "sweep_stream", "serve_mixed")
#: Seconds one child round (or server round) may take before it is killed.
ROUND_TIMEOUT = 150.0
#: End-to-end metrics that repeat another one on a workload (see README):
#: on a sweep every request is a cell, and every workload runs a fixed
#: number of requests, so ``req_per_s`` is that number ÷ ``wall_s``.
_SWEEP_ALIASES = {"cold_req_p50_ms": "cell_p50_ms", "req_p99_ms": "cell_p90_ms",
                  "req_per_s": "1/wall_s"}
ALIASES = {"sweep_static": _SWEEP_ALIASES, "sweep_stream": _SWEEP_ALIASES,
           "serve_mixed": {"req_per_s": "1/wall_s"}}


def declared_units(trace: int) -> Dict[str, str]:
    """Metric name → unit, in the order ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.checks import Checker

    out_dir = ROOT / ".perfbench_out"
    work = out_dir / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
               PERFBENCH_ROOT=str(ROOT))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    checker = Checker()
    try:
        if args.workload == "serve_mixed":
            result = run_serve(args, work, env, checker, out_dir / f"spans-{tag}")
        else:
            result = run_sweeps(args, work, env, checker, out_dir / f"spans-{tag}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics, samples, attempted, failed = result
    correct = failed == 0 and not checker.mismatches
    units = declared_units(args.trace)
    host = host_context(args)
    print_table(host, metrics, samples, units, attempted, failed, checker.mismatches)
    report = {"host": host, "metrics": metrics, "samples": samples,
              "attempted": attempted, "failed": failed, "mismatches": checker.mismatches}
    (out_dir / f"report-{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }), flush=True)
    return 0 if correct else 1


def repeat_rounds(args, run_one) -> Dict[bool, List[Dict[str, Any]]]:
    """Call ``run_one(index, traced)`` until ``--seconds`` is used up.

    With ``--trace 1`` untraced and traced rounds alternate (at least one
    of each), so the tracing overhead is measured within one run.
    Rounds are keyed by whether they were traced.
    """
    deadline = time.perf_counter() + args.seconds
    rounds: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(rounds[False]) > len(rounds[True])
        begun = time.perf_counter()
        rounds[traced].append(run_one(len(rounds[False]) + len(rounds[True]), traced))
        longest = max(longest, time.perf_counter() - begun)
        if args.trace and not rounds[True]:
            continue
        if time.perf_counter() + longest > deadline:
            return rounds


# -- sweeps ------------------------------------------------------------------------
def sweep_round(args, work: Path, env, traced: bool, spans_out: Path) -> Dict[str, Any]:
    """Run one child round; returns its summary plus the measured set-up time."""
    work.mkdir(parents=True)
    command = [sys.executable, "-m", "perfbench.sweep_round", "--workload", args.workload,
               "--seed", str(args.seed), "--workdir", str(work)]
    if traced:
        command += ["--traced", "--spans-out", str(spans_out)]
    started = time.perf_counter()
    with open(work / "stderr.txt", "w") as errors:
        process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                   stderr=errors, text=True)
        try:
            ready = process.stdout.readline()
            setup_s = time.perf_counter() - started
            output, _ = process.communicate(timeout=ROUND_TIMEOUT)
        finally:
            if process.poll() is None:
                process.kill()
            process.wait()
    if ready.strip() != "ready" or process.returncode != 0:
        tail = (work / "stderr.txt").read_text()[-2000:]
        raise RuntimeError(f"sweep round failed ({process.returncode}):\n{tail}")
    summary = json.loads(output.strip().splitlines()[-1])
    summary["setup_s"] = setup_s
    shutil.rmtree(work, ignore_errors=True)
    return summary


def run_sweeps(args, work: Path, env, checker, spans_prefix: Path):
    from perfbench.spans import median

    def run_one(index: int, traced: bool) -> Dict[str, Any]:
        summary = sweep_round(args, work / f"round{index}", env, traced,
                              Path(f"{spans_prefix}-r{index}.json"))
        checker.mismatches.extend(summary["mismatches"])
        return summary

    rounds = repeat_rounds(args, run_one)
    everything = rounds[False] + rounds[True]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    plain = rounds[False]
    samples: Dict[str, Any] = {"rounds": len(everything),
                               "round_wall_s": [r["cold_wall_s"] for r in plain]}
    metrics = {
        "setup_s": median([r["setup_s"] for r in plain]),
        "wall_s": median([r["cold_wall_s"] for r in plain]),
        "warm_wall_s": median([w for r in plain for w in r["warm_walls_s"]]),
        "sim_tasks_per_s": median([r["sim_tasks"] / r["cold_wall_s"] for r in plain]),
        "req_per_s": median([r["cells"] / r["cold_wall_s"] for r in plain]),
        "peak_rss_mb": median([r["rss_mb"] for r in plain]),
    }
    # Every round runs the same cells and lookups in the same order.  Each
    # one's time is its median over the rounds, and the percentiles are
    # taken over those: contention on a shared host slows a stretch of
    # one round, and the rank a percentile lands on would move with it.
    # On a sweep every cold request is a cell, so the request
    # percentiles are taken over the cells too (see README).
    cells = median_by_position([r["cell_s"] for r in plain])
    warm = median_by_position([r["warm_cell_s"] for r in plain])
    timing_samples: Dict[str, Any] = {}
    metrics.update(timing_metrics(cells, cells, cells, warm, timing_samples))
    samples.update({name: dict(info, rounds=len(plain)) for name, info in timing_samples.items()})
    if args.trace:
        metrics = sweep_layers(rounds, metrics)
    return metrics, samples, attempted, failed


def timing_metrics(cells: List[float], cold: List[float], requests: List[float],
                   warm: List[float], samples: Dict[str, Any]) -> Dict[str, float]:
    """Latency percentiles in ms, recording sample counts and the rank used.

    ``cells`` are per-cell execution times, ``cold`` the latencies of
    requests that ran a simulation, ``requests`` those of all requests
    and ``warm`` those answered from memo or store.
    """
    from perfbench.spans import tail

    def pick(name: str, values: List[float], q: float) -> float:
        value, used = tail(values, q)
        samples[name] = {"n": len(values), "percentile": used}
        return value * 1e3

    return {
        "cell_p50_ms": pick("cell_p50_ms", cells, 0.5),
        "cell_p90_ms": pick("cell_p90_ms", cells, 0.9),
        "cold_req_p50_ms": pick("cold_req_p50_ms", cold, 0.5),
        "req_p99_ms": pick("req_p99_ms", requests, 0.99),
        "warm_req_p50_ms": pick("warm_req_p50_ms", warm, 0.5),
        "warm_req_p99_ms": pick("warm_req_p99_ms", warm, 0.99),
    }


def engine_metrics(self_s: Dict[str, float], calls: Dict[str, int],
                   events: Dict[str, int]) -> Dict[str, float]:
    """Layer metrics shared by sweeps and serving (from span self times)."""
    def own(name: str) -> float:
        return self_s.get(name, 0.0)

    def ns_per_event(name: str) -> float:
        return own(name) / events[name] * 1e9 if events.get(name) else 0.0

    return {
        "workloads.generate_s": own("workloads.generate"),
        "workloads.traces": calls.get("workloads.generate", 0),
        "trace.compile_s": own("trace.compile"),
        "trace.stream_s": own("trace.stream"),
        "trace.serialize_s": own("trace.serialize"),
        "taskgraph.bind_s": own("taskgraph.bind"),
        "system.run_s": own("system.run") + own("system.run_lanes"),
        "system.ns_per_event": ns_per_event("system.run"),
        "system.run_stream_s": own("system.run_stream"),
        "system.stream_ns_per_event": ns_per_event("system.run_stream"),
        "system.run_dynamic_s": own("system.run_dynamic"),
        "system.dynamic_ns_per_event": ns_per_event("system.run_dynamic"),
        "system.events": sum(events.values()),
        "experiments.cache_key_s": own("experiments.cache_key"),
        "experiments.cache_get_s": own("experiments.cache_get"),
        "experiments.cache_put_s": own("experiments.cache_put"),
        "experiments.jsonl_write_s": own("experiments.jsonl_write"),
        "experiments.runner_self_s": own("experiments.runner") + own("experiments.run_job"),
    }


def warm_metrics(e2e: Dict[str, float]) -> Dict[str, float]:
    """Warm-path timings of the run's untraced rounds, reported as per-layer
    metrics: on the sweeps their spread across runs on a shared host
    exceeded every end-to-end bound allowed (see README)."""
    return {"warm.wall_s": e2e["warm_wall_s"], "warm.req_p50_ms": e2e["warm_req_p50_ms"],
            "warm.req_p99_ms": e2e["warm_req_p99_ms"]}


def _zero_serve() -> Dict[str, float]:
    return {name: 0.0 for name in declared_units(1) if name.startswith("serve.")}


def median_of_dicts(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    from perfbench.spans import median

    return {name: median([d[name] for d in dicts]) for name in dicts[0]}


def median_by_position(rounds: List[List[float]]) -> List[float]:
    """The median over rounds of each position of equally long lists."""
    from perfbench.spans import median

    if len({len(times) for times in rounds}) != 1:
        raise RuntimeError("rounds timed different numbers of cells")
    return [median(times) for times in zip(*rounds)]


def sweep_layers(rounds, e2e: Dict[str, float]) -> Dict[str, float]:
    from perfbench.spans import median

    per_round = []
    for summary in rounds[True]:
        layer = summary["layers"]
        metrics = engine_metrics(layer["self_s"], layer["calls"], layer["events"])
        metrics.update(_zero_serve())
        metrics.update(summary["counters"])
        metrics["experiments.cache_hit_ratio.cold"] = summary["hit_ratio_cold"]
        metrics["experiments.cache_hit_ratio.warm"] = summary["hit_ratio_warm"]
        metrics["bench.unattributed_s"] = layer["unattributed_s"]
        per_round.append(metrics)
    metrics = median_of_dicts(per_round)
    traced = median([r["cold_wall_s"] for r in rounds[True]])
    plain = median([r["cold_wall_s"] for r in rounds[False]])
    metrics["bench.trace_overhead_frac"] = traced / plain - 1.0
    metrics.update(warm_metrics(e2e))
    return metrics


# -- serving -----------------------------------------------------------------------
def run_serve(args, work: Path, env, checker, spans_prefix: Path):
    from perfbench import grids, serve_mixed
    from perfbench.spans import median

    plan = grids.serve_plan(args.seed)
    template = work / "template"
    started = time.perf_counter()
    serve_mixed.build_template(plan, template)
    prefill_s = time.perf_counter() - started

    def run_one(index: int, traced: bool) -> Dict[str, Any]:
        round_dir = work / f"round{index}"
        round_dir.mkdir()
        spans_out = Path(f"{spans_prefix}-r{index}.json") if traced else round_dir / "spans.json"
        summary = serve_mixed.run_round(plan, template, round_dir, env, checker, spans_out,
                                        traced)
        shutil.rmtree(round_dir, ignore_errors=True)
        return summary

    rounds = repeat_rounds(args, run_one)
    everything = rounds[False] + rounds[True]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    samples: Dict[str, Any] = {"rounds": len(everything), "prefill_build_s": prefill_s}
    plain = rounds[False]
    samples["round_wall_s"] = [r["wall_s"] for r in plain]
    # Pooled over rounds: one round has too few executed cells for a p90.
    cells = [t for r in plain for t in r["served_cell_s"]]
    cold = [t for r in plain for t in r["cold_s"]]
    warm = [t for r in plain for t in r["warm_s"]]
    requests = grids.serve_expectations()["requests"]
    metrics = {
        "setup_s": median([r["setup_s"] for r in plain]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "warm_wall_s": median([sum(r["warm_s"]) / 2 for r in plain]),
        "sim_tasks_per_s": median([r["sim_tasks"] / r["wall_s"] for r in plain]),
        "req_per_s": median([requests / r["wall_s"] for r in plain]),
        "peak_rss_mb": median([r["rss_mb"] for r in plain]),
    }
    metrics.update(timing_metrics(cells, cold, cold + warm, warm, samples))
    if args.trace:
        metrics = serve_layers(rounds, checker, metrics)
    return metrics, samples, attempted, failed


def serve_layers(rounds, checker, e2e: Dict[str, float]) -> Dict[str, float]:
    from perfbench import layers
    from perfbench.checks import aggregate
    from perfbench.spans import CTX, END, NAME, PARENT, START, count_by_name, median, self_by_name

    per_round = []
    for summary in rounds[True]:
        spans = json.loads(Path(summary["spans_file"]).read_text())
        metrics = engine_metrics(self_by_name(spans), count_by_name(spans),
                                 layers.events_by_name(spans))

        def durations(name: str) -> List[float]:
            return [s[END] - s[START] for s in spans if s[NAME] == name]

        def mean_ms(values: List[float]) -> float:
            return sum(values) / len(values) * 1e3 if values else 0.0

        outcome = layers.lookup_outcomes(spans)
        lookups = sum(outcome.values()) or 1
        blocks = [len(s[CTX] or ()) for s in spans if s[NAME] == "serve.execute"]
        client_s = sum(summary["warm_s"]) + sum(summary["cold_s"])
        server_s = sum(s[END] - s[START] for s in spans if s[PARENT] < 0)
        requests = len(summary["warm_s"]) + len(summary["cold_s"])
        gets = [s for s in spans if s[NAME] == "experiments.cache_get"]
        metrics.update({
            "serve.lookup_ms": mean_ms(durations("serve.lookup")),
            "serve.memo_hit_ratio": outcome["memo"] / lookups,
            "serve.store_hit_ratio": outcome["store"] / lookups,
            "serve.http_ms": (client_s - server_s) / requests * 1e3,
            "serve.queue_wait_ms": mean_ms(layers.queue_waits(spans)),
            "serve.execute_ms_per_cell": sum(durations("serve.execute")) / max(1, sum(blocks)) * 1e3,
            "serve.block_cells_mean": sum(blocks) / len(blocks) if blocks else 0.0,
            "serve.coalesced": summary["coalesced"],
            "serve.admission_ms": mean_ms(durations("serve.admission")),
            "serve.rejected": summary["rejected"],
            "experiments.cache_hit_ratio.cold": (
                sum(1 for s in gets if s[CTX]) / len(gets) if gets else 0.0),
            "experiments.cache_hit_ratio.warm": 0.0,
            "bench.unattributed_s": client_s - server_s,
        })
        per_round.append(metrics)
    metrics = median_of_dicts(per_round)
    metrics.update(aggregate(checker.live.items()))
    traced = median([r["wall_s"] for r in rounds[True]])
    plain = median([r["wall_s"] for r in rounds[False]])
    metrics["bench.trace_overhead_frac"] = traced / plain - 1.0
    metrics.update(warm_metrics(e2e))
    return metrics



# -- reporting ---------------------------------------------------------------------
def calibration_s() -> float:
    """Best of three runs of a fixed pure-Python loop (host speed yardstick)."""
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def host_context(args) -> Dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_s": calibration_s(),
    }


def print_table(host, metrics, samples, units, attempted, failed, mismatches) -> None:
    print(f"perfbench {host['workload']} seed={host['seed']} trace={host['trace']} "
          f"rounds={samples.get('rounds')}")
    print(f"  host: cpus={host['host_cpus']} python={host['python']} "
          f"commit={host['commit'] or '-'} calibration={host['calibration_s'] * 1e3:.2f}ms")
    aliases = ALIASES[host["workload"]] if not host["trace"] else {}
    for name, unit in units.items():
        note = ""
        if name in samples:
            info = samples[name]
            per = f", each the median of {info['rounds']} rounds" if "rounds" in info else ""
            note = f"  (n={info['n']}{per}, nearest-rank p{info['percentile'] * 100:g})"
        if name in aliases:
            note += f"  [repeats {aliases[name]}]"
        print(f"  {name:<36} {metrics[name]:>14.6g} {unit}{note}")
    print(f"  {'failed_frac':<36} {failed / max(1, attempted):>14.6g} ratio"
          f"  ({failed} of {attempted} operations)")
    for message in mismatches[:20]:
        print(f"  MISMATCH {message}")


if __name__ == "__main__":
    sys.exit(main())
