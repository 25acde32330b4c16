#!/usr/bin/env python3
"""Benchmark for the parksearch simulator and planners.

    python3 perfbench/run.py --workload competition --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

It runs the program from ``src/`` next to this directory. With ``--trace 0``
it repeats set-up several times (its median is reported), then runs the
workload's simulations, round after round, for ``--seconds``, and reports the
end-to-end metrics; times are corrected for the machine's speed drift (see
``speed.py``). With ``--trace 1`` it runs one pass untraced and the same pass
traced, and reports per-layer metrics from spans and counters recorded around
calls into the program. Every simulation's results are checked; the last line
of standard output is one JSON object with the result. Inputs, results files,
spans and a JSON record of each run go to ``.perfbench_work/``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("competition", "city", "trace_replay")
KINDS = ("random", "heuristic", "rpl", "hs", "rpl_r", "hs_r", "hs_a")
HINDSIGHT_KINDS = ("hs", "hs_r", "hs_a")

# name -> unit; printed with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "trips_per_s": "1/s",
    "peak_rss_mb": "MB",
    "parking_s_mean": "s",
    "claims_per_trip": "1/trip",
    "parked_share": "share",
    "ok_share": "share",
}

# (name, unit, better, ROADMAP item the metric is meant to track); printed with --trace 1.
PER_LAYER = [
    ("graph.load_s", "s", "lower", "4"),
    ("graph.apsp_s", "s", "lower", "4"),
    ("graph.apsp_bytes", "bytes", "lower", "4"),
    ("planners.context_s", "s", "lower", "4"),
    ("planners.make_policy_s", "s", "lower", "4"),
    ("geo.scalar_calls", "count", "lower", "4"),
    *[(f"planners.decide_calls.{k}", "count", "lower", "3a" if k in HINDSIGHT_KINDS else "4") for k in KINDS],
    *[(f"planners.decide_s.{k}", "s", "lower", "3a" if k in HINDSIGHT_KINDS else "4") for k in KINDS],
    *[(f"planners.decide_ms_p50.{k}", "ms", "lower", "3a" if k in HINDSIGHT_KINDS else "4") for k in KINDS],
    *[(f"planners.decide_ms_p99.{k}", "ms", "lower", "3a" if k in HINDSIGHT_KINDS else "4") for k in KINDS],
    *[(f"planners.kind_s.{k}", "s", "lower", "1") for k in KINDS],
    ("planners.replan_share", "share", "lower", "1"),
    ("planners.crn_bytes", "bytes", "lower", "3a"),
    ("planners.unreported_ms_per_trip.hs_a", "ms", "lower", "1"),
    ("fleet.adapt_calls", "count", "lower", "3b"),
    ("fleet.adapt_s", "s", "lower", "3b"),
    ("fleet.adapt_ms_p50", "ms", "lower", "3b"),
    ("fleet.adapt_ms_p99", "ms", "lower", "3b"),
    ("fleet.adapt_per_trip", "count", "lower", "3b"),
    ("fleet.reservations_placed", "count", "lower", "1"),
    ("availability.synthesize_s", "s", "lower", "1"),
    ("availability.flips", "count", "lower", "1"),
    ("engine.self_s", "s", "lower", "1"),
    ("engine.claims", "count", "lower", "1"),
    ("engine.claim_success_share", "share", "higher", "1"),
    ("engine.load_trace_s", "s", "lower", "1"),
    ("engine.replay_s", "s", "lower", "1"),
    ("engine.write_results_s", "s", "lower", "1"),
    ("scenario.dbscan_s", "s", "lower", "5"),
    ("scenario.dbscan_points", "count", "lower", "5"),
    ("scenario.dbscan_bytes", "bytes", "lower", "5"),
    ("trace_overhead_share", "share", "lower", "1"),
]


@dataclass
class Outcome:
    """One simulation: its wall time, records and results-file digest, or why it failed."""

    kind: str
    trips: int
    wall_s: float = 0.0
    records: list | None = None
    digest: str | None = None
    error: str | None = None


def check_records(agents, records) -> list[str]:
    """Violations of the simulator's output contract in one run's records."""
    problems = []
    if sorted(r.agent_id for r in records) != sorted(a.id for a in agents):
        problems.append("records do not match the agents one to one")
    holder: dict[str, str] = {}
    for r in records:
        if r.status not in ("parked", "timed_out"):
            problems.append(f"{r.agent_id}: status {r.status!r}")
        if (r.status == "parked") != (r.parked_resource is not None):
            problems.append(f"{r.agent_id}: status {r.status!r} with parked resource {r.parked_resource!r}")
        if r.parked_resource is not None:
            if r.parked_resource in holder:
                problems.append(f"spot {r.parked_resource} parked on by {holder[r.parked_resource]} and {r.agent_id}")
            holder[r.parked_resource] = r.agent_id
        if not all(math.isfinite(v) for v in (r.total_trip_s, r.taxi_s, r.parking_s, r.computation_s)):
            problems.append(f"{r.agent_id}: non-finite totals")
    return problems


def simulate(wl, world, sim, out: Path, *, measure_computation: bool, clock, tracer=None) -> Outcome:
    from parksearch import engine

    outcome = Outcome(sim.kind, len(sim.agents))
    if tracer is not None:
        tracer.kind = sim.kind
    try:
        start = time.perf_counter()
        records = wl.simulate(world, sim, measure_computation)
        outcome.wall_s = time.perf_counter() - start
        problems = check_records(sim.agents, records)
        if problems:
            outcome.error = "; ".join(problems[:5])
        else:
            outcome.records = records
            engine.write_results(out, records)
            outcome.digest = hashlib.sha256(out.read_bytes()).hexdigest()
    except Exception:  # a failed run is counted and reported; the workload goes on
        outcome.error = traceback.format_exc()
    if tracer is not None:
        tracer.kind = None
    clock.probe(outcome.wall_s)
    if outcome.error:
        print(f"{wl.name}: {sim.kind} seed {sim.seed} failed: {outcome.error}", file=sys.stderr)
    return outcome


def run_round(wl, world, rounds, r, out_dir: Path, **kwargs) -> list[Outcome]:
    return [simulate(wl, world, sim, out_dir / f"r{r:02d}-{sim.kind}.csv", **kwargs) for sim in rounds[r]]


def trip_rate(outcomes: list[Outcome], clock) -> float:
    """Trips per speed-corrected second of simulation."""
    done = [o for o in outcomes if o.error is None]
    return sum(o.trips for o in done) / (sum(o.wall_s for o in done) * clock.scale()) if done else 0.0


def quality_metrics(outcomes: list[Outcome]) -> dict:
    records = [r for o in outcomes if o.records for r in o.records]
    if not records:
        return {"parking_s_mean": 0.0, "claims_per_trip": 0.0, "parked_share": 0.0}
    return {
        "parking_s_mean": statistics.fmean(r.parking_s for r in records),
        "claims_per_trip": sum(r.unsuccessful_claims + (r.status == "parked") for r in records) / len(records),
        "parked_share": sum(r.status == "parked" for r in records) / len(records),
    }


def repeat_setup(wl, clock=None, tracer=None) -> tuple[object, list[float], list]:
    """Repeat set-up, dropping each world before the next is built.

    Returns the last world, each repeat's seconds and, under a tracer, each
    repeat's spans and counts.
    """
    world, seconds, traces = None, [], []
    for _ in range(wl.setup_reps):
        world = None
        gc.collect()
        start = time.perf_counter()
        world = wl.setup()
        seconds.append(time.perf_counter() - start)
        if clock is not None:
            clock.probe(seconds[-1])
        if tracer is not None:
            traces.append(tracer.take())
    return world, seconds, traces


def run_untraced(wl, seconds: float, out_dir: Path) -> tuple[dict, dict, list[Outcome]]:
    from speed import SpeedClock

    clock = SpeedClock()
    world, setup_seconds, _ = repeat_setup(wl, clock=clock)
    rounds = wl.rounds(world)
    first, outcomes = {}, []
    start, i = time.perf_counter(), 0
    while i < len(rounds) or time.perf_counter() - start < seconds:
        r = i % len(rounds)
        round_outcomes = run_round(wl, world, rounds, r, out_dir, measure_computation=False, clock=clock)
        if r in first:  # a repeated round must reproduce its results files byte for byte
            for o, f in zip(round_outcomes, first[r]):
                if o.error is None and o.digest != f.digest:
                    o.error = "results differ from the first pass"
                    print(f"{wl.name}: round {r} {o.kind}: {o.error}", file=sys.stderr)
        else:
            first[r] = round_outcomes
        outcomes += round_outcomes
        i += 1
    first_pass = [o for r in range(len(rounds)) for o in first[r]]
    failed = sum(o.error is not None for o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_seconds) * clock.scale(),
        "trips_per_s": trip_rate(outcomes, clock),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality_metrics(first_pass),
        "ok_share": (len(outcomes) - failed) / len(outcomes),
    }
    digests = "".join(o.digest or "failed" for o in first_pass)
    info = {
        "results_sha256": hashlib.sha256(digests.encode()).hexdigest(),
        "rounds_run": i,
        "rounds_per_pass": len(rounds),
        "trips_per_pass": sum(o.trips for o in first_pass),
        "setup_s_measured": setup_seconds,
        "speed_scale": clock.scale(),
    }
    return metrics, info, outcomes


def _percentile_ms(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


def layer_metrics(wl, world, setup_traces, sim_spans, sim_counts, traced: list[Outcome],
                  overhead_share: float) -> dict:
    from parksearch.planners import PlannerSettings
    from tracer import self_times

    def setup_median(name: str) -> float:
        return statistics.median(sum(s.duration for s in spans if s.name == name) for spans, _ in setup_traces)

    def durations(name: str, kind: str | None = None) -> list[float]:
        return [s.duration for s in sim_spans if s.name == name and (kind is None or s.kind == kind)]

    setup_counts = setup_traces[-1][1]
    n_nodes = len(world.graph.nodes)
    records = [r for o in traced if o.records for r in o.records]
    parked = sum(r.status == "parked" for r in records)
    claims = parked + sum(r.unsuccessful_claims for r in records)
    self_s = self_times(sim_spans)
    metrics = {
        "graph.load_s": setup_median("graph.load"),
        "graph.apsp_s": setup_median("graph.apsp"),
        "graph.apsp_bytes": n_nodes * n_nodes * 8,
        "planners.context_s": setup_median("planners.context"),
        "planners.make_policy_s": sum(durations("planners.make_policy")),
        "geo.scalar_calls": sim_counts["geo.scalar_calls"],
    }
    for k in KINDS:
        decide = durations("planners.decide", k)
        metrics[f"planners.decide_calls.{k}"] = len(decide)
        metrics[f"planners.decide_s.{k}"] = sum(decide)
        metrics[f"planners.decide_ms_p50.{k}"] = _percentile_ms(decide, 50)
        metrics[f"planners.decide_ms_p99.{k}"] = _percentile_ms(decide, 99)
    for k in KINDS:
        metrics[f"planners.kind_s.{k}"] = sum(durations("engine.run", k))
    rpl_decisions = metrics["planners.decide_calls.rpl"] + metrics["planners.decide_calls.rpl_r"]
    metrics["planners.replan_share"] = sim_counts["planners.replans"] / rpl_decisions if rpl_decisions else 0.0
    hindsight_agents = max((o.trips for o in traced if o.kind in HINDSIGHT_KINDS), default=0)
    metrics["planners.crn_bytes"] = (hindsight_agents * PlannerSettings().determinizations
                                     * world.ctx.n_resources * 8)
    adapt = durations("fleet.adapt")
    hs_a_trips = sum(o.trips for o in traced if o.kind == "hs_a" and o.error is None)
    if hs_a_trips:
        reported_s = sum(r.computation_s for o in traced if o.kind == "hs_a" and o.records for r in o.records)
        outside_s = metrics["planners.decide_s.hs_a"] + sum(durations("fleet.adapt", "hs_a"))
        metrics["planners.unreported_ms_per_trip.hs_a"] = (outside_s - reported_s) * 1000.0 / hs_a_trips
    else:
        metrics["planners.unreported_ms_per_trip.hs_a"] = 0.0
    metrics.update({
        "fleet.adapt_calls": len(adapt),
        "fleet.adapt_s": sum(adapt),
        "fleet.adapt_ms_p50": _percentile_ms(adapt, 50),
        "fleet.adapt_ms_p99": _percentile_ms(adapt, 99),
        "fleet.adapt_per_trip": len(adapt) / hs_a_trips if hs_a_trips else 0.0,
        "fleet.reservations_placed": sim_counts["fleet.reservations_placed"],
        "availability.synthesize_s": sum(durations("availability.synthesize")),
        "availability.flips": sim_counts["availability.flips"],
        "engine.self_s": sum(t for s, t in zip(sim_spans, self_s) if s.name == "engine.run"),
        "engine.claims": claims,
        "engine.claim_success_share": parked / claims if claims else 0.0,
        "engine.load_trace_s": setup_median("engine.load_trace"),
        "engine.replay_s": sum(durations("engine.replay")),
        "engine.write_results_s": sum(durations("engine.write_results")),
        "scenario.dbscan_s": setup_median("scenario.dbscan"),
        "scenario.dbscan_points": setup_counts["scenario.dbscan_points"],
        "scenario.dbscan_bytes": setup_counts["scenario.dbscan_bytes"],
        "trace_overhead_share": overhead_share,
    })
    return metrics


def write_spans(path: Path, phases: list[tuple[str, list]]) -> None:
    from tracer import self_times

    with open(path, "w") as fh:
        fh.write("phase,index,parent,name,kind,start,end,self\n")
        for phase, spans in phases:
            for i, (s, t) in enumerate(zip(spans, self_times(spans))):
                fh.write(f"{phase},{i},{s.parent},{s.name},{s.kind or ''},{s.start!r},{s.end!r},{t!r}\n")


def span_errors(phases: list[tuple[str, list]]) -> list[str]:
    from tracer import nesting_errors, self_times

    errors = []
    for phase, spans in phases:
        errors += [f"{phase}: {e}" for e in nesting_errors(spans)]
        errors += [f"{phase}: span {i} has negative self time {t!r}"
                   for i, t in enumerate(self_times(spans)) if t < 0]
    return errors


def run_traced(wl, out_dir: Path, spans_path: Path) -> tuple[dict, dict, list[Outcome]]:
    from speed import SpeedClock
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        world, _, setup_traces = repeat_setup(wl, tracer=tracer)
    finally:
        tracer.uninstall()
    rounds = wl.rounds(world)
    untraced_clock, traced_clock = SpeedClock(), SpeedClock()
    untraced = [o for r in range(len(rounds))
                for o in run_round(wl, world, rounds, r, out_dir, measure_computation=True, clock=untraced_clock)]
    tracer.install()
    try:
        traced = [o for r in range(len(rounds))
                  for o in run_round(wl, world, rounds, r, out_dir, measure_computation=True,
                                     clock=traced_clock, tracer=tracer)]
        sim_spans, sim_counts = tracer.take()
    finally:
        tracer.uninstall()
    phases = [(f"setup{i}", spans) for i, (spans, _) in enumerate(setup_traces)] + [("pass", sim_spans)]
    write_spans(spans_path, phases)
    errors = span_errors(phases)
    for e in errors[:20]:
        print(f"{wl.name}: {e}", file=sys.stderr)
    untraced_rate = trip_rate(untraced, untraced_clock)
    overhead = 1.0 - trip_rate(traced, traced_clock) / untraced_rate if untraced_rate else 0.0
    metrics = layer_metrics(wl, world, setup_traces, sim_spans, sim_counts, traced, overhead)
    return metrics, {"span_errors": len(errors), "spans": sum(len(s) for _, s in phases)}, untraced + traced


def environment() -> dict:
    import numpy
    import scipy

    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_one(args) -> int:
    import parksearch
    from workloads import WORKLOADS

    if Path(parksearch.__file__).resolve().parent != (SRC / "parksearch").resolve():
        print(f"perfbench: imported parksearch from {parksearch.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}{'-tiny' if args.tiny else ''}"
    inputs = WORKDIR / "inputs" / tag
    out_dir = WORKDIR / "results" / f"{tag}-trace{args.trace}"
    for d in (inputs, out_dir, WORKDIR / "spans"):
        d.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    wl.write_inputs(inputs)
    if args.trace:
        metrics, info, outcomes = run_traced(wl, out_dir, WORKDIR / "spans" / f"{tag}.csv")
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        correct = info["span_errors"] == 0
    else:
        metrics, info, outcomes = run_untraced(wl, args.seconds, out_dir)
        units = END_TO_END
        correct = True
    failed = sum(o.error is not None for o in outcomes)
    correct = correct and failed == 0 and set(metrics) == set(units)
    env = environment()
    for key, value in info.items():
        print(f"{args.workload} {key} {value}")
    print(f"{args.workload} error_share {failed / len(outcomes)!r}")
    print(f"{args.workload} env {json.dumps(env, sort_keys=True)}")
    for name, unit in units.items():
        print(f"{args.workload} {name} {metrics[name]!r} {unit}")
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "env": env, "info": info, **result}
    (WORKDIR / "results" / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            try:
                ok = proc.returncode == 0 and json.loads(lines[-1])["correct"]
            except (IndexError, ValueError, KeyError):
                ok = False
            if not ok:
                print(f"{name} trace={trace}: FAILED (exit code {proc.returncode})")
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small worlds, for the smoke test")
    args = parser.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"  # numpy is first imported below: one BLAS/OpenMP thread, here and in children
    if not (SRC / "parksearch" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC / 'parksearch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
