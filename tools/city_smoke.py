#!/usr/bin/env python3
"""City-scale smoke run: drive times on demand must keep a 10,000-node city in bounded memory.

    python tools/city_smoke.py
    python tools/city_smoke.py --hindsight

Builds a generated 100x100 one-way grid (nothing to download), runs 20 agents
of each of random, heuristic, rpl and rpl_r on one shared context, and fails
unless every agent ends parked or timed out and the process's peak resident
memory stays under 500 MB (a dense all-pairs matrix alone would take 800 MB).
It prints a Markdown table of set-up seconds, drive-time rows computed, wall
seconds per kind and peak RSS. Kinds run in the order listed, and each one's
seconds include the drive-time rows it is the first to read; they are
reported, not gated.

With ``--hindsight`` it runs 20 hs agents on the same world and trips instead,
in a process of their own, and reports the same table; peak RSS is not gated
there, since each searching agent holds 100 uniforms per spot (8 MB on 10,000
spots). It still fails unless every agent ends parked or timed out.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from parksearch import engine, graph, planners, scenario  # noqa: E402
from parksearch.engine import AgentSpec  # noqa: E402
from parksearch.geo import GeoPoint  # noqa: E402

SIDE = 100
AGENTS = 20
KINDS = ("random", "heuristic", "rpl", "rpl_r")
MAX_RSS_MB = 500.0
SEED = 1
SPACING_M = 150.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--hindsight", action="store_true", help="run 20 hs agents instead, with no RSS gate")
    hindsight = parser.parse_args(argv).hindsight
    kinds, max_rss_mb = (("hs",), None) if hindsight else (KINDS, MAX_RSS_MB)
    rng = np.random.default_rng([SEED, 0x5C17])
    g = graph.load_graph(scenario.build_grid_graph_doc(
        SIDE, SIDE, spacing_m=SPACING_M, drive_time_s=30.0, n_resources=SIDE * SIDE, seed=SEED,
        one_way=True, resource_streets=SIDE * SIDE // 2))
    start = time.perf_counter()
    times = graph.all_pairs_travel_times(g)
    ctx = planners.PlannerContext(g, times)
    setup_s = time.perf_counter() - start

    node_ids = list(g.nodes)
    deg = SPACING_M / 111_194.93  # build_grid_graph_doc's metres per degree
    lo, hi = 0.2 * (SIDE - 1) * deg, 0.8 * (SIDE - 1) * deg
    starts = [node_ids[int(i)] for i in rng.choice(len(node_ids), size=4, replace=False)]
    trips = [(starts[i % len(starts)], GeoPoint(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))),
              float(rng.uniform(0.0, 1800.0))) for i in range(AGENTS)]
    bad, wall_s = [], {}
    for kind in kinds:
        agents = tuple(AgentSpec(f"a{i:03d}", *trip, kind) for i, trip in enumerate(trips))
        start = time.perf_counter()
        records = engine.run_simulation(g, agents, engine.DEFAULT_CTMC, seed=SEED, ctx=ctx,
                                        measure_computation=False)
        wall_s[kind] = time.perf_counter() - start
        bad += [(kind, r.agent_id, r.status) for r in records if r.status not in ("parked", "timed_out")]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"| {len(node_ids):,}-node one-way grid | value |\n| --- | ---: |")
    print(f"| set-up (drive-time store and context) | {setup_s:.3f} s |")
    print(f"| drive-time rows computed | {len(times):,} of {len(node_ids):,} |")
    for kind in kinds:
        print(f"| {kind} wall time ({AGENTS} agents) | {wall_s[kind]:.3f} s |")
    print(f"| peak RSS | {peak_mb:.1f} MB ({'not gated' if max_rss_mb is None else f'bound {max_rss_mb:g}'}) |")
    print(f"| agents not parked or timed out | {len(bad)} of {AGENTS * len(kinds)} |")
    if bad:
        print(f"agents not parked or timed out: {bad}", file=sys.stderr)
    too_big = max_rss_mb is not None and peak_mb >= max_rss_mb
    if too_big:
        print(f"peak RSS {peak_mb:.1f} MB is not under {max_rss_mb:g} MB", file=sys.stderr)
    return 1 if bad or too_big else 0


if __name__ == "__main__":
    sys.exit(main())
