"""The benchmark's three workloads.

Each workload turns a seed into input files (``write_inputs``), reads them back
in a timed set-up (``setup``), and lists the simulations of one pass
(``rounds``): a round holds one ``run_simulation`` call per planner kind, all
on the same simulation seed, so every round has the same mix of kinds.

* ``competition`` is the acceptance competition world; hindsight ``decide``
  and the hs_a adaption walks carry the load and set-up is tiny.
* ``city`` is a 50x50 one-way grid with the non-hindsight kinds; set-up, trace
  synthesis, policy construction and the event loop carry the load, and no
  hindsight or adaption code runs.
* ``trace_replay`` writes one synthesized trace per day to disk, reads them
  back and derives each day's destinations by DBSCAN; rpl_r and hs_r agents
  replay the days.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from parksearch import engine, graph, planners, scenario
from parksearch.availability import CtmcParams
from parksearch.engine import AgentSpec
from parksearch.geo import GeoPoint, great_circle_m

M_PER_DEG_LAT = 111_194.93  # the factor build_grid_graph_doc places nodes with


@dataclass(frozen=True)
class Sim:
    """One ``run_simulation`` call."""

    kind: str
    seed: int
    agents: tuple[AgentSpec, ...]
    day: int = 0  # which recorded trace, on trace_replay


@dataclass
class World:
    """What set-up produces: the program's own objects, ready to simulate on."""

    graph: graph.RoadGraph
    ctx: planners.PlannerContext
    days: tuple[tuple[engine.OccupationTrace, tuple[AgentSpec, ...]], ...] = ()  # trace_replay only


def _sim_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng([seed, 0x5EED]).integers(0, 2**31 - 1, size=n)]


def _load_world(graph_path: Path) -> World:
    g = graph.load_graph(graph_path)
    return World(g, planners.PlannerContext(g, graph.all_pairs_travel_times(g)))


class Competition:
    """20 agents leave n0009 together for a dead centre inside a turning-over ring.

    The world is frozen (graph seed 42, as in the acceptance suite); the
    benchmark seed picks the simulation seeds of the pass.
    """

    name = "competition"
    kinds = planners.PLANNER_KINDS
    spacing_m = 440.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.n_agents = 3 if tiny else 20
        self.n_rounds = 1 if tiny else 8
        self.setup_reps = 2 if tiny else 31

    def write_inputs(self, workdir: Path) -> None:
        doc = scenario.build_grid_graph_doc(10, 10, spacing_m=self.spacing_m, drive_time_s=25.0,
                                            n_resources=150, seed=42, round_trip_s=300.0,
                                            resource_streets=30)
        self.graph_path = workdir / "competition.graph.json"
        self.graph_path.write_text(json.dumps(doc))
        deg = self.spacing_m / M_PER_DEG_LAT
        self.dest = GeoPoint(4.5 * deg, 4.5 * deg)
        self.ring = CtmcParams.from_mean_times(538.0, 1345.0)
        dead = CtmcParams.from_mean_times(60.0, 50_000.0)
        self.overrides = {
            r["id"]: dead for r in doc["resources"]
            if great_circle_m(GeoPoint(r["lat"], r["lon"]), self.dest) <= 3.4 * self.spacing_m
        }

    def setup(self) -> World:
        return _load_world(self.graph_path)

    def rounds(self, world: World) -> list[list[Sim]]:
        return [
            [Sim(kind, s, tuple(AgentSpec(f"a{i:03d}", "n0009", self.dest, 7.0, kind)
                                for i in range(self.n_agents)))
             for kind in self.kinds]
            for s in _sim_seeds(self.seed, self.n_rounds)
        ]

    def simulate(self, world: World, sim: Sim, measure_computation: bool):
        return engine.run_simulation(world.graph, sim.agents, self.ring, params_by_resource=self.overrides,
                                     seed=sim.seed, ctx=world.ctx, measure_computation=measure_computation)


class City:
    """A one-way grid with spots on a quarter of the streets and default availability rates.

    Each round, 200 agents from four start nodes leave at staggered
    times for destinations spread over the inner city; rounds draw their own
    agents, so a pass averages over more trips than one agent set.
    """

    name = "city"
    kinds = ("random", "heuristic", "rpl", "rpl_r")
    spacing_m = 150.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.side = 10 if tiny else 50
        self.n_resources = 100 if tiny else 5000
        self.n_agents = 6 if tiny else 200
        self.n_rounds = 1 if tiny else 3
        self.setup_reps = 2 if tiny else 5

    def write_inputs(self, workdir: Path) -> None:
        rng = np.random.default_rng([self.seed, 0xC17])
        doc = scenario.build_grid_graph_doc(self.side, self.side, spacing_m=self.spacing_m, drive_time_s=30.0,
                                            n_resources=self.n_resources, seed=int(rng.integers(2**31)),
                                            one_way=True, resource_streets=self.side * self.side // 2)
        self.graph_path = workdir / "city.graph.json"
        self.graph_path.write_text(json.dumps(doc))
        node_ids = [n["id"] for n in doc["nodes"]]
        self.starts = [node_ids[int(i)] for i in rng.choice(len(node_ids), size=4, replace=False)]

    def _agents(self, r: int, kind: str) -> tuple[AgentSpec, ...]:
        rng = np.random.default_rng([self.seed, 0xC17, r])
        deg = self.spacing_m / M_PER_DEG_LAT
        lo, hi = 0.2 * (self.side - 1) * deg, 0.8 * (self.side - 1) * deg
        return tuple(
            AgentSpec(f"a{i:03d}", self.starts[i % len(self.starts)],
                      GeoPoint(float(rng.uniform(lo, hi)), float(rng.uniform(lo, hi))),
                      float(rng.uniform(0.0, 1800.0)), kind)
            for i in range(self.n_agents)
        )

    def setup(self) -> World:
        return _load_world(self.graph_path)

    def rounds(self, world: World) -> list[list[Sim]]:
        return [[Sim(kind, s, self._agents(r, kind)) for kind in self.kinds]
                for r, s in enumerate(_sim_seeds(self.seed, self.n_rounds))]

    def simulate(self, world: World, sim: Sim, measure_computation: bool):
        return engine.run_simulation(world.graph, sim.agents, engine.DEFAULT_CTMC, seed=sim.seed,
                                     ctx=world.ctx, measure_computation=measure_computation)


class TraceReplay:
    """Recorded days on one street network: trace files, data-driven destinations, replay.

    The network is frozen (graph seed 7): where its spots lie moved parking
    times by more than the days do. The benchmark seed draws the days: one
    synthesized occupation trace per day, saved to disk.
    Set-up loads each day's trace and runs DBSCAN on the occupation events of
    its demand hour; one agent per member of the largest clusters leaves the
    corner node during that hour. The hour is the second one, because the
    flips at time 0 encode the initial state, not demand, and the trace runs
    half an hour past it so late agents can park. A round replays one day.
    One demand hour per day keeps the agents that park for good from filling
    the clusters, which would leave later hs_r agents circling to the horizon.
    """

    name = "trace_replay"
    kinds = ("rpl_r", "hs_r")
    spacing_m = 250.0

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.side = 6 if tiny else 12
        self.n_resources = 60 if tiny else 600
        self.n_days = 1 if tiny else 12
        self.min_pts = 2 if tiny else 4
        self.n_clusters = 2 if tiny else 8
        self.setup_reps = 2 if tiny else 5
        self.horizon_s = 9000.0

    def write_inputs(self, workdir: Path) -> None:
        doc = scenario.build_grid_graph_doc(self.side, self.side, spacing_m=self.spacing_m, drive_time_s=25.0,
                                            n_resources=self.n_resources, seed=7, round_trip_s=300.0)
        self.graph_path = workdir / "trace_replay.graph.json"
        self.graph_path.write_text(json.dumps(doc))
        g = graph.load_graph(doc)
        rng = np.random.default_rng([self.seed, 0x7AACE])
        self.trace_paths = []
        for d in range(self.n_days):
            path = workdir / f"trace_replay.day{d}.csv"
            engine.save_trace(path, engine.synthesize_occupations(g, engine.DEFAULT_CTMC, self.horizon_s, rng))
            self.trace_paths.append(path)
        self.agent_seeds = [int(x) for x in rng.integers(2**31, size=self.n_days)]

    def setup(self) -> World:
        world = _load_world(self.graph_path)
        days = []
        for path, agent_seed in zip(self.trace_paths, self.agent_seeds):
            trace = engine.load_trace(path)
            events = [p for p in scenario.occupation_points(world.graph, trace)
                      if 3600.0 <= p[1] < 7200.0]
            agents = scenario.generate_data_driven(
                world.graph, events, "n0000", "rpl_r", eps_m=40.0, min_pts=self.min_pts,
                n_clusters=self.n_clusters, rng=np.random.default_rng(agent_seed),
            )
            days.append((trace, tuple(agents)))
        world.days = tuple(days)
        return world

    def rounds(self, world: World) -> list[list[Sim]]:
        return [
            [Sim(kind, s, tuple(replace(a, planner=kind) for a in agents), d) for kind in self.kinds]
            for d, ((_, agents), s) in enumerate(zip(world.days, _sim_seeds(self.seed, self.n_days)))
        ]

    def simulate(self, world: World, sim: Sim, measure_computation: bool):
        return engine.run_simulation(world.graph, sim.agents, world.days[sim.day][0], params=engine.DEFAULT_CTMC,
                                     horizon_s=self.horizon_s, seed=sim.seed, ctx=world.ctx,
                                     measure_computation=measure_computation)


WORKLOADS = {w.name: w for w in (Competition, City, TraceReplay)}
