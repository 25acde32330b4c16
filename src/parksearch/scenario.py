"""Scenario configuration, destination generation, batch execution and summaries.

A scenario is one JSON file describing the graph, the occupation source
(recorded trace or synthetic process parameters), how agents and their
destinations are generated, the planner kind and its parameters, a seed and
a horizon. Batch runs execute many scenario files and aggregate per-planner
statistics, including the total-parking-time reduction of each fleet variant
against its single-agent base.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .availability import CtmcParams, ResourceState
from .engine import (
    DEFAULT_HORIZON_S,
    AgentSpec,
    MetricsRecord,
    OccupationTrace,
    compute_metrics,
    load_trace,
    read_results,
    run_simulation,
    write_results,
)
from .errors import ConfigError
from .geo import GeoPoint, great_circle_m
from .graph import DEFAULT_ROUND_TRIP_S, DEFAULT_SPEED_FACTOR, RoadGraph, load_graph
from .planners import PLANNER_KINDS, PlannerSettings

_TOP_KEYS = {
    "name", "graph", "occupation", "destinations", "planner", "adaption",
    "ctmc", "graph_defaults", "seed", "horizon_s", "measure_computation",
}
_FLEET_BASE = {"rpl_r": "rpl", "hs_r": "hs", "hs_a": "hs"}


@dataclass(frozen=True)
class RateZone:
    """Circular region whose resources flip with their own rates."""

    center: GeoPoint
    radius_m: float
    params: CtmcParams


@dataclass
class ScenarioConfig:
    name: str
    graph_path: Path
    trace_path: Path | None
    synthetic: CtmcParams | None
    destinations: dict
    planner_kind: str
    settings: PlannerSettings
    ctmc: CtmcParams
    seed: int
    horizon_s: float
    measure_computation: bool = True
    round_trip_s: float = DEFAULT_ROUND_TRIP_S
    speed_factor: float = DEFAULT_SPEED_FACTOR
    zones: tuple[RateZone, ...] = ()

    def to_dict(self) -> dict:
        """Fully resolved configuration, suitable for provenance echoes."""
        if self.trace_path is not None:
            occupation = {"trace": str(self.trace_path)}
        else:
            synthetic = {"lambda_inv_s": 1.0 / self.synthetic.lam, "mu_inv_s": 1.0 / self.synthetic.mu}
            if self.zones:
                synthetic["zones"] = [
                    {"center": [z.center.lat, z.center.lon], "radius_m": z.radius_m,
                     "lambda_inv_s": 1.0 / z.params.lam, "mu_inv_s": 1.0 / z.params.mu}
                    for z in self.zones
                ]
            occupation = {"synthetic": synthetic}
        return {
            "name": self.name,
            "graph": str(self.graph_path),
            "occupation": occupation,
            "destinations": self.destinations,
            "planner": {
                "kind": self.planner_kind,
                "determinizations": self.settings.determinizations,
                "scope_horizon_s": self.settings.scope_horizon_s,
                "heuristic_far_radius_m": self.settings.heuristic_far_radius_m,
                "heuristic_accept_walk_s": self.settings.heuristic_accept_walk_s,
                "heuristic_relax_s_per_min": self.settings.heuristic_relax_s_per_min,
            },
            "adaption": {
                "samples": self.settings.adaption_samples,
                "isochrone_s": self.settings.adaption_isochrone_s,
                "visit_decay": self.settings.adaption_visit_decay,
                "max_steps": self.settings.adaption_max_steps,
            },
            "ctmc": {"lambda_inv_s": 1.0 / self.ctmc.lam, "mu_inv_s": 1.0 / self.ctmc.mu},
            "graph_defaults": {"round_trip_s": self.round_trip_s, "speed_factor": self.speed_factor},
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "measure_computation": self.measure_computation,
        }


def _expect_keys(obj: dict, allowed: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be an object, got {obj!r}")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"{what} has unknown keys: {sorted(unknown)}")


def _number(section: dict, key: str, prefix: str = "", default=None, *, integer: bool = False,
            positive: bool = True) -> float | int:
    """``section[key]`` (or ``default``) as a finite number; a ConfigError naming the key path otherwise."""
    value = section.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        need = ("a positive " if positive else "a non-negative ") + ("integer" if integer else "number")
        raise ConfigError(f"{prefix}{key} must be {need}, got {value!r}")
    return int(value) if integer else float(value)


def _point(value, path: str) -> GeoPoint:
    """A ``[lat, lon]`` pair in degrees; a ConfigError naming the key path otherwise."""
    try:
        lat, lon = value
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (lat, lon)):
            raise TypeError
        return GeoPoint(float(lat), float(lon))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path} must be a [lat, lon] pair in degrees, got {value!r}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent, default_name=path.stem)


def parse_config(doc: dict, *, base_dir: Path | None = None, default_name: str = "scenario") -> ScenarioConfig:
    if not isinstance(doc, dict):
        raise ConfigError("scenario config must be a JSON object")
    _expect_keys(doc, _TOP_KEYS, "scenario config")
    base = base_dir or Path(".")

    def resolve(p: str) -> Path:
        q = Path(p)
        return q if q.is_absolute() else base / q

    for key in ("graph", "occupation", "destinations", "planner", "seed"):
        if key not in doc:
            raise ConfigError(f"scenario config missing {key!r}")

    graph_path = resolve(doc["graph"])
    if not graph_path.exists():
        raise ConfigError(f"graph file not found: {graph_path}")

    occupation = doc["occupation"]
    _expect_keys(occupation, {"trace", "synthetic"}, "occupation")
    if ("trace" in occupation) == ("synthetic" in occupation):
        raise ConfigError("occupation needs exactly one of 'trace' or 'synthetic'")
    trace_path = None
    synthetic = None
    zones: list[RateZone] = []
    if "trace" in occupation:
        trace_path = resolve(occupation["trace"])
        if not trace_path.exists():
            raise ConfigError(f"trace file not found: {trace_path}")
    else:
        syn = occupation["synthetic"]
        _expect_keys(syn, {"lambda_inv_s", "mu_inv_s", "zones"}, "occupation.synthetic")
        where = "occupation.synthetic."
        synthetic = CtmcParams.from_mean_times(
            _number(syn, "lambda_inv_s", where, 120.0), _number(syn, "mu_inv_s", where, 2091.0)
        )
        for k, raw in enumerate(syn.get("zones", [])):
            where = f"occupation.synthetic.zones[{k}]."
            _expect_keys(raw, {"center", "radius_m", "lambda_inv_s", "mu_inv_s"}, where[:-1])
            zones.append(
                RateZone(
                    _point(raw.get("center"), f"{where}center"),
                    _number(raw, "radius_m", where, positive=False),
                    CtmcParams.from_mean_times(_number(raw, "lambda_inv_s", where),
                                               _number(raw, "mu_inv_s", where)),
                )
            )

    destinations = doc["destinations"]
    if not isinstance(destinations, dict) or "mode" not in destinations:
        raise ConfigError("destinations needs a 'mode'")
    mode = destinations["mode"]
    if mode == "single":
        _expect_keys(destinations, {"mode", "destination", "start_node", "agents", "start_time_s"}, "destinations")
        for key in ("destination", "start_node"):
            if key not in destinations:
                raise ConfigError(f"single destinations missing {key!r}")
        _point(destinations["destination"], "destinations.destination")
        _number(destinations, "agents", "destinations.", 20, integer=True)
        _number(destinations, "start_time_s", "destinations.", 0.0, positive=False)
    elif mode == "explicit":
        _expect_keys(destinations, {"mode", "agents"}, "destinations")
        if not destinations.get("agents"):
            raise ConfigError("explicit destinations need a non-empty agent list")
    elif mode == "data_driven":
        _expect_keys(
            destinations,
            {"mode", "trace", "start_node", "eps_m", "min_pts", "clusters"},
            "destinations",
        )
        if "start_node" not in destinations:
            raise ConfigError("data_driven destinations missing 'start_node'")
        for key in ("eps_m", "min_pts"):
            if key not in destinations:
                raise ConfigError(f"data_driven destinations missing {key!r} (no default)")
        _number(destinations, "eps_m", "destinations.")
        _number(destinations, "min_pts", "destinations.", integer=True)
        _number(destinations, "clusters", "destinations.", 2, integer=True)
        if "trace" in destinations:
            dd_trace = resolve(destinations["trace"])
            if not dd_trace.exists():
                raise ConfigError(f"data_driven trace not found: {dd_trace}")
            destinations = dict(destinations)
            destinations["trace"] = str(dd_trace)
    else:
        raise ConfigError(f"unknown destination mode {mode!r}")

    planner = doc["planner"]
    _expect_keys(
        planner,
        {"kind", "determinizations", "scope_horizon_s", "heuristic_far_radius_m",
         "heuristic_accept_walk_s", "heuristic_relax_s_per_min"},
        "planner",
    )
    kind = planner.get("kind")
    if kind not in PLANNER_KINDS:
        raise ConfigError(f"unknown planner kind {kind!r}")

    adaption = doc.get("adaption", {})
    _expect_keys(adaption, {"samples", "isochrone_s", "visit_decay", "max_steps"}, "adaption")
    settings = PlannerSettings(
        determinizations=_number(planner, "determinizations", "planner.", 100, integer=True),
        scope_horizon_s=(None if planner.get("scope_horizon_s") is None
                         else _number(planner, "scope_horizon_s", "planner.")),
        heuristic_far_radius_m=_number(planner, "heuristic_far_radius_m", "planner.", 500.0, positive=False),
        heuristic_accept_walk_s=_number(planner, "heuristic_accept_walk_s", "planner.", 120.0, positive=False),
        heuristic_relax_s_per_min=_number(planner, "heuristic_relax_s_per_min", "planner.", 10.0, positive=False),
        adaption_samples=_number(adaption, "samples", "adaption.", 30, integer=True),
        adaption_isochrone_s=_number(adaption, "isochrone_s", "adaption.", 300.0),
        adaption_visit_decay=_number(adaption, "visit_decay", "adaption.", 0.95, positive=False),
        adaption_max_steps=_number(adaption, "max_steps", "adaption.", 1000, integer=True, positive=False),
    )

    ctmc_doc = doc.get("ctmc", {})
    _expect_keys(ctmc_doc, {"lambda_inv_s", "mu_inv_s"}, "ctmc")
    if ctmc_doc:
        ctmc = CtmcParams.from_mean_times(
            _number(ctmc_doc, "lambda_inv_s", "ctmc.", 120.0), _number(ctmc_doc, "mu_inv_s", "ctmc.", 2091.0)
        )
    else:
        ctmc = synthetic or CtmcParams.from_mean_times(120.0, 2091.0)

    defaults = doc.get("graph_defaults", {})
    _expect_keys(defaults, {"round_trip_s", "speed_factor"}, "graph_defaults")
    if not isinstance(doc.get("measure_computation", True), bool):
        raise ConfigError(f"measure_computation must be true or false, got {doc['measure_computation']!r}")

    return ScenarioConfig(
        name=str(doc.get("name", default_name)),
        graph_path=graph_path,
        trace_path=trace_path,
        synthetic=synthetic,
        destinations=destinations,
        planner_kind=kind,
        settings=settings,
        ctmc=ctmc,
        seed=_number(doc, "seed", integer=True, positive=False),
        horizon_s=_number(doc, "horizon_s", default=DEFAULT_HORIZON_S),
        measure_computation=doc.get("measure_computation", True),
        round_trip_s=_number(defaults, "round_trip_s", "graph_defaults.", DEFAULT_ROUND_TRIP_S),
        speed_factor=_number(defaults, "speed_factor", "graph_defaults.", DEFAULT_SPEED_FACTOR),
        zones=tuple(zones),
    )


def zone_rate_overrides(graph: RoadGraph, zones: tuple[RateZone, ...]) -> dict[str, CtmcParams]:
    """Per-resource rate overrides from zone membership; first matching zone wins."""
    overrides: dict[str, CtmcParams] = {}
    for rid, resource in graph.resources.items():
        for zone in zones:
            if great_circle_m(resource.position, zone.center) <= zone.radius_m:
                overrides[rid] = zone.params
                break
    return overrides


def generate_single_destination(
    graph: RoadGraph,
    destination: GeoPoint,
    start_node: str,
    n_agents: int,
    start_time_s: float,
    planner: str,
) -> list[AgentSpec]:
    """Identical start, destination and departure for every agent; only ids differ."""
    if n_agents < 1:
        raise ConfigError(f"agent count must be positive, got {n_agents}")
    if start_node not in graph.nodes:
        raise ConfigError(f"unknown start node {start_node!r}")
    width = max(3, len(str(n_agents - 1)))
    return [
        AgentSpec(f"a{i:0{width}d}", start_node, destination, start_time_s, planner)
        for i in range(n_agents)
    ]


@dataclass(frozen=True)
class Cluster:
    label: int
    members: tuple[GeoPoint, ...]
    member_indices: tuple[int, ...]


def _pairwise_gc_m(points: list[GeoPoint]) -> np.ndarray:
    lat = np.radians(np.array([p.lat for p in points]))
    lon = np.radians(np.array([p.lon for p in points]))
    dphi = lat[:, None] - lat[None, :]
    dlam = lon[:, None] - lon[None, :]
    h = np.sin(dphi / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlam / 2.0) ** 2
    return 2.0 * 6_371_000.0 * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def dbscan(points: list[GeoPoint], eps_m: float, min_pts: int) -> list[Cluster]:
    """Density-based clustering under great-circle distance.

    Neighborhoods include the point itself. Border points join the cluster of
    the first core point that reaches them in index order.
    """
    if eps_m <= 0:
        raise ConfigError("eps must be positive")
    if min_pts < 1:
        raise ConfigError("min_pts must be at least 1")
    n = len(points)
    if n == 0:
        return []
    dist = _pairwise_gc_m(points)
    neighbors = [np.nonzero(dist[i] <= eps_m)[0] for i in range(n)]
    core = np.array([len(nb) >= min_pts for nb in neighbors])
    labels = np.full(n, -1, dtype=int)
    next_label = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = next_label
        queue = deque([i])
        while queue:
            j = queue.popleft()
            for k in neighbors[j]:
                if labels[k] == -1:
                    labels[k] = next_label
                    if core[k]:
                        queue.append(int(k))
        next_label += 1
    clusters = []
    for label in range(next_label):
        idx = tuple(int(i) for i in np.nonzero(labels == label)[0])
        clusters.append(Cluster(label, tuple(points[i] for i in idx), idx))
    return clusters


def occupation_points(graph: RoadGraph, trace: OccupationTrace) -> list[tuple[GeoPoint, float]]:
    """One point per parking event: the resource position at each flip to occupied."""
    points = []
    for ev in trace.events:
        if ev.state is ResourceState.OCCUPIED and ev.resource in graph.resources:
            points.append((graph.resources[ev.resource].position, ev.time))
    return points


def _sample_in_cluster(cluster: Cluster, eps_m: float, rng: np.random.Generator) -> GeoPoint:
    lats = [p.lat for p in cluster.members]
    lons = [p.lon for p in cluster.members]
    lo_lat, hi_lat = min(lats), max(lats)
    lo_lon, hi_lon = min(lons), max(lons)
    for _ in range(1000):
        cand = GeoPoint(float(rng.uniform(lo_lat, hi_lat)), float(rng.uniform(lo_lon, hi_lon)))
        if any(great_circle_m(cand, m) <= eps_m for m in cluster.members):
            return cand
    return cluster.members[int(rng.integers(len(cluster.members)))]


def generate_data_driven(
    graph: RoadGraph,
    events: list[tuple[GeoPoint, float]],
    start_node: str,
    planner: str,
    *,
    eps_m: float,
    min_pts: int,
    n_clusters: int = 2,
    rng: np.random.Generator,
) -> list[AgentSpec]:
    """One agent per member point of the selected demand clusters, hour by hour.

    Events are bucketed per hour; clusters are inferred per bucket and the
    ``n_clusters`` largest are kept. Each member point spawns one agent with a
    destination drawn inside the cluster and a start time uniform in the hour.
    """
    if not events:
        raise ConfigError("no occupation events to derive destinations from")
    if start_node not in graph.nodes:
        raise ConfigError(f"unknown start node {start_node!r}")
    hours: dict[int, list[GeoPoint]] = {}
    for point, t in events:
        hours.setdefault(int(t // 3600.0), []).append(point)
    specs: list[AgentSpec] = []
    counter = 0
    for hour in sorted(hours):
        points = hours[hour]
        if not points:
            warnings.warn(f"hour {hour}: no occupation events, no agents generated")
            continue
        clusters = dbscan(points, eps_m, min_pts)
        if not clusters:
            warnings.warn(f"hour {hour}: no clusters at eps={eps_m}, min_pts={min_pts}")
            continue
        clusters.sort(key=lambda c: (-len(c.members), c.label))
        for cluster in clusters[:n_clusters]:
            for _ in cluster.members:
                destination = _sample_in_cluster(cluster, eps_m, rng)
                start = hour * 3600.0 + float(rng.uniform(0.0, 3600.0))
                specs.append(AgentSpec(f"a{counter:04d}", start_node, destination, start, planner))
                counter += 1
    if not specs:
        raise ConfigError("cluster selection produced no agents")
    return specs


def build_agents(config: ScenarioConfig, graph: RoadGraph, rng: np.random.Generator) -> list[AgentSpec]:
    dest = config.destinations
    mode = dest["mode"]
    if mode == "single":
        return generate_single_destination(
            graph,
            _point(dest["destination"], "destinations.destination"),
            dest["start_node"],
            int(dest.get("agents", 20)),
            float(dest.get("start_time_s", 0.0)),
            config.planner_kind,
        )
    if mode == "explicit":
        specs = []
        for k, raw in enumerate(dest["agents"]):
            where = f"destinations.agents[{k}]."
            _expect_keys(raw, {"id", "start_node", "destination", "start_time_s", "planner"}, where[:-1])
            for key in ("id", "start_node"):
                if key not in raw:
                    raise ConfigError(f"{where}{key} is missing")
            specs.append(
                AgentSpec(
                    str(raw["id"]),
                    str(raw["start_node"]),
                    _point(raw.get("destination"), f"{where}destination"),
                    _number(raw, "start_time_s", where, 0.0, positive=False),
                    str(raw.get("planner", config.planner_kind)),
                )
            )
        return specs
    trace_path = dest.get("trace", config.trace_path)
    if trace_path is None:
        raise ConfigError("data_driven destinations need an occupation trace")
    trace = load_trace(trace_path)
    return generate_data_driven(
        graph,
        occupation_points(graph, trace),
        dest["start_node"],
        config.planner_kind,
        eps_m=float(dest["eps_m"]),
        min_pts=int(dest["min_pts"]),
        n_clusters=int(dest.get("clusters", 2)),
        rng=rng,
    )


def run_scenario(config: ScenarioConfig | str | Path, out_dir: str | Path | None = None) -> list[MetricsRecord]:
    """Execute one scenario; optionally write its results file and config echo."""
    if not isinstance(config, ScenarioConfig):
        config = load_config(config)
    graph = load_graph(
        config.graph_path,
        speed_factor=config.speed_factor,
        default_round_trip_s=config.round_trip_s,
    )
    agent_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xA6E7)))
    agents = build_agents(config, graph, agent_rng)
    occupation = config.synthetic if config.synthetic is not None else load_trace(config.trace_path)
    records = run_simulation(
        graph,
        agents,
        occupation,
        params=config.ctmc,
        params_by_resource=zone_rate_overrides(graph, config.zones) if config.zones else None,
        settings=config.settings,
        horizon_s=config.horizon_s,
        seed=config.seed,
        measure_computation=config.measure_computation,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_results(out / f"{config.name}.results.csv", records)
        (out / f"{config.name}.config.json").write_text(
            json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n"
        )
    return records


def _run_batch_worker(args: tuple[str, str]) -> tuple[str, str | None]:
    config_path, out_dir = args
    try:
        run_scenario(config_path, out_dir)
        return config_path, None
    except Exception as exc:  # propagate per-run failures without aborting the batch
        return config_path, f"{type(exc).__name__}: {exc}"


def run_batch(config_paths: list[str | Path], out_dir: str | Path, parallel: int = 1) -> dict:
    """Run every scenario, then summarize all written results files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(str(p), str(out)) for p in sorted(str(p) for p in config_paths)]
    failures: dict[str, str] = {}
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            for path, error in pool.map(_run_batch_worker, jobs):
                if error:
                    failures[path] = error
    else:
        for job in jobs:
            path, error = _run_batch_worker(job)
            if error:
                failures[path] = error
    summary = summarize_results(out)
    summary["failed"] = failures
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def summarize_results(results_dir: str | Path) -> dict:
    """Aggregate every results file in a directory into per-planner statistics."""
    paths = sorted(Path(results_dir).glob("*.results.csv"))
    records: list[MetricsRecord] = []
    for path in paths:
        records.extend(read_results(path))
    per_planner = compute_metrics(records)
    reductions = {}
    for variant, base in _FLEET_BASE.items():
        if variant in per_planner and base in per_planner:
            base_total = per_planner[base]["total_parking_s"]
            if base_total > 0:
                variant_total = per_planner[variant]["total_parking_s"]
                reductions[variant] = 100.0 * (base_total - variant_total) / base_total
    return {
        "runs": len(paths),
        "agents": len(records),
        "per_planner": per_planner,
        "reduction_pct_vs_base": reductions,
    }


def build_grid_graph_doc(
    rows: int = 10,
    cols: int = 10,
    *,
    spacing_m: float = 150.0,
    drive_time_s: float = 30.0,
    n_resources: int = 150,
    seed: int = 0,
    round_trip_s: float = DEFAULT_ROUND_TRIP_S,
    one_way: bool = False,
    resource_streets: int | None = None,
) -> dict:
    """Synthetic demo network: a grid with randomly placed resources.

    With ``one_way=True`` streets alternate direction by row and column
    (eastbound on even rows, southbound on even columns), which forces
    block-sized loops to revisit a street, like an inner-city street plan.
    ``resource_streets`` limits how many streets carry parking at all.
    """
    deg = spacing_m / 111_194.93  # meters per degree of latitude on the sphere
    nodes = []
    for r in range(rows):
        for c in range(cols):
            nodes.append({"id": f"n{r:02d}{c:02d}", "lat": r * deg, "lon": c * deg})

    def _edge(a: str, b: str) -> dict:
        return {"id": f"e{a}-{b}", "from": a, "to": b, "length_m": spacing_m,
                "drive_time_s": drive_time_s}

    edges = []
    for r in range(rows):
        for c in range(cols):
            here = f"n{r:02d}{c:02d}"
            if c + 1 < cols:
                there = f"n{r:02d}{c + 1:02d}"
                two_way = not one_way or r in (0, rows - 1)  # perimeter stays two-way
                if two_way:
                    edges.append(_edge(here, there))
                    edges.append(_edge(there, here))
                elif r % 2 == 0:
                    edges.append(_edge(here, there))
                else:
                    edges.append(_edge(there, here))
            if r + 1 < rows:
                there = f"n{r + 1:02d}{c:02d}"
                two_way = not one_way or c in (0, cols - 1)
                if two_way:
                    edges.append(_edge(here, there))
                    edges.append(_edge(there, here))
                elif c % 2 == 0:
                    edges.append(_edge(here, there))
                else:
                    edges.append(_edge(there, here))
    rng = np.random.default_rng(seed)
    node_pos = {n["id"]: (n["lat"], n["lon"]) for n in nodes}
    resources = []
    if resource_streets is None:
        edge_picks = [int(i) for i in rng.integers(0, len(edges), size=n_resources)]
    else:
        # concentrate spots on a subset of streets, like parking bays on block faces
        streets = rng.choice(len(edges), size=min(resource_streets, len(edges)), replace=False)
        edge_picks = [int(streets[i % len(streets)]) for i in range(n_resources)]
    for i, eidx in enumerate(edge_picks):
        e = edges[eidx]
        frac = float(rng.uniform(0.1, 0.9))
        lat_a, lon_a = node_pos[e["from"]]
        lat_b, lon_b = node_pos[e["to"]]
        resources.append({
            "id": f"r{i:03d}",
            "edge": e["id"],
            "lat": lat_a + frac * (lat_b - lat_a),
            "lon": lon_a + frac * (lon_b - lon_a),
            "offset_s": round(frac * drive_time_s, 3),
            "round_trip_s": round_trip_s,
        })
    return {"nodes": nodes, "edges": edges, "resources": resources}
