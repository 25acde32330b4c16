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
import sys
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import astuple, dataclass, fields
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .availability import CtmcParams
from .engine import (
    DEFAULT_CTMC,
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
from .errors import ConfigError, check, check_id, check_keys, check_number, check_point
from .geo import EARTH_RADIUS_M, GeoPoint, great_circle_m_many
from .graph import DEFAULT_ROUND_TRIP_S, DEFAULT_SPEED_FACTOR, RoadGraph, all_pairs_travel_times, load_graph
from .planners import PLANNER_KINDS, PLANNERS, PlannerContext, PlannerSettings

_TOP_KEYS = {
    "name", "graph", "occupation", "destinations", "planner", "adaption",
    "ctmc", "graph_defaults", "seed", "horizon_s", "measure_computation",
}
# Config section and key of each PlannerSettings field: adaption_samples is adaption.samples, others sit in planner.
_SETTING_KEYS = {
    f.name: ("adaption", f.name.removeprefix("adaption_")) if f.name.startswith("adaption_") else ("planner", f.name)
    for f in fields(PlannerSettings)
}


@dataclass(frozen=True)
class RateZone:
    """Circular region whose resources flip with their own rates."""

    center: GeoPoint
    radius_m: float
    params: CtmcParams


def _mean_times(params: CtmcParams) -> dict:
    return {"lambda_inv_s": 1.0 / params.lam, "mu_inv_s": 1.0 / params.mu}


@dataclass
class ScenarioConfig:
    """A parsed scenario: every value validated, every default filled in, every path absolute."""

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
        """The config as a document that ``parse_config`` turns back into an equal config, from any directory."""
        if self.trace_path is not None:
            occupation = {"trace": str(self.trace_path)}
        else:
            zones = [{"center": [z.center.lat, z.center.lon], "radius_m": z.radius_m, **_mean_times(z.params)}
                     for z in self.zones]
            occupation = {"synthetic": {**_mean_times(self.synthetic), "zones": zones}}
        sections = {"planner": {"kind": self.planner_kind}, "adaption": {}}
        for name, (section, key) in _SETTING_KEYS.items():
            sections[section][key] = getattr(self.settings, name)
        return {
            "name": self.name,
            "graph": str(self.graph_path),
            "occupation": occupation,
            "destinations": self.destinations,
            **sections,
            "ctmc": _mean_times(self.ctmc),
            "graph_defaults": {"round_trip_s": self.round_trip_s, "speed_factor": self.speed_factor},
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "measure_computation": self.measure_computation,
        }


def _number(section: dict, key: str, where: str, default=None, **bounds) -> float | int:
    """``section[key]`` (or ``default``) as a finite number; ``where`` is the section's key path."""
    return check_number(section.get(key, default), f"{where}.{key}", **bounds)


def _rates(section: dict, where: str, default: CtmcParams | None = DEFAULT_CTMC) -> CtmcParams:
    """Mean sojourn times ``lambda_inv_s``/``mu_inv_s`` as rates; missing keys take ``default``'s."""
    means = _mean_times(default) if default else {}
    return CtmcParams.from_mean_times(*(_number(section, key, where, means.get(key))
                                        for key in ("lambda_inv_s", "mu_inv_s")))


def _file(value, path: str, base_dir: Path | None) -> Path:
    """An existing file, as an absolute path; relative paths resolve against ``base_dir`` (default: the cwd)."""
    check(isinstance(value, str), path, "a file path", value)
    file = Path(base_dir or ".").joinpath(value).resolve()
    if not file.exists():
        raise ConfigError(f"{path} file not found: {file}")
    return file


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc, base_dir=path.parent, default_name=path.stem)


def parse_config(doc: dict, *, base_dir: Path | None = None, default_name: str = "scenario") -> ScenarioConfig:
    """Validate a scenario document; relative paths resolve against ``base_dir`` (default: the cwd)."""
    check_keys(doc, "", _TOP_KEYS, ("graph", "occupation", "destinations", "planner", "seed"))
    graph_path = _file(doc["graph"], "graph", base_dir)
    occupation = doc["occupation"]
    check_keys(occupation, "occupation", {"trace", "synthetic"})
    if ("trace" in occupation) == ("synthetic" in occupation):
        raise ConfigError("occupation needs exactly one of 'trace' or 'synthetic'")
    trace_path = synthetic = None
    zones: list[RateZone] = []
    if "trace" in occupation:
        trace_path = _file(occupation["trace"], "occupation.trace", base_dir)
    else:
        syn = occupation["synthetic"]
        check_keys(syn, "occupation.synthetic", {"lambda_inv_s", "mu_inv_s", "zones"})
        synthetic = _rates(syn, "occupation.synthetic")
        check(isinstance(syn.get("zones", []), list), "occupation.synthetic.zones", "a list", syn.get("zones"))
        for k, raw in enumerate(syn.get("zones", [])):
            where = f"occupation.synthetic.zones[{k}]"
            check_keys(raw, where, {"center", "radius_m", "lambda_inv_s", "mu_inv_s"})
            zones.append(RateZone(check_point(raw.get("center"), f"{where}.center"),
                                  _number(raw, "radius_m", where, positive=False), _rates(raw, where, None)))

    sections = {"planner": doc["planner"], "adaption": doc.get("adaption", {})}
    for section, raw in sections.items():
        extra = {"kind"} if section == "planner" else set()
        check_keys(raw, section, extra | {key for s, key in _SETTING_KEYS.values() if s == section})
    kind = sections["planner"].get("kind")
    check(kind in PLANNER_KINDS, "planner.kind", f"one of {PLANNER_KINDS}", kind)
    settings = {}
    for f in fields(PlannerSettings):
        section, key = _SETTING_KEYS[f.name]
        if f.default is not None or sections[section].get(key) is not None:  # absent or null keeps a None default
            settings[f.name] = _number(sections[section], key, section, f.default, **f.metadata)

    ctmc_doc = doc.get("ctmc", {})
    check_keys(ctmc_doc, "ctmc", {"lambda_inv_s", "mu_inv_s"})
    defaults = doc.get("graph_defaults", {})
    check_keys(defaults, "graph_defaults", {"round_trip_s", "speed_factor"})
    measure_computation = doc.get("measure_computation", True)
    check(isinstance(measure_computation, bool), "measure_computation", "true or false", measure_computation)
    name = str(doc.get("name", default_name))  # names the results files inside the output directory
    check(name not in ("", ".", "..") and "/" not in name and "\\" not in name, "name",
          "a file name other than '', '.' or '..', without '/' or '\\'", name)

    return ScenarioConfig(
        name=name,
        graph_path=graph_path,
        trace_path=trace_path,
        synthetic=synthetic,
        destinations=_destinations(doc["destinations"], kind, trace_path, base_dir),
        planner_kind=kind,
        settings=PlannerSettings(**settings),
        ctmc=_rates(ctmc_doc, "ctmc") if ctmc_doc else synthetic or DEFAULT_CTMC,
        seed=check_number(doc["seed"], "seed", integer=True, positive=False),
        horizon_s=check_number(doc.get("horizon_s", DEFAULT_HORIZON_S), "horizon_s"),
        measure_computation=measure_computation,
        round_trip_s=_number(defaults, "round_trip_s", "graph_defaults", DEFAULT_ROUND_TRIP_S),
        speed_factor=_number(defaults, "speed_factor", "graph_defaults", DEFAULT_SPEED_FACTOR),
        zones=tuple(zones),
    )


def _destinations(raw, kind: str, trace_path: Path | None, base_dir: Path | None) -> dict:
    """The ``destinations`` section validated, with every default filled in and every path absolute."""
    check(isinstance(raw, dict) and "mode" in raw, "destinations", "an object with a 'mode'", raw)
    mode, where = raw["mode"], "destinations"
    if mode == "single":
        check_keys(raw, where, {"mode", "destination", "start_node", "agents", "start_time_s"},
                   ("destination", "start_node"))
        return {
            "mode": mode,
            "destination": list(astuple(check_point(raw["destination"], f"{where}.destination"))),
            "start_node": check_id(raw["start_node"], f"{where}.start_node"),
            "agents": _number(raw, "agents", where, 20, integer=True),
            "start_time_s": _number(raw, "start_time_s", where, 0.0, positive=False),
        }
    if mode == "explicit":
        check_keys(raw, where, {"mode", "agents"}, ("agents",))
        listed = raw["agents"]
        check(isinstance(listed, list) and listed, f"{where}.agents", "a non-empty list", listed)
        agents = {}
        for k, agent in enumerate(listed):
            at = f"{where}.agents[{k}]"
            check_keys(agent, at, {"id", "start_node", "destination", "start_time_s", "planner"}, ("id", "start_node"))
            agent_id = str(agent["id"])
            check(agent_id not in agents, f"{at}.id", "unique", agent_id)
            planner = agent.get("planner", kind)
            check(planner in PLANNER_KINDS, f"{at}.planner", f"one of {PLANNER_KINDS}", planner)
            agents[agent_id] = {
                "id": agent_id,
                "start_node": check_id(agent["start_node"], f"{at}.start_node"),
                "destination": list(astuple(check_point(agent.get("destination"), f"{at}.destination"))),
                "start_time_s": _number(agent, "start_time_s", at, 0.0, positive=False),
                "planner": planner,
            }
        return {"mode": mode, "agents": list(agents.values())}
    if mode == "data_driven":
        check_keys(raw, where, {"mode", "trace", "start_node", "eps_m", "min_pts", "clusters"},
                   ("start_node", "eps_m", "min_pts"))
        trace = _file(raw["trace"], f"{where}.trace", base_dir) if "trace" in raw else trace_path
        check(trace is not None, f"{where}.trace", "given when occupations are synthetic", trace)
        return {
            "mode": mode,
            "trace": str(trace),
            "start_node": check_id(raw["start_node"], f"{where}.start_node"),
            "eps_m": _number(raw, "eps_m", where),
            "min_pts": _number(raw, "min_pts", where, integer=True),
            "clusters": _number(raw, "clusters", where, 2, integer=True),
        }
    raise ConfigError(f"unknown destination mode {mode!r}")


def zone_rate_overrides(graph: RoadGraph, zones: tuple[RateZone, ...]) -> dict[str, CtmcParams]:
    """Per-resource rate overrides from zone membership; first matching zone wins."""
    lat = np.array([r.position.lat for r in graph.resources.values()])
    lon = np.array([r.position.lon for r in graph.resources.values()])
    zone_of = np.full(len(lat), len(zones))
    for k in reversed(range(len(zones))):  # an earlier zone overwrites a later one
        zone_of[great_circle_m_many(lat, lon, zones[k].center) <= zones[k].radius_m] = k
    return {rid: zones[k].params for rid, k in zip(graph.resources, zone_of.tolist()) if k < len(zones)}


def generate_single_destination(
    graph: RoadGraph,
    destination: GeoPoint,
    start_node: str,
    n_agents: int,
    start_time_s: float,
    planner: str,
) -> list[AgentSpec]:
    """Identical start, destination and departure for every agent; only ids differ."""
    n_agents = check_number(n_agents, "n_agents", integer=True)
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


# Cells at least this wide keep the three cell coordinates of a unit vector packable into one int64 key.
_MIN_CELL = 2.0 ** -19


def _neighbour_pairs(points: list[GeoPoint], eps_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair ``(i, j)`` of points within ``eps_m`` of each other, ``(i, i)`` included.

    Unit-sphere vectors are hashed into cubic cells at least one chord radius
    wide, so every neighbour of a point lies in one of the 27 cells around its
    own. Candidates from each cell offset are kept when their haversine
    distance, computed per pair with the same operations in the same order as
    one row of a full distance matrix, is at most ``eps_m``; memory grows with
    the points and the kept pairs.
    """
    lat = np.radians(np.array([p.lat for p in points]))
    lon = np.radians(np.array([p.lon for p in points]))
    cos_lat = np.cos(lat)
    xyz = np.stack((cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)), axis=1)
    chord = 2.0 * math.sin(min(eps_m / (2.0 * EARTH_RADIUS_M), math.pi / 2.0))
    cell = max(chord + 1e-9, _MIN_CELL)  # the margin absorbs rounding between chords and haversine distances
    ijk = np.floor(xyz / cell).astype(np.int64)
    ijk -= ijk.min(axis=0) - 1  # coordinates from 1, so a neighbouring cell's are never negative
    width = int(ijk.max()) + 2
    key = (ijk[:, 0] * width + ijk[:, 1]) * width + ijk[:, 2]
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    steps = (-1, 0, 1)
    rows, cols = [], []
    for offset in [(dx * width + dy) * width + dz for dx in steps for dy in steps for dz in steps]:
        lo = np.searchsorted(sorted_key, key + offset, side="left")
        count = np.searchsorted(sorted_key, key + offset, side="right") - lo
        i = np.repeat(np.arange(len(points)), count)
        j = order[np.arange(len(i)) + np.repeat(lo - (np.cumsum(count) - count), count)]
        h = np.sin((lat[i] - lat[j]) / 2.0) ** 2 + cos_lat[i] * cos_lat[j] * np.sin((lon[i] - lon[j]) / 2.0) ** 2
        keep = 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h))) <= eps_m
        rows.append(i[keep])
        cols.append(j[keep])
    return np.concatenate(rows), np.concatenate(cols)


def dbscan(points: list[GeoPoint], eps_m: float, min_pts: int) -> list[Cluster]:
    """Density-based clustering under great-circle distance.

    Neighborhoods include the point itself. A point is core when its
    neighborhood holds at least ``min_pts`` points; core points within
    ``eps_m`` of each other share a cluster, and clusters are numbered by their
    lowest core index. A border point joins the lowest-numbered cluster among
    its core neighbors, and members are listed in index order.
    """
    eps_m = check_number(eps_m, "eps_m")
    min_pts = check_number(min_pts, "min_pts", integer=True)
    n = len(points)
    if n == 0:
        return []
    i, j = _neighbour_pairs(points, eps_m)
    core = np.bincount(i, minlength=n) >= min_pts
    core_idx = np.flatnonzero(core)
    if not len(core_idx):
        return []
    linked = core[i] & core[j]
    links = csr_matrix((np.ones(int(linked.sum()), dtype=np.int8), (i[linked], j[linked])), shape=(n, n))
    component = connected_components(links, directed=False)[1][core_idx]
    _, first = np.unique(component, return_index=True)  # each component's lowest core index, as a core_idx position
    rank = np.empty(component.max() + 1, dtype=np.int64)
    rank[component[np.sort(first)]] = np.arange(len(first))
    labels = np.full(n, len(first), dtype=np.int64)  # unlabeled: one past the last label
    labels[core_idx] = rank[component]
    border = core[i] & ~core[j]
    np.minimum.at(labels, j[border], labels[i[border]])
    labeled = np.flatnonzero(labels < len(first))
    labeled = labeled[np.argsort(labels[labeled], kind="stable")]
    groups = np.split(labeled, np.cumsum(np.bincount(labels[labeled]))[:-1])
    return [Cluster(label, tuple(points[m] for m in idx), tuple(idx))
            for label, idx in enumerate(g.tolist() for g in groups)]


def occupation_points(graph: RoadGraph, trace: OccupationTrace) -> list[tuple[GeoPoint, float]]:
    """One point per parking event, in replay order: the resource position at each flip to occupied."""
    where = [graph.resources[rid].position if rid in graph.resources else None for rid in trace.resources.tolist()]
    down = ~trace.up
    return [(where[s], t) for s, t in zip(trace.spot[down].tolist(), trace.time[down].tolist())
            if where[s] is not None]


def _sample_in_cluster(members: tuple[GeoPoint, ...], lats: np.ndarray, lons: np.ndarray,
                       box: tuple[float, float, float, float], eps_m: float, rng: np.random.Generator) -> GeoPoint:
    """A point drawn in the members' bounding box ``box`` (least and greatest latitude, then longitude)
    that lies within ``eps_m`` of a member; after 1000 misses, a member."""
    lo_lat, hi_lat, lo_lon, hi_lon = box
    for _ in range(1000):
        cand = GeoPoint(float(rng.uniform(lo_lat, hi_lat)), float(rng.uniform(lo_lon, hi_lon)))
        if (great_circle_m_many(lats, lons, cand) <= eps_m).any():
            return cand
    return members[int(rng.integers(len(members)))]


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
        clusters = dbscan(hours[hour], eps_m, min_pts)
        if not clusters:
            warnings.warn(f"hour {hour}: no clusters at eps={eps_m}, min_pts={min_pts}")
            continue
        clusters.sort(key=lambda c: (-len(c.members), c.label))
        for cluster in clusters[:n_clusters]:
            lats = np.array([p.lat for p in cluster.members])
            lons = np.array([p.lon for p in cluster.members])
            box = (lats.min().item(), lats.max().item(), lons.min().item(), lons.max().item())
            for _ in cluster.members:
                destination = _sample_in_cluster(cluster.members, lats, lons, box, eps_m, rng)
                start = hour * 3600.0 + float(rng.uniform(0.0, 3600.0))
                specs.append(AgentSpec(f"a{counter:04d}", start_node, destination, start, planner))
                counter += 1
    if not specs:
        raise ConfigError("cluster selection produced no agents")
    return specs


def build_agents(config: ScenarioConfig, graph: RoadGraph, rng: np.random.Generator,
                 trace: OccupationTrace | None = None) -> list[AgentSpec]:
    """The scenario's agents; ``trace``, when given, is the loaded ``destinations.trace`` file."""
    dest = config.destinations
    if dest["mode"] == "single":
        return generate_single_destination(graph, GeoPoint(*dest["destination"]), dest["start_node"],
                                           dest["agents"], dest["start_time_s"], config.planner_kind)
    if dest["mode"] == "explicit":
        return [AgentSpec(a["id"], a["start_node"], GeoPoint(*a["destination"]), a["start_time_s"], a["planner"])
                for a in dest["agents"]]
    return generate_data_driven(
        graph,
        occupation_points(graph, trace if trace is not None else load_trace(dest["trace"])),
        dest["start_node"],
        config.planner_kind,
        eps_m=dest["eps_m"],
        min_pts=dest["min_pts"],
        n_clusters=dest["clusters"],
        rng=rng,
    )


def run_scenario(config: ScenarioConfig | str | Path, out_dir: str | Path | None = None) -> list[MetricsRecord]:
    """Execute one scenario; optionally write its results file and config echo.

    When some nodes lie outside the graph's largest strongly connected component, where agents can
    strand, their count goes to standard error; the run goes on.
    """
    if not isinstance(config, ScenarioConfig):
        config = load_config(config)
    graph = load_graph(
        config.graph_path,
        speed_factor=config.speed_factor,
        default_round_trip_s=config.round_trip_s,
    )
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    stray = ctx.times.outside_largest_component()
    if stray:
        print(f"{config.name}: {stray} of {len(graph.nodes)} nodes lie outside the largest strongly connected "
              f"component of {config.graph_path}", file=sys.stderr)
    agent_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xA6E7)))
    occupation = config.synthetic if config.synthetic is not None else load_trace(config.trace_path)
    shared = config.trace_path is not None and config.destinations.get("trace") == str(config.trace_path)
    agents = build_agents(config, graph, agent_rng, occupation if shared else None)
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
        ctx=ctx,
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
    """Run every scenario, ``parallel`` at a time, then summarize all written results files."""
    parallel = check_number(parallel, "parallel", integer=True)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(str(p), str(out)) for p in sorted(str(p) for p in config_paths)]
    workers = min(parallel, len(jobs))  # a pool forks every worker at its first submit
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        runs = (pool.map if pool else map)(_run_batch_worker, jobs)
        failures = {path: error for path, error in runs if error}
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
    for variant, spec in PLANNERS.items():
        if variant in per_planner and spec.base in per_planner:  # single-agent kinds have no base
            base_total = per_planner[spec.base]["total_parking_s"]
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
    Node ids are ``n`` plus the row and the column, each padded to the
    digits of the largest index (at least two), so id order is row-major.
    """
    rows, cols = check_number(rows, "rows", integer=True), check_number(cols, "cols", integer=True)
    n_resources = check_number(n_resources, "n_resources", integer=True, positive=False)
    if resource_streets is not None:
        resource_streets = check_number(resource_streets, "resource_streets", integer=True)
    if n_resources and rows * cols == 1:
        raise ConfigError(f"n_resources must be 0 on a 1x1 grid, which has no streets, got {n_resources}")
    deg = spacing_m / 111_194.93  # meters per degree of latitude on the sphere
    width = max(2, len(str(max(rows, cols) - 1)))
    node_id = [[f"n{r:0{width}d}{c:0{width}d}" for c in range(cols)] for r in range(rows)]
    nodes = []
    for r in range(rows):
        for c in range(cols):
            nodes.append({"id": node_id[r][c], "lat": r * deg, "lon": c * deg})

    def _edge(a: str, b: str) -> dict:
        return {"id": f"e{a}-{b}", "from": a, "to": b, "length_m": spacing_m,
                "drive_time_s": drive_time_s}

    edges = []
    for r in range(rows):
        for c in range(cols):
            # east, then south; a street on row (east) or column (south) k of last index `last` is
            # two-way on the perimeter, else one-way forward on even k and backward on odd k
            for r2, c2, k, last in ((r, c + 1, r, rows - 1), (r + 1, c, c, cols - 1)):
                if r2 < rows and c2 < cols:
                    here, there = node_id[r][c], node_id[r2][c2]
                    if not one_way or k in (0, last):
                        edges += [_edge(here, there), _edge(there, here)]
                    else:
                        edges.append(_edge(here, there) if k % 2 == 0 else _edge(there, here))
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
