"""Road network model: nodes, edges, on-street resources and all-pairs drive times.

The graph document is a JSON object with three arrays::

    {"nodes":     [{"id", "lat", "lon"}],
     "edges":     [{"id", "from", "to", "length_m", "speed_limit_kmh"?, "drive_time_s"?}],
     "resources": [{"id", "edge", "lat", "lon", "offset_s", "round_trip_s"?}]}

Unknown fields are rejected. When ``drive_time_s`` is absent it is derived from
the speed limit as ``length_m / (speed_factor * speed_limit_mps)``; the default
calibration factor is 0.25. All identifiers are treated as strings and ordered
lexicographically wherever a deterministic tie-break is needed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .errors import GraphFormatError, GraphValidationError
from .geo import GeoPoint

DEFAULT_SPEED_FACTOR = 0.25
DEFAULT_ROUND_TRIP_S = 120.0

_NODE_FIELDS = {"id", "lat", "lon"}
_EDGE_FIELDS = {"id", "from", "to", "length_m", "speed_limit_kmh", "drive_time_s"}
_RESOURCE_FIELDS = {"id", "edge", "lat", "lon", "offset_s", "round_trip_s"}
_TOP_FIELDS = {"nodes", "edges", "resources"}


@dataclass(frozen=True)
class Node:
    id: str
    position: GeoPoint


@dataclass(frozen=True)
class Edge:
    id: str
    from_node: str
    to_node: str
    length_m: float
    drive_time_s: float


@dataclass(frozen=True)
class Resource:
    id: str
    edge_id: str
    position: GeoPoint
    offset_s: float
    round_trip_s: float


class RoadGraph:
    """Immutable directed road network with resources attached to edges."""

    def __init__(self, nodes: Iterable[Node], edges: Iterable[Edge], resources: Iterable[Resource]):
        self.nodes: dict[str, Node] = {n.id: n for n in sorted(nodes, key=lambda n: n.id)}
        self.edges: dict[str, Edge] = {e.id: e for e in sorted(edges, key=lambda e: e.id)}
        self.resources: dict[str, Resource] = {r.id: r for r in sorted(resources, key=lambda r: r.id)}
        self._validate()
        out: dict[str, list[Edge]] = {nid: [] for nid in self.nodes}
        for e in self.edges.values():  # in id order
            out[e.from_node].append(e)
        self.out_edges: dict[str, tuple[Edge, ...]] = {nid: tuple(edges) for nid, edges in out.items()}
        by_edge: dict[str, list[str]] = {eid: [] for eid in self.edges}
        for r in self.resources.values():
            by_edge[r.edge_id].append(r.id)
        self.resources_by_edge: dict[str, tuple[str, ...]] = {
            eid: tuple(sorted(rids, key=lambda rid: (self.resources[rid].offset_s, rid)))
            for eid, rids in by_edge.items()
        }

    def _validate(self) -> None:
        for e in self.edges.values():
            if e.from_node not in self.nodes:
                raise GraphValidationError(f"edge {e.id!r}: unknown from-node {e.from_node!r}")
            if e.to_node not in self.nodes:
                raise GraphValidationError(f"edge {e.id!r}: unknown to-node {e.to_node!r}")
            if not 0.0 < e.length_m < math.inf:  # NaN fails too
                raise GraphValidationError(f"edge {e.id!r}: length_m must be finite and positive, got {e.length_m}")
            if not 0.0 < e.drive_time_s < math.inf:
                raise GraphValidationError(
                    f"edge {e.id!r}: drive_time_s must be finite and positive, got {e.drive_time_s}"
                )
        for r in self.resources.values():
            edge = self.edges.get(r.edge_id)
            if edge is None:
                raise GraphValidationError(f"resource {r.id!r}: unknown edge {r.edge_id!r}")
            if not 0.0 <= r.offset_s <= edge.drive_time_s:
                raise GraphValidationError(
                    f"resource {r.id!r}: offset {r.offset_s} outside [0, {edge.drive_time_s}]"
                )
            if not 0.0 < r.round_trip_s < math.inf:
                raise GraphValidationError(
                    f"resource {r.id!r}: round_trip_s must be finite and positive, got {r.round_trip_s}"
                )


def _require_fields(obj: dict, allowed: set[str], required: set[str], kind: str) -> None:
    if not isinstance(obj, dict):
        raise GraphFormatError(f"{kind} entry must be an object, got {type(obj).__name__}")
    unknown = set(obj) - allowed
    if unknown:
        raise GraphFormatError(f"{kind} entry has unknown fields: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise GraphFormatError(f"{kind} entry missing fields: {sorted(missing)}")


def _as_float(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GraphFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _as_id(value: Any, what: str) -> str:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise GraphFormatError(f"{what} must be a string or integer id, got {value!r}")
    return str(value)


def load_graph(
    source: str | Path | dict,
    *,
    speed_factor: float = DEFAULT_SPEED_FACTOR,
    default_round_trip_s: float = DEFAULT_ROUND_TRIP_S,
) -> RoadGraph:
    """Parse and validate a graph document from a JSON file path or an already parsed dict."""
    try:
        doc = source if isinstance(source, dict) else json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise GraphFormatError(f"graph document has unknown fields: {sorted(unknown)}")
    missing = _TOP_FIELDS - set(doc)
    if missing:
        raise GraphFormatError(f"graph document missing fields: {sorted(missing)}")

    nodes: list[Node] = []
    seen: set[str] = set()
    for raw in doc["nodes"]:
        _require_fields(raw, _NODE_FIELDS, _NODE_FIELDS, "node")
        nid = _as_id(raw["id"], "node id")
        if nid in seen:
            raise GraphValidationError(f"duplicate node id {nid!r}")
        seen.add(nid)
        try:
            pos = GeoPoint(_as_float(raw["lat"], "node lat"), _as_float(raw["lon"], "node lon"))
        except ValueError as exc:
            raise GraphValidationError(f"node {nid!r}: {exc}") from exc
        nodes.append(Node(nid, pos))

    edges: list[Edge] = []
    seen = set()
    for raw in doc["edges"]:
        _require_fields(raw, _EDGE_FIELDS, {"id", "from", "to", "length_m"}, "edge")
        eid = _as_id(raw["id"], "edge id")
        if eid in seen:
            raise GraphValidationError(f"duplicate edge id {eid!r}")
        seen.add(eid)
        length = _as_float(raw["length_m"], f"edge {eid!r} length_m")
        if "drive_time_s" in raw:
            drive = _as_float(raw["drive_time_s"], f"edge {eid!r} drive_time_s")
        elif "speed_limit_kmh" in raw:
            limit_kmh = _as_float(raw["speed_limit_kmh"], f"edge {eid!r} speed_limit_kmh")
            if not 0.0 < limit_kmh < math.inf:
                raise GraphValidationError(
                    f"edge {eid!r}: speed_limit_kmh must be finite and positive, got {limit_kmh}"
                )
            drive = length / (speed_factor * (limit_kmh / 3.6))
        else:
            raise GraphValidationError(f"edge {eid!r}: needs drive_time_s or speed_limit_kmh")
        edges.append(Edge(eid, _as_id(raw["from"], "edge from"), _as_id(raw["to"], "edge to"), length, drive))

    resources: list[Resource] = []
    seen = set()
    for raw in doc["resources"]:
        _require_fields(raw, _RESOURCE_FIELDS, {"id", "edge", "lat", "lon", "offset_s"}, "resource")
        rid = _as_id(raw["id"], "resource id")
        if rid in seen:
            raise GraphValidationError(f"duplicate resource id {rid!r}")
        seen.add(rid)
        try:
            pos = GeoPoint(_as_float(raw["lat"], "resource lat"), _as_float(raw["lon"], "resource lon"))
        except ValueError as exc:
            raise GraphValidationError(f"resource {rid!r}: {exc}") from exc
        round_trip = _as_float(raw["round_trip_s"], "round_trip_s") if "round_trip_s" in raw else default_round_trip_s
        resources.append(Resource(rid, _as_id(raw["edge"], "resource edge"), pos,
                                  _as_float(raw["offset_s"], "offset_s"), round_trip))

    return RoadGraph(nodes, edges, resources)


def dump_graph(graph: RoadGraph) -> dict:
    """Graph content as a document dict; inverse of :func:`load_graph`."""
    return {
        "nodes": [{"id": n.id, "lat": n.position.lat, "lon": n.position.lon} for n in graph.nodes.values()],
        "edges": [
            {"id": e.id, "from": e.from_node, "to": e.to_node, "length_m": e.length_m, "drive_time_s": e.drive_time_s}
            for e in graph.edges.values()
        ],
        "resources": [
            {"id": r.id, "edge": r.edge_id, "lat": r.position.lat, "lon": r.position.lon,
             "offset_s": r.offset_s, "round_trip_s": r.round_trip_s}
            for r in graph.resources.values()
        ],
    }


def save_graph(graph: RoadGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(dump_graph(graph), indent=2, sort_keys=True) + "\n")


def all_pairs_travel_times(graph: RoadGraph) -> np.ndarray:
    """Least-cost directed drive seconds between every node pair, in ``graph.nodes`` order;
    ``inf`` marks unreachable pairs."""
    node_ids = tuple(graph.nodes)
    index = {nid: i for i, nid in enumerate(node_ids)}
    n = len(node_ids)
    rows, cols, data = [], [], []
    best: dict[tuple[int, int], float] = {}
    for e in graph.edges.values():
        key = (index[e.from_node], index[e.to_node])
        if key[0] == key[1]:
            continue  # self-loops never shorten a path
        if key not in best or e.drive_time_s < best[key]:
            best[key] = e.drive_time_s
    for (i, j), w in best.items():
        rows.append(i)
        cols.append(j)
        data.append(w)
    adj = csr_matrix((data, (rows, cols)), shape=(n, n))
    dist = dijkstra(adj, directed=True)
    np.fill_diagonal(dist, 0.0)
    return dist

