"""Road network model: nodes, edges, on-street resources and drive times between nodes.

The graph document is a JSON object with three arrays::

    {"nodes":     [{"id", "lat", "lon"}],
     "edges":     [{"id", "from", "to", "length_m", "speed_limit_kmh"?, "drive_time_s"?}],
     "resources": [{"id", "edge", "lat", "lon", "offset_s", "round_trip_s"?}]}

Each section is a list, and unknown keys are rejected. When ``drive_time_s`` is
absent it is derived from the speed limit as ``length_m / (speed_factor *
speed_limit_mps)``; the default calibration factor is 0.25. All identifiers are
treated as strings and ordered lexicographically wherever a deterministic
tie-break is needed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import (
    GraphFormatError, GraphValidationError, ParkSearchError, check, check_id, check_keys, check_number, check_point,
)
from .geo import GeoPoint

DEFAULT_SPEED_FACTOR = 0.25
DEFAULT_ROUND_TRIP_S = 120.0

# The allowed and the required keys of an entry of each section, in the order the sections are read.
_SECTIONS = {
    "nodes": ({"id", "lat", "lon"}, ("id", "lat", "lon")),
    "edges": ({"id", "from", "to", "length_m", "speed_limit_kmh", "drive_time_s"}, ("id", "from", "to", "length_m")),
    "resources": ({"id", "edge", "lat", "lon", "offset_s", "round_trip_s"}, ("id", "edge", "lat", "lon", "offset_s")),
}


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


@dataclass(eq=False)
class RoadGraph:
    """Directed road network with resources attached to edges, as ``load_graph`` reads and checks it; every
    dict is in id order, which is the order a ``PlannerContext`` numbers nodes, streets and spots by."""

    nodes: dict[str, Node]
    edges: dict[str, Edge]
    resources: dict[str, Resource]


def load_graph(
    source: str | Path | dict,
    *,
    speed_factor: float = DEFAULT_SPEED_FACTOR,
    default_round_trip_s: float = DEFAULT_ROUND_TRIP_S,
) -> RoadGraph:
    """Parse and check a graph document from a JSON file path or an already parsed dict.

    Each value is checked where it is read: nodes first, then edges, then resources. An error names
    the entry by its key path (``edges[3]``) until its id is read, and by its id (``edge 'e1'``) after.
    """
    try:
        doc = source if isinstance(source, dict) else json.loads(Path(source).read_text())
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from exc
    check_keys(doc, "", set(_SECTIONS), tuple(_SECTIONS), error=GraphFormatError)
    for section in _SECTIONS:
        check(isinstance(doc[section], list), section, "a list", doc[section], error=GraphFormatError)
    nodes: dict[str, Node] = {}
    edges: dict[str, Edge] = {}
    resources: dict[str, Resource] = {}

    def node(nid: str, raw: dict) -> Node:
        return Node(nid, check_point((raw["lat"], raw["lon"]), "lat, lon", error=GraphValidationError))

    def edge(eid: str, raw: dict) -> Edge:
        ends = check_id(raw["from"], "from", error=GraphFormatError), check_id(raw["to"], "to", error=GraphFormatError)
        check(ends[0] in nodes and ends[1] in nodes, "from, to", "node ids", ends, error=GraphValidationError)
        length = check_number(raw["length_m"], "length_m", error=GraphValidationError)
        if "drive_time_s" in raw:
            drive = raw["drive_time_s"]
        else:
            check("speed_limit_kmh" in raw, "drive_time_s or speed_limit_kmh", "given", None,
                  error=GraphValidationError)
            limit_kmh = check_number(raw["speed_limit_kmh"], "speed_limit_kmh", error=GraphValidationError)
            drive = length / (speed_factor * (limit_kmh / 3.6))
        return Edge(eid, *ends, length, check_number(drive, "drive_time_s", error=GraphValidationError))

    def resource(rid: str, raw: dict) -> Resource:
        edge_id = check_id(raw["edge"], "edge", error=GraphFormatError)
        check(edge_id in edges, "edge", "an edge id", edge_id, error=GraphValidationError)
        offset = check_number(raw["offset_s"], "offset_s", positive=False, error=GraphValidationError)
        check(offset <= edges[edge_id].drive_time_s, "offset_s", "at most its edge's drive_time_s", offset,
              error=GraphValidationError)
        round_trip = (check_number(raw["round_trip_s"], "round_trip_s", error=GraphValidationError)
                      if "round_trip_s" in raw else default_round_trip_s)
        position = check_point((raw["lat"], raw["lon"]), "lat, lon", error=GraphValidationError)
        return Resource(rid, edge_id, position, offset, round_trip)

    for section, entries, read in (("nodes", nodes, node), ("edges", edges, edge), ("resources", resources, resource)):
        allowed, required = _SECTIONS[section]
        for k, raw in enumerate(doc[section]):
            where = f"{section}[{k}]"
            check_keys(raw, where, allowed, required, error=GraphFormatError)
            entry_id = check_id(raw["id"], where + ".id", error=GraphFormatError)
            check(entry_id not in entries, where + ".id", "unique", entry_id, error=GraphValidationError)
            try:
                entries[entry_id] = read(entry_id, raw)
            except ParkSearchError as exc:  # named by the entry's id from here on
                raise type(exc)(f"{section[:-1]} {entry_id!r}: {exc}") from None
    return RoadGraph(*({key: entries[key] for key in sorted(entries)} for entries in (nodes, edges, resources)))


class DriveTimes(dict):
    """Least directed drive seconds between nodes in ``graph.nodes`` order, computed on demand.

    ``times[i]``, the read-only row of seconds from node ``i`` to every node (``inf`` where
    unreachable), runs one Dijkstra search on its first read and is kept for the life of the store:
    the store is a dict of the rows read so far, so memory grows as rows read x n x 8 bytes, and a
    read of a kept row is a plain dict lookup. A single-source row equals that row of the dense
    all-pairs search bit for bit.
    """

    def __init__(self, adj: csr_matrix):
        super().__init__()
        self.adj = adj  # the fastest street of each node pair, without self-loops
        self.shape = adj.shape
        self._reverse: csr_matrix | None = None

    def __missing__(self, node: int) -> np.ndarray:
        row = self[node] = dijkstra(self.adj, directed=True, indices=node, min_only=True)
        row.flags.writeable = False  # shared by every reader
        return row

    def reaching(self, node: int, limit_s: float) -> np.ndarray:
        """Ascending indices of the nodes whose row reads at most ``limit_s`` at ``node``.

        One search on the reversed streets, bounded by the limit widened by 1e-9 relative, picks
        the candidates. It adds the same streets in another order, so its seconds may differ from
        the rows' in the last bits, but never by that margin: a candidate above the limit narrowed
        by 1e-9 is decided by its own row, and every other candidate is inside.
        """
        if self._reverse is None:
            self._reverse = self.adj.T.tocsr()
        back = dijkstra(self._reverse, directed=True, indices=node, limit=max(limit_s * (1.0 + 1e-9), 0.0),
                        min_only=True)
        inside = back <= limit_s * (1.0 - 1e-9)
        for i in np.flatnonzero(~inside & (back < np.inf)).tolist():
            inside[i] = self[i][node] <= limit_s
        return np.flatnonzero(inside)

    def outside_largest_component(self) -> int:
        """How many nodes lie outside the largest strongly connected component: from each of them
        some node cannot be reached, or it cannot be reached from some node."""
        _, labels = connected_components(self.adj, directed=True, connection="strong")
        return len(labels) - int(np.bincount(labels, minlength=1).max())


def all_pairs_travel_times(graph: RoadGraph) -> DriveTimes:
    """Least-cost directed drive seconds between every node pair, in ``graph.nodes`` order, as rows
    computed on first read; ``inf`` marks unreachable pairs."""
    index = {nid: i for i, nid in enumerate(graph.nodes)}
    n = len(index)
    best: dict[tuple[int, int], float] = {}
    for e in graph.edges.values():
        key = (index[e.from_node], index[e.to_node])
        if key[0] == key[1]:
            continue  # self-loops never shorten a path
        if key not in best or e.drive_time_s < best[key]:
            best[key] = e.drive_time_s
    ends = list(best)
    return DriveTimes(csr_matrix((list(best.values()), ([i for i, _ in ends], [j for _, j in ends])), shape=(n, n)))
