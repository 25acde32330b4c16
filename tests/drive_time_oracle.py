"""Every node pair's drive seconds in one dense search: the reference for ``graph.DriveTimes``.

The program computes one forward row per node on first read; this builds the
same adjacency on its own (the fastest parallel street, no self-loops, in
street id order) and runs the all-pairs search, so tests can require each
row of the store to equal the dense row bit for bit.
"""

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


def dense_travel_times(graph) -> np.ndarray:
    """Least directed drive seconds between every node pair in ``graph.nodes`` order; ``inf`` where unreachable."""
    index = {nid: i for i, nid in enumerate(graph.nodes)}
    n = len(index)
    best: dict[tuple[int, int], float] = {}
    for e in graph.edges.values():
        key = (index[e.from_node], index[e.to_node])
        if key[0] != key[1] and (key not in best or e.drive_time_s < best[key]):
            best[key] = e.drive_time_s
    rows = [i for i, _ in best]
    cols = [j for _, j in best]
    dist = dijkstra(csr_matrix((list(best.values()), (rows, cols)), shape=(n, n)), directed=True)
    np.fill_diagonal(dist, 0.0)
    return dist
