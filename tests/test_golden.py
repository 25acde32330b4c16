"""Golden results: byte-identical ``write_results`` output for fixed seeds.

Each case runs one simulation with ``measure_computation=False`` and pins the
SHA-256 digest of its results file. A refactor or optimization that keeps
every decision leaves the digests unchanged; a change that moves any trip,
claim or parked spot changes them and must be declared as a behaviour change.

The ``configs/`` cases also re-run the config echo that the run writes next
to its results, from another directory, and require the same digest.

Regenerate the table with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
import hashlib
import json
import os
from functools import partial
from pathlib import Path

import pytest

from parksearch.availability import CtmcParams
from parksearch.engine import DEFAULT_CTMC, AgentSpec, run_simulation, write_results
from parksearch.geo import GeoPoint
from parksearch.graph import all_pairs_travel_times, load_graph
from parksearch.planners import PLANNER_KINDS, PlannerContext
from parksearch.scenario import build_grid_graph_doc, load_config, parse_config, run_scenario

from test_acceptance import competition_world

COMPETITION_SEEDS = (1, 2)
GRID_KINDS = ("random", "heuristic", "rpl", "rpl_r")
GRID_SEED = 11
PRUNED_KINDS = ("hs", "hs_r")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    "competition-heuristic-1": "c2d65ea61a11f1de5e965f7844d19dca95554ad793244f490fdc4acf475932a0",
    "competition-heuristic-2": "f109e26534339b9f2282f683dd36bfeceaa12297bcbf803a9c275f8392e924df",
    "competition-hs-1": "bc0fc7e48225b0ba92beab3bbba6364c166e6d65b13efa3c8f895600c32a035c",
    "competition-hs-2": "2eb0d4bf03afc9bfd418a710a49ebf5c89e13872c205f1b94a5d0e15a3f59db1",
    "competition-hs_a-1": "4f16a420f57ecf901ec3ff06d92730ac2940d5d299a5224ab7d6d8fc73047c80",
    "competition-hs_a-2": "06d6a36f8febb4c9f41568829a30d5f69182a0e17b270d70bb5ac180e828d2bd",
    "competition-hs_r-1": "79f57fc4a0012e623088dd54fa296f976d0045be735f5b4554eb3f7c4dc8c920",
    "competition-hs_r-2": "77fa574816d65f439921990cb06dc5ce0f3862c217f11efef3f3b6e64292ac7a",
    "competition-random-1": "ced56fa82dec3459041e7c8957cca86af2f54100eac4b9b2e1f557e2f19e79eb",
    "competition-random-2": "7b88be68b45bc02473ffdab3ace70f42d00ab01a838f0681064344503d0914dd",
    "competition-rpl-1": "a041e171bfe88e7f97318fdfe27ef1e1fec7d9d0a9b06a2ede5d7f7cab05475f",
    "competition-rpl-2": "ef15b32eb01476d189c866414527fc071afba937e69c6a831ed2c9d2e7da6ac6",
    "competition-rpl_r-1": "18c0c7a9770fba0e59a4e83385d73af60e14663bfb5ff9a2c847fa69fb28845d",
    "competition-rpl_r-2": "61824b2f91d064c9f343559c28671a818a297c1689fe2e0c1fd4ea1899ee53f6",
    "config-competition_study": "4f16a420f57ecf901ec3ff06d92730ac2940d5d299a5224ab7d6d8fc73047c80",
    "config-data_driven_demo": "0aded180ade26733e791ea768de63c9702451cceb7a23398e9b5c7e0950446ac",
    "config-single_destination_demo": "0f992709d54d830088136a1a48c04a262c57b77b05360b0ef8e0084901bee934",
    "grid-heuristic": "f70073880cf9036b181c00187faa8d6d89759280a35822b4af6a1bb12b20474b",
    "grid-random": "c05baa13c92b6df6d5fdf52e4fc19bc06b2e05b0a202cf301e6a050d82358d1a",
    "grid-rpl": "3b8ad26b58ebbed1fa6964b330c615ee8f7f2a274eb9cb904e070eaf4d341548",
    "grid-rpl_r": "f6cd457d4ca59617a05d855caa36d4163ce2fdfe509506fd65a1d404f7980ac3",
    "mixed-1": "aa861cb1355f69a8ff9db7b06856f3d207be68d527a5fe4a225fda087434b2fc",
    "mixed-2": "d11ef588c95158026c715537f5acb24c8d348ea2568ffe1e867062862f2ece9d",
    "pruned-hs-1": "c646a1f3985db14930f98c3131c170155fdc94833b6d157df390be054c5f6089",
    "pruned-hs-2": "2ad9312560be8b8cdd7e38d1b8f91d2266d4ee0475d37fc777a6d3b8b2b74358",
    "pruned-hs_r-1": "b14f93a31a6cd113318df3efde77533316e9ab861f553d4715bffedbf0fce861",
    "pruned-hs_r-2": "cd915ee359d9e63b27060807b183c92e7c752b43b1894928f65fa9aa91564aba",
}


def _competition_records(kind, seed):
    graph, ctx, dest, ring, overrides = competition_world()
    agents = [AgentSpec(f"a{i:03d}", "n0009", dest, 7.0, kind) for i in range(20)]
    return run_simulation(graph, agents, ring, params_by_resource=overrides, seed=seed, ctx=ctx,
                          measure_computation=False)


def _mixed_records(seed):
    """All seven kinds in one run, so reservations and the adaption overlay are shared at once."""
    graph, ctx, dest, ring, overrides = competition_world()
    agents = [AgentSpec(f"a{i:03d}", "n0009", dest, 7.0 + 3.0 * (i % 4), PLANNER_KINDS[i % 7])
              for i in range(28)]
    return run_simulation(graph, agents, ring, params_by_resource=overrides, seed=seed, ctx=ctx,
                          measure_computation=False)


def _grid_records(kind):
    """A small one-way grid with default availability rates and spread-out destinations."""
    spacing = 150.0
    doc = build_grid_graph_doc(8, 8, spacing_m=spacing, drive_time_s=30.0, n_resources=120, seed=5,
                               one_way=True, resource_streets=40)
    graph = load_graph(doc)
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    deg = spacing / 111_194.93
    agents = [
        AgentSpec(f"a{i:03d}", f"n0{(i * 3) % 8}0{(i * 5) % 8}",
                  GeoPoint((1.0 + (i * 0.37) % 5.5) * deg, (1.0 + (i * 0.61) % 5.5) * deg),
                  float(i * 40), kind)
        for i in range(24)
    ]
    # street midpoints: an inner one-way street, and a two-way perimeter street whose
    # two directions tie exactly
    agents.append(AgentSpec("a100", "n0000", GeoPoint(3.5 * deg, 3.0 * deg), 5.0, kind))
    agents.append(AgentSpec("a101", "n0707", GeoPoint(0.0, 2.5 * deg), 9.0, kind))
    return run_simulation(graph, agents, CtmcParams.from_mean_times(120.0, 2091.0), seed=GRID_SEED,
                          ctx=ctx, measure_computation=False)


def _pruned_records(kind, seed):
    """600 spots on a 12x12 grid, more than hindsight evaluates in full for every future.

    The network is the benchmark's frozen trace_replay network; agents share
    two destinations so fleet reservations compete.
    """
    spacing = 250.0
    doc = build_grid_graph_doc(12, 12, spacing_m=spacing, drive_time_s=25.0, n_resources=600, seed=7,
                               round_trip_s=300.0)
    graph = load_graph(doc)
    ctx = PlannerContext(graph, all_pairs_travel_times(graph))
    deg = spacing / 111_194.93
    dests = (GeoPoint(5.4 * deg, 6.3 * deg), GeoPoint(8.2 * deg, 3.6 * deg))
    agents = [AgentSpec(f"a{i:03d}", ("n0000", "n1111", "n0011")[i % 3], dests[i % 2], float(i * 30), kind)
              for i in range(12)]
    return run_simulation(graph, agents, DEFAULT_CTMC, seed=seed, ctx=ctx, measure_computation=False)


def _config(name):
    # a relative path, as in `parksearch simulate configs/<name>.json`
    path = os.path.relpath(CONFIGS / f"{name}.json")
    return dataclasses.replace(load_config(path), measure_computation=False)


def _config_records(name, out_dir=None):
    return run_scenario(_config(name), out_dir)


CASES = {
    **{f"competition-{kind}-{seed}": partial(_competition_records, kind, seed)
       for kind in PLANNER_KINDS for seed in COMPETITION_SEEDS},
    **{f"mixed-{seed}": partial(_mixed_records, seed) for seed in COMPETITION_SEEDS},
    **{f"grid-{kind}": partial(_grid_records, kind) for kind in GRID_KINDS},
    **{f"pruned-{kind}-{seed}": partial(_pruned_records, kind, seed)
       for kind in PRUNED_KINDS for seed in COMPETITION_SEEDS},
    **{f"config-{path.stem}": partial(_config_records, path.stem) for path in CONFIGS.glob("*.json")},
}


def _digest(records, path):
    write_results(path, records)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_results(name, tmp_path, monkeypatch):
    if not name.startswith("config-"):
        assert _digest(CASES[name](), tmp_path / "results.csv") == GOLDEN[name]
        return
    stem = name.removeprefix("config-")
    assert _digest(_config_records(stem, tmp_path / "run"), tmp_path / "results.csv") == GOLDEN[name]
    echo = tmp_path / "run" / f"{stem}.config.json"
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    assert parse_config(json.loads(echo.read_text()), base_dir=elsewhere) == _config(stem)
    assert _digest(run_scenario(echo), tmp_path / "rerun.csv") == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            print(f'    "{name}": "{_digest(CASES[name](), Path(tmp) / "results.csv")}",')
