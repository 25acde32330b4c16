import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from parksearch.cli import main
from parksearch.engine import read_results
from parksearch.scenario import build_grid_graph_doc

from conftest import sink_grid_doc


def test_cli_end_to_end(tmp_path):
    runner = CliRunner()
    graph_path = tmp_path / "grid.json"
    result = runner.invoke(main, ["gen-scenario", "grid-demo", "--rows", "4", "--cols", "4",
                                  "--resources", "8", "--out", str(graph_path)])
    assert result.exit_code == 0, result.output
    assert graph_path.exists()

    cfg_path = tmp_path / "demo.json"
    result = runner.invoke(main, [
        "gen-scenario", "single",
        "--graph", str(graph_path),
        "--destination", "0.0005", "0.0005",
        "--start-node", "n0000",
        "--agents", "3",
        "--planner", "rpl",
        "--seed", "2",
        "--out", str(cfg_path),
    ])
    assert result.exit_code == 0, result.output
    config = json.loads(cfg_path.read_text())
    assert config["destinations"]["agents"] == 3

    out_dir = tmp_path / "results"
    result = runner.invoke(main, ["simulate", str(cfg_path), "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    results_file = out_dir / "demo.results.csv"
    assert results_file.exists()
    records = read_results(results_file)
    assert len(records) == 3

    result = runner.invoke(main, ["summarize", str(out_dir)])
    assert result.exit_code == 0, result.output
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["agents"] == 3
    assert "rpl" in summary["per_planner"]


def test_cli_batch(tmp_path):
    runner = CliRunner()
    graph_path = tmp_path / "grid.json"
    runner.invoke(main, ["gen-scenario", "grid-demo", "--rows", "4", "--cols", "4",
                         "--resources", "8", "--out", str(graph_path)])
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    for seed in (1, 2):
        runner.invoke(main, [
            "gen-scenario", "single",
            "--graph", str(graph_path),
            "--destination", "0.0005", "0.0005",
            "--start-node", "n0000",
            "--agents", "2",
            "--seed", str(seed),
            "--out", str(cfg_dir / f"s{seed}.json"),
        ])
    out_dir = tmp_path / "batch-out"
    result = runner.invoke(main, ["batch", str(cfg_dir), "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    assert (out_dir / "summary.json").exists()
    assert len(list(out_dir.glob("*.results.csv"))) == 2


def test_cli_batch_reports_failures(tmp_path):
    runner = CliRunner()
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    (cfg_dir / "broken.json").write_text(json.dumps({"graph": "missing.json"}))
    out_dir = tmp_path / "out"
    result = runner.invoke(main, ["batch", str(cfg_dir), "--out", str(out_dir)])
    assert result.exit_code == 1
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["failed"]


@pytest.mark.parametrize("bad, key", [
    ("missing_graph", "graph"),
    ("start_node_list", "destinations.start_node"),
    ("null_edges", "edges"),
])
def test_cli_rejects_bad_config(tmp_path, bad, key):
    """A bad config or graph value ends the run with ``Error:`` naming its key and exit code 1, not a traceback."""
    graph = build_grid_graph_doc(4, 4, n_resources=8, seed=1)
    config = {"graph": "grid.json", "occupation": {"synthetic": {}}, "planner": {"kind": "rpl"}, "seed": 1,
              "destinations": {"mode": "single", "destination": [0.0005, 0.0005], "start_node": "n0000"}}
    if bad == "missing_graph":
        config["graph"] = "missing.json"
    elif bad == "start_node_list":
        config["destinations"]["start_node"] = [1]
    else:
        graph["edges"] = None
    (tmp_path / "grid.json").write_text(json.dumps(graph))
    (tmp_path / "bad.json").write_text(json.dumps(config))
    result = CliRunner().invoke(main, ["simulate", str(tmp_path / "bad.json"), "--out", str(tmp_path / "out")])
    assert isinstance(result.exception, SystemExit) and result.exit_code == 1
    assert "Error:" in result.output and key in result.output and "Traceback" not in result.output


def test_cli_generated_scenarios_resolve_from_any_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    runner.invoke(main, ["gen-scenario", "grid-demo", "--rows", "4", "--cols", "4", "--resources", "8",
                         "--out", "grid.json"])
    Path("trace.csv").write_text("resource_id,time_s,state\nr000,10,occupied\n")
    Path("sub").mkdir()
    result = runner.invoke(main, ["gen-scenario", "single", "--graph", "grid.json", "--destination", "0.0005", "0.0005",
                                  "--start-node", "n0000", "--agents", "2", "--out", "sub/s.json"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["gen-scenario", "single", "--graph", "grid.json", "--destination", "0.0005", "0.0005",
                                  "--start-node", "n0000", "--trace", "trace.csv", "--out", "sub/t.json"])
    assert result.exit_code == 0, result.output
    s, t = (json.loads(Path(f"sub/{name}.json").read_text()) for name in ("s", "t"))
    # paths written absolute; parse defaults (rates, agent count, start time) are not restated
    assert s["graph"] == str(tmp_path.resolve() / "grid.json")
    assert t["occupation"] == {"trace": str(tmp_path.resolve() / "trace.csv")}
    assert s["occupation"] == {"synthetic": {}}
    assert s["destinations"] == {"mode": "single", "destination": [0.0005, 0.0005], "start_node": "n0000", "agents": 2}
    assert "agents" not in t["destinations"]

    for name, agents in (("s", 2), ("t", 20)):
        result = runner.invoke(main, ["simulate", f"sub/{name}.json", "--out", "out"])
        assert result.exit_code == 0, result.output
        assert len(read_results(Path(f"out/{name}.results.csv"))) == agents


def test_cli_gen_data_driven(tmp_path):
    runner = CliRunner()
    graph_path = tmp_path / "grid.json"
    runner.invoke(main, ["gen-scenario", "grid-demo", "--out", str(graph_path)])
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("resource_id,time_s,state\nr000,10,occupied\n")
    cfg_path = tmp_path / "dd.json"
    result = runner.invoke(main, [
        "gen-scenario", "data-driven",
        "--graph", str(graph_path),
        "--trace", str(trace_path),
        "--start-node", "n0000",
        "--out", str(cfg_path),
    ])
    assert result.exit_code == 0, result.output
    config = json.loads(cfg_path.read_text())
    assert config["destinations"]["mode"] == "data_driven"
    assert "clusters" not in config["destinations"] and "trace" not in config["destinations"]


def test_cli_gen_commands_create_missing_output_directories(tmp_path):
    runner = CliRunner()
    graph_path = tmp_path / "nosuch" / "grid.json"
    result = runner.invoke(main, ["gen-scenario", "grid-demo", "--rows", "3", "--cols", "3", "--resources", "4",
                                  "--out", str(graph_path)])
    assert result.exit_code == 0, result.output
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("resource_id,time_s,state\nr000,10,occupied\n")
    common = ["--graph", str(graph_path), "--start-node", "n0000"]
    extras = {"single": ["--destination", "0.0005", "0.0005"], "data-driven": ["--trace", str(trace_path)]}
    for command, extra in extras.items():
        out = tmp_path / command / "deeper" / "s.json"
        result = runner.invoke(main, ["gen-scenario", command, *common, *extra, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert json.loads(out.read_text())["graph"] == str(graph_path.resolve())
    # a file where the directory should be is a CLI error, not a traceback
    result = runner.invoke(main, ["gen-scenario", "grid-demo", "--out", str(trace_path / "grid.json")])
    assert result.exit_code == 1 and "cannot write" in result.output


@pytest.mark.parametrize("args, message", [
    (["--rows", "0"], "rows must be a positive integer, got 0"),
    (["--rows", "1", "--cols", "1"], "n_resources must be 0 on a 1x1 grid, which has no streets, got 150"),
    (["--resources", "-5"], "n_resources must be a non-negative integer, got -5"),
])
def test_cli_grid_demo_rejects_bad_sizes(tmp_path, args, message):
    out = tmp_path / "grid.json"
    result = CliRunner().invoke(main, ["gen-scenario", "grid-demo", *args, "--out", str(out)])
    assert result.exit_code == 1 and f"Error: {message}" in result.output, result.output
    assert not out.exists()


@pytest.mark.parametrize("command, args, message", [
    ("single", ["--planner", "bogus", "--agents", "0"], "planner.kind must be one of"),
    ("single", ["--agents", "0"], "destinations.agents must be a positive integer, got 0"),
    ("single", ["--destination", "95", "0"], "destinations.destination"),
    ("data-driven", ["--eps-m", "-5", "--min-pts", "0"], "destinations.eps_m must be a positive number, got -5.0"),
    ("data-driven", ["--min-pts", "0"], "destinations.min_pts must be a positive integer, got 0"),
])
def test_cli_gen_scenario_rejects_what_simulate_would(tmp_path, command, args, message):
    """A generated scenario goes through the config parser first: a bad value is a CLI error naming its key,
    and no file is written."""
    graph_path, trace_path, out = tmp_path / "grid.json", tmp_path / "trace.csv", tmp_path / "s.json"
    graph_path.write_text(json.dumps(build_grid_graph_doc(3, 3, n_resources=4)))
    trace_path.write_text("resource_id,time_s,state\nr000,10,occupied\n")
    required = {"single": ["--destination", "0.0005", "0.0005"], "data-driven": ["--trace", str(trace_path)]}[command]
    result = CliRunner().invoke(main, ["gen-scenario", command, "--graph", str(graph_path), "--start-node", "n0000",
                                       *required, *args, "--out", str(out)])
    assert result.exit_code == 1 and f"Error: {message}" in result.output, result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["single", "data-driven"])
def test_cli_gen_scenario_rejects_a_start_node_the_graph_lacks(tmp_path, command):
    """The start node is checked against the graph the scenario names: a CLI error naming the key, and no file."""
    graph_path, trace_path, out = tmp_path / "grid.json", tmp_path / "trace.csv", tmp_path / "s.json"
    graph_path.write_text(json.dumps(build_grid_graph_doc(3, 3, n_resources=4)))
    trace_path.write_text("resource_id,time_s,state\nr000,10,occupied\n")
    required = {"single": ["--destination", "0.0005", "0.0005"], "data-driven": ["--trace", str(trace_path)]}[command]
    for start, ok in (("nosuch", False), ("n0202", True)):
        result = CliRunner().invoke(main, ["gen-scenario", command, "--graph", str(graph_path), "--start-node", start,
                                           *required, "--out", str(out)])
        if ok:
            assert result.exit_code == 0 and json.loads(out.read_text())["destinations"]["start_node"] == start
        else:
            assert result.exit_code == 1, result.output
            assert "Error: destinations.start_node must be a node of the graph, got 'nosuch'" in result.output
            assert not out.exists()


def test_cli_malformed_results_file_is_a_cli_error(tmp_path):
    runner = CliRunner()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    bad = out_dir / "bad.results.csv"
    bad.write_text("agent_id,planner,total_trip_s,taxi_s,parking_s,unsuccessful_claims,computation_ms,"
                   "parked_resource,status\na0,rpl,600.0\n")
    result = runner.invoke(main, ["summarize", str(out_dir)])
    assert result.exit_code == 1 and f"{bad} line 2" in result.output
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    (cfg_dir / "broken.json").write_text(json.dumps({"graph": "missing.json"}))
    result = runner.invoke(main, ["batch", str(cfg_dir), "--out", str(out_dir)])
    assert result.exit_code == 1 and f"{bad} line 2" in result.output


def test_cli_reports_nodes_outside_the_largest_strong_component(tmp_path):
    """simulate and batch name how many nodes can strand an agent, on standard error, and still run."""
    runner = CliRunner()
    (tmp_path / "sink.json").write_text(json.dumps(sink_grid_doc()))
    runner.invoke(main, ["gen-scenario", "grid-demo", "--rows", "4", "--cols", "4", "--resources", "8",
                         "--out", str(tmp_path / "grid.json")])
    cfg_dir = tmp_path / "configs"
    for name in ("sink", "grid"):
        result = runner.invoke(main, ["gen-scenario", "single", "--graph", str(tmp_path / f"{name}.json"),
                                      "--destination", "0.0005", "0.0005", "--start-node", "n0000", "--agents", "2",
                                      "--out", str(cfg_dir / f"{name}.json")])
        assert result.exit_code == 0, result.output
    notice = "1 of 17 nodes lie outside the largest strongly connected component"
    result = runner.invoke(main, ["simulate", str(cfg_dir / "sink.json"), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert notice in result.stderr and notice not in result.stdout
    result = runner.invoke(main, ["simulate", str(cfg_dir / "grid.json"), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0 and "strongly connected" not in result.stderr
    result = runner.invoke(main, ["batch", str(cfg_dir), "--out", str(tmp_path / "batch")])
    assert result.exit_code == 0, result.output
    assert result.stderr.count("strongly connected") == 1 and notice in result.stderr
