"""Command-line front end: simulate, batch, gen-scenario, summarize."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .engine import compute_metrics
from .errors import ParkSearchError
from .scenario import build_grid_graph_doc, run_batch, run_scenario, summarize_results


class _Commands(click.Group):
    """Every command reports a ParkSearchError as a CLI error: its message and exit code 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ParkSearchError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Commands)
def main() -> None:
    """Multi-agent parking search simulator."""


@main.command()
@click.argument("config", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="results",
              show_default=True, help="Directory for the results file and config echo.")
def simulate(config: str, out_dir: str) -> None:
    """Run one scenario CONFIG and write its results file."""
    records = run_scenario(config, out_dir)
    metrics = compute_metrics(records)
    click.echo(json.dumps(metrics, indent=2, sort_keys=True))
    click.echo(f"results written to {out_dir}")


@main.command()
@click.argument("config_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--parallel", "-p", type=int, default=1, show_default=True,
              help="Number of scenario runs to execute concurrently.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="results",
              show_default=True)
def batch(config_dir: str, parallel: int, out_dir: str) -> None:
    """Run every *.json scenario in CONFIG_DIR and write an aggregate summary."""
    configs = sorted(Path(config_dir).glob("*.json"))
    if not configs:
        raise click.ClickException(f"no scenario configs in {config_dir}")
    summary = run_batch(configs, out_dir, parallel=parallel)
    click.echo(json.dumps(summary, indent=2, sort_keys=True))
    if summary["failed"]:
        sys.exit(1)


@main.command()
@click.argument("results_dir", type=click.Path(exists=True, file_okay=False))
def summarize(results_dir: str) -> None:
    """Aggregate all results files in RESULTS_DIR."""
    summary = summarize_results(results_dir)
    out = Path(results_dir) / "summary.json"
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    click.echo(json.dumps(summary, indent=2, sort_keys=True))


@main.group("gen-scenario")
def gen_scenario() -> None:
    """Generate scenario configuration files."""


def _write_json(out_path: str, doc: dict, *, sort_keys: bool = False) -> None:
    """Write ``doc`` to ``out_path``, creating missing directories as ``simulate --out`` does."""
    try:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n")
    except OSError as exc:
        raise click.ClickException(f"cannot write {out_path}: {exc}") from exc


def _write_scenario(out_path: str, graph: str, trace: str | None, destinations: dict, planner: str,
                    seed: int) -> None:
    """Write a scenario with absolute paths; parse defaults fill in synthetic rates and destination keys left None."""
    doc = {
        "graph": str(Path(graph).resolve()),
        "occupation": {"trace": str(Path(trace).resolve())} if trace else {"synthetic": {}},
        "destinations": {key: value for key, value in destinations.items() if value is not None},
        "planner": {"kind": planner},
        "seed": seed,
    }
    _write_json(out_path, doc, sort_keys=True)
    click.echo(f"wrote {out_path}")


@gen_scenario.command()
@click.option("--graph", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--destination", nargs=2, type=float, required=True, metavar="LAT LON")
@click.option("--start-node", required=True)
@click.option("--agents", type=int, default=None, help="Number of agents; the scenario default when omitted.")
@click.option("--planner", default="rpl", show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--trace", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Replay this occupation trace instead of synthetic occupations.")
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def single(graph, destination, start_node, agents, planner, seed, trace, out_path) -> None:
    """Scenario with identical start, destination and departure for all agents."""
    destinations = {"mode": "single", "destination": list(destination), "start_node": start_node, "agents": agents}
    _write_scenario(out_path, graph, trace, destinations, planner, seed)


@gen_scenario.command("data-driven")
@click.option("--graph", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--trace", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--start-node", required=True)
@click.option("--eps-m", type=float, default=100.0, show_default=True)
@click.option("--min-pts", type=int, default=10, show_default=True)
@click.option("--clusters", type=int, default=None, help="Clusters kept per hour; the scenario default when omitted.")
@click.option("--planner", default="hs", show_default=True)
@click.option("--seed", type=int, default=1, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
def data_driven(graph, trace, start_node, eps_m, min_pts, clusters, planner, seed, out_path) -> None:
    """Scenario with destinations clustered from recorded occupation events."""
    destinations = {"mode": "data_driven", "start_node": start_node, "eps_m": eps_m, "min_pts": min_pts,
                    "clusters": clusters}
    _write_scenario(out_path, graph, trace, destinations, planner, seed)


@gen_scenario.command("grid-demo")
@click.option("--rows", type=int, default=10, show_default=True)
@click.option("--cols", type=int, default=10, show_default=True)
@click.option("--resources", type=int, default=150, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Path for the generated graph document.")
def grid_demo(rows, cols, resources, seed, out_path) -> None:
    """Write a synthetic grid network graph for demos and experiments."""
    doc = build_grid_graph_doc(rows, cols, n_resources=resources, seed=seed)
    _write_json(out_path, doc)
    click.echo(f"wrote {out_path} ({len(doc['nodes'])} nodes, {len(doc['edges'])} edges, "
               f"{len(doc['resources'])} resources)")


if __name__ == "__main__":
    main()
