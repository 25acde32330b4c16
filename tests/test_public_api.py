"""The documented library surface: the README snippet runs, and every exported name resolves."""

import re
from pathlib import Path

import parksearch as ps

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    snippet = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
    exec(snippet.replace('"grid.json"', repr(str(ROOT / "data" / "demo_grid.json"))), {})
    metrics_line, taxi_line = capsys.readouterr().out.splitlines()
    assert "'hs_r': {'agents': 20" in metrics_line
    assert float(taxi_line) > 0.0


def test_every_exported_name_resolves():
    assert len(ps.__all__) == len(set(ps.__all__))
    missing = [name for name in ps.__all__ if not hasattr(ps, name)]
    assert missing == []
