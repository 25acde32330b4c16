"""The documented library surface: the README snippet runs, and every exported name resolves."""

import os
import re
import subprocess
import sys
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


def test_every_exported_exception_is_raised():
    """An exported exception class is raised somewhere in the package (by ``raise`` or as the ``error=`` class
    of a checker in ``errors.py``), or is the base of one that is."""
    source = "\n".join(path.read_text() for path in (ROOT / "src" / "parksearch").glob("*.py"))
    raised = {getattr(ps, name) for name in re.findall(r"\b(?:raise\s+|error=)(\w+)", source) if name in ps.__all__}
    exported = [getattr(ps, name) for name in ps.__all__]
    unused = [cls.__name__ for cls in exported if isinstance(cls, type) and issubclass(cls, BaseException)
              and not any(issubclass(r, cls) for r in raised)]
    assert unused == []


def test_import_leaves_scipy_spatial_out():
    """``scipy.spatial`` alone adds about 6 MB of resident memory to every process that imports the package."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", "import sys, parksearch; print('scipy.spatial' in sys.modules)"],
                          capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.stdout.strip() == "False"
