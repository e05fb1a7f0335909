"""Smoke test: every demo script runs to completion against the source tree."""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    # a demo's output is reproducible: no path under a fresh temporary directory
    assert tempfile.gettempdir() not in done.stdout


def readme_quick_start():
    """The python block of the README's "Library quick start" section."""
    section = (ROOT / "README.md").read_text("utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_quick_start(), "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_public_name_resolves():
    import topicpages

    assert [name for name in topicpages.__all__ if not hasattr(topicpages, name)] == []
