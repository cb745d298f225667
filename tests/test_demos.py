"""Every demo script, and the README's examples, run to completion against
the package in this checkout, and the README's config is the default one."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from graphpsd import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_script(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert list(cwd.iterdir()) == []
    return done


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_script([str(demo)], tmp_path)


def test_readme_examples_run(tmp_path):
    """The README's fenced python blocks, joined in order, are one script."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 2
    done = run_script(["-c", "".join(blocks)], tmp_path)
    assert done.stdout.startswith("True ")


def test_readme_config_is_the_default_config():
    """The README's JSON block is the complete default config, so a field
    added to or removed from ``ExperimentConfig`` cannot linger in the docs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```json\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    block = json.loads(blocks[0])
    assert ExperimentConfig.from_dict(block) == ExperimentConfig()
    default = ExperimentConfig().to_dict()
    assert block.keys() == default.keys()
    for name in ("graph", "filter"):
        assert block[name].keys() == default[name].keys()
