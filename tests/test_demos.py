"""Every demo script, and the README's examples, run to completion against
the package in this checkout, the README's config is the default one, and
its command lines are the parser's."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from graphpsd import ExperimentConfig
from graphpsd.cli import build_parser

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


def test_readme_command_lines_parse():
    """Every ``graphpsd`` line of the README's ``sh`` blocks parses, and
    together they name each verb of the parser, so a verb that is removed
    or added cannot linger in, or be missing from, the docs."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("graphpsd ")]
    parser = build_parser()
    verbs = set()
    for line in lines:
        try:
            verbs.add(parser.parse_args(shlex.split(line)[1:]).command)
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert verbs == set(subparsers.choices)
