"""The tier-1 workflow runs no inline script: each step after Install is one
`run:` line, and every corpus-scale check is a subcommand of ci/steps.py."""

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def ci_steps():
    spec = importlib.util.spec_from_file_location("ci_steps", REPO / "ci" / "steps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_ci_step_is_one_line_naming_a_ci_steps_subcommand():
    # read as text: PyYAML is not a test dependency
    workflow = (REPO / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert "<<" not in workflow, "the workflow holds a heredoc"
    runs = re.findall(r"^\s+(?:- )?run:(.*)$", workflow, re.MULTILINE)
    assert runs and all(run.strip() and run.strip()[0] not in "|>" for run in runs), runs
    called = re.findall(r"\bci/steps\.py\s+(\S+)", workflow)
    assert sorted(called) == sorted(ci_steps().STEPS), called
