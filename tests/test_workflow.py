from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_every_workflow_step_uses_an_action_or_runs_a_command():
    workflow = yaml.safe_load(WORKFLOW.read_text())
    assert workflow["jobs"]
    for name, job in workflow["jobs"].items():
        assert job["steps"], name
        for step in job["steps"]:
            assert "uses" in step or isinstance(step.get("run"), str), (name, step)
