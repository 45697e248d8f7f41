"""Bitrot guard: every example script imports cleanly.

Importing catches broken imports and syntax errors; all examples have
``if __name__ == "__main__"`` guards so importing performs no work.
Running them is CI's launcher-smoke step (a few seconds each), which
keeps their assertions out of the unit suite's time budget.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert hasattr(module, "main")


def test_all_examples_present():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "social_influence", "topology_planner",
            "fault_tolerance_demo"} <= names
