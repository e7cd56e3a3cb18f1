"""Every example script must run cleanly end to end.

These are subprocess smoke tests over the deliverable examples: a
refactor that breaks a script's imports or API usage fails here even if
unit tests stay green.  Each script must exit 0 and print its closing
narrative line.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

#: The last-line narrative each example promises (prefix match).
EXPECTED_SNIPPETS = {
    "quickstart.py": "mutual-benefit",
    "microtask_platform.py": "mean accuracy over the run",
    "freelance_market.py": "knee of the curve",
    "online_arrival.py": "random-order model",
    "benefit_tradeoff.py": "coverage objective",
    "skill_learning.py": "truth",
    "continuous_dispatch.py": "best online worker",
    "assignment_report.py": "budgeted solver",
}


def test_every_example_is_covered():
    assert {p.name for p in EXAMPLES} == set(EXPECTED_SNIPPETS)


@pytest.mark.parametrize(
    "script", EXAMPLES, ids=lambda p: p.name
)
def test_example_runs(script):
    completed = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    assert EXPECTED_SNIPPETS[script.name] in completed.stdout
