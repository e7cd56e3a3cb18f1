"""The run path does not load the process-pool stack.

``concurrent.futures`` and ``multiprocessing`` (and, through them,
``socket`` and ``logging``) cost about a megabyte of resident memory
per process.  Only the supervised pool, a parallel sharded solve and a
sweep with an explicit ``mp_context`` use them, so they load there,
not on import.  A fresh interpreter is needed: pytest itself imports
``logging``.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

RUN_PATH = ("repro.cli", "repro.spec", "repro.sim.engine", "repro.stream")
POOL_STACK = ("multiprocessing", "concurrent.futures", "socket", "logging")


# The three modules that load the pool stack only at their point of use.
LAZY_POOL_SITES = (
    "repro.resilience.runtime",
    "repro.core.solvers.sharded",
    "repro.eval.sweep",
)


def _pool_stack_loaded_by(modules):
    script = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in modules)
        + f"print(sorted(set({POOL_STACK!r}) & set(sys.modules)))\n"
    )
    path = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed.stdout.strip()


def test_run_path_imports_leave_the_pool_stack_unloaded():
    assert _pool_stack_loaded_by(RUN_PATH) == "[]"


def test_lazy_pool_sites_leave_the_pool_stack_unloaded():
    assert _pool_stack_loaded_by(LAZY_POOL_SITES) == "[]"
