"""perfbench's traced run must still install over the program.

``perfbench/tracer.py`` wraps program classes and methods by name, and no
other tier-1 test imports it, so renaming or deleting a wrapped name would
otherwise surface only in the next traced benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_over_every_wrapped_layer():
    # A subprocess, because install() patches the wrapped classes for the
    # rest of the process it runs in.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    completed = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.SpanRecorder(), serve=True)"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
