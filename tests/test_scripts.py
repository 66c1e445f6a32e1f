"""The reproduction scripts run to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ["classification_roots.py", "reproduce_tables.py", "tangent_ricci_demo.py"]


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if name == "tangent_ricci_demo.py":
        assert "expected mu at this scale: -1.000000000000" in proc.stdout
