"""Import layering: ``repro.index`` is a leaf that no entry point loads.

No evaluation path uses a reachability oracle (DESIGN.md §12), so the
package, the CLIs, the broker, the server and the serving engine must
import without it — deleting ``src/repro/index/`` is then a pure package
deletion.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.net.server",
    "repro.net.broker",
    "repro.bench.__main__",
    "repro.serving.engine",
)

PROBE = """
import importlib, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "index"])))
"""


def test_entry_points_load_no_index_module():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *ENTRY_POINTS],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
