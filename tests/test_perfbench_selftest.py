"""The benchmark's own self-test, run as part of the suite.

``perfbench/tracer.py`` wraps library entry points by name and reads
their arguments (``ncols`` of ``lexmin_affine``, ``x`` of ``delta``,
``uc`` of ``homology_u``, ...), so a refactor that renames one breaks
``--trace 1`` without failing any library test.  ``perfbench/selftest.py``
runs every workload at a tiny size, untraced and traced (about 10 s).
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
