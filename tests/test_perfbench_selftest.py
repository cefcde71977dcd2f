"""The benchmark's own self-test, run as part of the suite.

``perfbench/tracer.py`` wraps library entry points by name and reads
their arguments (``ncols`` of ``lexmin_affine``, ``x`` of ``delta``,
``uc`` of ``homology_u``, ...), so a refactor that renames one breaks
``--trace 1`` without failing any library test.  ``perfbench/selftest.py``
runs every workload at a tiny size, untraced and traced (about 10 s).
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_entry_points_resolve():
    """Entering the tracer patches every ``ENTRY_POINTS`` name, so a
    renamed entry point fails here in well under a second.  No workload
    reaches the ``solve_f2`` sizer, so it is called under the tracer."""
    import corkscrew.cli  # noqa: F401  (loads every module the tracer patches)
    from corkscrew import algebra

    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    solve_f2 = algebra.solve_f2
    tracer = tracer_mod.Tracer()
    with tracer:
        assert algebra.solve_f2 is not solve_f2
        sol = algebra.solve_f2(algebra.F2Matrix.from_rows([[1, 1]], 2), [1])
    assert algebra.solve_f2 is solve_f2
    assert (sol.particular, sol.kernel) == (0b01, [0b11])
    stats = tracer_mod.aggregate(tracer.spans)
    assert stats["algebra.solve"]["calls"] == 1
    assert stats["algebra.solve"]["size_max"] == 2


def test_perfbench_selftest_passes():
    done = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
