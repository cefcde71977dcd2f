"""Quick self-test of the benchmark (not part of the test suite).

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and checks that
each metric named in BENCHMARK.json prints with its unit, that no query
fails, and that the benchmark refuses to run in a directory holding only
BENCHMARK.json and perfbench/.  Takes about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out, err = run(["--workload", wl["name"], "--seed", "7",
                                  "--seconds", "1", "--trace", str(trace),
                                  "--tiny"], ROOT)
            tag = f"{wl['name']} --trace {trace}"
            if code != 0:
                problems.append(f"{tag}: exit {code}: {err.strip()[-300:]}")
                continue
            doc = json.loads(out.strip().splitlines()[-1])
            if not doc["correct"] or doc["failed"] or doc["attempted"] < 1:
                problems.append(f"{tag}: correct={doc['correct']} "
                                f"failed={doc['failed']}")
            if trace == 0 and "error_rate 0 " not in out:
                problems.append(f"{tag}: error_rate is not 0")
            for metric in spec[key]:
                got = doc["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"] or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{tag}: {metric['name']} -> {got}")
            print(f"ok  {tag}: {doc['attempted']} queries")
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, out, _ = run(["--workload", "rulebook", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], bare)
        if code == 0 or out.strip():
            problems.append(f"bare directory: exit {code}, stdout {out!r}")
        else:
            print(f"ok  bare directory refused (exit {code})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
