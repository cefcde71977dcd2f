"""corkscrew benchmark: one closed-loop client, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/corkscrew`` and
``tests/conftest.py`` must be present; nothing is installed).  The client
issues each query through the public API or ``cli.main`` and waits for the
answer before sending the next.  A batch is the workload's whole query
list; batches repeat, each on freshly scrambled inputs, while the next one
is expected (from the median batch time) to end within ``--seconds``.  At
least one batch always runs (one pair in trace mode).

Every reported time is at the reference host speed: the measured time
divided by the slowdown of a fixed kernel run between queries
(``hostspeed.py``); the measured batch time is printed as ``raw_wall_s``.

``--trace 0`` reports the end-to-end metrics, untraced.  ``--trace 1``
alternates untraced and traced batches on identical inputs, checks that
both give the same answers, reports per-layer metrics from the traced ones
and writes their spans to ``.perfbench-spans/`` in the checkout.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

# (name, unit) of the end-to-end metrics, reported untraced
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("queries_per_s", "1/s"),
              ("peak_rss_mb", "MB")]


def run_batch(queries, tracer=None):
    """Run one batch closed-loop.  Returns (wall, latencies, answers,
    failures, advisory mismatches, host factor); a positive verdict's
    certificate is replayed right after it.  The host-speed kernel runs
    throughout (see ``hostspeed.py``): every time here, spans included,
    leaves its time out, and ``host factor`` is its slowdown against the
    reference speed."""
    import corkscrew as ck
    from hostspeed import Meter
    from workloads import Query, advisory_keys

    lat, answers, failures, advisories = [], [], [], []
    pending = list(reversed(queries))
    with Meter() as meter:
        clock = meter.clock
        if tracer is not None:
            tracer.clock = clock
        t0 = clock()
        while pending:
            q = pending.pop()
            if tracer is not None:
                tracer.query += 1
                sid = tracer.span("bench.query")
            start = clock()
            try:
                got = q.call()
            except Exception as exc:  # a failed query, counted in error_rate
                got = {"error": f"{type(exc).__name__}: {exc}"}
            lat.append(clock() - start)
            if tracer is not None:
                tracer.close(sid)
            cert = got.pop("certificate", None)
            answers.append((q.qid, got))
            soft = advisory_keys(got)
            checked = {k: v for k, v in got.items() if k not in soft}
            want = {k: v for k, v in q.expect.items() if k not in soft}
            if checked != want:
                failures.append((q.qid, got, q.expect))
                continue
            if got != q.expect:
                advisories.append((q.qid, got, q.expect))
            if cert is not None and q.replay and \
                    got.get("conclusion") == "StrongCork":
                pending.append(Query(
                    f"{q.qid}:replay",
                    lambda c=cert: {"replayed": ck.replay_certificate(c)},
                    {"replayed": True}))
        wall = clock() - t0
    return wall, lat, answers, failures, advisories, meter.factor()


def percentile(values, pct):
    return statistics.quantiles(values, n=100)[pct - 1] \
        if len(values) > 1 else values[0]


def layer_metrics(spans, exact, wall, factor):
    """Per-layer metrics of one traced batch: {name: (value, unit)}; times
    are divided by the batch's host factor, like the end-to-end ones."""
    from tracer import aggregate

    agg = aggregate(spans)

    def g(name, stat):
        value = agg.get(name, {}).get(stat, 0)
        return value / factor if stat.endswith("_s") else value

    out = {}
    for name, stats in [
            ("algebra.solve", ("calls", "self_s", "cols_max")),
            ("homotopy.mapsystem_solve",
             ("calls", "total_s", "self_s", "unknowns_max")),
            ("homotopy.local_map_exists", ("calls", "total_s")),
            ("invariants.delta", ("calls", "total_s", "self_s", "gens_max")),
            ("invariants.homology_u", ("calls", "total_s")),
            ("connected.recognize_standard", ("calls", "total_s",
                                              "gens_max")),
            ("connected.connected_complex", ("calls", "total_s")),
            ("models.solve_involution", ("calls", "total_s", "gens_max")),
            ("models.parse", ("calls", "total_s")),
            ("cli.main", ("calls", "self_s")),
            ("complexes.tensor", ("calls", "total_s")),
            ("complexes.dual", ("calls", "total_s"))]:
        for stat in stats:
            if stat.endswith("_max"):
                out[f"{name}.{stat}"] = (g(name, "size_max"), stat[:-4])
            elif stat == "calls":
                out[f"{name}.calls"] = (g(name, "calls"), "count")
            else:
                out[f"{name}.{stat}"] = (g(name, stat), "s")
    calls = g("connected.connected_complex", "calls")
    out["connected.exact_frac"] = (exact / calls if calls else 0.0, "ratio")
    for module in ("algebra", "complexes", "homotopy", "invariants",
                   "connected", "models", "verdicts", "bench"):
        out[f"{module}.self_s"] = (sum(a["self_s"] for n, a in agg.items()
                                       if n.startswith(module + "."))
                                   / factor, "s")
    out["trace.wall_s"] = (wall / factor, "s")
    queries_s = agg.get("bench.query", {}).get("total_s", 0)
    out["trace.accounted_frac"] = (queries_s / wall, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="drop the large inputs (for the self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "corkscrew" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "conftest.py").is_file():
        sys.stderr.write(f"perfbench: {ROOT} holds no corkscrew sources "
                         f"(src/corkscrew, tests/conftest.py)\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from hostspeed import Meter
    setup_meter = Meter()
    imports = []
    with setup_meter:
        for _ in range(SETUP_REPEATS):
            for name in [m for m in sys.modules
                         if m.split(".")[0] == "corkscrew"]:
                del sys.modules[name]
            t = setup_meter.clock()
            import corkscrew  # noqa: F401
            imports.append(setup_meter.clock() - t)
    import_s = statistics.median(imports)
    import workloads  # binds the modules of the last import
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"one of {', '.join(workloads.WORKLOADS)}\n")
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        return measure(args, workloads, Tracer, import_s, setup_meter,
                       workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workloads, Tracer, import_s, setup_meter,
            workdir) -> int:
    cls = workloads.WORKLOADS[args.workload]
    setups, prepared = [], []
    with setup_meter:
        for k in range(SETUP_REPEATS):
            t = setup_meter.clock()
            wl = cls(args.seed, workdir, tiny=args.tiny)
            prepared.append(wl.batch(k))
            setups.append(setup_meter.clock() - t)
    setup_s = (import_s + statistics.median(setups)) / setup_meter.factor()

    def inputs(k):
        return prepared[k] if k < len(prepared) else wl.batch(k)

    # walls, lat: at the reference host speed; spent: real time per batch
    walls, lat, nq, failures, advisories, attempted = [], [], [], [], [], 0
    layers, overheads, spans_all, mismatched = [], [], [], 0
    raw_walls, factors, spent = [], [], []
    t_run = time.perf_counter()
    k = 0
    while True:
        qs = inputs(k)
        gc.collect()  # the last batch's garbage, outside the timed batch
        t_batch = time.perf_counter()
        if not args.trace:
            wall, l, _, fails, advs, factor = run_batch(qs)
            raw_walls.append(wall)
            factors.append(factor)
            walls.append(wall / factor)
        else:
            # identical inputs, alternating which side runs first
            tracer = Tracer()
            sides = {}
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                if traced:
                    with tracer:
                        sides[True] = run_batch(qs, tracer)
                else:
                    sides[False] = run_batch(qs)
            wall, l, answers, fails, advs, factor = sides[False]
            t_wall, t_lat, t_answers, t_fails, t_advs, t_factor = sides[True]
            if answers != t_answers:
                mismatched += 1
            fails, advs = fails + t_fails, advs + t_advs
            attempted += len(t_lat)
            walls.append(wall / factor)
            overheads.append((t_wall / t_factor) / (wall / factor) - 1.0)
            layers.append(layer_metrics(tracer.spans, tracer.exact, t_wall,
                                        t_factor))
            layers[-1]["checks.known_defect_answers"] = (len(t_advs), "count")
            spans_all.append(tracer)
        spent.append(time.perf_counter() - t_batch)
        lat += [x / factor for x in l]
        nq.append(len(l))
        attempted += len(l)
        for qid, got, want in fails:
            failures.append(qid)
            sys.stderr.write(f"FAIL workload={args.workload} seed={args.seed}"
                             f" batch={k} {qid}: got {got}, want {want}\n")
        for qid, got, want in advs:
            advisories.append(qid)
            sys.stderr.write(f"KNOWN DEFECT workload={args.workload} "
                             f"seed={args.seed} batch={k} {qid}: got {got}, "
                             f"want {want}\n")
        k += 1
        if time.perf_counter() - t_run + statistics.median(spent) \
                > args.seconds:
            break

    print(f"workload {args.workload}  seed {args.seed}  batches {k}  "
          f"queries {attempted}  failed {len(failures)}  "
          f"error_rate {len(failures) / attempted:.4g}  "
          f"known-defect answers {len(advisories)}")
    if not args.trace:
        # Times are at the reference host speed (hostspeed.py): the host's
        # own speed moves by tens of percent within and between runs.
        rates = [n / w for n, w in zip(nq, walls)]
        values = {
            "setup_s": setup_s, "wall_s": statistics.median(walls),
            "queries_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
        # printed, not in the JSON: a percentile is reported only with its
        # sample count, and only rulebook has ten samples beyond p99
        print(f"  {'raw_wall_s':<16} {statistics.median(raw_walls):.6g} s "
              f"(as measured; host factor {statistics.median(factors):.4g},"
              f" {min(factors):.4g}-{max(factors):.4g} over {k} batches)")
        beyond = len(lat) - int(len(lat) * 0.99)
        print(f"  {'query_p50_s':<16} {statistics.median(lat):.6g} s "
              f"({len(lat)} samples, {statistics.median(nq):g} per batch)")
        print(f"  {'query_p99_s':<16} {percentile(lat, 99):.6g} s "
              f"({beyond} samples beyond)")
        print(f"  {'error_rate':<16} {len(failures) / attempted:.6g} ratio "
              f"({len(failures)} of {attempted})")
    else:
        metrics = {}
        for name, (_, unit) in layers[0].items():
            metrics[name] = {"value": statistics.median(
                batch[name][0] for batch in layers), "unit": unit}
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(overheads), "unit": "ratio"}
        out_dir = Path(workdir).parent / ".perfbench-spans"
        out_dir.mkdir(exist_ok=True)
        for n, tracer in enumerate(spans_all):
            tracer.dump(str(out_dir / f"{args.workload}-seed{args.seed}"
                                      f"-batch{n}.jsonl"))
        print(f"  traced/untraced answers identical: {mismatched == 0}")
        for name, m in metrics.items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and not mismatched,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # String hashing is salted per process, and the library's running time
    # depends on the salt (set iteration order): the split verdict on one
    # input took 3.7 s under salt 0 and 4.6-5.5 s under salts 1 and 2.  A
    # single-process run sees one salt, so fix it for every run.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable,
                  [sys.executable, str(HERE / "run.py"), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.exit(main())
