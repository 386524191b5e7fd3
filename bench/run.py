"""Benchmark of the snls package, end to end and per layer.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; snls is imported from its `src`.  One run
measures one workload in this (fresh) process with one worker thread:
set-up is timed in separate fresh interpreters (median of several), then
the workload's unit of work repeats until `--seconds` of timed work have
elapsed.  Every unit's outputs are checked; a failed check fails the run.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of a traced run
(traced and untraced units alternate on the same inputs, so the tracing
overhead is measured in the same process).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

THREAD_ENV = {"SNLS_THREADS": "1", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before anything imports numpy

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("paths_per_s", "1/s"), ("peak_rss_mb", "MB")]
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure_setup(w, config_path, probes: int) -> list[float]:
    """Set-up seconds of `probes` fresh interpreters, one after another."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), w.name, config_path or "-"]
    times = []
    for _ in range(probes):
        t0 = time.monotonic()
        out = subprocess.run(
            cmd + [repr(t0)] + (["--small"] if w.small else []),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def import_snls():
    sys.path.insert(0, SRC)
    import snls

    origin = os.path.realpath(snls.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"snls imported from {origin}, not from {SRC}")


def run_units(w, ctx, args, work_dir, tracer=None, patches=None):
    """Repeat the unit while the next one is expected to fit in `args.seconds`.

    Returns one row per unit (at least two).  A traced run alternates
    untraced and traced units on unit 0's inputs and stops after a traced one.
    """
    rows = []
    timed = 0.0
    step = 2 if tracer else 1
    r = 0
    while True:
        seed = workloads.unit_seed(args.seed, 0 if tracer else r)
        traced = tracer is not None and r % 2 == 1
        first_span = 0
        if traced:
            tracer.unit = r
            tracer.counts.clear()
            first_span = len(tracer.spans)
            patches.enable()
        t0 = time.perf_counter()
        res = w.unit(ctx, seed, work_dir)
        wall = time.perf_counter() - t0
        if traced:
            patches.disable()
        res.checks = w.check(ctx, res)
        row = {"wall": wall, "res": res, "traced": traced}
        if traced:
            row["spans"] = tracer.spans[first_span:]
            row["layer"] = tracing.unit_metrics(row["spans"], tracer.counts)
            row["layer"]["cli.bytes_written"] = res.data.get("bytes_written", 0)
        rows.append(row)
        timed += wall
        r += 1
        if r >= workloads.MAX_UNITS or (r >= 2 and r % step == 0 and timed * (1 + step / r) > args.seconds):
            return rows


def end_to_end_metrics(rows, setup_times) -> dict:
    """Per-unit wall time and throughput over the whole timed phase.

    Units have distinct inputs and the machine's speed drifts over seconds,
    so totals over the phase are steadier than a median of units.
    """
    timed = sum(x["wall"] for x in rows)
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": timed / len(rows),
        "paths_per_s": sum(x["res"].paths for x in rows) / timed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(rows, tracer) -> tuple[dict, list]:
    traced = [x for x in rows if x["traced"]]
    plain = [x for x in rows if not x["traced"]]
    metrics = {}
    for name in traced[0]["layer"]:
        metrics[name] = statistics.median(x["layer"][name] for x in traced)
    spans = [s for x in traced for s in x["spans"]]
    metrics["solver.path_ms_p50"], metrics["solver.path_ms_p90"] = tracing.path_percentiles_ms(spans)
    metrics["config.load_s"] = tracing.setup_config_load_s(tracer.spans)
    t_wall = statistics.median(x["wall"] for x in traced)
    u_wall = statistics.median(x["wall"] for x in plain)
    metrics["trace.overhead_s"] = t_wall - u_wall
    metrics["trace.overhead_pct"] = 100.0 * (t_wall - u_wall) / u_wall
    # every traced unit ran the same inputs, so its work counts must agree
    counted = [n for n, unit, *_ in tracing.LAYER_METRICS if unit == "count" and n != "trace.spans"]
    differ = [n for n in counted if len({x["layer"].get(n) for x in traced}) > 1]
    check = workloads.Check("traced-counts-repeat", not differ, f"counts differing between traced units: {differ}")
    return {n: metrics[n] for n, *_ in tracing.LAYER_METRICS}, [check]


def run(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "snls", "__init__.py")):
        print(f"error: no snls package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    w = workloads.make(args.workload, small=args.small)
    work_dir = os.path.join(ROOT, ".bench_work", f"{w.name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        config_path = None
        if w.uses_config:
            config_path = os.path.join(work_dir, "config.json")
            with open(config_path, "w", encoding="utf-8") as fh:
                json.dump(w.config_doc(workloads.unit_seed(args.seed, 0)), fh, indent=2)
        setup_times = [] if args.trace else measure_setup(w, config_path, 2 if args.small else SETUP_PROBES)

        import_snls()
        tracer = patches = None
        if args.trace:
            tracer = tracing.Tracer()
            patches = tracing.install(tracer)
            patches.enable()
        ctx = w.setup(config_path)
        if patches:
            patches.disable()

        rows = run_units(w, ctx, args, work_dir, tracer, patches)
        results = [x["res"] for x in rows]
        checks = [c for res in results for c in res.checks] + w.final_checks(ctx, results[0], results)
        if args.trace:
            metrics, extra = layer_metrics(rows, tracer)
            checks += extra
            units = {n: u for n, u, *_ in tracing.LAYER_METRICS}
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            trace_path = os.path.join(out_dir, f"trace-{w.name}-seed{args.seed}.csv")
            tracer.write_csv(trace_path)
        else:
            metrics = end_to_end_metrics(rows, setup_times)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    ops = sum(res.ops for res in results)
    failed_ops = sum(res.failed_ops for res in results)
    bad = [c for c in checks if not c.ok]
    attempted = ops + len(checks)
    failed = failed_ops + len(bad)

    walls = [x["wall"] for x in rows]
    q1, q3 = _quartiles(walls)
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    print(f"units {len(rows)}  timed {sum(walls):.2f} s  unit wall median {statistics.median(walls):.4f} s  quartiles {q1:.4f} .. {q3:.4f} s")
    if setup_times:
        print(f"set-up probes (s): {' '.join(f'{t:.4f}' for t in setup_times)}")
    if args.trace:
        print(f"spans written to {os.path.relpath(trace_path, ROOT)}")
        if patches.missing:
            print(f"lookup sites not found (not traced): {patches.missing}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.6g} ({failed_ops} failed of {ops} operations, {len(bad)} failed of {len(checks)} checks)")
    for c in bad:
        print(f"FAILED check {c.name}: {c.detail}")
    print(f"{'PASS' if not bad else 'FAIL'}: {len(checks) - len(bad)} of {len(checks)} checks passed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--small"] if args.small else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
        print()
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True, help="input seed (nonnegative)")
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for the smoke test only")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
