"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 bench/smoke.py                 # or: python3 -m pytest -q bench/smoke.py

Checks that BENCHMARK.json matches the benchmark code, that every metric it
names is printed with its unit by the untraced and the traced run of every
workload, that deliberately broken outputs trip the correctness checks, and
that the benchmark refuses to run without the package sources.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402  (sets the one-thread environment first)
import tracing  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _scratch(name):
    path = os.path.join(ROOT, ".bench_work", f"smoke-{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_matches_code():
    spec = _spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == bench_run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (n, u, b) for n, u, b, *_ in tracing.LAYER_METRICS
    ]


def test_every_metric_printed_with_unit():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            proc = _bench(name, trace)
            assert proc.returncode == 0, (name, trace, proc.stdout, proc.stderr)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == expected, (name, trace)
            for n, unit in expected.items():
                assert any(line.startswith(f"{n} = ") and line.endswith(f" {unit}") for line in lines), (name, n)
            assert any(line.startswith("failed_frac = 0/") for line in lines)


def _small_simulate(out_root):
    w = workloads.make("simulate-splitstep-long", small=True)
    config_path = os.path.join(out_root, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(w.config_doc(7), fh)
    bench_run.import_snls()
    ctx = w.setup(config_path)
    res = w.unit(ctx, 7, out_root)
    assert res.data["code"] == 0
    return w, ctx, res


def _perturb_mass(csv_path, row):
    with open(csv_path, newline="") as fh:
        lines = fh.read().split("\r\n")
    cells = lines[row].split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-8))
    lines[row] = ",".join(cells)
    with open(csv_path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def test_perturbed_csv_row_trips_checks():
    import hashlib

    root = _scratch("csv")
    try:
        w, ctx, res = _small_simulate(root)
        out = res.data["out"]
        ok = lambda checks: {c.name: c.ok for c in checks}  # noqa: E731
        args = (out, w.n_steps, w.level, ctx["config"].T)
        assert all(ok(workloads.check_run_dir(*args)).values())

        csv_path = os.path.join(out, "trajectory.csv")
        _perturb_mass(csv_path, 10)
        assert ok(workloads.check_run_dir(*args))["manifest-sha256"] is False

        # re-sign the manifest: the content checks must still catch the row
        manifest_path = os.path.join(out, "manifest.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(csv_path, "rb") as fh:
            blob = fh.read()
        manifest["outputs"]["trajectory.csv"] = {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        status = ok(workloads.check_run_dir(*args))
        assert status["manifest-sha256"] is True
        assert status["csv-mass-conserved"] is False
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_perturbed_ensemble_output_trips_checks():
    root = _scratch("ensemble")
    try:
        w = workloads.make("ensemble-splitstep-d1", small=True)
        config_path = os.path.join(root, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(w.config_doc(9), fh)
        bench_run.import_snls()
        ctx = w.setup(config_path)
        res = w.unit(ctx, 9, root)
        assert all(c.ok for c in w.check(ctx, res) + w.final_checks(ctx, res, [res]))

        broken = copy.deepcopy(res)
        broken.data["summary"].sup_masses[0] *= 1.0 + 1e-9
        assert not all(c.ok for c in w.check(ctx, broken))

        broken = copy.deepcopy(res)
        broken.data["summary"].z_finals[:] *= 1.0 + 1e-11
        assert not all(c.ok for c in w.final_checks(ctx, broken, [broken]))
    finally:
        shutil.rmtree(root, ignore_errors=True)


def test_refuses_to_run_without_sources():
    root = _scratch("bare")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
        shutil.copytree(HERE, os.path.join(root, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("ensemble-splitstep-d1", 0, cwd=root)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    try:
        os.rmdir(os.path.join(ROOT, ".bench_work"))
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
