"""Span recorder and per-layer metrics for traced benchmark runs.

Spans are recorded from the benchmark's side only: each snls function of
interest is wrapped where its caller looks it up (a module attribute such
as `snls.montecarlo.solve`, a class attribute such as
`SpectralPlan.forward`, or an entry of `snls.verify.SUITES`).  Wrappers are
installed for traced units and removed again for untraced ones, so an
untraced unit runs the package exactly as shipped.

A span is (id, parent id, unit, name, start ns, end ns).  Spans stay in
memory and are written as CSV when the run ends.  A layer's self time is
its spans' durations minus the durations of their direct children; calls
are nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

# (name, unit, better, end-to-end metric it should move, workload where the
# layer does most of the work, workload where it does little)
LAYER_METRICS = [
    ("noise.sample_calls", "count", "lower", "paths_per_s", "levels-picard-d1", "simulate-splitstep-long"),
    ("noise.sample_s", "s", "lower", "paths_per_s", "levels-picard-d1", "simulate-splitstep-long"),
    ("noise.draws", "count", "lower", "paths_per_s", "levels-picard-d1", "simulate-splitstep-long"),
    ("noise.oracle_calls", "count", "lower", "wall_s", "verify-all", "ensemble-splitstep-d1"),
    ("noise.oracle_s", "s", "lower", "wall_s", "verify-all", "ensemble-splitstep-d1"),
    ("propagator.fft_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("propagator.fft_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("propagator.fft_points", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("propagator.fft_bytes_computed", "B", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("grid_field.field_inits", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("grid_field.append_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("grid_field.append_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("grid_field.halfbox_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("grid_field.halfbox_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("grid_field.z_lookup_calls", "count", "lower", "wall_s", "simulate-splitstep-long", "levels-picard-d1"),
    ("grid_field.z_lookup_s", "s", "lower", "wall_s", "simulate-splitstep-long", "levels-picard-d1"),
    ("grid_field.csv_rows", "count", "lower", "wall_s", "simulate-splitstep-long", "levels-picard-d1"),
    ("grid_field.csv_s", "s", "lower", "wall_s", "simulate-splitstep-long", "levels-picard-d1"),
    ("dynamics.stopping_calls", "count", "lower", "wall_s", "simulate-splitstep-long", "levels-picard-d1"),
    ("dynamics.stopping_s", "s", "lower", "wall_s", "simulate-splitstep-long", "levels-picard-d1"),
    ("solver.solve_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("solver.path_ms_p50", "ms", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("solver.path_ms_p90", "ms", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("solver.self_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("solver.materialize_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "verify-all"),
    ("solver.picard_windows", "count", "lower", "paths_per_s", "levels-picard-d1", "ensemble-splitstep-d1"),
    ("solver.picard_sweeps", "count", "lower", "paths_per_s", "levels-picard-d1", "ensemble-splitstep-d1"),
    ("solver.picard_halvings", "count", "lower", "paths_per_s", "levels-picard-d1", "ensemble-splitstep-d1"),
    ("solver.steps_per_sweep", "steps/sweep", "higher", "paths_per_s", "levels-picard-d1", "ensemble-splitstep-d1"),
    ("montecarlo.solve_path_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("montecarlo.solve_path_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("montecarlo.self_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("cli.self_s", "s", "lower", "wall_s", "simulate-splitstep-long", "ensemble-splitstep-d1"),
    ("cli.bytes_written", "B", "lower", "peak_rss_mb", "simulate-splitstep-long", "ensemble-splitstep-d1"),
    ("config.load_s", "s", "lower", "setup_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("specs.build_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("specs.build_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("exponents.z_exponents_calls", "count", "lower", "paths_per_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("exponents.z_exponents_s", "s", "lower", "paths_per_s", "ensemble-splitstep-d1", "simulate-splitstep-long"),
    ("verify.unitarity_s", "s", "lower", "wall_s", "verify-all", "-"),
    ("verify.mass_s", "s", "lower", "wall_s", "verify-all", "-"),
    ("verify.oracle-sde_s", "s", "lower", "wall_s", "verify-all", "-"),
    ("verify.strichartz_s", "s", "lower", "wall_s", "verify-all", "-"),
    ("verify.truncation_s", "s", "lower", "wall_s", "verify-all", "-"),
    ("verify.exponents_s", "s", "lower", "wall_s", "verify-all", "-"),
    # the tracer's own cost: traced minus untraced unit wall time, and spans per unit
    ("trace.overhead_s", "s", "lower", "-", "-", "-"),
    ("trace.overhead_pct", "%", "lower", "-", "-", "-"),
    ("trace.spans", "count", "lower", "-", "-", "-"),
]

SUITE_NAMES = ("unitarity", "mass", "oracle-sde", "strichartz", "truncation", "exponents")

# Span name of each layer boundary: (metric prefix, span name).
_CALLS_AND_TIME = [
    ("noise.sample", "noise.sample"),
    ("noise.oracle", "noise.oracle"),
    ("propagator.fft", "propagator.fft"),
    ("grid_field.append", "grid_field.append"),
    ("grid_field.halfbox", "grid_field.halfbox"),
    ("grid_field.z_lookup", "grid_field.z_lookup"),
    ("dynamics.stopping", "dynamics.stopping"),
    ("montecarlo.solve_path", "montecarlo.solve_path"),
    ("specs.build", "specs.build"),
    ("exponents.z_exponents", "exponents.z_exponents"),
]

SETUP_UNIT = -1


class Tracer:
    """In-memory span list plus per-unit work counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.unit = SETUP_UNIT
        self._stack = [0]
        self._next_id = 1

    def span(self, name, fn, after=None):
        """Wrap `fn` so that every call records one span named `name`.

        `after(counts, args, result)` may add work counts from the call.
        """
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = self._stack[-1]
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((sid, parent, self.unit, name, start, end))
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def item_spans(self, name, fn, count_name):
        """Wrap a generator function: one span per item it produces."""

        def count(counts, args, result):
            counts[count_name] += 1

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self.span(name, fn(*args, **kwargs).__next__, count)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    def counter(self, name, fn):
        """Wrap `fn` to count its calls without a span (for very hot calls)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,unit,name,start_ns,end_ns\n")
            fh.writelines(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}\n" for s in self.spans)


def _fft_work(counts, args, result):
    # Computed from array sizes, not measured traffic: the transform reads
    # and writes batch x grid.size complex128 values (16 B each).
    size = args[1].size
    counts["propagator.fft_points"] += size
    counts["propagator.fft_bytes_computed"] += 2 * 16 * size


def _draws(counts, args, result):
    counts["noise.draws"] += result.increments.size


def _picard_windows(counts, args, result):
    windows = getattr(result, "windows", None) or ()
    dt = args[0].dt
    for w in windows:
        steps = int(round(w.length / dt))
        counts["solver.picard_windows"] += 1
        counts["solver.picard_sweeps"] += w.iterations
        counts["solver.picard_halvings"] += w.halvings
        counts["solver.picard_sweep_steps"] += steps * w.iterations


class Patches:
    """Wrappers installed at the lookup sites; `enable`/`disable` swap them."""

    def __init__(self):
        self._sites: list[tuple] = []  # (owner, key, original, wrapper)
        self.missing: list[str] = []

    def add(self, owner, key, make, label):
        if isinstance(owner, dict):
            original = owner.get(key)
        else:
            original = owner.__dict__.get(key) if isinstance(owner, type) else getattr(owner, key, None)
        if original is None:
            self.missing.append(label)
            return
        self._sites.append((owner, key, original, make(original)))

    def _set(self, index):
        for site in self._sites:
            owner, key, value = site[0], site[1], site[index]
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def enable(self):
        self._set(3)

    def disable(self):
        self._set(2)


def install(tracer: Tracer) -> Patches:
    """Build (but do not enable) the wrappers for every traced layer."""
    import snls.cli
    import snls.config
    import snls.exponents
    import snls.montecarlo
    import snls.solver
    import snls.verify
    from snls.grid_field import ComplexField, Trajectory
    from snls.propagator import SpectralPlan

    p = Patches()
    mc, sv, vf, cli = snls.montecarlo, snls.solver, snls.verify, snls.cli

    def spans(owner, key, name, after=None):
        label = f"{getattr(owner, '__name__', 'SUITES')}.{key}"
        p.add(owner, key, lambda fn: tracer.span(name, fn, after), label)

    for mod in (mc, sv, vf):
        spans(mod, "sample_brownian_path", "noise.sample", _draws)
    spans(vf, "euler_maruyama_diffusion", "noise.oracle")
    spans(vf, "diffusion_only_exact", "noise.oracle")
    spans(SpectralPlan, "forward", "propagator.fft", _fft_work)
    spans(SpectralPlan, "inverse", "propagator.fft", _fft_work)
    p.add(ComplexField, "__init__", lambda fn: tracer.counter("grid_field.field_inits", fn), "ComplexField.__init__")
    spans(Trajectory, "append", "grid_field.append")
    spans(Trajectory, "z_components_at", "grid_field.z_lookup")
    spans(sv, "mass_outside_central_halfbox", "grid_field.halfbox")
    p.add(
        cli,
        "trajectory_csv_lines",
        lambda fn: tracer.item_spans("grid_field.csv_row", fn, "grid_field.csv_rows"),
        "snls.cli.trajectory_csv_lines",
    )
    spans(sv, "detect_stopping_time", "dynamics.stopping")
    spans(mc, "solve", "solver.solve", _picard_windows)
    spans(cli, "solve", "solver.solve", _picard_windows)
    spans(vf, "splitstep_solve", "solver.solve", _picard_windows)
    spans(mc, "materialize", "solver.materialize")
    spans(sv, "materialize", "solver.materialize")
    spans(mc, "solve_path", "montecarlo.solve_path")
    spans(mc, "run_ensemble", "montecarlo.run_ensemble")
    spans(mc, "truncation_uniformity_study", "montecarlo.study")
    spans(cli, "main", "cli.main")
    spans(snls.config, "load_config", "config.load")
    spans(sv, "build_noise_model", "specs.build")
    spans(sv, "build_field", "specs.build")
    spans(sv, "z_exponents", "exponents.z_exponents")
    spans(snls.exponents, "z_exponents", "exponents.z_exponents")
    for suite in SUITE_NAMES:
        spans(vf.SUITES, suite, f"verify.{suite}")
    return p


def unit_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced unit from its spans and counters."""
    total = defaultdict(float)
    calls = Counter()
    child = defaultdict(float)
    for sid, parent, _unit, name, start, end in spans:
        dur = (end - start) * 1e-9
        total[name] += dur
        calls[name] += 1
        child[parent] += dur
    own = defaultdict(float)
    for sid, _parent, _unit, name, start, end in spans:
        own[name] += (end - start) * 1e-9 - child.get(sid, 0.0)

    m = {}
    for prefix, name in _CALLS_AND_TIME:
        m[f"{prefix}_calls"] = calls[name]
        m[f"{prefix}_s"] = total[name]
    m["noise.draws"] = counts["noise.draws"]
    m["propagator.fft_points"] = counts["propagator.fft_points"]
    m["propagator.fft_bytes_computed"] = counts["propagator.fft_bytes_computed"]
    m["grid_field.field_inits"] = counts["grid_field.field_inits"]
    m["grid_field.csv_rows"] = counts["grid_field.csv_rows"]
    m["grid_field.csv_s"] = total["grid_field.csv_row"]
    m["solver.solve_calls"] = calls["solver.solve"]
    m["solver.self_s"] = own["solver.solve"]
    m["solver.materialize_calls"] = calls["solver.materialize"]
    for key in ("picard_windows", "picard_sweeps", "picard_halvings"):
        m[f"solver.{key}"] = counts[f"solver.{key}"]
    sweeps = counts["solver.picard_sweeps"]
    m["solver.steps_per_sweep"] = counts["solver.picard_sweep_steps"] / sweeps if sweeps else 0.0
    m["montecarlo.self_s"] = sum(
        own[n] for n in ("montecarlo.solve_path", "montecarlo.run_ensemble", "montecarlo.study")
    )
    m["cli.self_s"] = own["cli.main"]
    m["cli.bytes_written"] = counts["cli.bytes_written"]
    for suite in SUITE_NAMES:
        m[f"verify.{suite}_s"] = total[f"verify.{suite}"]
    m["trace.spans"] = len(spans)
    return m


def path_percentiles_ms(spans) -> tuple[float, float]:
    """Median and 90th percentile of `solver.solve` span durations, in ms."""
    durations = sorted((s[5] - s[4]) * 1e-6 for s in spans if s[3] == "solver.solve")
    if not durations:
        return 0.0, 0.0
    if len(durations) == 1:
        return durations[0], durations[0]
    return statistics.median(durations), statistics.quantiles(durations, n=10, method="inclusive")[8]


def setup_config_load_s(spans) -> float:
    return sum((s[5] - s[4]) * 1e-9 for s in spans if s[2] == SETUP_UNIT and s[3] == "config.load")
