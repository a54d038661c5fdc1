#!/usr/bin/env python3
"""Benchmark for imtsolver: solve time, certificate re-check time and proof size.

Run from the repository root:

    python3 bench/run.py --workload cnf-band --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 [--trace 1]
    python3 bench/run.py --smoke

One process drives the public API in-process, serially, one instance at a
time: a closed loop at concurrency 1. A run generates the workload from its
seed, then repeats passes over the same inputs until ``--seconds`` would be
exceeded. Each pass takes every input from text to verdict with its trace
file written (what ``imt-solve --trace`` costs), then has an independent
checker read each trace and replay it through a fresh kernel (what
``imt-solve --replay`` costs). Every verdict is checked against a reference
computed by the benchmark itself, every replay must reach the same verdict,
and a failing input is dumped under ``.bench_out/failures`` so it can be
rerun with ``imt-solve``.

End-to-end times are scaled to a reference host speed (see ``speed.py``):
the untraced passes are probed with a fixed computation five times a second,
because a shared host's speed swings by up to 2x for tens of seconds. Each
time is then the median over passes of its scaled samples; the unscaled
figures and the host's speed factor are printed on stderr beside them.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` it reports per-layer metrics from traced passes, alternating
with untraced ones so the tracing overhead is measured too. A table goes to
stderr either way. Work counters must repeat exactly across passes and across
runs of one seed on the same sources, or the run fails.

There are no locks, queues or threads in the solver, so no layer has a wait
time; none is reported.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import speed as sp  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

MODULES = (
    "imtsolver",
    "imtsolver.model",
    "imtsolver.certificates",
    "imtsolver.lp",
    "imtsolver.euf",
    "imtsolver.kernel",
    "imtsolver.engine",
    "imtsolver.trace",
    "imtsolver.native",
    "imtsolver.smtlib",
)
SETUP_ROUNDS = 9
# replays of each trace per untraced pass, so that checking, which is short
# next to solving, still gives each pass enough samples for a steady median
CHECK_REPLAYS = {"cnf-band": 4, "random-suite": 1}
RULES = ("learn", "forget", "tlearn", "propagate", "branch", "drop", "prune", "retire", "unbounded", "subsume")

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "check_s": "s",
    "trace_kb": "KiB",
    "peak_rss_mb": "MiB",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer, fields in (
        ("lp.lp_solve", ("calls", "s", "self_s")),
        ("lp.derive_gomory_cuts", ("calls", "s")),
        ("lp.propagate_bounds", ("calls", "s")),
        ("kernel.apply_step", ("calls", "s", "self_s")),
        ("kernel.rows_of", ("calls", "s")),
        ("kernel.replay_trace", ("s",)),
        ("euf.check", ("calls", "s")),
        ("euf.replay_conflict", ("calls", "s")),
        ("euf.replay_model", ("calls", "s")),
        ("engine.solve", ("s", "self_s")),
        ("trace.write_trace", ("s",)),
        ("trace.read_trace", ("s",)),
        ("smtlib.encode_script", ("s",)),
        ("native.parse_instance", ("s",)),
    ) + tuple(
        (f"certificates.{c}.from_{m}", ("calls", "s")) for c in tr.CHECKS for m in tr.CHECK_CALLERS
    ):
        for f in fields:
            units[f"{layer}.{f}"] = "count" if f == "calls" else "s"
    for name in (
        "lp.lp_solve.infeasible",
        "lp.lp_solve.unbounded",
        "lp.gomory.cuts_derived",
        "lp.propagate.rows_derived",
        "lp.propagate.fixes",
        "euf.conflicts",
        "engine.nodes",
        "engine.branches",
        "engine.cuts",
    ) + tuple(f"kernel.steps.{r}" for r in RULES):
        units[name] = "count"
    units.update(
        {
            "lp.rows_per_solve.mean": "rows",
            "lp.rows_per_solve.max": "rows",
            "lp.gomory.learned_frac": "frac",
            "kernel.learn_frac": "frac",
            "trace.bytes_per_step": "B/step",
            "bench.trace_overhead_frac": "frac",
            "bench.check_over_solve": "frac",
            "bench.solve.top_layer_share": "frac",
            "bench.check.apply_step_share": "frac",
        }
    )
    return units


PER_LAYER = _per_layer_units()


class BenchFailure(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


# --- set-up ------------------------------------------------------------------------


def setup_once(workload: str, seed: int, size: str) -> tuple[tuple[float, float], dict, list]:
    """Import imtsolver from scratch and generate the inputs; returns when that started and ended."""
    for name in [m for m in sys.modules if m == "imtsolver" or m.startswith("imtsolver.")]:
        del sys.modules[name]
    start = time.perf_counter()
    mods = {name.rpartition(".")[2]: importlib.import_module(name) for name in MODULES}
    cases = workloads.generate(workload, seed, size)
    return (start, time.perf_counter()), mods, cases


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "imtsolver").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# --- one pass ----------------------------------------------------------------------


def _load(mods: dict, case: workloads.Case):
    if case.fmt == "smt":
        return mods["smtlib"].encode_script(case.text).instance
    return mods["native"].parse_instance(case.text)


def _verdict_error(mods: dict, instance, result, replay, expect) -> str | None:
    status, value = expect
    if result.status != status:
        return f"engine says {result.status}, reference says {status}"
    if status == "optimal" and result.value != mods["model"].ObjValue.finite(value):
        return f"engine optimum {result.value.render()}, reference optimum {value}"
    if not replay.final:
        return "replayed trace does not reach a final state"
    inc = replay.state.incumbent
    replayed = {"none": "infeasible", "unbounded": "unbounded"}.get(inc.kind, "optimal")
    replayed_value = mods["model"].obj_value(instance.objective, inc)
    if (replayed, replayed_value) != (result.status, result.value):
        return f"replay verdict {replayed} {replayed_value.render()} differs from the engine's"
    return None


class Pass:
    """Timings, counters and failures of one pass over every input."""

    def __init__(self) -> None:
        # per input, the (start, end) of every timing taken of it in this pass
        self.solve_t: list[list[tuple[float, float]]] = []
        self.check_t: list[list[tuple[float, float]]] = []
        self.counters: Counter = Counter()
        self.failures: list[tuple[int, str]] = []
        self.layers: dict[str, float] = {}
        self.by_phase: dict[tuple[str, str], float] = {}
        self.took = 0.0

    def wall(self, speed: sp.SpeedLog) -> float:
        """Scaled time of the pass; a traced pass, not probed itself, takes the scale of the probes around it."""
        return sum(statistics.median(durations(t, speed)) for t in self.solve_t + self.check_t)


def run_pass(
    mods: dict, cases: list, expects: list, workdir: Path, tracer: tr.Tracer | None, replays: int = 1
) -> Pass:
    out = Pass()
    clock = time.perf_counter
    began = clock()
    for i, case in enumerate(cases):
        path = workdir / f"{i}.trace"
        error = None
        result = None
        if tracer is not None:
            tracer.phase = "solve"
            span = tracer.open("bench.solve")
        start = clock()
        try:
            instance = _load(mods, case)
            result = mods["engine"].solve(instance)
            mods["trace"].write_trace(path, instance, result.steps)
        except Exception:  # a failing input is counted, never fatal
            error = "solve raised:\n" + traceback.format_exc()
        out.solve_t.append([(start, clock())])
        if tracer is not None:
            tracer.close(span)
            tracer.phase = "check"
        out.check_t.append([])
        for _ in range(replays if error is None else 1):
            if tracer is not None:
                span = tracer.open("bench.check")
            start = clock()
            if error is None:
                try:
                    _, steps = mods["trace"].read_trace(path, instance)
                    replay = mods["kernel"].replay_trace(instance, steps)
                except Exception:
                    error = "replay raised:\n" + traceback.format_exc()
            out.check_t[-1].append((start, clock()))
            if tracer is not None:
                tracer.close(span)
        if error is None:
            error = _verdict_error(mods, instance, result, replay, expects[i])
        if error is not None:
            out.failures.append((i, error))
        if result is not None:
            _count(out.counters, result, path)
        path.unlink(missing_ok=True)
    out.took = clock() - began
    return out


def _count(counters: Counter, result, path: Path) -> None:
    """Deterministic work counters of one solved input."""
    rules = Counter(step.rule for step in result.steps)
    unknown = set(rules) - set(RULES)
    if unknown:
        raise BenchFailure(f"kernel rules {sorted(unknown)} are not counted; update RULES")
    for rule in RULES:
        counters[f"kernel.steps.{rule}"] += rules[rule]
    counters["kernel.steps"] += len(result.steps)
    counters["engine.nodes"] += result.stats.nodes
    counters["engine.branches"] += result.stats.branches
    counters["engine.cuts"] += result.stats.cuts
    counters["engine.lp_solves"] += result.stats.lp_solves
    if path.exists():
        counters["trace.bytes"] += path.stat().st_size


# --- traced pass -------------------------------------------------------------------


def traced_pass(mods: dict, cases: list, expects: list, workdir: Path, tracer: tr.Tracer) -> Pass:
    tracer.reset()
    with tr.instrument(tracer, mods):
        out = run_pass(mods, cases, expects, workdir, tracer)
    calls, total, self_s, by_phase = tr.layer_times(tracer.spans)
    solve_total = total["bench.solve"]
    check_total = total["bench.check"]
    m = out.layers
    for layer in tr.LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.s"] = total[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    m.update({k: v for k, v in out.counters.items() if k.startswith(("kernel.steps.", "engine."))})
    for key in ("lp.lp_solve.infeasible", "lp.lp_solve.unbounded", "lp.gomory.cuts_derived",
                "lp.propagate.rows_derived", "lp.propagate.fixes", "euf.conflicts"):
        m[key] = tracer.counts[key]
    rows = tracer.rows
    m["lp.rows_per_solve.mean"] = sum(rows) / len(rows) if rows else 0.0
    m["lp.rows_per_solve.max"] = max(rows, default=0)
    derived = tracer.counts["lp.gomory.cuts_derived"]
    m["lp.gomory.learned_frac"] = out.counters["engine.cuts"] / derived if derived else 0.0
    steps = out.counters["kernel.steps"]
    m["kernel.learn_frac"] = out.counters["kernel.steps.learn"] / steps if steps else 0.0
    m["trace.bytes_per_step"] = out.counters["trace.bytes"] / steps if steps else 0.0
    layer_self = {name: t for (phase, name), t in by_phase.items() if phase == "solve" and name in tr.LAYERS}
    m["bench.solve.top_layer_share"] = max(layer_self.values(), default=0.0) / solve_total
    m["bench.check.apply_step_share"] = by_phase["check", "kernel.apply_step"] / check_total
    m["bench.solve_s"] = solve_total
    m["bench.check_s"] = check_total
    out.by_phase = by_phase
    # counters measured only while tracing must repeat exactly as well
    out.counters.update({f"traced.{k}": v for k, v in m.items() if k.endswith(".calls")})
    out.counters.update({f"traced.{k}": tracer.counts[k] for k in sorted(tracer.counts)})
    out.counters["traced.lp.rows"] = sum(rows)
    out.counters["traced.lp.rows_max"] = m["lp.rows_per_solve.max"]
    return out


# --- metrics -----------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """p90 with 100+ samples, else the highest percentile with 10 samples beyond it, but at least p50.

    Below 20 samples no percentile above the median has ten beyond it, so
    the median stands in rather than a maximum that one outlier sets.
    """
    if n >= 100:
        return 90
    return max(50, (100 * (n - 10)) // n)


def percentile(sorted_values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values) / 100) - 1)]


def durations(spans: list[tuple[float, float]], speed: sp.SpeedLog, scaled: bool = True) -> list[float]:
    """Durations of timed intervals without the probes in them; at the reference speed if ``scaled``."""
    return [speed.duration(s, e, scaled) for s, e in spans]


def per_input(passes: list[Pass], attr: str, speed: sp.SpeedLog, scaled: bool = True) -> list[float]:
    """Median time of each input over every pass (and every replay within a pass)."""
    per_input = zip(*(getattr(p, attr) for p in passes))
    return [statistics.median(durations([t for samples in columns for t in samples], speed, scaled))
            for columns in per_input]


def end_to_end(setups: list[tuple[float, float]], passes: list[Pass], speed: sp.SpeedLog) -> tuple[dict, dict]:
    solve = sorted(per_input(passes, "solve_t", speed))
    q = tail_percentile(len(solve))
    raw = {attr: sum(per_input(passes, attr, speed, scaled=False)) for attr in ("solve_t", "check_t")}

    def samples(attr: str) -> int:
        return sum(len(t) for p in passes for t in getattr(p, attr))

    values = {
        "setup_s": statistics.median(durations(setups, speed)),
        "solve_s": sum(solve),
        "solve_ms_p50": 1000 * statistics.median(solve),
        "solve_ms_p90": 1000 * percentile(solve, q),
        "check_s": sum(per_input(passes, "check_t", speed)),
        "trace_kb": passes[0].counters["trace.bytes"] / 1024,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; unscaled {statistics.median(durations(setups, speed, scaled=False)):.4g} s",
        "solve_s": f"sum of per-input medians; {samples('solve_t')} samples; unscaled {raw['solve_t']:.4g} s",
        "solve_ms_p50": f"over per-input medians; {len(solve)} inputs",
        "solve_ms_p90": f"reports p{q} of {len(solve)} inputs",
        "check_s": f"sum of per-input medians; {samples('check_t')} samples; unscaled {raw['check_t']:.4g} s",
        "trace_kb": f"{len(solve)} trace files",
        "peak_rss_mb": "whole process",
    }
    return values, notes


def per_layer(plain: list[Pass], traced: list[Pass], speed: sp.SpeedLog) -> dict:
    values = {name: statistics.median(p.layers[name] for p in traced) for name in PER_LAYER if name in traced[0].layers}
    values["bench.trace_overhead_frac"] = statistics.median(p.wall(speed) for p in traced) / statistics.median(p.wall(speed) for p in plain) - 1
    values["bench.check_over_solve"] = sum(per_input(plain, "check_t", speed, False)) / sum(per_input(plain, "solve_t", speed, False))
    return values


def print_layer_table(traced: list[Pass], values: dict) -> None:
    last = traced[-1]
    solve_total, check_total = last.layers["bench.solve_s"], last.layers["bench.check_s"]
    rows = []
    for layer in tr.LAYERS:
        calls = last.layers[f"{layer}.calls"]
        if not calls:
            continue
        rows.append((last.layers[f"{layer}.self_s"], layer, calls, last.layers[f"{layer}.s"],
                     last.by_phase.get(("solve", layer), 0.0), last.by_phase.get(("check", layer), 0.0)))
    err = sys.stderr
    print(f"per-layer times of the last traced pass (solve {solve_total:.3f} s, check {check_total:.3f} s):", file=err)
    print(f"  {'layer':38} {'calls':>8} {'total_s':>9} {'self_s':>9} {'solve%':>7} {'check%':>7}", file=err)
    for own, layer, calls, total, in_solve, in_check in sorted(rows, reverse=True):
        print(f"  {layer:38} {calls:8d} {total:9.3f} {own:9.3f} {100 * in_solve / solve_total:6.1f}% "
              f"{100 * in_check / check_total:6.1f}%", file=err)
    harness = sum(t for (phase, name), t in last.by_phase.items() if name.startswith("bench."))
    print(f"  {'(harness, row counting)':38} {'':8} {'':9} {harness:9.3f}", file=err)
    modules: dict[str, list[float]] = {}
    for _, layer, _, _, in_solve, in_check in rows:
        acc = modules.setdefault(layer.split(".")[0], [0.0, 0.0])
        acc[0] += in_solve
        acc[1] += in_check
    print("self time by module: " + ", ".join(
        f"{mod} {100 * s / solve_total:.1f}%/{100 * c / check_total:.1f}%"
        for mod, (s, c) in sorted(modules.items(), key=lambda kv: -sum(kv[1]))) + " (solve/check)", file=err)
    print(f"tracing overhead: {100 * values['bench.trace_overhead_frac']:.1f}% of the untraced pass time", file=err)
    print("wait time: none; the solver has no locks, queues or threads", file=err)


def print_metric_table(values: dict, notes: dict) -> None:
    for name, value in values.items():
        print(f"  {name:38} {value:14.6g} {END_TO_END[name]}  ({notes[name]})", file=sys.stderr)


# --- one run -----------------------------------------------------------------------


def check_counters(passes: list[Pass], key: Path) -> None:
    """Counters must repeat across the passes of a run and across runs of a seed."""

    def untraced(counters: Counter) -> dict:
        return {k: v for k, v in counters.items() if not k.startswith("traced.")}

    if any(untraced(p.counters) != untraced(passes[0].counters) for p in passes):
        raise BenchFailure("work counters differ between passes of one run")
    traced = [p.counters for p in passes if p.layers]
    if any(c != traced[0] for c in traced):
        raise BenchFailure("traced counters differ between passes of one run")
    record = dict(sorted((traced[0] if traced else passes[0].counters).items()))
    key.parent.mkdir(parents=True, exist_ok=True)
    if key.exists():
        earlier = json.loads(key.read_text())
        if earlier != record:
            diff = sorted(k for k in set(earlier) | set(record) if earlier.get(k) != record.get(k))
            raise BenchFailure(f"work counters differ from an earlier run of this seed: {diff[:8]}")
    else:
        key.write_text(json.dumps(record, indent=1) + "\n")


def dump_failures(workload: str, seed: int, cases: list, passes: list[Pass]) -> None:
    seen: set[int] = set()
    folder = OUT / "failures"
    for p in passes:
        for i, error in p.failures:
            if i in seen:
                continue
            seen.add(i)
            folder.mkdir(parents=True, exist_ok=True)
            ext = "smt2" if cases[i].fmt == "smt" else "imt"
            stem = f"{workload}-seed{seed}-{cases[i].label}"
            (folder / f"{stem}.{ext}").write_text(cases[i].text)
            (folder / f"{stem}.err").write_text(error)
            print(f"FAILED {cases[i].label}: {error.splitlines()[0]} -> {folder / stem}.{ext}", file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str) -> int:
    if not (SRC / "imtsolver" / "__init__.py").is_file():
        print(f"error: no imtsolver sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed = sp.SpeedLog()
    setups = []
    with speed.probing():
        for _ in range(SETUP_ROUNDS):
            span, mods, cases = setup_once(workload, seed, size)
            setups.append(span)
    if not Path(mods["imtsolver"].__file__).resolve().is_relative_to(SRC):
        print(f"error: imtsolver imported from {mods['imtsolver'].__file__}, not {SRC}", file=sys.stderr)
        return 2
    expects = [workloads.reference(case) for case in cases]

    workdir = OUT / f"work-{workload}-{seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    tracer = tr.Tracer() if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    try:
        start = time.perf_counter()
        while True:
            # untraced and traced passes alternate, so drift hits both alike
            if trace and len(traced) < len(plain):
                traced.append(traced_pass(mods, cases, expects, workdir, tracer))
            else:
                # probed, so each timing can be scaled to the reference speed; traced passes are not
                with speed.probing():
                    plain.append(run_pass(mods, cases, expects, workdir, None, CHECK_REPLAYS[workload]))
            if not plain or (trace and not traced):
                continue
            upcoming = traced if trace and len(traced) < len(plain) else plain
            if time.perf_counter() - start + statistics.median(p.took for p in upcoming) > seconds:
                break
        if tracer is not None:
            tracer.write(OUT / "spans" / f"{workload}-{size}-seed{seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = plain + traced
    attempted = len(cases) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    dump_failures(workload, seed, cases, passes)
    key = OUT / "counters" / f"{workload}-{size}-seed{seed}-trace{int(trace)}-{source_fingerprint()}.json"
    try:
        check_counters(passes, key)
        stable = True
    except BenchFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        stable = False

    print(f"{workload} seed {seed}: {len(cases)} inputs, {len(plain)} untraced and {len(traced)} traced passes, "
          f"failed_frac {failed / attempted:.4g} ({failed}/{attempted}); pass times "
          + " ".join(f"{p.took:.2f}" for p in passes) + " s, scaled "
          + " ".join(f"{sum(durations([t for ts in p.solve_t + p.check_t for t in ts], speed)):.2f}" for p in plain)
          + f" s; host {speed.factor():.2f}x slower than the reference speed (median of {len(speed.took)} probes)",
          file=sys.stderr)
    if trace:
        metrics = per_layer(plain, traced, speed)
        print_layer_table(traced, metrics)
        units = PER_LAYER
    else:
        metrics, notes = end_to_end(setups, plain, speed)
        print_metric_table(metrics, notes)
        units = END_TO_END
    correct = failed == 0 and stable
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


# --- several runs --------------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, str]:
    """One run in its own process (peak RSS is per process); returns its result and stderr."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchFailure(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1]), proc.stderr


def run_all(seed: int, seconds: float, trace: bool, size: str) -> int:
    results = {}
    for w in workloads.WORKLOADS:
        results[w], log = run_child(w, seed, seconds, trace, size)
        print(log, end="", file=sys.stderr)
    print(f"{'workload':14} {'metric':38} {'value':>14} unit")
    for w, res in results.items():
        for name, m in res["metrics"].items():
            print(f"{w:14} {name:38} {m['value']:14.6g} {m['unit']}")
        print(f"{w:14} {'failed_frac':38} {res['failed'] / res['attempted']:14.6g} frac"
              f"{'' if res['correct'] else '  INCORRECT'}")
    return 0 if all(r["correct"] for r in results.values()) else 1


def smoke() -> int:
    """Every workload on a tiny input, both modes; every named metric must appear."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            res, log = run_child(w, 1, 1, trace, "smoke")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={int(trace)}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(k for k in set(got) & set(want) if got[k] != want[k])}")
            if not res["correct"]:
                problems.append(f"{w} trace={int(trace)}: incorrect result\n{log}")
    for p in problems:
        print(p, file=sys.stderr)
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, both modes, check every metric name")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.size)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)


if __name__ == "__main__":
    sys.exit(main())
