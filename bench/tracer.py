"""Spans and counters for the benchmark's traced run.

The solver is not edited: ``instrument`` rebinds the module attributes that
callers resolve at call time (``imtsolver.engine.lp_solve``,
``imtsolver.kernel.apply_step``, ``EufSession.check`` and so on) to wrappers
that record one span per call, and puts the originals back on exit. Spans
stay in memory as ``[name, phase, start, end, parent]`` lists; a layer's self
time is its span time minus the time its child spans cover.

Spans named ``bench.*`` are the harness's own (the per-instance solve and
check paths, and the row counting done for ``lp.rows_per_solve``). They are
subtracted from their parents' self time but are not layers.
"""
from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class EntryPointMissing(RuntimeError):
    """A traced entry point no longer exists under its recorded name."""


# (span name, defining module, attribute); every module binding the same
# function object gets the wrapper, so the caller's lookup finds it
FUNCTIONS = (
    ("engine.solve", "engine", "solve"),
    ("lp.lp_solve", "lp", "lp_solve"),
    ("lp.derive_gomory_cuts", "lp", "derive_gomory_cuts"),
    ("lp.propagate_bounds", "lp", "propagate_bounds"),
    ("kernel.apply_step", "kernel", "apply_step"),
    ("kernel.rows_of", "kernel", "rows_of"),
    ("kernel.replay_trace", "kernel", "replay_trace"),
    ("trace.write_trace", "trace", "write_trace"),
    ("trace.read_trace", "trace", "read_trace"),
    ("smtlib.encode_script", "smtlib", "encode_script"),
    ("native.parse_instance", "native", "parse_instance"),
)
METHODS = (
    ("euf.check", "euf", "EufSession", "check"),
    ("euf.replay_conflict", "euf", "EufAdapter", "replay_conflict"),
    ("euf.replay_model", "euf", "EufAdapter", "replay_model"),
)
# certificate checks are split by caller: the engine re-checking itself (lp)
# and the trusted kernel; a caller that stops importing a check records 0 calls
CHECKS = ("check_farkas", "check_cg", "check_lb_dual", "check_bound_fix", "check_literal_evidence")
CHECK_CALLERS = ("lp", "kernel")
LAYERS = (
    tuple(name for name, _, _ in FUNCTIONS)
    + tuple(name for name, _, _, _ in METHODS)
    + tuple(f"certificates.{c}.from_{m}" for c in CHECKS for m in CHECK_CALLERS)
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.rows: list[int] = []
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        rec = [name, self.phase, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = time.perf_counter()
        return rec

    def close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                hook = self.open("bench.hook")
                before(args, kwargs)
                self.close(hook)
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(out)
            return out

        return traced

    # counters measured where the work happens

    def _before(self, name: str, mods: dict):
        """lp_solve's row count, taken with the public assemble_rows (box rows included)."""
        if name != "lp.lp_solve":
            return None
        sig = inspect.signature(mods["lp"].lp_solve)

        def before(args, kwargs):
            a = sig.bind(*args, **kwargs).arguments
            self.rows.append(len(mods["lp"].assemble_rows(a["sub"], a["bounds"], a["objective"])))

        return before

    def _after(self, name: str):
        """Counters read off a call's result."""
        counts = self.counts
        if name == "lp.lp_solve":

            def after(out):
                kind = type(out).__name__
                if kind in ("LpInfeasible", "LpUnbounded"):
                    counts[f"lp.lp_solve.{kind[2:].lower()}"] += 1

        elif name == "lp.derive_gomory_cuts":

            def after(out):
                counts["lp.gomory.cuts_derived"] += len(out)

        elif name == "lp.propagate_bounds":

            def after(out):
                counts["lp.propagate.rows_derived"] += len(out.derived)
                counts["lp.propagate.fixes"] += len(out.fixes)

        elif name == "euf.check":

            def after(out):
                counts["euf.conflicts"] += type(out).__name__ == "TheoryConflict"

        else:
            return None
        return after

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.rows.clear()

    def write(self, path: Path) -> None:
        """Spans as gzipped JSON lines: name, phase, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            for rec in self.spans:
                out.write(json.dumps(rec, separators=(",", ":")) + "\n")


@contextmanager
def instrument(tracer: Tracer, mods: dict):
    """Rebind every traced entry point to a span-recording wrapper.

    ``mods`` maps short names ("lp", "kernel", ...) to the imported modules;
    every loaded ``imtsolver`` module that binds a traced function is patched.
    """
    saved: list[tuple[object, str, object]] = []
    owners = [m for n, m in sys.modules.items() if n == "imtsolver" or n.startswith("imtsolver.")]

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for name, module, attr in FUNCTIONS:
            orig = getattr(mods[module], attr, None)
            if orig is None:
                raise EntryPointMissing(f"imtsolver.{module}.{attr} is gone; update the traced layers")
            wrapped = tracer.wrap(name, orig, tracer._before(name, mods), tracer._after(name))
            for owner in owners:
                if getattr(owner, attr, None) is orig:
                    patch(owner, attr, wrapped)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(mods[module], cls_name, None)
            if cls is None or not hasattr(cls, attr):
                raise EntryPointMissing(f"imtsolver.{module}.{cls_name}.{attr} is gone; update the traced layers")
            patch(cls, attr, tracer.wrap(name, getattr(cls, attr), after=tracer._after(name)))
        for check in CHECKS:
            orig = getattr(mods["certificates"], check)
            for caller in CHECK_CALLERS:
                if getattr(mods[caller], check, None) is orig:
                    patch(mods[caller], check, tracer.wrap(f"certificates.{check}.from_{caller}", orig))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_times(spans: list[list]) -> tuple[dict, dict, dict, dict]:
    """Calls, total seconds, self seconds, and self seconds by (phase, name)."""
    child = [0.0] * len(spans)
    for name, _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    by_phase: dict[tuple[str, str], float] = defaultdict(float)
    for i, (name, phase, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        own = end - start - child[i]
        self_s[name] += own
        by_phase[phase, name] += own
    return calls, total, self_s, by_phase
