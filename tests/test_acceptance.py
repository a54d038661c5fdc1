"""End-to-end acceptance suite.

One test per shipped guarantee, each finishing with a single PASS line and a
hard assert at the stated tolerance. The random-instance runs are shared by
several checks through the module-scoped fixture below.
"""
from __future__ import annotations

import itertools
import random
import time

import pytest

from gen import cnf_script, iter_box, random_cnf, random_instance, random_lp_instance, root
from lp_oracle import vertex_optimum
from seating import banquet_instance
from imtsolver.certificates import (
    BoundFix,
    BranchConflictSplit,
    BranchDichotomy,
    BranchTrichotomy,
    CGCut,
    FarkasProof,
    LbDual,
    RetireEvidence,
    TheoryLiteral,
    TheoryRefutation,
    UnboundedEvidence,
    check_farkas,
    check_lb_dual,
)
from imtsolver.engine import CUTS_PER_ROUND, Config, solve
from imtsolver.euf import EufSession, TheoryConflict, functional_consistency
from imtsolver.kernel import (
    Budgets,
    Kernel,
    ReplayError,
    RuleViolation,
    Step,
    replay_trace,
    rows_of,
)
from imtsolver.lp import LpInfeasible, LpOptimal, assemble_rows, lp_solve
from imtsolver.model import (
    Bounds,
    ImtInstance,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    satisfies,
    satisfies_all,
)
from imtsolver.oracle import brute_force_solve
from imtsolver.smtlib import encode_script
from imtsolver.trace import read_trace, write_trace

SUITE_SIZE = 220
SUITE_SEED = 20240817


def report(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS ({detail})", flush=True)


@pytest.fixture(scope="module")
def suite():
    """Seeded random runs shared by the oracle, trace, cut, and budget checks."""
    rng = random.Random(SUITE_SEED)
    t0 = time.monotonic()
    runs = []
    for _ in range(SUITE_SIZE):
        instance = random_instance(rng)
        want = brute_force_solve(instance)
        got = solve(instance)
        runs.append((instance, want, got))
    return runs, time.monotonic() - t0


# --- 1: function applications, fresh variables, conflict cores --------------


def test_criterion_1_application_example_and_conflict_core():
    t0 = time.monotonic()
    enc = encode_script(
        """
        (set-logic QF_UFLIA)
        (declare-fun f (Int) Int)
        (declare-const x Int) (declare-const y Int)
        (assert (>= x 0)) (assert (<= x 5))
        (assert (>= y 0)) (assert (<= y 5))
        (assert (>= (+ (f (+ x 1)) (f (+ y 2))) 3))
        (check-sat)
        """
    )
    instance = enc.instance
    fresh = sorted(instance.vars - {"x", "y"})
    assert len(fresh) == 4, fresh

    res = solve(instance)
    assert res.status == "optimal" and res.value == ObjValue.finite(0)  # sat
    assert functional_consistency(instance.atoms, res.assignment)

    # the two applications: arguments v1, v2 and results v3, v4
    apps = sorted(instance.atoms, key=lambda a: a.result)
    (a1, a2) = [a.args[0] for a in apps]
    (r1, r2) = [a.result for a in apps]
    session = EufSession(instance.atoms)
    lits = (TheoryLiteral.var_eq(a1, a2), TheoryLiteral.var_diseq(r1, r2))
    for lit in lits:
        session.assert_literal(lit)
    out = session.check()
    assert isinstance(out, TheoryConflict)
    assert set(out.core) <= set(lits)

    took = time.monotonic() - t0
    assert took < 1.0
    report(1, f"4 fresh vars, sat model theory-consistent, core size {len(out.core)}, {took:.2f}s")


# --- 2: oracle equivalence on random instances -------------------------------


def test_criterion_2_oracle_equivalence(suite):
    runs, took = suite
    assert len(runs) >= 200
    for instance, want, got in runs:
        assert got.status == want.status, instance.digest()
        if want.status == "optimal":
            assert got.value == ObjValue.finite(want.value), instance.digest()
    assert took < 300.0
    n_opt = sum(1 for _, w, _ in runs if w.status == "optimal")
    report(2, f"{len(runs)} runs match exactly ({n_opt} optimal), {took:.1f}s")


# --- 3: trace soundness and mutation rejection -------------------------------


def _first_scalable(entries):
    for i, (row, dir_, mult) in enumerate(entries):
        if mult != 0:
            return i
    return None


def _break_step(step: Step) -> Step | None:
    """A mutation of one certificate that can never re-verify."""
    cert = step.cert
    if isinstance(cert, BranchDichotomy):
        return Step(step.rule, step.target, cert=BranchDichotomy("zz_undeclared", cert.k))
    if isinstance(cert, BranchTrichotomy):
        return Step(step.rule, step.target, cert=BranchTrichotomy(cert.x, cert.x, cert.c))
    if isinstance(cert, BranchConflictSplit):
        bad = TheoryLiteral.var_eq("zz_undeclared", "zz_other")
        return Step(step.rule, step.target, cert=BranchConflictSplit(cert.core + (bad,)))
    if isinstance(cert, CGCut):
        i = _first_scalable(cert.entries)
        if i is None:
            return None
        row, dir_, mult = cert.entries[i]
        entries = cert.entries[:i] + ((row, dir_, -mult),) + cert.entries[i + 1 :]
        return Step(step.rule, step.target, row=step.row, cert=CGCut(entries))
    if isinstance(cert, FarkasProof):
        i = _first_scalable(cert.entries)
        if i is None:
            return None
        row, dir_, mult = cert.entries[i]
        entries = cert.entries[:i] + ((row, dir_, -mult),) + cert.entries[i + 1 :]
        return Step(step.rule, step.target, cert=FarkasProof(entries))
    if isinstance(cert, BoundFix):
        i = _first_scalable(cert.lower.entries)
        if i is None:
            return None
        row, dir_, mult = cert.lower.entries[i]
        entries = cert.lower.entries[:i] + ((row, dir_, -mult),) + cert.lower.entries[i + 1 :]
        return Step(step.rule, step.target, row=step.row, cert=BoundFix(CGCut(entries), cert.upper))
    if isinstance(cert, LbDual):
        worse = LbDual(cert.bound + 1, cert.entries)
        return Step(step.rule, step.target, cert=worse)
    if isinstance(cert, TheoryRefutation):
        return Step(step.rule, step.target, cert=TheoryRefutation(cert.asserted, cert.evidence[:-1]))
    if isinstance(cert, RetireEvidence):
        if not cert.assignment:
            return None
        return Step(step.rule, step.target, cert=RetireEvidence(cert.assignment[1:], cert.lb_match))
    if isinstance(cert, UnboundedEvidence):
        return Step(step.rule, step.target, cert=UnboundedEvidence(cert.assignment, ()))
    return None


def test_criterion_3_trace_soundness(suite, tmp_path):
    runs, _ = suite
    for i, (instance, _, res) in enumerate(runs):
        if i < 30:  # file round-trip for a slice, in-memory replay for the rest
            path = tmp_path / f"run{i}.trace"
            write_trace(path, instance, res.steps)
            digest, steps = read_trace(path, instance)
            assert digest == instance.digest()
        else:
            steps = res.steps
        state = replay_trace(instance, steps)
        assert state.final

    # The random suite resolves almost everything with cuts and conflict
    # splits; add runs whose traces carry dichotomies and unbounded rays.
    extra = []
    branchy = ImtInstance(
        vars=frozenset({"x", "y"}),
        bounds=Bounds({"x": (0, 5), "y": (0, 5)}),
        constraints=frozenset(
            {LinConstraint(LinExpr.of([("x", 2), ("y", 2)]), Relation.GE, 7)}
        ),
        atoms=(),
        objective=LinExpr.of([("x", 1), ("y", 1)]),
    )
    extra.append((branchy, None, solve(branchy, Config(max_cut_rounds=0))))
    sinking = ImtInstance(
        vars=frozenset({"x"}),
        bounds=Bounds({"x": (None, 5)}),
        constraints=frozenset(),
        atoms=(),
        objective=LinExpr.var("x"),
    )
    extra.append((sinking, None, solve(sinking)))
    for instance, _, res in extra:
        assert replay_trace(instance, res.steps).final

    rejected = 0
    by_kind: dict[str, int] = {}
    for instance, _, res in runs + extra:
        seen_in_run: set[str] = set()
        for idx, step in enumerate(res.steps):
            kind = type(step.cert).__name__
            if kind in seen_in_run or by_kind.get(kind, 0) >= 16:
                continue  # spread coverage over certificate kinds
            mut = _break_step(step)
            if mut is None:
                continue
            seen_in_run.add(kind)
            doctored = list(res.steps[:idx]) + [mut] + list(res.steps[idx + 1 :])
            with pytest.raises(ReplayError) as info:
                replay_trace(instance, doctored)
            assert info.value.index == idx
            assert isinstance(info.value.__cause__, RuleViolation)
            rejected += 1
            by_kind[kind] = by_kind.get(kind, 0) + 1
    assert rejected >= 50
    assert len(by_kind) >= 6
    report(3, f"all traces accepted; {rejected} mutations rejected across {sorted(by_kind)}")


# --- 4: learned rows preserve the parent's integer points --------------------


def test_criterion_4_cut_validity(suite):
    runs, _ = suite
    cuts_checked = 0
    points_checked = 0
    for instance, _, res in runs:
        learn_steps = [s for s in res.steps if s.rule == "learn"]
        if not learn_steps:
            continue
        root_rows = rows_of(instance, root(instance.constraints))
        box = [p for p in iter_box(instance.bounds, instance.vars) if satisfies_all(root_rows, p)]

        events = []
        kernel = Kernel(instance)
        for step in res.steps:
            info = kernel.apply(step)
            if step.rule == "learn":
                events.append((step.row, info.removed[0]))
        assert len(events) == len(learn_steps)
        for cut, parent in events:
            parent_rows = rows_of(instance, parent)
            for p in box:
                if satisfies_all(parent_rows, p):
                    assert satisfies(cut, p), (instance.digest(), cut.render(), p)
                    points_checked += 1
            cuts_checked += 1
    assert cuts_checked > 0
    gomory = sum(r.stats.cuts for _, _, r in runs)
    assert gomory > 0
    report(4, f"{cuts_checked} learned rows ({gomory} cuts) kept {points_checked} parent points")


# --- 5: indicator variables track their atoms over the whole box -------------


def test_criterion_5_indicator_linking():
    rng = random.Random(41)
    atoms_checked = 0
    for _ in range(110):
        nvars = rng.randint(1, 2)
        names = [f"x{i}" for i in range(nvars)]
        box = {}
        budget = 10_000
        for v in names:
            width = rng.randint(1, min(99, max(1, budget - 1)))
            lo = rng.randint(-50, 50)
            box[v] = (lo, lo + width)
            budget //= width + 1
        coeffs = {v: rng.choice([-3, -2, -1, 1, 2, 3]) for v in names}
        r = rng.randint(-40, 40)

        def lit(n: int) -> str:
            return str(n) if n >= 0 else f"(- {-n})"

        decls = []
        for v in names:
            lo, hi = box[v]
            decls.append(f"(declare-const {v} Int)")
            decls.append(f"(assert (>= {v} {lit(lo)}))")
            decls.append(f"(assert (<= {v} {lit(hi)}))")
        body = " ".join(
            f"(* {c} {v})" if c >= 0 else f"(- (* {-c} {v}))" for v, c in coeffs.items()
        )
        script = "\n".join(decls) + f"\n(declare-const p Bool)\n(assert (= p (<= (+ {body} 0) {lit(r)})))"
        enc = encode_script(script)

        flags = [v for v in enc.instance.vars if v.startswith("$k")]
        assert len(flags) == 1, flags
        k = flags[0]
        link = [
            row
            for row in enc.instance.constraints
            if set(row.lhs.vars()) <= set(names) | {k} and k in row.lhs.vars()
        ]
        assert link

        for point in iter_box(enc.instance.bounds, names):
            truth = sum(coeffs[v] * point[v] for v in names) <= r
            for bit in (0, 1):
                point[k] = bit
                rows_ok = satisfies_all(link, point)
                assert rows_ok == (bool(bit) == truth), (coeffs, box, r, point)
            del point[k]
        atoms_checked += 1
    assert atoms_checked >= 100
    report(5, f"{atoms_checked} atom/box pairs, indicator tracks atom truth at every point")


# --- 6: clause encodings match truth tables ----------------------------------


def _cnf_truth(clauses, nvars) -> bool:
    for bits in itertools.product((False, True), repeat=nvars):
        if all(any(bits[i] == pos for i, pos in cl) for cl in clauses):
            return True
    return False


def test_criterion_6_clause_encoding():
    rng = random.Random(53)
    checked = 0
    sat_n = 0
    for _ in range(110):
        nvars = rng.choice([3, 4, 4, 5, 5, 6, 6, 7, 8, 9, 10, 12])
        if nvars <= 4 and rng.random() < 0.8:
            # heavily overconstrained band, where the unsat formulas live
            nclauses = rng.randint(6 * nvars, 8 * nvars)
        else:
            nclauses = rng.randint(1, int(2.3 * nvars))
        clauses = random_cnf(rng, nvars, nclauses)
        want = _cnf_truth(clauses, nvars)
        enc = encode_script(cnf_script(clauses, nvars))
        res = solve(enc.instance)
        got = res.status == "optimal"
        assert got == want, cnf_script(clauses, nvars)
        checked += 1
        sat_n += want
    assert checked >= 100 and sat_n >= 20 and checked - sat_n >= 8
    report(6, f"{checked} formulas ({sat_n} sat / {checked - sat_n} unsat) all match")


# --- 7: termination discipline ------------------------------------------------


def test_criterion_7_termination_discipline(suite):
    runs, _ = suite
    cap = Config().max_cut_rounds * CUTS_PER_ROUND
    worst_run = 0
    worst_branches = 0
    for instance, _, res in runs:
        branches = sum(1 for s in res.steps if s.rule == "branch")
        worst_branches = max(worst_branches, branches)
        run = 0
        longest = 0
        for s in res.steps:
            run = run + 1 if s.rule in ("learn", "forget") else 0
            longest = max(longest, run)
        worst_run = max(worst_run, longest)
        assert longest <= cap + 24, instance.digest()
        # the kernel's own counters enforce the same limits on replay
        state = replay_trace(
            instance,
            res.steps,
            budgets=Budgets(max_branches=branches, max_consecutive_rewrites=cap + 24),
        )
        assert state.final and state.branches == branches
    report(7, f"all runs terminated; max branches {worst_branches}, max rewrite run {worst_run} <= {cap + 24}")


# --- 8: the banquet model ------------------------------------------------------


def test_criterion_8_banquet_model():
    t0 = time.monotonic()
    instance = banquet_instance()
    want = brute_force_solve(instance)
    got = solve(instance)
    took = time.monotonic() - t0
    assert want.status == got.status == "optimal"
    assert got.value == ObjValue.finite(want.value)
    assert want.value == -4  # four guests seated with the host
    assert functional_consistency(instance.atoms, got.assignment)
    assert took < 60.0
    report(8, f"optimum {got.value.value} matches enumeration over {want.feasible_count} layouts, {took:.1f}s")


# --- 9: exact relaxations ------------------------------------------------------


def test_criterion_9_lp_exactness():
    rng = random.Random(61)
    optimal = 0
    infeasible = 0
    for _ in range(130):
        instance = random_lp_instance(rng)
        sub = root(instance.constraints)
        out = lp_solve(sub, instance.objective, instance.bounds)
        status, value = vertex_optimum(sub, instance.objective, instance.bounds)
        rows = frozenset(assemble_rows(sub, instance.bounds, instance.objective))
        if isinstance(out, LpOptimal):
            assert status == "optimal"
            assert out.value == value  # Fraction equality, no tolerance
            check_lb_dual(LbDual(out.value.__ceil__(), out.dual), rows, instance.objective)
            optimal += 1
        else:
            assert isinstance(out, LpInfeasible)
            assert status == "infeasible"
            check_farkas(out.farkas, rows)
            infeasible += 1
    assert optimal + infeasible >= 100 and optimal >= 60 and infeasible >= 10
    report(9, f"{optimal} optima equal vertex enumeration, {infeasible} Farkas certificates re-verified")
