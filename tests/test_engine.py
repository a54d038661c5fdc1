import random
from dataclasses import fields, is_dataclass, replace

import pytest

from gen import chain_model, cnf_script, ladder_script, random_cnf, random_instance
from imtsolver import engine, lp
from imtsolver.certificates import BoundFix, CGCut, identity_cut
from imtsolver.engine import Config, EngineLimit, UnsupportedShape, arrangement_literals, solve
from imtsolver.kernel import replay_trace, rows_of, verdict
from imtsolver.lp import LpOptimal
from imtsolver.model import (
    Bounds,
    ImtInstance,
    InterfaceAtom,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    satisfies_all,
)
from imtsolver.oracle import brute_force_solve
from imtsolver.smtlib import encode_script


def expr(**coeffs):
    e = LinExpr.zero()
    for v, c in coeffs.items():
        e = e + LinExpr.var(v, c)
    return e


def test_agrees_with_enumeration_on_random_instances():
    rng = random.Random(31)
    statuses = {"optimal": 0, "infeasible": 0}
    for _ in range(80):
        instance = random_instance(rng)
        want = brute_force_solve(instance)
        got = solve(instance)
        assert got.status == want.status, instance.digest()
        statuses[want.status] += 1
        if want.status == "optimal":
            assert got.value == ObjValue.finite(want.value), instance.digest()
            assert got.assignment is not None
            assert got.value == ObjValue.finite(instance.objective.eval(got.assignment))
            assert satisfies_all(instance.constraints, got.assignment)
    assert statuses["optimal"] > 25 and statuses["infeasible"] > 5


def test_every_run_replays_from_its_own_steps():
    rng = random.Random(7)
    for _ in range(25):
        instance = random_instance(rng)
        res = solve(instance)
        state = replay_trace(instance, res.steps)
        assert state.final


def test_replayed_steps_give_the_live_verdict():
    rng = random.Random(11)
    for _ in range(10):
        instance = random_instance(rng)
        res = solve(instance)
        rep = replay_trace(instance, res.steps)
        assert verdict(instance, rep.state) == (res.status, res.value)


def test_the_engine_binds_no_certificate_check():
    # the kernel is the one certificate checker; the engine never re-runs it
    for module in (lp, engine):
        assert [name for name in vars(module) if name.startswith("check_")] == []


def test_unbounded_instance_reports_a_direction():
    instance = ImtInstance(
        frozenset({"x", "y"}),
        Bounds({"y": (0, 3)}),
        frozenset({LinConstraint(expr(x=1, y=1), Relation.LE, 2)}),
        frozenset(),
        expr(x=1),
    )
    res = solve(instance)
    assert res.status == "unbounded"
    assert res.value == ObjValue.neg_inf()
    state = replay_trace(instance, res.steps)
    assert state.final
    assert state.state.incumbent.kind == "unbounded"


def test_unbounded_ray_through_interface_vars_is_refused():
    # the only escape direction moves an atom argument; search must not
    # silently claim unboundedness it cannot certify
    instance = ImtInstance(
        frozenset({"x", "r"}),
        Bounds({}),
        frozenset({LinConstraint(expr(x=1), Relation.LE, 5)}),
        frozenset({InterfaceAtom.fun_def("r", "f", ("x",))}),
        expr(x=1),
        funs={"f": 1},
    )
    with pytest.raises(UnsupportedShape) as info:
        solve(instance)
    assert not isinstance(info.value, EngineLimit)


def test_node_budget_raises_engine_limit():
    rng = random.Random(3)
    tripped = 0
    for _ in range(40):
        instance = random_instance(rng)
        try:
            solve(instance, Config(node_limit=1))
        except EngineLimit:
            tripped += 1
    assert tripped > 0


def test_stats_count_work():
    instance = ImtInstance(
        frozenset({"x", "y"}),
        Bounds({"x": (0, 10), "y": (0, 10)}),
        frozenset(
            {
                LinConstraint(expr(x=2, y=2), Relation.GE, 7),
                LinConstraint(expr(x=3, y=-1), Relation.LE, 5),
            }
        ),
        frozenset(),
        expr(x=1, y=1),
    )
    res = solve(instance)
    assert res.status == "optimal"
    assert res.stats.nodes >= 1
    assert res.stats.lp_solves >= res.stats.nodes
    assert res.stats.pivots > 0
    # the box implies neither row, so both stay in the tableau through the cut rounds
    assert res.stats.lp_rows >= 2 * res.stats.lp_solves
    assert "nodes=" in res.stats.summary()
    assert f"pivots={res.stats.pivots}" in res.stats.summary()
    assert f"lp_rows={res.stats.lp_rows}" in res.stats.summary()
    assert f"propagations={res.stats.propagations}" in res.stats.summary()


def test_cut_rounds_forget_nothing_and_re_solve_warm(monkeypatch):
    # lp_solve's contract for prev: the same objective and box, and the rows
    # of prev's solve plus new rows over its tableau's variables, which keeps
    # the tableau
    rng = random.Random(11)
    instances = [encode_script(cnf_script(random_cnf(rng, 3, n), 3)).instance for n in (16, 18, 20, 22, 24)]
    instances += [random_instance(rng) for _ in range(100)]
    tableaus = []
    init = lp._Simplex.__init__

    def counting(self, *args):
        tableaus.append(self)
        init(self, *args)

    calls, warm = {}, 0
    lp_solve = engine.lp_solve

    def recording(sub, objective, bounds, prev=None):
        nonlocal warm
        if prev is not None:
            prev_sub, prev_objective, prev_bounds = calls[id(prev)]
            assert prev_sub.cons <= sub.cons
            assert objective == prev_objective and bounds is prev_bounds
            for row in sub.cons - prev_sub.cons:
                assert row.lhs.terms and all(v in prev.state.col for v in row.lhs.vars())
        made = len(tableaus)
        out = lp_solve(sub, objective, bounds, prev)
        calls[id(out)] = (sub, objective, bounds)
        if prev is not None:
            assert len(tableaus) == made
            assert not isinstance(out, LpOptimal) or out.state is prev.state
            warm += 1
        return out

    monkeypatch.setattr(lp._Simplex, "__init__", counting)
    monkeypatch.setattr(engine, "lp_solve", recording)
    for instance in instances:
        assert not any(step.rule == "forget" for step in solve(instance).steps)
    assert warm >= 10


def test_single_variable_fixes_change_no_other_step(monkeypatch):
    # a pinned variable's two unit rows are rows already, so fixes that restate
    # them as v = c change no verdict, count or other step; a restated fix that
    # a step cites cites its two bounds, so it also learns those it derived
    rng = random.Random(13)
    instances = [encode_script(cnf_script(random_cnf(rng, 3, n), 3)).instance for n in (16, 18, 20, 22, 24)]
    instances += [random_instance(rng) for _ in range(100)]
    plain = [solve(instance) for instance in instances]
    propagate_bounds = engine.propagate_bounds
    offered = 0

    def with_old_fixes(instance):
        def propagate(sub, bounds):
            nonlocal offered
            res = propagate_bounds(sub, bounds)
            if res.infeasible:
                return res
            rows = rows_of(instance, sub).union(cut for cut, _ in res.derived)
            lo, hi = {}, {}
            for r in rows:
                if len(r.lhs.terms) == 1 and r.lhs.terms[0][1] == 1:
                    v = r.lhs.terms[0][0]
                    if r.rel is Relation.GE and (v not in lo or r.rhs > lo[v].rhs):
                        lo[v] = r
                    elif r.rel is Relation.LE and (v not in hi or r.rhs < hi[v].rhs):
                        hi[v] = r
            fixes = []
            for v in sorted({v for r in sub.cons for v in r.lhs.vars()}):
                if v in lo and v in hi and lo[v].rhs == hi[v].rhs:
                    eq = LinConstraint(LinExpr.var(v), Relation.EQ, lo[v].rhs)
                    if eq not in sub.cons:
                        fixes.append((eq, BoundFix(identity_cut(lo[v], "ge"), identity_cut(hi[v], "le"))))
            res.fixes[:0] = fixes
            offered += len(fixes)
            return res

        return propagate

    def single(s):
        return s.rule == "learn" and len(s.row.lhs.terms) == 1

    def restates(s):
        return single(s) and s.row.rel is Relation.EQ

    def key(steps):
        return [(s.rule, s.row) for s in steps if not single(s)]

    for instance, res in zip(instances, plain):
        assert not any(map(restates, res.steps))
        monkeypatch.setattr(engine, "propagate_bounds", with_old_fixes(instance))
        before = offered
        old = solve(instance)
        assert (old.status, old.value, old.assignment) == (res.status, res.value, res.assignment)
        # the propagations count is the fixes offered, learned or not
        assert old.stats.propagations - res.stats.propagations == offered - before
        assert replace(old.stats, propagations=0) == replace(res.stats, propagations=0)
        assert key(old.steps) == key(res.steps)
    assert offered >= 100


def cited_rows(cert):
    if isinstance(cert, LinConstraint):
        yield cert
    elif isinstance(cert, tuple):
        for item in cert:
            yield from cited_rows(item)
    elif is_dataclass(cert):
        for f in fields(cert):
            yield from cited_rows(getattr(cert, f.name))


def cut_instances():
    """Five 3-variable CNF formulas, 100 random instances and two CNF formulas that branch after cut rounds."""
    rng = random.Random(13)
    instances = [encode_script(cnf_script(random_cnf(rng, 3, n), 3)).instance for n in (16, 18, 20, 22, 24)]
    instances += [random_instance(rng) for _ in range(100)]
    return instances + [encode_script(ladder_script(nvars, draw)).instance for nvars, draw in ((14, 5), (10, 4))]


def test_every_derived_bound_learned_is_cited_by_a_later_step():
    # propagated bounds and Gomory cuts alike are learned only for a certificate that cites them
    learned = cuts = 0
    for instance in cut_instances():
        steps = solve(instance).steps
        for i, s in enumerate(steps):
            if s.rule != "learn" or not isinstance(s.cert, CGCut):
                continue
            assert any(s.row in cited_rows(later.cert) for later in steps[i + 1 :]), s.row.render()
            learned += 1
            cuts += len(s.row.lhs.terms) > 1
    assert learned >= 100 and cuts >= 20


def test_lazy_learning_leaves_the_search_as_it_was():
    # the totals of the search that learned every cut as it derived it
    totals = dict.fromkeys(("nodes", "lp_solves", "pivots", "lp_rows", "cuts", "branches"), 0)
    for instance in cut_instances() + [chain_model(3)]:
        stats = solve(instance).stats
        for name in totals:
            totals[name] += getattr(stats, name)
    assert totals == {"nodes": 505, "lp_solves": 318, "pivots": 1011, "lp_rows": 3515, "cuts": 122, "branches": 83}


@pytest.mark.parametrize("limit", [1, 2, 3])
def test_a_budget_stop_with_inherited_rows_pending_replays(limit):
    instance = encode_script(ladder_script(16, 1)).instance
    search = engine._Search(instance, Config(node_limit=limit))
    with pytest.raises(EngineLimit) as info:
        search.run()
    # the pending nodes still hold cuts no step has learned
    assert any(search.inherited.values())
    replay = replay_trace(instance, info.value.steps)
    assert not replay.final
    assert {s.ident for s in replay.state.pending} == set(search.inherited)


def test_chain_model_learns_a_fifth_of_the_bounds_it_derives():
    # eager learning took 7,687 learn steps over the same 338 nodes
    res = solve(chain_model(3))
    assert (res.status, res.value, res.stats.nodes) == ("optimal", ObjValue.finite(3), 338)
    assert 5 * sum(s.rule == "learn" for s in res.steps) <= 7687
    assert replay_trace(res.instance, res.steps).final


def test_feasibility_mode_zero_objective():
    instance = ImtInstance(
        frozenset({"x"}),
        Bounds({"x": (0, 4)}),
        frozenset({LinConstraint(expr(x=2), Relation.GE, 3)}),
        frozenset(),
        LinExpr.zero(),
    )
    res = solve(instance)
    assert res.status == "optimal"
    assert res.value == ObjValue.finite(0)
    assert res.assignment["x"] >= 2


def test_theory_conflicts_drive_search_to_the_right_verdict():
    # f is a function, so x = y forces f(x) = f(y); demanding r1 != r2
    # leaves exactly the x != y points
    atoms = frozenset(
        {
            InterfaceAtom.fun_def("r1", "f", ("x",)),
            InterfaceAtom.fun_def("r2", "f", ("y",)),
        }
    )
    instance = ImtInstance(
        frozenset({"x", "y", "r1", "r2"}),
        Bounds({"x": (0, 1), "y": (0, 1), "r1": (0, 1), "r2": (0, 1)}),
        frozenset({LinConstraint(expr(r1=1, r2=-1), Relation.GE, 1)}),
        atoms,
        expr(x=1, y=1),
        funs={"f": 1},
    )
    want = brute_force_solve(instance)
    got = solve(instance)
    assert got.status == want.status == "optimal"
    assert got.value == ObjValue.finite(want.value)
    assert got.assignment["x"] != got.assignment["y"]


def test_conflicts_over_unbounded_results_close_finitely():
    # with r1, r2 unbounded, a conflict core that pinned their concrete
    # offset would only slide them one unit per split; the offset-free
    # disequality core closes the x = y region in a handful of nodes
    atoms = frozenset(
        {
            InterfaceAtom.fun_def("r1", "f", ("x",)),
            InterfaceAtom.fun_def("r2", "f", ("y",)),
        }
    )
    instance = ImtInstance(
        frozenset({"x", "y", "r1", "r2"}),
        Bounds({"x": (0, 3), "y": (0, 3)}),
        frozenset({LinConstraint(expr(r1=1, r2=-1), Relation.GE, 1)}),
        atoms,
        expr(x=1, y=1),
        funs={"f": 1},
    )
    got = solve(instance, Config(node_limit=500))
    assert got.status == "optimal"
    assert got.value == ObjValue.finite(1)
    assert got.assignment["x"] != got.assignment["y"]
    assert replay_trace(instance, got.steps).final


def test_arrangement_literals_cover_every_atom():
    atoms = (
        InterfaceAtom.fun_def("r", "f", ("x",), annotation="v"),
        InterfaceAtom.eq_atom("x", "y"),
    )
    lits = arrangement_literals(atoms, {"x": 1, "y": 1, "r": 0, "v": 0})
    kinds = {l.kind for l in lits}
    assert kinds <= {"eq", "diseq", "atom_true", "atom_false"}
    assert any(l.kind == "atom_false" for l in lits)  # v = 0 deactivates


def test_deterministic_across_runs():
    rng = random.Random(99)
    for _ in range(10):
        instance = random_instance(rng)
        a = solve(instance)
        b = solve(instance)
        assert a.status == b.status
        assert a.value == b.value
        assert a.assignment == b.assignment
        assert len(a.steps) == len(b.steps)
