import random
from fractions import Fraction

import pytest

from imtsolver.certificates import (
    BoundFix,
    BranchConflictSplit,
    BranchDichotomy,
    BranchTrichotomy,
    CGCut,
    FarkasProof,
    LbDual,
    RetireEvidence,
    SideCut,
    TheoryLiteral,
    TheoryRefutation,
    UnboundedEvidence,
    identity_cut,
)
from imtsolver.kernel import (
    BudgetExceeded,
    Budgets,
    Kernel,
    RuleViolation,
    Step,
    conflict_split_arms,
    initial_state,
    rows_of,
    verdict,
)
from imtsolver.engine import solve
from imtsolver.model import (
    Bounds,
    ImtError,
    ImtInstance,
    InterfaceAtom,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    Subproblem,
    diff_equality,
    satisfies_all,
)

from gen import iter_box, random_instance, root


def row(terms, rel, rhs):
    return LinConstraint(LinExpr.of(terms), rel, rhs)


def plain_instance():
    return ImtInstance(
        ["x", "y"],
        Bounds({"x": (0, 5), "y": (0, 5)}),
        [row([("x", 1), ("y", 1)], Relation.GE, 3)],
        objective=LinExpr.var("x"),
    )


def theory_instance():
    return ImtInstance(
        ["x", "y", "r1", "r2"],
        Bounds({v: (0, 3) for v in ("x", "y", "r1", "r2")}),
        [],
        [
            InterfaceAtom.fun_def("r1", "f", ["x"]),
            InterfaceAtom.fun_def("r2", "f", ["y"]),
        ],
        LinExpr.var("r1"),
        {"f": 1},
    )


def test_initial_state_has_one_root():
    inst = plain_instance()
    state = initial_state(inst)
    (sub,) = state.pending
    assert sub.ident == 0
    assert sub.cons is inst.constraints  # the instance's rows, normalized once
    assert state.incumbent.is_none


def test_rows_of_includes_instance_bound_rows():
    inst = plain_instance()
    (sub,) = initial_state(inst).pending
    have = rows_of(inst, sub)
    assert inst.bounds.row_lo("x") in have
    assert inst.bounds.row_hi("y") in have


def test_branch_dichotomy():
    k = Kernel(plain_instance())
    info = k.apply(Step("branch", target=0, cert=BranchDichotomy("x", 2)))
    assert {s.ident for s in info.created} == {1, 2}
    added = {frozenset(s.cons - next(iter(info.removed)).cons) for s in info.created}
    assert added == {
        frozenset({row([("x", 1)], Relation.LE, 2)}),
        frozenset({row([("x", 1)], Relation.GE, 3)}),
    }
    assert k.state.next_ident == 3


def test_branch_rejects_undeclared_variable():
    k = Kernel(plain_instance())
    with pytest.raises(RuleViolation):
        k.apply(Step("branch", target=0, cert=BranchDichotomy("q", 2)))


def test_branch_needs_pending_target():
    k = Kernel(plain_instance())
    with pytest.raises(RuleViolation):
        k.apply(Step("branch", target=7, cert=BranchDichotomy("x", 2)))


def test_branch_trichotomy_builds_three_children():
    k = Kernel(plain_instance())
    info = k.apply(Step("branch", target=0, cert=BranchTrichotomy("x", "y", 1)))
    assert len(info.created) == 3
    parent = info.removed[0].cons
    assert [s.cons - parent for s in info.created] == [
        {row([("x", 1), ("y", -1)], Relation.LE, 0)},
        {diff_equality("x", "y", 1)},
        {row([("x", 1), ("y", -1)], Relation.GE, 2)},
    ]
    with pytest.raises(RuleViolation):
        k.apply(Step("branch", target=1, cert=BranchTrichotomy("x", "x", 0)))


def literal_holds(lit, point):
    if lit.kind in ("eq", "diseq"):
        return (point[lit.x] == point[lit.y]) == (lit.kind == "eq")
    return (point[lit.var] > 0) == (lit.kind == "atom_true")


def test_conflict_split_arms_cover_each_point_some_literal_fails_once():
    rng = random.Random(99)
    lits = [
        TheoryLiteral.var_eq("x", "y"),
        TheoryLiteral.var_diseq("y", "z"),
        TheoryLiteral.atom_true("a"),
        TheoryLiteral.atom_false("b"),
    ]
    box = Bounds({"x": (-2, 2), "y": (-2, 2), "z": (-2, 2), "a": (0, 1), "b": (0, 1)})
    names = ["x", "y", "z", "a", "b"]
    for _ in range(24):
        core = tuple(rng.sample(lits, rng.randint(1, 3)))
        arms = conflict_split_arms(core)
        for point in iter_box(box, names):
            inside = sum(satisfies_all(rows, point) for rows in arms)
            # the points where every literal holds are the region the core refutes
            assert inside == (0 if all(literal_holds(lit, point) for lit in core) else 1)


def test_branch_conflict_split_children_and_rejections():
    inst = theory_instance()
    k = Kernel(inst)
    core = (TheoryLiteral.var_eq("x", "y"), TheoryLiteral.var_diseq("r1", "r2"))
    info = k.apply(Step("branch", target=0, cert=BranchConflictSplit(core)))
    assert len(info.created) == len(conflict_split_arms(core))
    with pytest.raises(RuleViolation):
        k.apply(Step("branch", target=1, cert=BranchConflictSplit(())))
    with pytest.raises(RuleViolation):
        k.apply(
            Step("branch", target=1, cert=BranchConflictSplit((TheoryLiteral.var_eq("x", "x"),)))
        )
    with pytest.raises(RuleViolation):
        # atom literal must name an annotation variable
        k.apply(
            Step("branch", target=1, cert=BranchConflictSplit((TheoryLiteral.atom_true("x"),)))
        )


def test_learn_adds_certified_cut():
    inst = plain_instance()
    k = Kernel(inst)
    base = row([("x", 1), ("y", 1)], Relation.GE, 3)
    cut = row([("x", 1), ("y", 1)], Relation.GE, 2)  # weaker, still valid
    info = k.apply(Step("learn", target=0, row=cut, cert=identity_cut(base, "ge")))
    (child,) = info.created
    assert cut in child.cons and child.ident == 1


def test_learn_rejections():
    inst = plain_instance()
    base = row([("x", 1), ("y", 1)], Relation.GE, 3)
    cases = [
        Step("learn", target=0, row=base, cert=identity_cut(base, "ge")),  # already present
        Step("learn", target=0, row=row([("q", 1)], Relation.GE, 0), cert=identity_cut(base, "ge")),
        Step("learn", target=0, row=row([("x", 1), ("y", 1)], Relation.GE, 4), cert=identity_cut(base, "ge")),
        Step("learn", target=0, row=row([("x", 1), ("y", 1)], Relation.GE, 2), cert=FarkasProof(())),
        Step("learn", target=0, cert=identity_cut(base, "ge")),  # no row
    ]
    for step in cases:
        with pytest.raises(RuleViolation):
            Kernel(inst).apply(step)


def test_learn_rejects_tampered_multiplier():
    inst = plain_instance()
    base = row([("x", 1), ("y", 1)], Relation.GE, 3)
    bad = CGCut(((base, "ge", Fraction(-1)),))
    with pytest.raises(RuleViolation):
        Kernel(inst).apply(Step("learn", target=0, row=row([("x", 1), ("y", 1)], Relation.GE, 2), cert=bad))


def test_forget_requires_rederivability():
    inst = ImtInstance(
        ["x"],
        Bounds({"x": (0, 9)}),
        [row([("x", 1)], Relation.GE, 2)],
        objective=LinExpr.var("x"),
    )
    k = Kernel(inst)
    strong = row([("x", 1)], Relation.GE, 2)
    weak = row([("x", 1)], Relation.GE, 1)
    k.apply(Step("learn", target=0, row=weak, cert=identity_cut(strong, "ge")))
    # weak is rederivable from strong, so it may be forgotten
    info = k.apply(Step("forget", target=1, row=weak, cert=identity_cut(strong, "ge")))
    (child,) = info.created
    assert weak not in child.cons
    # strong is not rederivable from what remains
    with pytest.raises(RuleViolation):
        k.apply(Step("forget", target=child.ident, row=strong, cert=identity_cut(weak, "ge")))
    with pytest.raises(RuleViolation):
        k.apply(Step("forget", target=child.ident, row=weak, cert=identity_cut(strong, "ge")))


def pinned_x_instance():
    """x is pinned at 2 by two rows, neither of which is the equality x = 2."""
    return ImtInstance(
        ["x"],
        Bounds({"x": (0, 9)}),
        [row([("x", 1)], Relation.GE, 2), row([("x", 1)], Relation.LE, 2)],
        objective=LinExpr.var("x"),
    )


def pinned_x_fix():
    lo, hi = row([("x", 1)], Relation.GE, 2), row([("x", 1)], Relation.LE, 2)
    return BoundFix(identity_cut(lo, "ge"), identity_cut(hi, "le"))


def test_learn_records_an_equality_from_a_bound_fix():
    inst = pinned_x_instance()
    k = Kernel(inst)
    fix = pinned_x_fix()
    eq = row([("x", 1)], Relation.EQ, 2)
    info = k.apply(Step("learn", target=0, row=eq, cert=fix))
    (child,) = info.created
    assert child.cons == inst.constraints | {eq}
    with pytest.raises(RuleViolation, match="learned row already present"):
        k.apply(Step("learn", target=child.ident, row=eq, cert=fix))  # already there
    with pytest.raises(RuleViolation, match="does not reach"):
        Kernel(inst).apply(Step("learn", target=0, row=row([("x", 1)], Relation.EQ, 3), cert=fix))
    with pytest.raises(RuleViolation, match="undeclared variable q"):
        Kernel(inst).apply(Step("learn", target=0, row=row([("q", 1)], Relation.EQ, 2), cert=fix))


def test_learn_matches_the_certificate_to_the_relation():
    inst = pinned_x_instance()
    lo = row([("x", 1)], Relation.GE, 2)
    eq = row([("x", 1)], Relation.EQ, 2)
    with pytest.raises(RuleViolation, match="cut target must be an inequality"):
        Kernel(inst).apply(Step("learn", target=0, row=eq, cert=identity_cut(lo, "ge")))
    with pytest.raises(RuleViolation, match="bound fix target must be an equality"):
        Kernel(inst).apply(Step("learn", target=0, row=row([("x", 1)], Relation.GE, 1), cert=pinned_x_fix()))


def test_forget_accepts_an_equality_with_a_bound_fix():
    inst = pinned_x_instance()
    k = Kernel(inst)
    fix = pinned_x_fix()
    eq = row([("x", 1)], Relation.EQ, 2)
    k.apply(Step("learn", target=0, row=eq, cert=fix))
    info = k.apply(Step("forget", target=1, row=eq, cert=fix))
    (child,) = info.created
    assert child.cons == inst.constraints


def test_learn_rejects_an_equality_a_split_arm_already_added():
    # x = y and r1 != r2 conflict under r1 = f(x), r2 = f(y); the arm where the
    # disequality fails holds the row r1 - r2 = 0, so learning it there adds nothing
    k = Kernel(theory_instance())
    core = (TheoryLiteral.var_eq("x", "y"), TheoryLiteral.var_diseq("r1", "r2"))
    info = k.apply(Step("branch", target=0, cert=BranchConflictSplit(core)))
    eq = diff_equality("r1", "r2", 0)
    (arm,) = [s for s in info.created if eq in s.cons]
    fix = BoundFix(identity_cut(eq, "ge"), identity_cut(eq, "le"))
    with pytest.raises(RuleViolation, match="learned row already present"):
        k.apply(Step("learn", target=arm.ident, row=eq, cert=fix))


def test_a_split_whose_core_the_theory_accepts_is_refused():
    inst = theory_instance()
    k = Kernel(inst)
    # x = y alone extends to a model, so nothing rules out the points where it holds
    with pytest.raises(RuleViolation, match="theory replay does not confirm the conflict"):
        k.apply(Step("branch", target=0, cert=BranchConflictSplit((TheoryLiteral.var_eq("x", "y"),))))
    assert k.state == initial_state(inst) and k.log == []


def test_a_split_core_with_two_disequalities_is_refused():
    inst = theory_instance()
    k = Kernel(inst)
    # still a conflict, but each disequality would double the children below it
    core = (
        TheoryLiteral.var_eq("x", "y"),
        TheoryLiteral.var_diseq("r1", "r2"),
        TheoryLiteral.var_diseq("x", "r1"),
    )
    with pytest.raises(RuleViolation, match="at most one disequality"):
        k.apply(Step("branch", target=0, cert=BranchConflictSplit(core)))
    assert k.state == initial_state(inst) and k.log == []


def conflict_fixture():
    """Theory instance whose root rows force x = y and r1 != r2."""
    inst = ImtInstance(
        ["x", "y", "r1", "r2"],
        Bounds({v: (0, 3) for v in ("x", "y", "r1", "r2")}),
        [
            row([("x", 1), ("y", -1)], Relation.GE, 0),
            row([("x", 1), ("y", -1)], Relation.LE, 0),
            row([("r1", 1), ("r2", -1)], Relation.GE, 1),
        ],
        [
            InterfaceAtom.fun_def("r1", "f", ["x"]),
            InterfaceAtom.fun_def("r2", "f", ["y"]),
        ],
        LinExpr.var("r1"),
        {"f": 1},
    )
    lits = (TheoryLiteral.var_eq("x", "y"), TheoryLiteral.var_diseq("r1", "r2"))
    eq_fix = BoundFix(
        identity_cut(row([("x", 1), ("y", -1)], Relation.GE, 0), "ge"),
        identity_cut(row([("x", 1), ("y", -1)], Relation.LE, 0), "le"),
    )
    side = SideCut("ge", identity_cut(row([("r1", 1), ("r2", -1)], Relation.GE, 1), "ge"))
    return inst, TheoryRefutation(lits, (eq_fix, side))


def test_theory_drop_accepts_a_replayed_conflict():
    inst, refutation = conflict_fixture()
    k = Kernel(inst)
    info = k.apply(Step("drop", target=0, cert=refutation))
    assert info.created == () and [s.ident for s in info.removed] == [0]
    assert k.final
    assert verdict(inst, k.state) == ("infeasible", ObjValue.pos_inf())


def test_theory_drop_rejections():
    inst, good = conflict_fixture()
    lits, ev = good.asserted, good.evidence
    cases = [
        (TheoryRefutation((), ()), "nonempty literal set"),
        (TheoryRefutation(lits, ev[:1]), "one evidence item per asserted literal"),
        (TheoryRefutation(lits, ev + ev[:1]), "one evidence item per asserted literal"),
        # the rows entail x - y <= 0, not x - y <= -1
        (
            TheoryRefutation(
                (lits[0], TheoryLiteral.var_diseq("x", "y")),
                (ev[0], SideCut("le", identity_cut(row([("x", 1), ("y", -1)], Relation.LE, 0), "le"))),
            ),
            "does not reach",
        ),
        (TheoryRefutation(lits, ev[::-1]), "equality literal needs a BoundFix"),
        # x = y alone is consistent, so the theory replay must refuse it
        (TheoryRefutation(lits[:1], ev[:1]), "theory replay does not confirm the conflict"),
    ]
    for cert, message in cases:
        k = Kernel(inst)
        with pytest.raises(RuleViolation, match=message):
            k.apply(Step("drop", target=0, cert=cert))
        assert k.state == initial_state(inst) and k.log == []


def test_theory_drop_validates_its_literals():
    inst, good = conflict_fixture()
    cases = [
        (TheoryLiteral.var_eq("x", "zz"), "literal mentions undeclared variable zz"),
        (TheoryLiteral.var_diseq("x", "x"), "literal relates a variable to itself"),
        (TheoryLiteral.atom_true("x"), "x is not an annotation variable"),
    ]
    for lit, message in cases:
        cert = TheoryRefutation(good.asserted + (lit,), good.evidence + good.evidence[:1])
        with pytest.raises(RuleViolation, match=message):
            Kernel(inst).apply(Step("drop", target=0, cert=cert))


def test_drop_refuses_other_certificates():
    inst, refutation = conflict_fixture()
    for cert in (None, refutation.evidence[0], BranchConflictSplit(refutation.asserted)):
        with pytest.raises(RuleViolation, match="drop needs a Farkas or theory refutation certificate"):
            Kernel(inst).apply(Step("drop", target=0, cert=cert))


def test_drop_discharges_by_farkas():
    inst = ImtInstance(
        ["x"],
        Bounds({"x": (0, 9)}),
        [row([("x", 1)], Relation.GE, 3), row([("x", 1)], Relation.LE, 2)],
        objective=LinExpr.var("x"),
    )
    k = Kernel(inst)
    proof = FarkasProof(
        (
            (row([("x", 1)], Relation.GE, 3), "ge", Fraction(1)),
            (row([("x", 1)], Relation.LE, 2), "le", Fraction(1)),
        )
    )
    k.apply(Step("drop", target=0, cert=proof))
    assert k.final
    assert verdict(inst, k.state) == ("infeasible", ObjValue.pos_inf())


def test_retire_then_prune():
    inst = plain_instance()
    k = Kernel(inst)
    k.apply(Step("branch", target=0, cert=BranchDichotomy("x", 2)))
    # left child (x <= 2): x = 0, y = 3 achieves the objective floor
    point = {"x": 0, "y": 3}
    lo_x = inst.bounds.row_lo("x")
    lb = LbDual(0, ((lo_x, "ge", Fraction(1)),))
    ev = RetireEvidence(tuple(sorted(point.items())), lb)
    k.apply(Step("retire", target=1, cert=ev))
    assert k.state.incumbent.assignment() == point
    # right child (x >= 3) has lower bound 3 >= incumbent 0
    branch_row = row([("x", 1)], Relation.GE, 3)
    prune_cert = LbDual(3, ((branch_row, "ge", Fraction(1)),))
    k.apply(Step("prune", target=2, cert=prune_cert))
    assert k.final
    assert verdict(inst, k.state) == ("optimal", ObjValue.finite(0))


def test_prune_requires_incumbent_and_domination():
    inst = plain_instance()
    k = Kernel(inst)
    lo_x = inst.bounds.row_lo("x")
    cert = LbDual(0, ((lo_x, "ge", Fraction(1)),))
    with pytest.raises(RuleViolation):
        k.apply(Step("prune", target=0, cert=cert))


def test_retire_rejections():
    inst = plain_instance()
    lo_x = inst.bounds.row_lo("x")
    lb0 = LbDual(0, ((lo_x, "ge", Fraction(1)),))
    good = {"x": 0, "y": 3}
    cases = [
        RetireEvidence((("x", 0),), lb0),  # missing y
        RetireEvidence((("x", 0), ("y", 1)), lb0),  # violates x+y>=3
        RetireEvidence(tuple(sorted({"x": 1, "y": 3}.items())), lb0),  # lb 0 != value 1
    ]
    for ev in cases:
        with pytest.raises(RuleViolation):
            Kernel(inst).apply(Step("retire", target=0, cert=ev))


def test_retire_respects_theory_replay():
    inst = theory_instance()
    lo = inst.bounds.row_lo("r1")
    lb = LbDual(0, ((lo, "ge", Fraction(1)),))
    # x = y but r1 != r2 contradicts congruence
    bad = {"x": 1, "y": 1, "r1": 0, "r2": 2}
    ev = RetireEvidence(tuple(sorted(bad.items())), lb)
    with pytest.raises(RuleViolation):
        Kernel(inst).apply(Step("retire", target=0, cert=ev))


def unbounded_instance():
    return ImtInstance(
        ["x", "y"],
        Bounds({"y": (0, 5)}),
        [row([("x", 1)], Relation.LE, 5)],
        objective=LinExpr.var("x"),
    )


def test_unbounded_accepts_a_valid_ray():
    inst = unbounded_instance()
    k = Kernel(inst)
    ev = UnboundedEvidence((("x", 0), ("y", 0)), (("x", -1),))
    k.apply(Step("unbounded", target=0, cert=ev))
    assert verdict(inst, k.state) == ("unbounded", ObjValue.neg_inf())


def test_unbounded_rejections():
    inst = unbounded_instance()
    cases = [
        UnboundedEvidence((("x", 0), ("y", 0)), ()),  # zero ray
        UnboundedEvidence((("x", 0), ("y", 0)), (("x", 1),)),  # wrong drift
        UnboundedEvidence((("x", 0), ("y", 0)), (("y", -1),)),  # leaves y >= 0
        UnboundedEvidence((("x", 9), ("y", 0)), (("x", -1),)),  # infeasible start
    ]
    for ev in cases:
        with pytest.raises(RuleViolation):
            Kernel(inst).apply(Step("unbounded", target=0, cert=ev))


def test_unbounded_rejects_rays_through_theory_variables():
    inst = ImtInstance(
        ["x", "y", "r1", "r2"],
        Bounds({v: (0, 3) for v in ("y", "r1", "r2")}),
        [],
        [
            InterfaceAtom.fun_def("r1", "f", ["x"]),
            InterfaceAtom.fun_def("r2", "f", ["y"]),
        ],
        LinExpr.var("x"),
        {"f": 1},
    )
    ev = UnboundedEvidence((("x", 0), ("y", 0), ("r1", 0), ("r2", 0)), (("x", -1),))
    with pytest.raises(RuleViolation):
        Kernel(inst).apply(Step("unbounded", target=0, cert=ev))


def test_budgets_enforced():
    inst = plain_instance()
    k = Kernel(inst, budgets=Budgets(max_branches=1))
    k.apply(Step("branch", target=0, cert=BranchDichotomy("x", 2)))
    with pytest.raises(BudgetExceeded):
        k.apply(Step("branch", target=1, cert=BranchDichotomy("y", 2)))

    base = row([("x", 1), ("y", 1)], Relation.GE, 3)
    k2 = Kernel(inst, budgets=Budgets(max_consecutive_rewrites=2))
    k2.apply(Step("learn", target=0, row=row([("x", 1), ("y", 1)], Relation.GE, 2), cert=identity_cut(base, "ge")))
    k2.apply(Step("learn", target=1, row=row([("x", 1), ("y", 1)], Relation.GE, 1), cert=identity_cut(base, "ge")))
    with pytest.raises(BudgetExceeded):
        k2.apply(Step("learn", target=2, row=row([("x", 1), ("y", 1)], Relation.GE, 0), cert=identity_cut(base, "ge")))
    # a branch resets the rewrite run
    k2.apply(Step("branch", target=2, cert=BranchDichotomy("x", 2)))
    k2.apply(Step("learn", target=3, row=row([("x", 1), ("y", 1)], Relation.GE, 0), cert=identity_cut(base, "ge")))


def test_verdict_requires_final_state():
    inst = plain_instance()
    k = Kernel(inst)
    with pytest.raises(ImtError):
        verdict(inst, k.state)


def test_idents_are_fresh_across_steps():
    k = Kernel(plain_instance())
    seen = {0}
    base = row([("x", 1), ("y", 1)], Relation.GE, 3)
    info = k.apply(Step("branch", target=0, cert=BranchDichotomy("x", 2)))
    for s in info.created:
        assert s.ident not in seen
        seen.add(s.ident)
    info = k.apply(Step("learn", target=1, row=row([("x", 1), ("y", 1)], Relation.GE, 2), cert=identity_cut(base, "ge")))
    for s in info.created:
        assert s.ident not in seen
        seen.add(s.ident)


def _rows_of_by_sets(instance, sub):
    """The row set built the plain way: C, then every box row."""
    rows = set(sub.cons)
    rows.update(instance.bounds.rows(instance.vars))
    return frozenset(rows)


def test_rows_of_matches_plain_set_construction():
    rng = random.Random(7)
    for _ in range(200):
        inst = random_instance(rng)
        names = sorted(inst.vars)
        cons = [c for c in inst.constraints if rng.random() < 0.7]
        for _ in range(rng.randint(0, 3)):
            v = rng.choice(names)
            cons.append(row([(v, 1)], rng.choice([Relation.LE, Relation.GE]), rng.randint(-5, 5)))
        for _ in range(rng.randint(0, 3)):
            if len(names) > 1 and rng.random() < 0.5:
                x, y = rng.sample(names, 2)
                cons.append(diff_equality(x, y, rng.randint(-3, 3)))
            else:
                cons.append(row([(rng.choice(names), 1)], Relation.EQ, rng.randint(-5, 5)))
        sub = Subproblem(rng.randint(0, 9), frozenset(cons))
        assert rows_of(inst, sub) == _rows_of_by_sets(inst, sub)
        assert rows_of(inst, sub) == _rows_of_by_sets(inst, sub)  # again, from the cached box rows


def test_box_rows_do_not_carry_over_between_instances():
    cons = [row([("x", 1), ("y", 1)], Relation.GE, 1)]
    wide = ImtInstance(["x", "y"], Bounds({"x": (0, 5), "y": (0, 5)}), cons)
    narrow = ImtInstance(["x", "y"], Bounds({"x": (0, 3), "y": (0, 5)}), cons)
    narrow_hi = narrow.bounds.row_hi("x")  # x <= 3
    cut = row([("x", 1), ("y", 1)], Relation.LE, 8)
    # on the narrow instance, x <= 3 and y <= 5 certify x + y <= 8; its box rows are built first
    cert = CGCut(((narrow_hi, "le", Fraction(1)), (narrow.bounds.row_hi("y"), "le", Fraction(1))))
    k = Kernel(narrow)
    k.apply(Step("learn", target=0, row=cut, cert=cert))
    # the wide instance, with the same variables, has no row x <= 3
    assert narrow_hi in rows_of(narrow, root(cons))
    assert narrow_hi not in rows_of(wide, root(cons))
    with pytest.raises(RuleViolation, match="outside the subproblem: x <= 3"):
        Kernel(wide).apply(Step("learn", target=0, row=cut, cert=cert))


def _assert_one_transition(prev, new, step, info):
    """The shared tail: fresh consecutive idents, removed out, created in, incumbent kept."""
    assert [s.ident for s in info.created] == list(range(prev.next_ident, prev.next_ident + len(info.created)))
    assert new.next_ident == prev.next_ident + len(info.created)
    if step.rule == "unbounded":
        assert info.removed == tuple(sorted(prev.pending, key=lambda s: s.ident))
    else:
        assert [s.ident for s in info.removed] == [step.target]
    assert new.pending == (prev.pending - set(info.removed)) | set(info.created)
    assert (new.incumbent != prev.incumbent) == (step.rule in ("retire", "unbounded"))


def _replay_checking_transitions(inst, steps):
    kernel = Kernel(inst)
    for step in steps:
        prev = kernel.state
        info = kernel.apply(step)
        _assert_one_transition(prev, kernel.state, step, info)
    assert kernel.log == list(steps)
    assert kernel.branches == sum(step.rule == "branch" for step in steps)
    return kernel


def pinned_difference_instance():
    """x - y >= 1 and x - y <= 1 pin x - y = 1, which no row states; b marks x = y."""
    return ImtInstance(
        ["x", "y", "b"],
        Bounds({"x": (0, 5), "y": (0, 5), "b": (0, 1)}),
        [row([("x", 1), ("y", -1)], Relation.GE, 1), row([("x", 1), ("y", -1)], Relation.LE, 1)],
        [InterfaceAtom.eq_atom("x", "y", annotation="b")],
        LinExpr.var("x"),
    )


def test_every_rule_shares_one_transition_on_solved_instances():
    rng = random.Random(13)
    rules, equality_learns = set(), 0
    # conflict_fixture's rows pin x - y = 0 and its theory drop cites that row, so its trace learns an equality
    for inst in [random_instance(rng) for _ in range(60)] + [pinned_difference_instance(), conflict_fixture()[0]]:
        steps = solve(inst).steps
        rules.update(step.rule for step in steps)
        equality_learns += sum(step.rule == "learn" and step.row.rel is Relation.EQ for step in steps)
        _replay_checking_transitions(inst, steps)
    assert {"branch", "learn", "drop", "retire"} <= rules
    assert equality_learns


def tail_instance():
    """x is free below, y is pinned at 2 by two rows, and the objective is x."""
    return ImtInstance(
        ["x", "y"],
        Bounds({"y": (0, 5)}),
        [row([("x", 1)], Relation.LE, 5), row([("y", 1)], Relation.GE, 2), row([("y", 1)], Relation.LE, 2)],
        objective=LinExpr.var("x"),
    )


def tail_steps():
    """Trichotomy, a single-variable equality learn and unbounded, by hand."""
    y_lo, y_hi = row([("y", 1)], Relation.GE, 2), row([("y", 1)], Relation.LE, 2)
    fix = BoundFix(identity_cut(y_lo, "ge"), identity_cut(y_hi, "le"))
    ray = UnboundedEvidence((("x", 0), ("y", 2)), (("x", -1),))
    return [
        Step("branch", target=0, cert=BranchTrichotomy("x", "y", 1)),  # 1: x-y <= 0, 2: x-y = 1, 3: x-y >= 2
        Step("learn", target=2, row=row([("y", 1)], Relation.EQ, 2), cert=fix),  # 4
        Step("branch", target=1, cert=BranchDichotomy("x", 5)),  # 5 adds x <= 5, already a row; 6 adds x >= 6
        Step("unbounded", target=5, cert=ray),  # removes 3, 4, 5 and 6
    ]


def test_hand_written_trace_takes_the_shared_transition():
    inst = tail_instance()
    kernel = _replay_checking_transitions(inst, tail_steps())
    assert verdict(inst, kernel.state) == ("unbounded", ObjValue.neg_inf())


def test_a_rejected_step_changes_nothing():
    inst = tail_instance()
    k = Kernel(inst)
    for step in tail_steps()[:2]:  # pending 1, 3 and 4
        k.apply(step)
    x_le_5, y_lo, y_hi = row([("x", 1)], Relation.LE, 5), row([("y", 1)], Relation.GE, 2), row([("y", 1)], Relation.LE, 2)
    fix = BoundFix(identity_cut(y_lo, "ge"), identity_cut(y_hi, "le"))
    # x = y is consistent on its own, and the fix proves y = 2, not x = y
    refutation = TheoryRefutation((TheoryLiteral.var_eq("x", "y"),), (fix,))
    point = (("x", 0), ("y", 2))
    lb = LbDual(0, ((x_le_5, "le", Fraction(1)),))
    bad = [
        Step("branch", target=1, cert=BranchDichotomy("q", 0)),
        Step("learn", target=1, row=row([("x", 1)], Relation.LE, 4), cert=identity_cut(x_le_5, "le")),
        Step("forget", target=1, row=x_le_5, cert=identity_cut(x_le_5, "le")),
        Step("learn", target=1, row=row([("y", 1)], Relation.EQ, 3), cert=fix),
        Step("drop", target=1, cert=FarkasProof(())),
        Step("drop", target=1, cert=refutation),
        Step("prune", target=1, cert=lb),
        Step("retire", target=1, cert=RetireEvidence(point, lb)),
        Step("unbounded", target=1, cert=UnboundedEvidence(point, ())),
    ]
    assert len({step.rule for step in bad}) == 7
    state, log = k.state, list(k.log)
    for step in bad:
        with pytest.raises(RuleViolation):
            k.apply(step)
        assert k.state is state and k.log == log
