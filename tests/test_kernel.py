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
    SubsumeSyntactic,
    TheoryLiteral,
    TheoryToken,
    TLemma,
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
    replay_trace,
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
    SimpleEquality,
    Subproblem,
    satisfies_all,
    sentinel_contradiction,
)

from gen import random_instance


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
    assert sub.cons == inst.constraints
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
        {SimpleEquality.diff("x", "y", 1).as_constraint()},
        {row([("x", 1), ("y", -1)], Relation.GE, 2)},
    ]
    with pytest.raises(RuleViolation):
        k.apply(Step("branch", target=1, cert=BranchTrichotomy("x", "x", 0)))


def test_conflict_split_arms_partition_every_point():
    rng = random.Random(99)
    lits = [
        TheoryLiteral.var_eq("x", "y", 1),
        TheoryLiteral.var_diseq("y", "z"),
        TheoryLiteral.atom_true("a"),
        TheoryLiteral.atom_false("b"),
    ]
    box = Bounds({"x": (-2, 2), "y": (-2, 2), "z": (-2, 2), "a": (0, 1), "b": (0, 1)})
    names = ["x", "y", "z", "a", "b"]
    for _ in range(24):
        core = tuple(rng.sample(lits, rng.randint(1, 3)))
        arms = conflict_split_arms(core)
        # a diseq in the core renders "true" as two arms, so leaves may repeat
        assert sum(1 for _, all_true in arms if all_true) >= 1
        for point in box.iter_box(names):
            holds = [satisfies_all(rows, point) for rows, _ in arms]
            assert holds.count(True) == 1


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


def test_propagate_records_equality():
    inst = ImtInstance(
        ["x"],
        Bounds({"x": (0, 9)}),
        [row([("x", 1)], Relation.GE, 2), row([("x", 1)], Relation.LE, 2)],
        objective=LinExpr.var("x"),
    )
    k = Kernel(inst)
    lo, hi = row([("x", 1)], Relation.GE, 2), row([("x", 1)], Relation.LE, 2)
    fix = BoundFix(identity_cut(lo, "ge"), identity_cut(hi, "le"))
    d = SimpleEquality.fix("x", 2)
    info = k.apply(Step("propagate", target=0, eq=d, cert=fix))
    (child,) = info.created
    assert child.cons == inst.constraints | {d.as_constraint()}
    with pytest.raises(RuleViolation, match="equality already recorded"):
        k.apply(Step("propagate", target=child.ident, eq=d, cert=fix))  # already there
    with pytest.raises(RuleViolation):
        Kernel(inst).apply(Step("propagate", target=0, eq=SimpleEquality.fix("x", 3), cert=fix))
    with pytest.raises(RuleViolation):
        Kernel(inst).apply(Step("propagate", target=0, eq=SimpleEquality.fix("q", 2), cert=fix))


def test_propagate_rejects_an_equality_a_split_arm_already_added():
    # the all-true arm of a split over x = y holds the row x - y = 0, which is
    # the equality's own row, so propagating x - y = 0 there adds nothing
    k = Kernel(plain_instance())
    eq = TheoryLiteral.var_eq("x", "y")
    info = k.apply(Step("branch", target=0, cert=BranchConflictSplit((eq,))))
    d = SimpleEquality.diff("x", "y", 0)
    (leaf,) = [s for s in info.created if d.as_constraint() in s.cons]
    fix = BoundFix(identity_cut(d.as_constraint(), "ge"), identity_cut(d.as_constraint(), "le"))
    with pytest.raises(RuleViolation, match="equality already recorded"):
        k.apply(Step("propagate", target=leaf.ident, eq=d, cert=fix))


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
    lemma = TLemma(lits, sentinel_contradiction(), (eq_fix, side), TheoryToken("conflict", lits))
    return inst, lemma


def test_tlearn_accepts_a_replayed_conflict():
    inst, lemma = conflict_fixture()
    k = Kernel(inst)
    info = k.apply(Step("tlearn", target=0, row=lemma.lemma, cert=lemma))
    (child,) = info.created
    assert sentinel_contradiction() in child.cons


def test_tlearn_rejections():
    inst, lemma = conflict_fixture()
    wrong_row = row([("x", 1)], Relation.LE, -1)
    bad_token = TLemma(lemma.asserted, lemma.lemma, lemma.evidence, TheoryToken("model", lemma.asserted))
    short = TLemma(lemma.asserted, lemma.lemma, lemma.evidence[:1], lemma.token)
    # a consistent literal set must be refused by the theory replay
    sat_lits = (TheoryLiteral.var_eq("x", "y"),)
    sat_fix = TLemma(
        sat_lits,
        sentinel_contradiction(),
        (lemma.evidence[0],),
        TheoryToken("conflict", sat_lits),
    )
    cases = [
        Step("tlearn", target=0, row=wrong_row, cert=lemma),
        Step("tlearn", target=0, row=wrong_row, cert=TLemma(lemma.asserted, wrong_row, lemma.evidence, lemma.token)),
        Step("tlearn", target=0, row=lemma.lemma, cert=bad_token),
        Step("tlearn", target=0, row=lemma.lemma, cert=short),
        Step("tlearn", target=0, row=lemma.lemma, cert=sat_fix),
        Step("tlearn", target=0, row=lemma.lemma, cert=FarkasProof(())),
    ]
    for step in cases:
        with pytest.raises(RuleViolation):
            Kernel(inst).apply(step)


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
    lb = LbDual(ObjValue.finite(0), ((lo_x, "ge", Fraction(1)),))
    ev = RetireEvidence(tuple(sorted(point.items())), lb, TheoryToken("model"))
    k.apply(Step("retire", target=1, cert=ev))
    assert k.state.incumbent.assignment() == point
    # right child (x >= 3) has lower bound 3 >= incumbent 0
    branch_row = row([("x", 1)], Relation.GE, 3)
    prune_cert = LbDual(ObjValue.finite(3), ((branch_row, "ge", Fraction(1)),))
    k.apply(Step("prune", target=2, cert=prune_cert))
    assert k.final
    assert verdict(inst, k.state) == ("optimal", ObjValue.finite(0))


def test_prune_requires_incumbent_and_domination():
    inst = plain_instance()
    k = Kernel(inst)
    lo_x = inst.bounds.row_lo("x")
    cert = LbDual(ObjValue.finite(0), ((lo_x, "ge", Fraction(1)),))
    with pytest.raises(RuleViolation):
        k.apply(Step("prune", target=0, cert=cert))


def test_retire_rejections():
    inst = plain_instance()
    lo_x = inst.bounds.row_lo("x")
    lb0 = LbDual(ObjValue.finite(0), ((lo_x, "ge", Fraction(1)),))
    good = {"x": 0, "y": 3}
    cases = [
        RetireEvidence((("x", 0),), lb0, TheoryToken("model")),  # missing y
        RetireEvidence((("x", 0), ("y", 1)), lb0, TheoryToken("model")),  # violates x+y>=3
        RetireEvidence(tuple(sorted({"x": 1, "y": 3}.items())), lb0, TheoryToken("model")),  # lb 0 != value 1
        RetireEvidence(tuple(sorted(good.items())), lb0, TheoryToken("conflict")),
    ]
    for ev in cases:
        with pytest.raises(RuleViolation):
            Kernel(inst).apply(Step("retire", target=0, cert=ev))


def test_retire_respects_theory_replay():
    inst = theory_instance()
    lo = inst.bounds.row_lo("r1")
    lb = LbDual(ObjValue.finite(0), ((lo, "ge", Fraction(1)),))
    # x = y but r1 != r2 contradicts congruence
    bad = {"x": 1, "y": 1, "r1": 0, "r2": 2}
    ev = RetireEvidence(tuple(sorted(bad.items())), lb, TheoryToken("model"))
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
    ev = UnboundedEvidence((("x", 0), ("y", 0)), (("x", -1),), TheoryToken("model"))
    k.apply(Step("unbounded", target=0, cert=ev))
    assert verdict(inst, k.state) == ("unbounded", ObjValue.neg_inf())


def test_unbounded_rejections():
    inst = unbounded_instance()
    cases = [
        UnboundedEvidence((("x", 0), ("y", 0)), (), TheoryToken("model")),  # zero ray
        UnboundedEvidence((("x", 0), ("y", 0)), (("x", 1),), TheoryToken("model")),  # wrong drift
        UnboundedEvidence((("x", 0), ("y", 0)), (("y", -1),), TheoryToken("model")),  # leaves y >= 0
        UnboundedEvidence((("x", 9), ("y", 0)), (("x", -1),), TheoryToken("model")),  # infeasible start
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
    ev = UnboundedEvidence(
        (("x", 0), ("y", 0), ("r1", 0), ("r2", 0)), (("x", -1),), TheoryToken("model")
    )
    with pytest.raises(RuleViolation):
        Kernel(inst).apply(Step("unbounded", target=0, cert=ev))


def test_subsume():
    inst = plain_instance()
    k = Kernel(inst)
    base = row([("x", 1), ("y", 1)], Relation.GE, 3)
    cut = row([("x", 1), ("y", 1)], Relation.GE, 2)
    k.apply(Step("branch", target=0, cert=BranchDichotomy("x", 2)))
    k.apply(Step("learn", target=1, row=cut, cert=identity_cut(base, "ge")))
    # ident 3 = ident 1 plus the cut, so 1 is gone; kernel now has {2, 3}
    with pytest.raises(RuleViolation):
        k.apply(Step("subsume", target=3, other=2, cert=SubsumeSyntactic()))
    k2 = Kernel(inst)
    k2.apply(Step("branch", target=0, cert=BranchDichotomy("x", 2)))
    k2.apply(Step("branch", target=1, cert=BranchDichotomy("y", 2)))
    # child 3 carries x<=2, y<=2; parent-side sibling 2 carries x>=3
    with pytest.raises(RuleViolation):
        k2.apply(Step("subsume", target=3, other=3, cert=SubsumeSyntactic()))
    with pytest.raises(RuleViolation):
        k2.apply(Step("subsume", target=3, other=2, cert=FarkasProof(())))
    # a genuine cover: learn the dichotomy row into a copy
    k3 = Kernel(inst)
    k3.apply(Step("branch", target=0, cert=BranchDichotomy("x", 2)))
    lo = row([("x", 1)], Relation.LE, 2)
    weaker = row([("x", 1)], Relation.LE, 4)
    k3.apply(Step("learn", target=1, row=weaker, cert=identity_cut(lo, "le")))
    # ident 3 = {base, x<=2, x<=4} covered by ident... the cover must be the subset side
    subs = {s.ident: s for s in k3.state.pending}
    keeper, gone = 2, 3
    if not (subs[keeper].cons <= subs[gone].cons):
        keeper, gone = gone, keeper
    if subs[keeper].cons <= subs[gone].cons:
        k3.apply(Step("subsume", target=keeper, other=gone, cert=SubsumeSyntactic()))
        assert gone not in {s.ident for s in k3.state.pending}


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
                cons.append(SimpleEquality.diff(x, y, rng.randint(-3, 3)).as_constraint())
            else:
                cons.append(SimpleEquality.fix(rng.choice(names), rng.randint(-5, 5)).as_constraint())
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
    assert narrow_hi in rows_of(narrow, Subproblem.root(cons))
    assert narrow_hi not in rows_of(wide, Subproblem.root(cons))
    with pytest.raises(RuleViolation, match="outside the subproblem: x <= 3"):
        Kernel(wide).apply(Step("learn", target=0, row=cut, cert=cert))


def _assert_one_transition(prev, new, step, info):
    """The shared tail: fresh consecutive idents, removed out, created in, incumbent kept."""
    assert [s.ident for s in info.created] == list(range(prev.next_ident, prev.next_ident + len(info.created)))
    assert new.next_ident == prev.next_ident + len(info.created)
    if step.rule == "unbounded":
        assert info.removed == tuple(sorted(prev.pending, key=lambda s: s.ident))
    else:
        gone = step.other if step.rule == "subsume" else step.target
        assert [s.ident for s in info.removed] == [gone]
    assert new.pending == (prev.pending - set(info.removed)) | set(info.created)
    assert (new.incumbent != prev.incumbent) == (step.rule in ("retire", "unbounded"))


def _replay_checking_transitions(inst, steps):
    prev = [initial_state(inst)]

    def on_state(i, state, step, info):
        _assert_one_transition(prev[0], state, step, info)
        prev[0] = state

    kernel = replay_trace(inst, steps, on_state=on_state)
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
    rules = set()
    for inst in [random_instance(rng) for _ in range(60)] + [pinned_difference_instance()]:
        steps = solve(inst).steps
        rules.update(step.rule for step in steps)
        _replay_checking_transitions(inst, steps)
    assert {"branch", "learn", "propagate", "tlearn", "drop", "retire"} <= rules


def tail_instance():
    """x is free below, y is pinned at 2 by two rows, and the objective is x."""
    return ImtInstance(
        ["x", "y"],
        Bounds({"y": (0, 5)}),
        [row([("x", 1)], Relation.LE, 5), row([("y", 1)], Relation.GE, 2), row([("y", 1)], Relation.LE, 2)],
        objective=LinExpr.var("x"),
    )


def tail_steps():
    """Trichotomy, a single-variable propagate, subsume and unbounded, by hand."""
    y_lo, y_hi = row([("y", 1)], Relation.GE, 2), row([("y", 1)], Relation.LE, 2)
    fix = BoundFix(identity_cut(y_lo, "ge"), identity_cut(y_hi, "le"))
    ray = UnboundedEvidence((("x", 0), ("y", 2)), (("x", -1),), TheoryToken("model"))
    return [
        Step("branch", target=0, cert=BranchTrichotomy("x", "y", 1)),  # 1: x-y <= 0, 2: x-y = 1, 3: x-y >= 2
        Step("propagate", target=2, eq=SimpleEquality.fix("y", 2), cert=fix),  # 4
        Step("branch", target=1, cert=BranchDichotomy("x", 5)),  # 5 adds x <= 5, already a row; 6 adds x >= 6
        Step("subsume", target=5, other=6, cert=SubsumeSyntactic()),
        Step("unbounded", target=5, cert=ray),  # removes 3, 4 and 5
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
    eq = TheoryLiteral.var_eq("x", "y")
    lemma = TLemma((eq,), sentinel_contradiction(), (fix,), TheoryToken("conflict", (eq,)))
    point = (("x", 0), ("y", 2))
    lb = LbDual(ObjValue.finite(0), ((x_le_5, "le", Fraction(1)),))
    bad = [
        Step("branch", target=1, cert=BranchDichotomy("q", 0)),
        Step("learn", target=1, row=row([("x", 1)], Relation.LE, 4), cert=identity_cut(x_le_5, "le")),
        Step("forget", target=1, row=x_le_5, cert=identity_cut(x_le_5, "le")),
        Step("propagate", target=1, eq=SimpleEquality.fix("y", 3), cert=fix),
        Step("tlearn", target=1, row=sentinel_contradiction(), cert=lemma),
        Step("drop", target=1, cert=FarkasProof(())),
        Step("prune", target=1, cert=lb),
        Step("retire", target=1, cert=RetireEvidence(point, lb, TheoryToken("model"))),
        Step("unbounded", target=1, cert=UnboundedEvidence(point, (("x", -1),), TheoryToken("conflict"))),
        Step("subsume", target=1, other=3, cert=SubsumeSyntactic()),
    ]
    assert len({step.rule for step in bad}) == 10
    state, log = k.state, list(k.log)
    for step in bad:
        with pytest.raises(RuleViolation):
            k.apply(step)
        assert k.state is state and k.log == log
