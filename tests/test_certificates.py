from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cert_reference
from imtsolver.certificates import (
    BoundFix,
    CGCut,
    CheckFailed,
    FarkasProof,
    LbDual,
    SideCut,
    TheoryLiteral,
    check_bound_fix,
    check_cg,
    check_farkas,
    check_lb_dual,
    check_literal_evidence,
    combo_aggregate,
    identity_cut,
)
from imtsolver.model import LinConstraint, LinExpr, Relation, frac_ceil


def row(terms, rel, rhs):
    return LinConstraint(LinExpr.of(terms), rel, rhs)


GE_X1 = row([("x", 1)], Relation.GE, 1)
LE_X4 = row([("x", 1)], Relation.LE, 4)
EQ_XY5 = row([("x", 1), ("y", 1)], Relation.EQ, 5)
LE_2X3 = row([("x", 2)], Relation.LE, 3)
ROWS = frozenset({GE_X1, LE_X4, EQ_XY5, LE_2X3})


def test_combo_aggregate_orients_to_ge():
    # the aggregate is agg / den with right side rhs / den
    agg, rhs, den = combo_aggregate(((GE_X1, "ge", Fraction(2)), (LE_X4, "le", Fraction(1))), ROWS)
    assert agg == {"x": 1}
    assert rhs == -2
    assert den == 1


def test_combo_aggregate_allows_both_directions_on_equalities():
    agg_ge, rhs_ge, den_ge = combo_aggregate(((EQ_XY5, "ge", Fraction(1)),), ROWS)
    agg_le, rhs_le, den_le = combo_aggregate(((EQ_XY5, "le", Fraction(1)),), ROWS)
    assert agg_ge == {"x": 1, "y": 1} and rhs_ge == 5 and den_ge == 1
    assert agg_le == {"x": -1, "y": -1} and rhs_le == -5 and den_le == 1


@pytest.mark.parametrize(
    "entries",
    [
        ((GE_X1, "ge", Fraction(-1)),),  # negative multiplier
        ((row([("z", 1)], Relation.GE, 0), "ge", Fraction(1)),),  # foreign row
        ((GE_X1, "le", Fraction(1)),),  # wrong direction for >=
        ((LE_X4, "ge", Fraction(1)),),  # wrong direction for <=
        ((GE_X1, "sideways", Fraction(1)),),  # unknown direction
    ],
)
def test_combo_aggregate_rejections(entries):
    with pytest.raises(CheckFailed):
        combo_aggregate(entries, ROWS)


def test_check_cg_classic_rounding():
    # 2x <= 3 scaled by 1/2 rounds to x <= 1
    cut = CGCut(((LE_2X3, "le", Fraction(1, 2)),))
    check_cg(cut, ROWS, row([("x", 1)], Relation.LE, 1))


def test_check_cg_accepts_weaker_claim():
    cut = CGCut(((LE_2X3, "le", Fraction(1, 2)),))
    check_cg(cut, ROWS, row([("x", 1)], Relation.LE, 2))


def test_check_cg_rejects_stronger_claim():
    cut = CGCut(((LE_2X3, "le", Fraction(1, 2)),))
    with pytest.raises(CheckFailed):
        check_cg(cut, ROWS, row([("x", 1)], Relation.LE, 0))


def test_check_cg_rejects_fractional_aggregate():
    cut = CGCut(((LE_2X3, "le", Fraction(1, 3)),))
    with pytest.raises(CheckFailed):
        check_cg(cut, ROWS, row([("x", 1)], Relation.LE, 1))


def test_check_cg_rejects_mismatched_expression():
    cut = CGCut(((LE_2X3, "le", Fraction(1, 2)),))
    with pytest.raises(CheckFailed):
        check_cg(cut, ROWS, row([("y", 1)], Relation.LE, 1))


def test_check_cg_rejects_equality_target():
    cut = CGCut(((EQ_XY5, "ge", Fraction(1)),))
    with pytest.raises(CheckFailed):
        check_cg(cut, ROWS, EQ_XY5)


def test_identity_cut_reproduces_its_row():
    check_cg(identity_cut(GE_X1, "ge"), ROWS, GE_X1)
    check_cg(identity_cut(LE_X4, "le"), ROWS, LE_X4)


def test_check_farkas():
    lo = row([("x", 1)], Relation.GE, 3)
    hi = row([("x", 1)], Relation.LE, 2)
    have = frozenset({lo, hi})
    check_farkas(FarkasProof(((lo, "ge", Fraction(1)), (hi, "le", Fraction(1)))), have)


def test_check_farkas_rejects_uncancelled_aggregate():
    with pytest.raises(CheckFailed):
        check_farkas(FarkasProof(((GE_X1, "ge", Fraction(1)),)), ROWS)


def test_check_farkas_rejects_nonpositive_gap():
    lo = row([("x", 1)], Relation.GE, 2)
    hi = row([("x", 1)], Relation.LE, 2)
    have = frozenset({lo, hi})
    proof = FarkasProof(((lo, "ge", Fraction(1)), (hi, "le", Fraction(1))))
    with pytest.raises(CheckFailed):
        check_farkas(proof, have)


def test_check_bound_fix():
    lo = row([("x", 1)], Relation.GE, 2)
    hi = row([("x", 1)], Relation.LE, 2)
    have = frozenset({lo, hi})
    fix = BoundFix(identity_cut(lo, "ge"), identity_cut(hi, "le"))
    check_bound_fix(fix, have, row([("x", 1)], Relation.EQ, 2))
    with pytest.raises(CheckFailed):
        check_bound_fix(fix, have, row([("x", 1)], Relation.EQ, 3))
    for rel in (Relation.GE, Relation.LE):
        with pytest.raises(CheckFailed, match="bound fix target must be an equality"):
            check_bound_fix(fix, have, row([("x", 1)], rel, 2))


def test_check_lb_dual_finite():
    r = row([("x", 2), ("y", 2)], Relation.GE, 7)
    have = frozenset({r})
    obj = LinExpr.of([("x", 1), ("y", 1)])
    entries = ((r, "ge", Fraction(1, 2)),)
    check_lb_dual(LbDual(4, entries), have, obj)  # ceil(7/2)
    check_lb_dual(LbDual(3, entries), have, obj)  # weaker is fine
    with pytest.raises(CheckFailed):
        check_lb_dual(LbDual(5, entries), have, obj)
    with pytest.raises(CheckFailed):
        check_lb_dual(LbDual(4, entries), have, LinExpr.var("x"))


def test_literal_evidence_equality_canonicalizes_orientation():
    # y = x is stored as x - y = 0; evidence must target that orientation
    lo = row([("x", 1), ("y", -1)], Relation.GE, 0)
    hi = row([("x", 1), ("y", -1)], Relation.LE, 0)
    have = frozenset({lo, hi})
    ev = BoundFix(identity_cut(lo, "ge"), identity_cut(hi, "le"))
    for lit in (TheoryLiteral.var_eq("y", "x"), TheoryLiteral.var_eq("x", "y")):
        check_literal_evidence(lit, ev, have)
    # the swapped sides prove y - x >= 0 as the lower side, where x - y >= 0 is due
    with pytest.raises(CheckFailed):
        check_literal_evidence(TheoryLiteral.var_eq("y", "x"), BoundFix(ev.upper, ev.lower), have)


def test_literal_evidence_disequality_sides():
    above = row([("x", 1), ("y", -1)], Relation.GE, 1)
    below = row([("x", 1), ("y", -1)], Relation.LE, -1)
    have = frozenset({above, below})
    lit = TheoryLiteral.var_diseq("x", "y")
    check_literal_evidence(lit, SideCut("ge", identity_cut(above, "ge")), have)
    check_literal_evidence(lit, SideCut("le", identity_cut(below, "le")), have)
    with pytest.raises(CheckFailed):
        check_literal_evidence(lit, SideCut("up", identity_cut(above, "ge")), have)


def test_literal_evidence_atom_signs():
    on = row([("v", 1)], Relation.GE, 1)
    off = row([("v", 1)], Relation.LE, 0)
    have = frozenset({on, off})
    check_literal_evidence(TheoryLiteral.atom_true("v"), identity_cut(on, "ge"), have)
    check_literal_evidence(TheoryLiteral.atom_false("v"), identity_cut(off, "le"), have)
    with pytest.raises(CheckFailed):
        check_literal_evidence(TheoryLiteral.atom_true("v"), identity_cut(off, "le"), have)


def test_literal_evidence_rejects_wrong_shape():
    on = row([("v", 1)], Relation.GE, 1)
    have = frozenset({on})
    with pytest.raises(CheckFailed):
        check_literal_evidence(TheoryLiteral.var_eq("x", "y"), identity_cut(on, "ge"), have)
    with pytest.raises(CheckFailed):
        check_literal_evidence(TheoryLiteral.var_diseq("x", "y"), identity_cut(on, "ge"), have)


# --- the integer checks against a dense Fraction reference --------------------

CERT_VARS = ("x", "y", "z")
RELS_3 = (Relation.LE, Relation.GE, Relation.EQ)
pool_rows = st.builds(
    lambda terms, rel, rhs: LinConstraint(LinExpr.of(terms), rel, rhs),
    st.lists(st.tuples(st.sampled_from(CERT_VARS), st.integers(-4, 4)), max_size=3),
    st.sampled_from(RELS_3),
    st.integers(-6, 6),
)
multipliers = st.one_of(
    st.integers(0, 4),  # plain ints go through the Fraction conversion
    st.fractions(min_value=0, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(0, 10**20), st.integers(1, 10**18)),  # large denominators
    st.fractions(min_value=-3, max_value=0, max_denominator=6),  # negative or zero
)
directions = st.sampled_from(("ge", "le", "ge", "le", "sideways"))


def _verdict(fn, *args):
    try:
        fn(*args)
    except CheckFailed as exc:
        return ("rejected", str(exc))
    return ("accepted", None)


@st.composite
def combinations(draw):
    """Rows, an available subset (the rest are foreign), and entries over all of them."""
    pool = draw(st.lists(pool_rows, min_size=1, max_size=6, unique=True))
    available = frozenset(r for r in pool if draw(st.integers(0, 5)) > 0)
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.sampled_from(pool))
        legal = {Relation.GE: "ge", Relation.LE: "le"}.get(r.rel) or draw(st.sampled_from(("ge", "le")))
        direction = legal if draw(st.integers(0, 4)) else draw(directions)
        entries.append((r, direction, draw(multipliers)))
    return pool, available, tuple(entries)


@settings(max_examples=400, deadline=None)
@given(combinations(), st.data())
def test_integer_checks_match_dense_fraction_reference(combo, data):
    pool, available, entries = combo
    try:
        agg, rhs = cert_reference.combo_aggregate(entries, available)
        integral = all(c.denominator == 1 for c in agg.values())
    except CheckFailed:
        agg, rhs, integral = {}, Fraction(0), True

    assert _verdict(check_farkas, FarkasProof(entries), available) == _verdict(
        cert_reference.check_farkas, entries, available
    )

    # claimed cut: the reference aggregate (either orientation, rounded rhs
    # nudged by -1..1) when it is integral, otherwise any pool row
    if integral and data.draw(st.booleans()):
        lhs = LinExpr.of({v: int(c) for v, c in agg.items()})
        target = frac_ceil(rhs) + data.draw(st.integers(-1, 1))
        if data.draw(st.booleans()):
            claimed = LinConstraint(lhs, Relation.GE, target)
        else:
            claimed = LinConstraint(-lhs, Relation.LE, -target)
    else:
        claimed = data.draw(st.sampled_from(pool))
    assert _verdict(check_cg, CGCut(entries), available, claimed) == _verdict(
        cert_reference.check_cg, entries, available, claimed
    )

    if integral and data.draw(st.booleans()):
        objective = LinExpr.of({v: int(c) for v, c in agg.items()})
    else:
        objective = data.draw(st.sampled_from(pool)).lhs
    value = frac_ceil(rhs) + data.draw(st.integers(-1, 1))
    assert _verdict(check_lb_dual, LbDual(value, entries), available, objective) == _verdict(
        cert_reference.check_lb_dual, value, entries, available, objective
    )


def test_combo_aggregate_keeps_one_common_denominator():
    a = row([("x", 1)], Relation.GE, 1)
    b = row([("x", 1), ("y", 1)], Relation.LE, 2)
    agg, rhs, den = combo_aggregate(((a, "ge", Fraction(1, 6)), (b, "le", Fraction(3, 4))), frozenset({a, b}))
    # x/6 - 3x/4 - 3y/4 >= 1/6 - 3/2, over the denominator 12
    assert (agg, rhs, den) == ({"x": -7, "y": -9}, -16, 12)
