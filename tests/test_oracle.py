import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import random_instance
from imtsolver.model import Bounds, ImtInstance, LinConstraint, LinExpr, Relation
from imtsolver.oracle import BoxTooLarge, brute_force_solve
from oracle_reference import full_box_scan


def with_pins(rng: random.Random, instance: ImtInstance) -> ImtInstance:
    """Add one-variable equalities: k v = r, some inside the box, some not, some not divisible."""
    names = sorted(instance.vars)
    pins = []
    for _ in range(rng.randint(0, 3)):
        v = rng.choice(names)
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        lo, hi = instance.bounds.interval(v)
        r = k * rng.randint(lo - 1, hi + 1) + (rng.randint(-1, 1) if rng.random() < 0.2 else 0)
        pins.append(LinConstraint(LinExpr.var(v, k), Relation.EQ, r))
    return ImtInstance(
        instance.vars,
        instance.bounds,
        instance.constraints | frozenset(pins),
        instance.atoms,
        instance.objective,
        instance.funs,
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_oracle_matches_full_box_scan(seed):
    rng = random.Random(seed)
    instance = with_pins(rng, random_instance(rng))
    assert brute_force_solve(instance) == full_box_scan(instance)


def test_pins_cut_the_scan_but_not_the_answer():
    x_pinned = LinConstraint(LinExpr.var("x", 2), Relation.EQ, 4)
    inst = ImtInstance(
        ["x", "y"],
        Bounds({"x": (-5, 5), "y": (-5, 5)}),
        [x_pinned, LinConstraint(LinExpr.of({"x": 1, "y": 1}), Relation.GE, 0)],
        objective=LinExpr.var("y"),
    )
    out = brute_force_solve(inst)
    assert out == full_box_scan(inst)
    assert (out.status, out.value, out.assignment, out.feasible_count) == ("optimal", -2, {"x": 2, "y": -2}, 8)
    # an odd right side, or a pin outside the box, leaves no point
    for rhs in (3, 12):
        bad = LinConstraint(LinExpr.var("x", 2), Relation.EQ, rhs)
        empty = ImtInstance(["x", "y"], inst.bounds, [bad], objective=LinExpr.var("y"))
        assert brute_force_solve(empty) == full_box_scan(empty)
        assert brute_force_solve(empty).status == "infeasible"


def test_point_limit_counts_the_whole_box():
    pinned = ImtInstance(
        ["x", "y"],
        Bounds({"x": (0, 99), "y": (0, 99)}),
        [LinConstraint(LinExpr.var("x"), Relation.EQ, 1)],
    )
    with pytest.raises(BoxTooLarge):
        brute_force_solve(pinned, point_limit=1000)
