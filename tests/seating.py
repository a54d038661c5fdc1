"""A banquet seating model exercising the full solver stack.

Ten guests, three of them couples, must be split over three tables of five
seats. Couples sit together, four pairs of guests must be kept apart, and the
objective rewards every guest seated at the host's table.

Couples are encoded as single units. Two couples and the three unattached
guests carry a pair of 0/1 membership flags (table 0 / table 1, neither
meaning table 2), so table loads are plain linear sums. The remaining couple
keeps explicit table variables tied together by an equality atom, and its
membership flags are annotations on equality atoms against pinned reference
variables. That routes the same combinatorial content through the equality
theory instead of pure arithmetic.
"""
from __future__ import annotations

from imtsolver.model import (
    Bounds,
    ImtInstance,
    InterfaceAtom,
    LinConstraint,
    LinExpr,
    Relation,
)

TABLES = 3
SEATS = 5

# flag-encoded units: (name, people at the table)
FLAG_UNITS = (("p2", 2), ("p3", 2), ("s1", 1), ("s2", 1), ("s3", 1))


def _sum(terms: list[tuple[str, int]]) -> LinExpr:
    return LinExpr.of(terms)


def banquet_instance() -> ImtInstance:
    table: dict[str, tuple[int, int]] = {
        "t_host": (0, 0),  # the host's table, by convention table 0
        "t_one": (1, 1),  # pinned reference for "seated at table 1"
        "t_p1a": (0, TABLES - 1),
        "t_p1b": (0, TABLES - 1),
        "at_p1": (0, 1),  # couple 1 shares the host's table
        "mid_p1": (0, 1),  # couple 1 sits at table 1
    }
    for unit, _ in FLAG_UNITS:
        table[f"w0_{unit}"] = (0, 1)
        table[f"w1_{unit}"] = (0, 1)

    atoms = [
        InterfaceAtom.eq_atom("t_p1a", "t_p1b"),  # the couple stays together
        InterfaceAtom.eq_atom("t_host", "t_p1a", "at_p1"),
        InterfaceAtom.eq_atom("t_one", "t_p1a", "mid_p1"),
    ]

    cons: list[LinConstraint] = []

    # a unit sits at exactly one table; table 2 is "neither flag"
    cons.append(LinConstraint(_sum([("at_p1", 1), ("mid_p1", 1)]), Relation.LE, 1))
    for unit, _ in FLAG_UNITS:
        cons.append(
            LinConstraint(_sum([(f"w0_{unit}", 1), (f"w1_{unit}", 1)]), Relation.LE, 1)
        )

    # seats: host takes one chair at table 0
    load0 = [("at_p1", 2)] + [(f"w0_{u}", k) for u, k in FLAG_UNITS]
    load1 = [("mid_p1", 2)] + [(f"w1_{u}", k) for u, k in FLAG_UNITS]
    cons.append(LinConstraint(_sum(load0), Relation.LE, SEATS - 1))
    cons.append(LinConstraint(_sum(load1), Relation.LE, SEATS))
    # table 2 holds everyone else: total people minus tables 0 and 1
    people = 1 + 2 + sum(k for _, k in FLAG_UNITS)
    spread = [("at_p1", 2), ("mid_p1", 2)] + [
        (f"w{i}_{u}", k) for u, k in FLAG_UNITS for i in (0, 1)
    ]
    cons.append(LinConstraint(_sum(spread), Relation.GE, people - 1 - SEATS))

    # separations: host/s1, couple1/couple2, couple2/couple3, s2/s3
    cons.append(LinConstraint(_sum([("w0_s1", 1)]), Relation.LE, 0))
    for a0, a1, b0, b1 in (
        ("at_p1", "mid_p1", "w0_p2", "w1_p2"),
        ("w0_p2", "w1_p2", "w0_p3", "w1_p3"),
        ("w0_s2", "w1_s2", "w0_s3", "w1_s3"),
    ):
        cons.append(LinConstraint(_sum([(a0, 1), (b0, 1)]), Relation.LE, 1))
        cons.append(LinConstraint(_sum([(a1, 1), (b1, 1)]), Relation.LE, 1))
        cons.append(
            LinConstraint(_sum([(a0, 1), (a1, 1), (b0, 1), (b1, 1)]), Relation.GE, 1)
        )

    # reward every guest at the host's table; minimize the negation
    reward = [("at_p1", -2)] + [(f"w0_{u}", -k) for u, k in FLAG_UNITS]

    return ImtInstance(
        table.keys(),
        Bounds(table),
        cons,
        atoms,
        LinExpr.of(reward),
    )


def describe(assignment: dict[str, int]) -> list[str]:
    """Human-readable seating chart for a solver model."""
    tables: dict[int, list[str]] = {0: ["host"], 1: [], 2: []}
    tables[assignment["t_p1a"]].extend(["couple1.a", "couple1.b"])
    for unit, k in FLAG_UNITS:
        t = 0 if assignment[f"w0_{unit}"] else 1 if assignment[f"w1_{unit}"] else 2
        tables[t].extend([unit] if k == 1 else [f"{unit}.a", f"{unit}.b"])
    return [f"table {t}: {', '.join(names)}" for t, names in sorted(tables.items())]
