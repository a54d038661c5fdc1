"""Dict-building reference for the trace step encoder.

``imtsolver.trace`` writes each step line as text directly. This is the
same encoding written as JSON objects for ``json.dumps``, field for field,
with the same row table: the instance's rows in canonical order, then each
new row in the order the steps cite it. So a test can hold the writer to
byte-identical lines:

    [json.dumps(obj, separators=(",", ":")) for obj in trace_to_json(instance, steps)]
"""
from __future__ import annotations

from fractions import Fraction

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
)
from imtsolver.kernel import Step
from imtsolver.model import ImtInstance, LinConstraint


def canonical_rows(instance: ImtInstance) -> list[LinConstraint]:
    """The constraints by rendered text, ties broken by terms, relation and right side,
    then the box rows that are not constraints."""
    cons = sorted(instance.constraints, key=lambda c: (c.render(), c.lhs.terms, c.rel.value, c.rhs))
    return cons + [r for r in instance.box_rows if r not in instance.constraints]


def _lit_json(lit: TheoryLiteral) -> dict:
    if lit.kind in ("eq", "diseq"):
        return {"kind": lit.kind, "x": lit.x, "y": lit.y}
    return {"kind": lit.kind, "var": lit.var}


class _Encoder:
    def __init__(self, instance: ImtInstance) -> None:
        # row -> its number in the trace's row table
        self.numbers = {row: i for i, row in enumerate(canonical_rows(instance))}

    def row(self, row: LinConstraint):
        if row in self.numbers:
            return self.numbers[row]
        self.numbers[row] = len(self.numbers)
        return {"lhs": [[v, c] for v, c in row.lhs.terms], "rel": row.rel.value, "rhs": row.rhs}

    def entries(self, entries) -> list:
        return [[self.row(row), direction, str(Fraction(mult))] for row, direction, mult in entries]

    def cert(self, cert) -> dict:
        if isinstance(cert, CGCut):
            return {"kind": "cg", "entries": self.entries(cert.entries)}
        if isinstance(cert, FarkasProof):
            return {"kind": "farkas", "entries": self.entries(cert.entries)}
        if isinstance(cert, BoundFix):
            return {"kind": "bound_fix", "lower": self.cert(cert.lower), "upper": self.cert(cert.upper)}
        if isinstance(cert, SideCut):
            return {"kind": "side", "side": cert.side, "cut": self.cert(cert.cut)}
        if isinstance(cert, LbDual):
            return {"kind": "lb", "bound": cert.bound, "entries": self.entries(cert.entries)}
        if isinstance(cert, TheoryRefutation):
            return {
                "kind": "theory",
                "asserted": [_lit_json(l) for l in cert.asserted],
                "evidence": [self.cert(e) for e in cert.evidence],
            }
        if isinstance(cert, BranchDichotomy):
            return {"kind": "dichotomy", "var": cert.var, "k": cert.k}
        if isinstance(cert, BranchTrichotomy):
            return {"kind": "trichotomy", "x": cert.x, "y": cert.y, "c": cert.c}
        if isinstance(cert, BranchConflictSplit):
            return {"kind": "conflict_split", "core": [_lit_json(l) for l in cert.core]}
        if isinstance(cert, RetireEvidence):
            return {
                "kind": "retire",
                "assignment": [[v, int(c)] for v, c in cert.assignment],
                "lb": self.cert(cert.lb_match),
            }
        if isinstance(cert, UnboundedEvidence):
            return {
                "kind": "ray",
                "assignment": [[v, int(c)] for v, c in cert.assignment],
                "ray": [[v, int(c)] for v, c in cert.ray],
            }
        raise TypeError(f"unserializable certificate {type(cert).__name__}")

    def step(self, step: Step) -> dict:
        out: dict = {"rule": step.rule}
        if step.target is not None:
            out["target"] = step.target
        if step.row is not None:
            out["row"] = self.row(step.row)
        if step.cert is not None:
            out["cert"] = self.cert(step.cert)
        return out


def trace_to_json(instance: ImtInstance, steps) -> list[dict]:
    """The JSON object of each step line of a trace of ``instance``, numbering rows across the steps."""
    encoder = _Encoder(instance)
    return [encoder.step(step) for step in steps]
