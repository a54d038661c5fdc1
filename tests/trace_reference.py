"""Dict-building reference for the trace step encoder.

``imtsolver.trace`` writes each step line as text directly. This is the
same encoding written as JSON objects for ``json.dumps``, field for field,
so a test can hold the writer to byte-identical lines:

    json.dumps(step_to_json(step), separators=(",", ":"))
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
    SubsumeSyntactic,
    TheoryLiteral,
    TheoryRefutation,
    UnboundedEvidence,
)
from imtsolver.kernel import Step
from imtsolver.model import LinConstraint, ObjValue


def _row_json(row: LinConstraint) -> dict:
    return {"lhs": [[v, c] for v, c in row.lhs.terms], "rel": row.rel.value, "rhs": row.rhs}


def _entries_json(entries) -> list:
    return [[_row_json(row), direction, str(Fraction(mult))] for row, direction, mult in entries]


def _lit_json(lit: TheoryLiteral) -> dict:
    if lit.kind in ("eq", "diseq"):
        return {"kind": lit.kind, "x": lit.x, "y": lit.y, "offset": lit.offset}
    return {"kind": lit.kind, "var": lit.var}


def _obj_value_json(v: ObjValue) -> dict:
    return {"kind": v.kind, "value": v.value}


def _cert_json(cert) -> dict:
    if isinstance(cert, CGCut):
        return {"kind": "cg", "entries": _entries_json(cert.entries)}
    if isinstance(cert, FarkasProof):
        return {"kind": "farkas", "entries": _entries_json(cert.entries)}
    if isinstance(cert, BoundFix):
        return {"kind": "bound_fix", "lower": _cert_json(cert.lower), "upper": _cert_json(cert.upper)}
    if isinstance(cert, SideCut):
        return {"kind": "side", "side": cert.side, "cut": _cert_json(cert.cut)}
    if isinstance(cert, LbDual):
        return {"kind": "lb", "bound": _obj_value_json(cert.bound), "entries": _entries_json(cert.entries)}
    if isinstance(cert, TheoryRefutation):
        return {
            "kind": "theory",
            "asserted": [_lit_json(l) for l in cert.asserted],
            "evidence": [_cert_json(e) for e in cert.evidence],
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
            "lb": _cert_json(cert.lb_match),
        }
    if isinstance(cert, UnboundedEvidence):
        return {
            "kind": "ray",
            "assignment": [[v, int(c)] for v, c in cert.assignment],
            "ray": [[v, int(c)] for v, c in cert.ray],
        }
    if isinstance(cert, SubsumeSyntactic):
        return {"kind": "subsume"}
    raise TypeError(f"unserializable certificate {type(cert).__name__}")


def step_to_json(step: Step) -> dict:
    out: dict = {"rule": step.rule}
    if step.target is not None:
        out["target"] = step.target
    if step.other is not None:
        out["other"] = step.other
    if step.row is not None:
        out["row"] = _row_json(step.row)
    if step.cert is not None:
        out["cert"] = _cert_json(step.cert)
    return out
