"""Derivation traces as JSON lines.

The first line is a header naming the format version and the sha256 digest
of the instance's canonical text; each following line is one kernel step.
Rational multipliers are strings ("2/3"), so a trace is exact and diffable.
"""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from .certificates import (
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
)
from .kernel import Step
from .model import (
    ImtError,
    ImtInstance,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    SimpleEquality,
)

FORMAT_NAME = "bct-trace"
FORMAT_VERSION = 1


class TraceError(ImtError):
    """The trace file is malformed."""


class DigestMismatch(ImtError):
    """The trace was recorded for a different instance."""


def _int(x) -> int:
    """An integer field's value; ``int()`` would turn 1.5, "5" or true into an integer silently."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _str(x) -> str:
    """A name field's value; a list or object would reach the kernel and fail there as unhashable."""
    if type(x) is not str:
        raise ValueError(f"expected a string, got {x!r}")
    return x


def _no_float(text: str):
    raise ValueError(f"expected an integer, got {text}")


# Decodes one step line. No field of a step holds a JSON float, so the decoder
# rejects every float and no float reaches the decoding memo.
_decode_step = json.JSONDecoder(parse_float=_no_float).decode


def _row_json(row: LinConstraint) -> dict:
    return {"lhs": [[v, c] for v, c in row.lhs.terms], "rel": row.rel.value, "rhs": row.rhs}


def _row_back(obj: dict) -> LinConstraint:
    return LinConstraint(
        LinExpr.of([(v, _int(c)) for v, c in obj["lhs"]]),
        Relation(obj["rel"]),
        _int(obj["rhs"]),
    )


class _Memo:
    """Rows and multipliers already decoded by one ``read_trace`` call.

    Box rows and common multipliers recur in entry after entry. A value that
    cannot serve as a key is decoded afresh, so it fails as it would unmemoised.
    A row's numbers must be integers before its lookup, since 1.0 and true
    find the row keyed by 1. ``read_trace`` rejects floats while decoding, and
    sets ``no_bools`` for a line without the words true and false; only rows
    of other lines are scanned.
    """

    def __init__(self) -> None:
        self.rows: dict[tuple, LinConstraint] = {}
        self.mults: dict[str, Fraction] = {}
        self.no_bools = False

    def row(self, obj) -> LinConstraint:
        try:
            key = (tuple(map(tuple, obj["lhs"])), obj["rel"], obj["rhs"])
            if not self.no_bools and (type(key[2]) is not int or any(type(c) is not int for _, c in key[0])):
                return _row_back(obj)
            row = self.rows.get(key)
        except (KeyError, TypeError, ValueError):
            return _row_back(obj)
        if row is None:
            row = self.rows[key] = _row_back(obj)
        return row

    def mult(self, text) -> Fraction:
        if type(text) is not str:
            raise ValueError(f"expected a rational string, got {text!r}")
        q = self.mults.get(text)
        if q is None:
            q = self.mults[text] = Fraction(text)
        return q


def _entries_json(entries) -> list:
    return [[_row_json(row), direction, str(Fraction(mult))] for row, direction, mult in entries]


def _entries_back(items, memo: _Memo) -> tuple:
    return tuple((memo.row(row), direction, memo.mult(mult)) for row, direction, mult in items)


def _lit_json(lit: TheoryLiteral) -> dict:
    if lit.kind in ("eq", "diseq"):
        return {"kind": lit.kind, "x": lit.x, "y": lit.y, "offset": lit.offset}
    return {"kind": lit.kind, "var": lit.var}


def _lit_back(obj: dict) -> TheoryLiteral:
    if obj["kind"] in ("eq", "diseq"):
        return TheoryLiteral(obj["kind"], _str(obj["x"]), _str(obj["y"]), _int(obj["offset"]))
    return TheoryLiteral(obj["kind"], var=_str(obj["var"]))


def _token_json(token: TheoryToken) -> dict:
    return {"kind": token.kind, "literals": [_lit_json(l) for l in token.literals]}


def _token_back(obj: dict) -> TheoryToken:
    return TheoryToken(obj["kind"], tuple(_lit_back(l) for l in obj["literals"]))


def _obj_value_json(v: ObjValue) -> dict:
    return {"kind": v.kind, "value": v.value}


def _obj_value_back(obj: dict) -> ObjValue:
    return ObjValue(_int(obj["kind"]), None if obj["value"] is None else _int(obj["value"]))


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
    if isinstance(cert, TLemma):
        return {
            "kind": "tlemma",
            "asserted": [_lit_json(l) for l in cert.asserted],
            "lemma": _row_json(cert.lemma),
            "evidence": [_cert_json(e) for e in cert.evidence],
            "token": _token_json(cert.token),
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
            "token": _token_json(cert.token),
        }
    if isinstance(cert, UnboundedEvidence):
        return {
            "kind": "ray",
            "assignment": [[v, int(c)] for v, c in cert.assignment],
            "ray": [[v, int(c)] for v, c in cert.ray],
            "token": _token_json(cert.token),
        }
    if isinstance(cert, SubsumeSyntactic):
        return {"kind": "subsume"}
    raise TraceError(f"unserializable certificate {type(cert).__name__}")


def _cert_back(obj: dict, memo: _Memo):
    kind = obj["kind"]
    if kind == "cg":
        return CGCut(_entries_back(obj["entries"], memo))
    if kind == "farkas":
        return FarkasProof(_entries_back(obj["entries"], memo))
    if kind == "bound_fix":
        return BoundFix(_cert_back(obj["lower"], memo), _cert_back(obj["upper"], memo))
    if kind == "side":
        return SideCut(obj["side"], _cert_back(obj["cut"], memo))
    if kind == "lb":
        return LbDual(_obj_value_back(obj["bound"]), _entries_back(obj["entries"], memo))
    if kind == "tlemma":
        return TLemma(
            tuple(_lit_back(l) for l in obj["asserted"]),
            memo.row(obj["lemma"]),
            tuple(_cert_back(e, memo) for e in obj["evidence"]),
            _token_back(obj["token"]),
        )
    if kind == "dichotomy":
        return BranchDichotomy(_str(obj["var"]), _int(obj["k"]))
    if kind == "trichotomy":
        return BranchTrichotomy(_str(obj["x"]), _str(obj["y"]), _int(obj["c"]))
    if kind == "conflict_split":
        return BranchConflictSplit(tuple(_lit_back(l) for l in obj["core"]))
    if kind == "retire":
        return RetireEvidence(
            tuple((_str(v), _int(c)) for v, c in obj["assignment"]),
            _cert_back(obj["lb"], memo),
            _token_back(obj["token"]),
        )
    if kind == "ray":
        return UnboundedEvidence(
            tuple((_str(v), _int(c)) for v, c in obj["assignment"]),
            tuple((_str(v), _int(c)) for v, c in obj["ray"]),
            _token_back(obj["token"]),
        )
    if kind == "subsume":
        return SubsumeSyntactic()
    raise TraceError(f"unknown certificate kind {kind!r}")


def _eq_json(d: SimpleEquality) -> dict:
    return {"x": d.x, "y": d.y, "c": d.c}


def _eq_back(obj: dict) -> SimpleEquality:
    y = obj["y"]
    return SimpleEquality(_str(obj["x"]), None if y is None else _str(y), _int(obj["c"]))


def step_to_json(step: Step) -> dict:
    out: dict = {"rule": step.rule}
    if step.target is not None:
        out["target"] = step.target
    if step.other is not None:
        out["other"] = step.other
    if step.row is not None:
        out["row"] = _row_json(step.row)
    if step.eq is not None:
        out["eq"] = _eq_json(step.eq)
    if step.cert is not None:
        out["cert"] = _cert_json(step.cert)
    return out


def step_from_json(obj: dict, memo: _Memo | None = None) -> Step:
    if memo is None:
        memo = _Memo()
    return Step(
        rule=_str(obj["rule"]),
        target=_int(obj["target"]) if "target" in obj else None,
        other=_int(obj["other"]) if "other" in obj else None,
        row=memo.row(obj["row"]) if "row" in obj else None,
        eq=_eq_back(obj["eq"]) if "eq" in obj else None,
        cert=_cert_back(obj["cert"], memo) if "cert" in obj else None,
    )


def trace_lines(instance: ImtInstance, steps: Iterable[Step]) -> Iterator[str]:
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "instance": instance.digest()}
    yield json.dumps(header, separators=(",", ":"))
    for step in steps:
        yield json.dumps(step_to_json(step), separators=(",", ":"))


def write_trace(path: str | Path, instance: ImtInstance, steps: Iterable[Step]) -> None:
    Path(path).write_text("".join(line + "\n" for line in trace_lines(instance, steps)))


def read_trace(path: str | Path, instance: ImtInstance | None = None) -> tuple[str, list[Step]]:
    """Parse a trace file; returns (instance digest, steps).

    When ``instance`` is given, its digest must match the header.
    """
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceError("empty trace file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceError(f"not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise TraceError(f"unsupported version {header.get('version')}")
    digest = header.get("instance", "")
    if instance is not None and digest != instance.digest():
        raise DigestMismatch("trace was recorded for a different instance")
    steps = []
    memo = _Memo()
    for i, line in enumerate(lines[1:], start=2):
        memo.no_bools = "true" not in line and "false" not in line
        try:
            steps.append(step_from_json(_decode_step(line), memo))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise TraceError(f"line {i}: {exc}") from exc
    return digest, steps
