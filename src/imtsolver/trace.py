"""Derivation traces as JSON lines.

The first line is a header naming the format version and the sha256 digest
of the instance's canonical text; each following line is one kernel step.
Rational multipliers are strings ("2/3"), so a trace is exact and diffable.
A written trace is ASCII: names are escaped as ``json.dumps`` escapes them.

A trace cites rows through its row table, which starts with the instance's
``canonical_rows``. Where a step cites a row it holds a row number, or a row
in full, which takes the next number; rows are met in field order, the
step's ``row`` first, then its certificate depth first. The writer writes
each row in full at most once.
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
    TheoryLiteral,
    TheoryRefutation,
    UnboundedEvidence,
)
from .kernel import Step
from .model import ImtError, ImtInstance, LinConstraint, LinExpr, Relation

FORMAT_NAME = "bct-trace"
FORMAT_VERSION = 6


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
# rejects every float, a row number among them.
_decode_step = json.JSONDecoder(parse_float=_no_float).decode


_RELATIONS = {rel.value: rel for rel in Relation}


def _relation(text) -> Relation:
    try:
        return _RELATIONS[text]
    except (KeyError, TypeError):
        return Relation(text)  # raises the ValueError that names the bad relation


def _row_back(obj: dict) -> LinConstraint:
    return LinConstraint(
        LinExpr.of([(_str(v), _int(c)) for v, c in obj["lhs"]]),
        _relation(obj["rel"]),
        _int(obj["rhs"]),
    )


class _Table:
    """The row table and the multipliers of one ``read_trace`` call; a row in full takes the
    next number, and each distinct multiplier string, recurring entry after entry, is parsed once."""

    def __init__(self, rows: Iterable[LinConstraint] = ()) -> None:
        self.rows = list(rows)
        self.mults: dict[str, Fraction] = {}

    def row(self, obj) -> LinConstraint:
        if type(obj) is int:
            if 0 <= obj < len(self.rows):
                return self.rows[obj]
            raise ValueError(f"row {obj} is not in the row table of {len(self.rows)} rows")
        if type(obj) is not dict:
            raise ValueError(f"expected a row or a row number, got {obj!r}")
        row = _row_back(obj)
        self.rows.append(row)
        return row

    def mult(self, text) -> Fraction:
        if type(text) is not str:
            raise ValueError(f"expected a rational string, got {text!r}")
        q = self.mults.get(text)
        if q is None:
            # The writer emits "n" or "n/d". int() reads any digits there as
            # Fraction() does, and rejects what it rejects (a superscript two).
            num, slash, den = text.partition("/")
            if num.isdigit() and (not slash or den.isdigit()):
                q = Fraction(int(num), int(den)) if slash else Fraction(int(num))
            else:
                q = Fraction(text)
            self.mults[text] = q
        return q


def _entries_back(items, table: _Table) -> tuple:
    return tuple((table.row(row), direction, table.mult(mult)) for row, direction, mult in items)


def _lit_back(obj: dict) -> TheoryLiteral:
    if obj["kind"] in ("eq", "diseq"):
        if len(obj) != 3:  # an offset would claim x = y + c, which no literal claims
            raise ValueError(f"expected a literal's kind, x and y alone, got {obj!r}")
        return TheoryLiteral(obj["kind"], _str(obj["x"]), _str(obj["y"]))
    return TheoryLiteral(obj["kind"], var=_str(obj["var"]))


def _cert_back(obj: dict, table: _Table):
    kind = obj["kind"]
    if kind == "cg":
        return CGCut(_entries_back(obj["entries"], table))
    if kind == "farkas":
        return FarkasProof(_entries_back(obj["entries"], table))
    if kind == "bound_fix":
        return BoundFix(_cert_back(obj["lower"], table), _cert_back(obj["upper"], table))
    if kind == "side":
        return SideCut(obj["side"], _cert_back(obj["cut"], table))
    if kind == "lb":
        return LbDual(_int(obj["bound"]), _entries_back(obj["entries"], table))
    if kind == "theory":
        return TheoryRefutation(
            tuple(_lit_back(l) for l in obj["asserted"]),
            tuple(_cert_back(e, table) for e in obj["evidence"]),
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
            _cert_back(obj["lb"], table),
        )
    if kind == "ray":
        return UnboundedEvidence(
            tuple((_str(v), _int(c)) for v, c in obj["assignment"]),
            tuple((_str(v), _int(c)) for v, c in obj["ray"]),
        )
    raise ValueError(f"unknown certificate kind {kind!r}")


def step_from_json(obj: dict, table: _Table) -> Step:
    return Step(
        rule=_str(obj["rule"]),
        target=_int(obj["target"]) if "target" in obj else None,
        row=table.row(obj["row"]) if "row" in obj else None,
        cert=_cert_back(obj["cert"], table) if "cert" in obj else None,
    )


# The escaper ``json.dumps`` itself uses (``ensure_ascii``), so names are
# escaped exactly as a JSON encoder would and every trace file is ASCII.
_quote = json.encoder.encode_basestring_ascii

_HEADER = f'{{"format":{_quote(FORMAT_NAME)},"version":{FORMAT_VERSION},"instance":'
_REL = {rel: f',"rel":{_quote(rel.value)},"rhs":' for rel in Relation}


def _pairs(pairs) -> str:
    return "[" + ",".join([f"[{_quote(v)},{int(c)}]" for v, c in pairs]) + "]"


def _lit(lit: TheoryLiteral) -> str:
    if lit.kind in ("eq", "diseq"):
        return f'{{"kind":{_quote(lit.kind)},"x":{_quote(lit.x)},"y":{_quote(lit.y)}}}'
    return f'{{"kind":{_quote(lit.kind)},"var":{_quote(lit.var)}}}'


def _lits(lits) -> str:
    return "[" + ",".join(map(_lit, lits)) + "]"


class _Writer:
    """Formats the step lines of one trace as JSON text, each equal to ``json.dumps(...,
    separators=(",", ":"))`` of its JSON object; ``nums`` maps each row in the table so far to
    its number. It starts as a copy of the instance's ``row_numbers``, which copies their
    stored hashes, so no instance row is hashed again for a trace."""

    def __init__(self, instance: ImtInstance) -> None:
        self.nums = instance.row_numbers.copy()

    def row(self, row: LinConstraint) -> int | str:
        num = self.nums.get(row)
        if num is not None:
            return num
        self.nums[row] = len(self.nums)
        lhs = ",".join([f"[{_quote(v)},{c}]" for v, c in row.lhs.terms])
        return f'{{"lhs":[{lhs}]{_REL[row.rel]}{row.rhs}}}'

    def entries(self, entries) -> str:
        row = self.row
        return "[" + ",".join([f'[{row(r)},{_quote(d)},"{m!s}"]' for r, d, m in entries]) + "]"

    def cert(self, cert) -> str:
        if isinstance(cert, CGCut):
            return f'{{"kind":"cg","entries":{self.entries(cert.entries)}}}'
        if isinstance(cert, FarkasProof):
            return f'{{"kind":"farkas","entries":{self.entries(cert.entries)}}}'
        if isinstance(cert, BoundFix):
            return f'{{"kind":"bound_fix","lower":{self.cert(cert.lower)},"upper":{self.cert(cert.upper)}}}'
        if isinstance(cert, SideCut):
            return f'{{"kind":"side","side":{_quote(cert.side)},"cut":{self.cert(cert.cut)}}}'
        if isinstance(cert, LbDual):
            return f'{{"kind":"lb","bound":{cert.bound},"entries":{self.entries(cert.entries)}}}'
        if isinstance(cert, TheoryRefutation):
            evidence = ",".join(map(self.cert, cert.evidence))
            return f'{{"kind":"theory","asserted":{_lits(cert.asserted)},"evidence":[{evidence}]}}'
        if isinstance(cert, BranchDichotomy):
            return f'{{"kind":"dichotomy","var":{_quote(cert.var)},"k":{cert.k}}}'
        if isinstance(cert, BranchTrichotomy):
            return f'{{"kind":"trichotomy","x":{_quote(cert.x)},"y":{_quote(cert.y)},"c":{cert.c}}}'
        if isinstance(cert, BranchConflictSplit):
            return f'{{"kind":"conflict_split","core":{_lits(cert.core)}}}'
        if isinstance(cert, RetireEvidence):
            return f'{{"kind":"retire","assignment":{_pairs(cert.assignment)},"lb":{self.cert(cert.lb_match)}}}'
        if isinstance(cert, UnboundedEvidence):
            return f'{{"kind":"ray","assignment":{_pairs(cert.assignment)},"ray":{_pairs(cert.ray)}}}'
        raise TraceError(f"unserializable certificate {type(cert).__name__}")

    def step(self, step: Step) -> str:
        parts = ['{"rule":', _quote(step.rule)]
        if step.target is not None:
            parts.append(f',"target":{step.target}')
        if step.row is not None:
            parts.append(f',"row":{self.row(step.row)}')
        if step.cert is not None:
            parts += (',"cert":', self.cert(step.cert))
        parts.append("}")
        return "".join(parts)


def trace_lines(instance: ImtInstance, steps: Iterable[Step]) -> Iterator[str]:
    yield f"{_HEADER}{_quote(instance.digest())}}}"
    yield from map(_Writer(instance).step, steps)


def write_trace(path: str | Path, instance: ImtInstance, steps: Iterable[Step]) -> None:
    Path(path).write_bytes(("\n".join(trace_lines(instance, steps)) + "\n").encode("ascii"))


def read_trace(path: str | Path, instance: ImtInstance) -> tuple[str, list[Step]]:
    """Parse a trace file of ``instance``, whose digest must match the header; returns (digest, steps)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceError(f"not UTF-8 text: {exc}") from exc
    # Lines end at "\n" alone: JSON strings may hold U+0085, U+2028 and U+2029
    # unescaped, and str.splitlines() would break at them. The "\r" of a CRLF
    # is JSON whitespace, and a line of JSON whitespace is blank.
    lines = [(i, line) for i, line in enumerate(text.split("\n"), start=1) if line.strip(" \t\r")]
    if not lines:
        raise TraceError("empty trace file")
    try:
        header = json.loads(lines[0][1])
    except json.JSONDecodeError as exc:
        raise TraceError(f"bad header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise TraceError(f"not a {FORMAT_NAME} file")
    version = header.get("version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise TraceError(f"unsupported version {version!r}")
    digest = header.get("instance")
    if type(digest) is not str:
        raise TraceError(f"expected the instance digest as a string, got {digest!r}")
    if digest != instance.digest():
        raise DigestMismatch("trace was recorded for a different instance")
    steps = []
    table = _Table(instance.canonical_rows)
    for i, line in lines[1:]:
        try:
            steps.append(step_from_json(_decode_step(line), table))
        except (json.JSONDecodeError, KeyError, ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise TraceError(f"line {i}: {exc}") from exc
    return digest, steps
