"""Regex-per-line reference for the native instance parser.

``imtsolver.native.parse_instance`` reads an instance in one pass over its
lines. This is the parser it replaced: every line is cut at its comment,
matched against the section pattern and then against its section's
pattern, and each expression is summed through ``LinExpr.of``. A test holds
the one-pass parser to the same instances and the same errors.

One change from that parser: a coefficient must be a run of decimal digits
(``str.isdecimal``), so a lone digit-like sign such as ``²`` is a name error
here too rather than an ``int()`` failure.
"""
from __future__ import annotations

import re

from imtsolver.model import Bounds, ImtError, ImtInstance, InterfaceAtom, LinConstraint, LinExpr, Relation, Var
from imtsolver.native import ParseError

_PLAIN = r"[A-Za-z_$][A-Za-z0-9_.$!']*"
_NAME = rf"(?:{_PLAIN}|\|[^|]+\|)"
_TOKEN = re.compile(rf"\|[^|]+\||[+-]|\d+|{_PLAIN}|\S")
_NAME_RE = re.compile(_NAME + r"\Z")
_CODE = re.compile(r"(?:[^#|]|\|[^|]*\|?)*")  # a line up to its first '#' outside |...|

_SECTION_RE = re.compile(r"\[(vars|funs|objective|constraints|atoms)\]\Z")
_VAR_LINE = re.compile(rf"({_NAME})\s+int\s+(-?\d+|\*)\s+(-?\d+|\*)\s*\Z")
_FUN_LINE = re.compile(rf"({_NAME})\s+(\d+)\s*\Z")
_CON_LINE = re.compile(r"(.*?)(<=|>=|=|<|>)\s*(-?\d+)\s*\Z")
_MIN_LINE = re.compile(r"min\s+(.*)\Z")
_ARGS = rf"\s*(?:{_NAME}\s*(?:,\s*{_NAME}\s*)*)?"
_ATOM_FUN_LINE = re.compile(rf"({_NAME})\s*=\s*({_NAME})\s*\(({_ARGS})\)\s*(?:@\s*({_NAME}))?\s*\Z")
_NAME_FIND = re.compile(_NAME)
_ATOM_EQ_LINE = re.compile(rf"\(\s*({_NAME})\s*=\s*({_NAME})\s*\)\s*(?:@\s*({_NAME}))?\s*\Z")


def _unquote(token: str) -> str:
    if token.startswith("|") and token.endswith("|"):
        return token[1:-1]
    return token


def parse_expr(text: str) -> LinExpr:
    text = text.strip()
    if text == "0":
        return LinExpr.zero()
    tokens = _TOKEN.findall(text)
    terms: list[tuple[Var, int]] = []
    i, n = 0, len(tokens)
    first = True
    while i < n:
        sign = 1
        if tokens[i] in ("+", "-"):
            sign = 1 if tokens[i] == "+" else -1
            i += 1
        elif not first:
            raise ParseError(f"expected + or - before {tokens[i]!r}")
        if i >= n:
            raise ParseError(f"dangling sign in {text!r}")
        coeff = 1
        if tokens[i].isdecimal():
            coeff = int(tokens[i])
            i += 1
            if i < n and tokens[i] == "*":
                i += 1
        if i >= n or not _NAME_RE.match(tokens[i]):
            raise ParseError(f"expected a variable name in {text!r}")
        terms.append((_unquote(tokens[i]), sign * coeff))
        i += 1
        first = False
    return LinExpr.of(terms)


def parse_instance(text: str) -> ImtInstance:
    vars_: dict[Var, tuple[int | None, int | None]] = {}
    funs: dict[str, int] = {}
    cons: list[LinConstraint] = []
    atoms: list[InterfaceAtom] = []
    objective: LinExpr | None = None
    section: str | None = None
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _CODE.match(raw).group().strip()
        if not line:
            continue

        def bad(reason: str) -> ParseError:
            return ParseError(f"line {lineno}: {reason}")

        m = _SECTION_RE.match(line)
        if m:
            section = m.group(1)
            if section in seen:
                raise bad(f"section [{section}] appears twice")
            seen.add(section)
            continue
        if section is None:
            raise bad(f"declaration before any section header: {line!r}")

        if section == "vars":
            m = _VAR_LINE.match(line)
            if not m:
                raise bad(f"cannot parse variable declaration: {line!r}")
            name = _unquote(m.group(1))
            if name in vars_:
                raise bad(f"variable {name} declared twice")
            lo = None if m.group(2) == "*" else int(m.group(2))
            hi = None if m.group(3) == "*" else int(m.group(3))
            if lo is not None and hi is not None and lo > hi:
                raise bad(f"empty declared interval for {name}: [{lo}, {hi}]")
            vars_[name] = (lo, hi)
        elif section == "funs":
            m = _FUN_LINE.match(line)
            if not m:
                raise bad(f"cannot parse function declaration: {line!r}")
            name = _unquote(m.group(1))
            if name in funs:
                raise bad(f"function {name} declared twice")
            funs[name] = int(m.group(2))
        elif section == "objective":
            if objective is not None:
                raise bad("second objective line")
            m = _MIN_LINE.match(line)
            if not m:
                raise bad(f"objective lines start with 'min': {line!r}")
            try:
                objective = parse_expr(m.group(1))
            except ParseError as exc:
                raise bad(str(exc)) from exc
        elif section == "constraints":
            m = _CON_LINE.match(line)
            if not m:
                raise bad(f"cannot parse constraint: {line!r}")
            try:
                lhs = parse_expr(m.group(1))
            except ParseError as exc:
                raise bad(str(exc)) from exc
            cons.append(LinConstraint(lhs, Relation(m.group(2)), int(m.group(3))))
        else:
            m = _ATOM_EQ_LINE.match(line)
            if m:
                ann = _unquote(m.group(3)) if m.group(3) else None
                atoms.append(InterfaceAtom.eq_atom(_unquote(m.group(1)), _unquote(m.group(2)), ann))
                continue
            m = _ATOM_FUN_LINE.match(line)
            if not m:
                raise bad(f"cannot parse atom: {line!r}")
            args = [_unquote(a) for a in _NAME_FIND.findall(m.group(3))]
            ann = _unquote(m.group(4)) if m.group(4) else None
            atoms.append(InterfaceAtom.fun_def(_unquote(m.group(1)), _unquote(m.group(2)), args, ann))

    try:
        return ImtInstance(
            vars_.keys(),
            Bounds(vars_),
            cons,
            atoms,
            objective if objective is not None else LinExpr.zero(),
            funs,
        )
    except ImtError as exc:
        raise ParseError(str(exc)) from exc
