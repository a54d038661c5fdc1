"""Sectioned line format for instances.

One declaration per line under a bracketed section header; '#' starts a
comment anywhere outside a pipe-quoted name. Example:

    [vars]
    x int 0 10
    y int * *          # '*' leaves that side unbounded
    [funs]
    f 1
    [objective]
    min 2 x - 3 y
    [constraints]
    x + 2 y <= 7
    [atoms]
    r = f(x)
    (x = y) @ b

Sections may appear in any order, each at most once; [funs], [objective],
and [atoms] may be omitted (a missing objective means feasibility mode).
Names are plain identifiers; anything else without '|' or a line break
can be written pipe-quoted (|such name|). An atom's trailing "@ v" ties
its truth to the 0/1 variable v; atoms without it are asserted outright.
"""
from __future__ import annotations

import re

from .model import (
    Bounds,
    ImtError,
    ImtInstance,
    InterfaceAtom,
    LinConstraint,
    LinExpr,
    Relation,
    Var,
)


class ParseError(ImtError):
    """The instance text is malformed; the message carries the line number."""


_PLAIN = r"[A-Za-z_$][A-Za-z0-9_.$!']*"
_NAME = rf"(?:{_PLAIN}|\|[^|]+\|)"
_TOKEN = re.compile(rf"\|[^|]+\||[+-]|\d+|{_PLAIN}|\S")
_PLAIN_RE = re.compile(_PLAIN + r"\Z")
_NAME_RE = re.compile(_NAME + r"\Z")
_CODE = re.compile(r"(?:[^#|]|\|[^|]*\|?)*")  # a line up to its first '#' outside |...|

_SECTION_RE = re.compile(r"\[(vars|funs|objective|constraints|atoms)\]\Z")
_VAR_LINE = re.compile(rf"({_NAME})\s+int\s+(-?\d+|\*)\s+(-?\d+|\*)\s*\Z")
_FUN_LINE = re.compile(rf"({_NAME})\s+(\d+)\s*\Z")
_CON_LINE = re.compile(r"(.*?)(<=|>=|=|<|>)\s*(-?\d+)\s*\Z")
_MIN_LINE = re.compile(r"min\s+(.*)\Z")
_ARGS = rf"\s*(?:{_NAME}\s*(?:,\s*{_NAME}\s*)*)?"  # names separated by commas, a quoted one may hold a comma
_ATOM_FUN_LINE = re.compile(rf"({_NAME})\s*=\s*({_NAME})\s*\(({_ARGS})\)\s*(?:@\s*({_NAME}))?\s*\Z")
_NAME_FIND = re.compile(_NAME)
_ATOM_EQ_LINE = re.compile(rf"\(\s*({_NAME})\s*=\s*({_NAME})\s*\)\s*(?:@\s*({_NAME}))?\s*\Z")


def _unquote(token: str) -> str:
    if token.startswith("|") and token.endswith("|"):
        return token[1:-1]
    return token


def quote_name(name: Var) -> str:
    if _PLAIN_RE.match(name):
        return name
    if not name or "|" in name or name.splitlines() != [name]:
        raise ImtError(f"no native line can spell the name {name!r}")
    return f"|{name}|"


def parse_expr(text: str) -> LinExpr:
    """Sum of integer-coefficient terms; the literal 0 is the empty expression."""
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
        if tokens[i].isdigit():
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


def render_expr(e: LinExpr) -> str:
    if not e.terms:
        return "0"
    parts: list[str] = []
    for v, c in e.terms:
        mag = abs(c)
        body = quote_name(v) if mag == 1 else f"{mag} {quote_name(v)}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


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


def render_instance(instance: ImtInstance) -> str:
    lines: list[str] = ["[vars]"]
    for v in sorted(instance.vars):
        lo, hi = instance.bounds.interval(v)
        lines.append(
            f"{quote_name(v)} int {'*' if lo is None else lo} {'*' if hi is None else hi}"
        )
    if instance.funs:
        lines.append("[funs]")
        for f in sorted(instance.funs):
            lines.append(f"{quote_name(f)} {instance.funs[f]}")
    lines.append("[objective]")
    lines.append(f"min {render_expr(instance.objective)}")
    lines.append("[constraints]")
    for c in sorted(instance.constraints, key=lambda c: c.render()):
        lines.append(f"{render_expr(c.lhs)} {c.rel.value} {c.rhs}")
    if instance.atoms:
        lines.append("[atoms]")
        for a in sorted(instance.atoms, key=lambda a: a.render()):
            suffix = f" @ {quote_name(a.annotation)}" if a.annotation is not None else ""
            if a.kind == "fun":
                args = ", ".join(quote_name(x) for x in a.args)
                lines.append(f"{quote_name(a.result)} = {quote_name(a.fun)}({args}){suffix}")
            else:
                lines.append(f"({quote_name(a.x)} = {quote_name(a.y)}){suffix}")
    return "\n".join(lines) + "\n"
