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
    digit_limit,
)


class ParseError(ImtError):
    """The instance text is malformed; the message carries the line number."""


_PLAIN = r"[A-Za-z_$][A-Za-z0-9_.$!']*"
_NAME = rf"(?:{_PLAIN}|\|[^|]+\|)"
_TOKEN = re.compile(rf"\|[^|]+\||[+-]|\d+|{_PLAIN}|\S")
_TERM = re.compile(rf"\s*([+-]?)\s*(?:(\d+)\s*(?:\*\s*)?)?({_NAME})?")  # [sign] [coefficient [*]] name
_PLAIN_RE = re.compile(_PLAIN + r"\Z")
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
# each relation with the shift of its constant that makes a strict one non-strict, as normalize() does
_RELATIONS = {
    "<=": (Relation.LE, 0),
    "<": (Relation.LE, -1),
    "=": (Relation.EQ, 0),
    ">=": (Relation.GE, 0),
    ">": (Relation.GE, 1),
}


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
    """Sum of integer-coefficient terms; the literal 0 is the empty expression.

    Terms on one variable are summed, and a zero sum drops the term, as in ``LinExpr.of``.
    """
    text = text.strip()
    if text == "0":
        return LinExpr.zero()
    terms: dict[Var, int] = {}
    pos, n = 0, len(text)
    while pos < n:
        m = _TERM.match(text, pos)
        sign, digits, name = m.groups()
        if not sign and pos:
            raise ParseError(f"expected + or - before {_TOKEN.search(text, pos).group()!r}")
        if name is None:
            if sign and digits is None and m.end() == n:
                raise ParseError(f"dangling sign in {text!r}")
            raise ParseError(f"expected a variable name in {text!r}")
        coeff = int(digits) if digits else 1
        if name[0] == "|":
            name = name[1:-1]
        terms[name] = terms.get(name, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()
    if 0 in terms.values():
        terms = {v: c for v, c in terms.items() if c}
    return LinExpr(tuple(sorted(terms.items())))


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

    # a line's errors are raised without its number, which the handlers below prefix
    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = (_CODE.match(raw).group() if "#" in raw else raw).strip()
            if not line:
                continue
            if line[0] == "[":
                m = _SECTION_RE.match(line)
                if m:
                    section = m.group(1)
                    if section in seen:
                        raise ParseError(f"section [{section}] appears twice")
                    seen.add(section)
                    continue

            if section == "constraints":
                m = _CON_LINE.match(line)
                if not m:
                    raise ParseError(f"cannot parse constraint: {line!r}")
                lhs, rel, rhs = m.group(1, 2, 3)
                lhs = parse_expr(lhs)
                rel, shift = _RELATIONS[rel]
                cons.append(LinConstraint(lhs, rel, int(rhs) + shift))
            elif section == "vars":
                m = _VAR_LINE.match(line)
                if not m:
                    raise ParseError(f"cannot parse variable declaration: {line!r}")
                name, lo, hi = m.group(1, 2, 3)
                if name[0] == "|":
                    name = name[1:-1]
                if name in vars_:
                    raise ParseError(f"variable {name} declared twice")
                lo = None if lo == "*" else int(lo)
                hi = None if hi == "*" else int(hi)
                if lo is not None and hi is not None and lo > hi:
                    raise ParseError(f"empty declared interval for {name}: [{lo}, {hi}]")
                vars_[name] = (lo, hi)
            elif section == "objective":
                if objective is not None:
                    raise ParseError("second objective line")
                m = _MIN_LINE.match(line)
                if not m:
                    raise ParseError(f"objective lines start with 'min': {line!r}")
                objective = parse_expr(m.group(1))
            elif section == "funs":
                m = _FUN_LINE.match(line)
                if not m:
                    raise ParseError(f"cannot parse function declaration: {line!r}")
                name = _unquote(m.group(1))
                if name in funs:
                    raise ParseError(f"function {name} declared twice")
                funs[name] = int(m.group(2))
            elif section == "atoms":
                m = _ATOM_EQ_LINE.match(line)
                if m:
                    ann = _unquote(m.group(3)) if m.group(3) else None
                    atoms.append(InterfaceAtom.eq_atom(_unquote(m.group(1)), _unquote(m.group(2)), ann))
                    continue
                m = _ATOM_FUN_LINE.match(line)
                if not m:
                    raise ParseError(f"cannot parse atom: {line!r}")
                args = [_unquote(a) for a in _NAME_FIND.findall(m.group(3))]
                ann = _unquote(m.group(4)) if m.group(4) else None
                atoms.append(InterfaceAtom.fun_def(_unquote(m.group(1)), _unquote(m.group(2)), args, ann))
            else:
                raise ParseError(f"declaration before any section header: {line!r}")
    except ParseError as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    except ValueError as exc:  # only int() raises it here, on a literal over the interpreter's digit limit
        raise ParseError(f"line {lineno}: integer literal too long: {digit_limit(exc)}") from None

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
