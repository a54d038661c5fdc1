"""Exact data model: linear expressions, constraints, subproblems, instances.

All arithmetic is exact. Integers are unbounded Python ints; rationals are
``fractions.Fraction``. Every public type is immutable and safe to share.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

Var = str
Assignment = Mapping[Var, int]


class ImtError(Exception):
    """Base class for solver errors."""


class MissingVariable(ImtError):
    """An evaluation touched a variable the assignment does not define."""


class InvariantError(ImtError):
    """A model-level invariant was violated at construction time, or a solver invariant during a solve."""


def frac_floor(q: Fraction) -> int:
    return q.numerator // q.denominator


def frac_ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


@dataclass(frozen=True, slots=True)
class LinExpr:
    """Sparse linear expression with integer coefficients.

    Terms are stored sorted by variable and never carry a zero coefficient,
    so syntactic equality coincides with structural equality. The hash is
    computed once, at construction.
    """

    terms: tuple[tuple[Var, int], ...] = ()
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.terms,)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(items: Mapping[Var, int] | Iterable[tuple[Var, int]]) -> LinExpr:
        if hasattr(items, "items"):
            items = items.items()
        acc: dict[Var, int] = {}
        for v, c in items:
            acc[v] = acc.get(v, 0) + int(c)
        return LinExpr(tuple(sorted((v, c) for v, c in acc.items() if c != 0)))

    @staticmethod
    def var(v: Var, coeff: int = 1) -> LinExpr:
        coeff = int(coeff)
        return LinExpr(((v, coeff),) if coeff else ())

    @staticmethod
    def zero() -> LinExpr:
        return LinExpr()

    def coeff(self, v: Var) -> int:
        for name, c in self.terms:
            if name == v:
                return c
        return 0

    def vars(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: LinExpr) -> LinExpr:
        return LinExpr.of(list(self.terms) + list(other.terms))

    def __sub__(self, other: LinExpr) -> LinExpr:
        return self + other.scale(-1)

    def __neg__(self) -> LinExpr:
        return self.scale(-1)

    def scale(self, k: int) -> LinExpr:
        if k == 0:
            return LinExpr()
        return LinExpr(tuple((v, c * k) for v, c in self.terms))

    def eval(self, assignment: Mapping[Var, int | Fraction]):
        total = 0
        for v, c in self.terms:
            if v not in assignment:
                raise MissingVariable(v)
            total += c * assignment[v]
        return total

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for v, c in self.terms:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = v if mag == 1 else f"{mag} {v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


class Relation(Enum):
    LT = "<"
    LE = "<="
    EQ = "="
    GT = ">"
    GE = ">="


@dataclass(frozen=True, slots=True)
class LinConstraint:
    """Relation between a linear expression and an integer constant.

    The left side may be empty only for trivial or sentinel rows such as the
    learned contradiction ``0 <= -1``. The hash is computed once, at
    construction; the rendered text once, on first use (rows are sorted by it).
    """

    lhs: LinExpr
    rel: Relation
    rhs: int
    _hash: int = field(init=False, repr=False, compare=False)
    _text: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.lhs, self.rel, self.rhs)))

    def __hash__(self) -> int:
        return self._hash

    def render(self) -> str:
        text = self._text
        if text is None:
            text = f"{self.lhs.render()} {self.rel.value} {self.rhs}"
            object.__setattr__(self, "_text", text)
        return text


def satisfies(c: LinConstraint, assignment: Mapping[Var, int | Fraction]) -> bool:
    """Truth of ``c`` under a total assignment, exact arithmetic."""
    lhs = c.lhs.eval(assignment)
    if c.rel is Relation.LT:
        return lhs < c.rhs
    if c.rel is Relation.LE:
        return lhs <= c.rhs
    if c.rel is Relation.EQ:
        return lhs == c.rhs
    if c.rel is Relation.GT:
        return lhs > c.rhs
    return lhs >= c.rhs


def satisfies_all(cs: Iterable[LinConstraint], assignment: Mapping[Var, int | Fraction]) -> bool:
    return all(satisfies(c, assignment) for c in cs)


def normalize(c: LinConstraint) -> LinConstraint:
    """Rewrite strict relations over integers: e < r to e <= r-1, e > r to e >= r+1."""
    if c.rel is Relation.LT:
        return LinConstraint(c.lhs, Relation.LE, c.rhs - 1)
    if c.rel is Relation.GT:
        return LinConstraint(c.lhs, Relation.GE, c.rhs + 1)
    return c


def sentinel_contradiction() -> LinConstraint:
    """The canonical learned contradiction, normalized form of 0 < 0."""
    return LinConstraint(LinExpr.zero(), Relation.LE, -1)


@dataclass(frozen=True)
class SimpleEquality:
    """A propagate step's payload: v = c (y is None) or x - y = c, oriented so x < y lexicographically."""

    x: Var
    y: Var | None
    c: int

    def __post_init__(self) -> None:
        if self.y is not None:
            if self.x == self.y:
                raise InvariantError("difference equality needs distinct variables")
            if self.y < self.x:
                x, y = self.y, self.x
                object.__setattr__(self, "x", x)
                object.__setattr__(self, "y", y)
                object.__setattr__(self, "c", -self.c)

    @staticmethod
    def fix(v: Var, c: int) -> SimpleEquality:
        return SimpleEquality(v, None, c)

    @staticmethod
    def diff(x: Var, y: Var, c: int) -> SimpleEquality:
        return SimpleEquality(x, y, c)

    def as_constraint(self) -> LinConstraint:
        if self.y is None:
            return LinConstraint(LinExpr.var(self.x), Relation.EQ, self.c)
        return LinConstraint(LinExpr.of({self.x: 1, self.y: -1}), Relation.EQ, self.c)


class Bounds:
    """Per-variable closed integer intervals; None marks an infinite end."""

    def __init__(self, table: Mapping[Var, tuple[int | None, int | None]] | None = None):
        clean: dict[Var, tuple[int | None, int | None]] = {}
        for v, (lo, hi) in (table or {}).items():
            if lo is not None and hi is not None and lo > hi:
                raise InvariantError(f"empty declared interval for {v}: [{lo}, {hi}]")
            if lo is None and hi is None:
                continue
            clean[v] = (lo, hi)
        self._table = clean
        # one row per finite end, built on first use; the table never changes
        self._lo_rows: dict[Var, LinConstraint] = {}
        self._hi_rows: dict[Var, LinConstraint] = {}

    def lo(self, v: Var) -> int | None:
        return self._table.get(v, (None, None))[0]

    def hi(self, v: Var) -> int | None:
        return self._table.get(v, (None, None))[1]

    def interval(self, v: Var) -> tuple[int | None, int | None]:
        return self._table.get(v, (None, None))

    def row_lo(self, v: Var) -> LinConstraint:
        row = self._lo_rows.get(v)
        if row is None:
            lo = self.lo(v)
            if lo is None:
                raise InvariantError(f"{v} has no lower bound")
            row = self._lo_rows[v] = LinConstraint(LinExpr.var(v), Relation.GE, lo)
        return row

    def row_hi(self, v: Var) -> LinConstraint:
        row = self._hi_rows.get(v)
        if row is None:
            hi = self.hi(v)
            if hi is None:
                raise InvariantError(f"{v} has no upper bound")
            row = self._hi_rows[v] = LinConstraint(LinExpr.var(v), Relation.LE, hi)
        return row

    def rows(self, vars: Iterable[Var]) -> list[LinConstraint]:
        out = []
        for v in sorted(set(vars)):
            lo, hi = self.interval(v)
            if lo is not None:
                out.append(self.row_lo(v))
            if hi is not None:
                out.append(self.row_hi(v))
        return out

    def filled(self, vars: Iterable[Var], default: int | None) -> Bounds:
        """Complete missing bound ends with [-default, default]."""
        table = dict(self._table)
        for v in vars:
            lo, hi = table.get(v, (None, None))
            if default is not None:
                if lo is None:
                    lo = -default
                if hi is None:
                    hi = default
            table[v] = (lo, hi)
        return Bounds({v: iv for v, iv in table.items() if iv != (None, None)})

    def volume(self, vars: Iterable[Var]) -> int | None:
        """Number of integer points in the box, None if some side is infinite."""
        total = 1
        for v in set(vars):
            lo, hi = self.interval(v)
            if lo is None or hi is None:
                return None
            total *= hi - lo + 1
        return total

    def iter_box(self, vars: Iterable[Var]) -> Iterator[dict[Var, int]]:
        """Lexicographic enumeration of all integer points over sorted variables."""
        names = sorted(set(vars))
        ranges = []
        for v in names:
            lo, hi = self.interval(v)
            if lo is None or hi is None:
                raise InvariantError(f"cannot enumerate unbounded variable {v}")
            ranges.append(range(lo, hi + 1))
        import itertools

        for point in itertools.product(*ranges):
            yield dict(zip(names, point))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Bounds) and self._table == other._table

    def __repr__(self) -> str:
        return f"Bounds({self._table!r})"


@dataclass(frozen=True)
class Subproblem:
    """A work item: its row set C, which propagated and branched-on equalities join as rows."""

    ident: int
    cons: frozenset[LinConstraint]

    @staticmethod
    def root(cons: Iterable[LinConstraint], ident: int = 0) -> Subproblem:
        return Subproblem(ident, frozenset(normalize(c) for c in cons))


@dataclass(frozen=True)
class Incumbent:
    """Best accepted assignment so far: nothing, feasible, or an unbounded witness."""

    kind: str  # "none" | "feasible" | "unbounded"
    entries: tuple[tuple[Var, int], ...] | None

    @staticmethod
    def none() -> Incumbent:
        return Incumbent("none", None)

    @staticmethod
    def feasible(assignment: Assignment) -> Incumbent:
        return Incumbent("feasible", tuple(sorted(assignment.items())))

    @staticmethod
    def unbounded(witness: Assignment) -> Incumbent:
        return Incumbent("unbounded", tuple(sorted(witness.items())))

    @property
    def is_none(self) -> bool:
        return self.kind == "none"

    def assignment(self) -> dict[Var, int]:
        if self.entries is None:
            raise InvariantError("no incumbent assignment")
        return dict(self.entries)


@dataclass(frozen=True, order=False)
class ObjValue:
    """Objective value extended with two infinities; totally ordered."""

    kind: int  # -1 neg-inf, 0 finite, 1 pos-inf
    value: int | None = None

    @staticmethod
    def neg_inf() -> ObjValue:
        return ObjValue(-1)

    @staticmethod
    def pos_inf() -> ObjValue:
        return ObjValue(1)

    @staticmethod
    def finite(v: int) -> ObjValue:
        return ObjValue(0, int(v))

    @property
    def is_finite(self) -> bool:
        return self.kind == 0

    def sort_key(self) -> tuple[int, int]:
        return (self.kind, self.value if self.kind == 0 else 0)

    def __lt__(self, other: ObjValue) -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: ObjValue) -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: ObjValue) -> bool:
        return other < self

    def __ge__(self, other: ObjValue) -> bool:
        return other <= self

    def render(self) -> str:
        if self.kind == -1:
            return "-inf"
        if self.kind == 1:
            return "+inf"
        return str(self.value)


def obj_value(objective: LinExpr, incumbent: Incumbent) -> ObjValue:
    """Objective of an incumbent: +inf for none, -inf for an unbounded witness."""
    if incumbent.kind == "none":
        return ObjValue.pos_inf()
    if incumbent.kind == "unbounded":
        return ObjValue.neg_inf()
    return ObjValue.finite(objective.eval(incumbent.assignment()))


@dataclass(frozen=True)
class InterfaceAtom:
    """Background-theory atom: a function definition r = f(args) or an equality x = y.

    An optional annotation variable v ties the atom's truth to v > 0; an
    unannotated atom is asserted to hold outright.
    """

    kind: str  # "fun" | "eq"
    result: Var | None
    fun: str | None
    args: tuple[Var, ...]
    x: Var | None
    y: Var | None
    annotation: Var | None

    @staticmethod
    def fun_def(result: Var, fun: str, args: Iterable[Var], annotation: Var | None = None) -> InterfaceAtom:
        return InterfaceAtom("fun", result, fun, tuple(args), None, None, annotation)

    @staticmethod
    def eq_atom(x: Var, y: Var, annotation: Var | None = None) -> InterfaceAtom:
        return InterfaceAtom("eq", None, None, (), x, y, annotation)

    def core_vars(self) -> tuple[Var, ...]:
        if self.kind == "fun":
            return (self.result,) + self.args  # type: ignore[operator]
        return (self.x, self.y)  # type: ignore[return-value]

    def all_vars(self) -> tuple[Var, ...]:
        base = self.core_vars()
        return base + (self.annotation,) if self.annotation is not None else base

    def render(self) -> str:
        if self.kind == "fun":
            body = f"{self.result} = {self.fun}({', '.join(self.args)})"
        else:
            body = f"({self.x} = {self.y})"
        return f"{body} @ {self.annotation}" if self.annotation is not None else body


class ImtInstance:
    """An optimization instance: box bounds, linear constraints, theory atoms, objective.

    Constraints are normalized at construction (no strict relations stored).
    Function symbols and variable names are disjoint; every referenced
    variable is declared; annotation variables carry 0..1 bounds.
    """

    def __init__(
        self,
        vars: Iterable[Var],
        bounds: Bounds,
        constraints: Iterable[LinConstraint],
        atoms: Iterable[InterfaceAtom] = (),
        objective: LinExpr = LinExpr(),
        funs: Mapping[str, int] | None = None,
    ):
        self.vars: frozenset[Var] = frozenset(vars)
        self.bounds = bounds
        self.constraints: frozenset[LinConstraint] = frozenset(normalize(c) for c in constraints)
        self.atoms: frozenset[InterfaceAtom] = frozenset(atoms)
        self.objective = objective
        self.funs: dict[str, int] = dict(funs or {})
        self._validate()

    def _validate(self) -> None:
        overlap = self.vars & set(self.funs)
        if overlap:
            raise InvariantError(f"names used as both variable and function: {sorted(overlap)}")
        for c in self.constraints:
            for v in c.lhs.vars():
                if v not in self.vars:
                    raise InvariantError(f"constraint references undeclared variable {v}")
        for v in self.objective.vars():
            if v not in self.vars:
                raise InvariantError(f"objective references undeclared variable {v}")
        for atom in self.atoms:
            for v in atom.all_vars():
                if v not in self.vars:
                    raise InvariantError(f"atom references undeclared variable {v}")
            if atom.kind == "fun":
                if atom.fun not in self.funs:
                    raise InvariantError(f"atom uses undeclared function {atom.fun}")
                if len(atom.args) != self.funs[atom.fun]:
                    raise InvariantError(f"arity mismatch for {atom.fun}")
            if atom.annotation is not None:
                if self.bounds.interval(atom.annotation) != (0, 1):
                    raise InvariantError(f"annotation {atom.annotation} must have bounds 0..1")

    def canonical_text(self) -> str:
        lines = ["imt-instance v1"]
        for v in sorted(self.vars):
            lo, hi = self.bounds.interval(v)
            lines.append(f"var {v} {'*' if lo is None else lo} {'*' if hi is None else hi}")
        for f in sorted(self.funs):
            lines.append(f"fun {f} {self.funs[f]}")
        lines.append(f"min {self.objective.render()}")
        lines += sorted(["con " + c.render() for c in self.constraints])
        lines += sorted(["atom " + a.render() for a in self.atoms])
        return "\n".join(lines) + "\n"

    @cached_property
    def box_rows(self) -> tuple[LinConstraint, ...]:
        """One row per finite bound end, in variable order; built on first use."""
        return tuple(self.bounds.rows(self.vars))

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

    def digest(self) -> str:
        return self._digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ImtInstance):
            return NotImplemented
        return self.canonical_text() == other.canonical_text()

    def __repr__(self) -> str:
        return f"ImtInstance(vars={len(self.vars)}, C={len(self.constraints)}, I={len(self.atoms)})"
