"""Certified transition kernel.

The kernel owns the only mutable search state: a set of pending subproblems
and the incumbent. Every transition is one of ten rules, each carrying a
certificate that the kernel checks against the acting subproblem's rows
before the state changes. The search engine proposes steps; nothing it
computes is trusted.

Row visibility: a subproblem's rows are its row set C, where propagated
and branched-on equalities sit as rows, and the instance box as one row per
finite bound end. All certificates are checked against exactly that set.

Theory claims ride on tokens. The kernel re-validates each token through
the adapter's replay callbacks, so a trace stays checkable by a process
that never ran the original search.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .certificates import (
    BoundFix,
    BranchConflictSplit,
    BranchDichotomy,
    BranchTrichotomy,
    CGCut,
    CheckFailed,
    FarkasProof,
    LbDual,
    RetireEvidence,
    SubsumeSyntactic,
    TheoryLiteral,
    TLemma,
    UnboundedEvidence,
    check_bound_fix,
    check_cg,
    check_farkas,
    check_lb_dual,
    check_literal_evidence,
)
from .euf import EufAdapter
from .model import (
    ImtError,
    ImtInstance,
    Incumbent,
    LinConstraint,
    LinExpr,
    ObjValue,
    Relation,
    SimpleEquality,
    Subproblem,
    Var,
    obj_value,
    satisfies_all,
    sentinel_contradiction,
)


class RuleViolation(ImtError):
    """A proposed step failed a side condition or certificate check."""


class BudgetExceeded(ImtError):
    """A step would exceed the declared replay budget."""


class ReplayError(ImtError):
    """Replay rejected a trace step; carries the failing index."""

    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}")
        self.index = index


@dataclass(frozen=True)
class KernelState:
    pending: frozenset[Subproblem]
    incumbent: Incumbent
    next_ident: int

    @property
    def final(self) -> bool:
        return not self.pending


@dataclass(frozen=True)
class Step:
    """One proposed transition. Unused payload fields stay None."""

    rule: str  # branch|learn|forget|propagate|tlearn|drop|prune|retire|unbounded|subsume
    target: int | None = None
    other: int | None = None
    row: LinConstraint | None = None
    eq: SimpleEquality | None = None
    cert: object | None = None


@dataclass(frozen=True)
class ApplyInfo:
    created: tuple[Subproblem, ...]
    removed: tuple[Subproblem, ...]


@dataclass(frozen=True)
class Budgets:
    """Replay-enforced limits; None disables a limit."""

    max_branches: int | None = None
    max_consecutive_rewrites: int | None = None


_RULES = frozenset(
    {"branch", "learn", "forget", "propagate", "tlearn", "drop", "prune", "retire", "unbounded", "subsume"}
)
_REWRITE_RULES = frozenset({"learn", "forget", "tlearn"})


def initial_state(instance: ImtInstance) -> KernelState:
    return KernelState(frozenset({Subproblem.root(instance.constraints)}), Incumbent.none(), 1)


def rows_of(instance: ImtInstance, sub: Subproblem) -> frozenset[LinConstraint]:
    """Every row a certificate may reference on this subproblem."""
    return sub.cons.union(instance.box_rows)


def _check_row_vars(instance: ImtInstance, row: LinConstraint) -> None:
    for v in row.lhs.vars():
        if v not in instance.vars:
            raise RuleViolation(f"row mentions undeclared variable {v}")
    if row.rel not in (Relation.LE, Relation.GE, Relation.EQ):
        raise RuleViolation("rows must be normalized to <=, >=, or =")


def _diff_row(x: Var, y: Var, rel: Relation, rhs: int) -> LinConstraint:
    return LinConstraint(LinExpr.of({x: 1, y: -1}), rel, rhs)


def _arms(lit: TheoryLiteral, holds: bool) -> list[LinConstraint]:
    """The rows, one per arm, under which the literal holds (or fails)."""
    if lit.kind in ("eq", "diseq"):
        if (lit.kind == "eq") == holds:
            return [_diff_row(lit.x, lit.y, Relation.EQ, lit.offset)]
        return [
            _diff_row(lit.x, lit.y, Relation.LE, lit.offset - 1),
            _diff_row(lit.x, lit.y, Relation.GE, lit.offset + 1),
        ]
    if (lit.kind == "atom_true") == holds:
        return [LinConstraint(LinExpr.var(lit.var), Relation.GE, 1)]
    return [LinConstraint(LinExpr.var(lit.var), Relation.LE, 0)]


def true_arms(lit: TheoryLiteral) -> list[LinConstraint]:
    """The rows, one per arm, under which the literal holds; a core literal's evidence cites one."""
    return _arms(lit, True)


def conflict_split_arms(core: tuple[TheoryLiteral, ...]) -> list[tuple[tuple[LinConstraint, ...], bool]]:
    """Row additions for each child of a sequential case split over the core.

    Children partition the parent exactly. Each child is tagged with whether
    it is an all-literals-true leaf, i.e. a region the conflict core rules
    out modulo the theory.
    """
    out: list[tuple[tuple[LinConstraint, ...], bool]] = []

    def rec(i: int, acc: tuple[LinConstraint, ...]) -> None:
        if i == len(core):
            out.append((acc, True))
            return
        lit = core[i]
        for row in _arms(lit, False):
            out.append((acc + (row,), False))
        for row in true_arms(lit):
            rec(i + 1, acc + (row,))

    rec(0, ())
    return out


def _validate_core(instance: ImtInstance, core: tuple[TheoryLiteral, ...]) -> None:
    if not core:
        raise RuleViolation("conflict split needs a nonempty core")
    annotations = {a.annotation for a in instance.atoms if a.annotation is not None}
    for lit in core:
        if lit.kind in ("eq", "diseq"):
            if lit.x == lit.y:
                raise RuleViolation("literal relates a variable to itself")
            for v in (lit.x, lit.y):
                if v not in instance.vars:
                    raise RuleViolation(f"literal mentions undeclared variable {v}")
        elif lit.kind in ("atom_true", "atom_false"):
            if lit.var not in annotations:
                raise RuleViolation(f"{lit.var} is not an annotation variable")
        else:
            raise RuleViolation(f"unknown literal kind {lit.kind!r}")


def apply_step(
    instance: ImtInstance,
    state: KernelState,
    step: Step,
    adapter: EufAdapter,
) -> tuple[KernelState, ApplyInfo]:
    """Check and perform one transition; raises RuleViolation on any violated side condition."""
    try:
        return _apply_step(instance, state, step, adapter)
    except CheckFailed as exc:
        raise RuleViolation(f"{step.rule}: {exc}") from exc


def _check_witness(instance: ImtInstance, rows: frozenset[LinConstraint], point: dict[Var, int]) -> None:
    missing = instance.vars - set(point)
    if missing:
        raise RuleViolation(f"assignment misses variables: {sorted(missing)[:3]}")
    if not satisfies_all(rows, point):
        raise RuleViolation("assignment violates the subproblem rows")


def _check_model(step: Step, adapter: EufAdapter, point: dict[Var, int]) -> None:
    if step.cert.token.kind != "model":
        raise RuleViolation(f"{step.rule} needs a model token")
    if not adapter.replay_model(point):
        raise RuleViolation("theory replay rejects the assignment")


def _apply_step(
    instance: ImtInstance,
    state: KernelState,
    step: Step,
    adapter: EufAdapter,
) -> tuple[KernelState, ApplyInfo]:
    """Check one rule's side conditions, then perform the shared transition.

    A rule replaces its target with children, given as row sets, or
    removes it; it may also change the incumbent. Only the checks differ.
    """
    rule, cert = step.rule, step.cert
    if rule not in _RULES:
        raise RuleViolation(f"unknown rule {rule!r}")
    by_ident = {s.ident: s for s in state.pending}
    sub = by_ident.get(step.target)
    if sub is None:
        raise RuleViolation(f"no pending subproblem with ident {step.target}")
    kids: list[frozenset[LinConstraint]] = []
    removed: tuple[Subproblem, ...] = (sub,)
    incumbent = state.incumbent

    if rule == "branch":
        if isinstance(cert, BranchDichotomy):
            if cert.var not in instance.vars:
                raise RuleViolation(f"branch variable {cert.var} undeclared")
            lo = LinConstraint(LinExpr.var(cert.var), Relation.LE, cert.k)
            hi = LinConstraint(LinExpr.var(cert.var), Relation.GE, cert.k + 1)
            kids = [sub.cons | {lo}, sub.cons | {hi}]
        elif isinstance(cert, BranchTrichotomy):
            for v in (cert.x, cert.y):
                if v not in instance.vars:
                    raise RuleViolation(f"branch variable {v} undeclared")
            if cert.x == cert.y:
                raise RuleViolation("trichotomy needs distinct variables")
            kids = [
                sub.cons | {_diff_row(cert.x, cert.y, Relation.LE, cert.c - 1)},
                sub.cons | {SimpleEquality.diff(cert.x, cert.y, cert.c).as_constraint()},
                sub.cons | {_diff_row(cert.x, cert.y, Relation.GE, cert.c + 1)},
            ]
        elif isinstance(cert, BranchConflictSplit):
            _validate_core(instance, cert.core)
            kids = [sub.cons.union(added) for added, _ in conflict_split_arms(cert.core)]
        else:
            raise RuleViolation(f"branch certificate type {type(cert).__name__} unsupported")

    elif rule == "learn":
        cut = step.row
        if not isinstance(cert, CGCut):
            raise RuleViolation("learn needs a rounding-cut certificate")
        if cut is None:
            raise RuleViolation("learn needs a row")
        _check_row_vars(instance, cut)
        if cut in sub.cons:
            raise RuleViolation("learned row already present")
        check_cg(cert, rows_of(instance, sub), cut)
        kids = [sub.cons | {cut}]

    elif rule == "forget":
        row = step.row
        if not isinstance(cert, CGCut):
            raise RuleViolation("forget needs a rederivation certificate")
        if row is None or row not in sub.cons:
            raise RuleViolation("forgotten row is not present")
        cons = sub.cons - {row}
        check_cg(cert, rows_of(instance, Subproblem(sub.ident, cons)), row)
        kids = [cons]

    elif rule == "propagate":
        d = step.eq
        if not isinstance(cert, BoundFix):
            raise RuleViolation("propagate needs a two-sided bound certificate")
        if d is None:
            raise RuleViolation("propagate needs a simple equality")
        for v in (d.x,) if d.y is None else (d.x, d.y):
            if v not in instance.vars:
                raise RuleViolation(f"equality mentions undeclared variable {v}")
        if d.as_constraint() in sub.cons:
            raise RuleViolation("equality already recorded")
        check_bound_fix(cert, rows_of(instance, sub), d)
        kids = [sub.cons | {d.as_constraint()}]

    elif rule == "tlearn":
        cut = step.row
        if not isinstance(cert, TLemma):
            raise RuleViolation("tlearn needs a theory lemma certificate")
        if cut is None or cut != cert.lemma:
            raise RuleViolation("step row and lemma disagree")
        if cut != sentinel_contradiction():
            raise RuleViolation("only the contradiction lemma is supported")
        if cut in sub.cons:
            raise RuleViolation("lemma already present")
        if len(cert.asserted) != len(cert.evidence) or not cert.asserted:
            raise RuleViolation("lemma needs one evidence item per asserted literal")
        rows = rows_of(instance, sub)
        for lit, ev in zip(cert.asserted, cert.evidence):
            check_literal_evidence(lit, ev, rows)
        if cert.token.kind != "conflict" or cert.token.literals != cert.asserted:
            raise RuleViolation("token does not endorse the asserted literals")
        if not adapter.replay_conflict(cert.asserted):
            raise RuleViolation("theory replay does not confirm the conflict")
        kids = [sub.cons | {cut}]

    elif rule == "drop":
        if not isinstance(cert, FarkasProof):
            raise RuleViolation("drop needs a Farkas certificate")
        check_farkas(cert, rows_of(instance, sub))

    elif rule == "prune":
        if not isinstance(cert, LbDual):
            raise RuleViolation("prune needs a lower-bound certificate")
        if state.incumbent.is_none:
            raise RuleViolation("prune needs an incumbent")
        check_lb_dual(cert, rows_of(instance, sub), instance.objective)
        if cert.bound < obj_value(instance.objective, state.incumbent):
            raise RuleViolation("bound does not dominate the incumbent")

    elif rule == "retire":
        if not isinstance(cert, RetireEvidence):
            raise RuleViolation("retire needs assignment evidence")
        point = cert.assignment_dict()
        rows = rows_of(instance, sub)
        _check_witness(instance, rows, point)
        value = ObjValue.finite(instance.objective.eval(point))
        if not value < obj_value(instance.objective, state.incumbent):
            raise RuleViolation("assignment does not improve the incumbent")
        check_lb_dual(cert.lb_match, rows, instance.objective)
        if cert.lb_match.bound != value:
            raise RuleViolation("lower bound does not pin the assignment's value")
        _check_model(step, adapter, point)
        incumbent = Incumbent.feasible(point)

    elif rule == "unbounded":
        if not isinstance(cert, UnboundedEvidence):
            raise RuleViolation("unbounded needs a ray certificate")
        point = cert.assignment_dict()
        ray = cert.ray_dict()
        rows = rows_of(instance, sub)
        _check_witness(instance, rows, point)
        if not any(ray.values()):
            raise RuleViolation("ray is zero")
        for v in ray:
            if v not in instance.vars:
                raise RuleViolation(f"ray mentions undeclared variable {v}")
        drift = sum(c * ray.get(v, 0) for v, c in instance.objective.terms)
        if drift >= 0:
            raise RuleViolation("ray does not improve the objective")
        for row in rows:
            along = sum(c * ray.get(v, 0) for v, c in row.lhs.terms)
            bad = (
                (row.rel is Relation.GE and along < 0)
                or (row.rel is Relation.LE and along > 0)
                or (row.rel is Relation.EQ and along != 0)
            )
            if bad:
                raise RuleViolation(f"ray leaves the feasible cone at {row.render()}")
        frozen = set()
        for atom in instance.atoms:
            frozen.update(atom.all_vars())
        moved = [v for v in frozen if ray.get(v, 0) != 0]
        if moved:
            raise RuleViolation(f"ray moves theory variables: {sorted(moved)[:3]}")
        _check_model(step, adapter, point)
        incumbent = Incumbent.unbounded(point)
        removed = tuple(sorted(state.pending, key=lambda s: s.ident))

    else:  # subsume
        gone = by_ident.get(step.other)
        if gone is None:
            raise RuleViolation(f"no pending subproblem with ident {step.other}")
        if sub.ident == gone.ident:
            raise RuleViolation("subsume needs two distinct subproblems")
        if not isinstance(cert, SubsumeSyntactic):
            raise RuleViolation("subsume needs its syntactic marker")
        if not sub.cons <= gone.cons:
            raise RuleViolation("kept subproblem does not cover the removed one")
        removed = (gone,)

    nid = state.next_ident
    created = tuple(Subproblem(nid + i, cons) for i, cons in enumerate(kids))
    pending = state.pending.difference(removed)
    if created:
        pending = pending.union(created)
    return KernelState(pending, incumbent, nid + len(created)), ApplyInfo(created, removed)


class Kernel:
    """Stateful wrapper: applies steps, logs them, enforces budgets."""

    def __init__(
        self,
        instance: ImtInstance,
        budgets: Budgets | None = None,
    ):
        self.instance = instance
        self.adapter = EufAdapter.for_instance(instance)
        self.budgets = budgets if budgets is not None else Budgets()
        self.state = initial_state(instance)
        self.log: list[Step] = []
        self.branches = 0
        self._rewrite_run = 0

    def apply(self, step: Step) -> ApplyInfo:
        if step.rule == "branch" and self.budgets.max_branches is not None:
            if self.branches + 1 > self.budgets.max_branches:
                raise BudgetExceeded(f"branch budget {self.budgets.max_branches} exhausted")
        if step.rule in _REWRITE_RULES and self.budgets.max_consecutive_rewrites is not None:
            if self._rewrite_run + 1 > self.budgets.max_consecutive_rewrites:
                raise BudgetExceeded(
                    f"rewrite run budget {self.budgets.max_consecutive_rewrites} exhausted"
                )
        new_state, info = apply_step(self.instance, self.state, step, self.adapter)
        self.state = new_state
        self.log.append(step)
        if step.rule == "branch":
            self.branches += 1
        self._rewrite_run = self._rewrite_run + 1 if step.rule in _REWRITE_RULES else 0
        return info

    @property
    def final(self) -> bool:
        return self.state.final


_STATUS = {"none": "infeasible", "unbounded": "unbounded", "feasible": "optimal"}


def verdict(instance: ImtInstance, state: KernelState) -> tuple[str, ObjValue]:
    """Outcome of a finished derivation: (status, objective value)."""
    if not state.final:
        raise ImtError("search is not finished")
    return _STATUS[state.incumbent.kind], obj_value(instance.objective, state.incumbent)


def replay_trace(
    instance: ImtInstance,
    steps: Iterable[Step],
    budgets: Budgets | None = None,
    on_state: Callable[[int, KernelState, Step, ApplyInfo], None] | None = None,
) -> Kernel:
    """Re-check a recorded derivation from scratch; returns the kernel that accepted it.

    Every certificate is re-validated and every theory token re-played. Any
    failure raises ReplayError with the failing step index.
    """
    kernel = Kernel(instance, budgets=budgets)
    for i, step in enumerate(steps):
        try:
            info = kernel.apply(step)
        except ImtError as exc:
            raise ReplayError(i, str(exc)) from exc
        if on_state is not None:
            on_state(i, kernel.state, step, info)
    return kernel
