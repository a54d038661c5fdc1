"""Branch-and-cut search engine.

The engine decides what to do next; the kernel decides whether it was
legal. Every state change goes through a kernel step with its certificate,
so a finished run leaves a complete derivation that replays independently.

Node recipe: certified interval propagation, then the exact relaxation.
An infeasible relaxation drops the node with Farkas multipliers; a dominated
bound prunes it; a fractional optimum is attacked with rounding cuts and
then a dichotomy branch; an integral optimum goes to the theory session,
which either endorses it (retire) or returns a conflict core. A node whose
rows already entail the core is dropped by theory refutation; otherwise the
engine splits on the core, and the kernel, once the theory has confirmed
the conflict, creates only the children where some core literal fails.

No derived row is learned up front: not propagation's bounds and pinned
differences, nor the Gomory cuts. The LP and the search for theory evidence
see them beside C, and a step whose certificate cites some of them first
learns those, each after the derived rows its own derivation cites. A
branch learns nothing: each child inherits the node's unlearned cuts and
inherited rows, with the derived rows they cite, and its propagation and LP
see them beside its C as the parent's did. So the kernel checks only the rows a certificate uses, as
lazy clause generation records an explanation only when a conflict needs it
(Ohrimenko, Stuckey and Codish, Constraints 2009), and no trim pass has to
remove the rest afterwards (Heule, Hunt and Wetzler, FMCAD 2013).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator

from .certificates import (
    BoundFix,
    BranchConflictSplit,
    BranchDichotomy,
    CGCut,
    FarkasProof,
    LbDual,
    LiteralEvidence,
    RetireEvidence,
    SideCut,
    TheoryLiteral,
    TheoryRefutation,
    UnboundedEvidence,
    identity_cut,
)
from .euf import EufSession
from .kernel import ApplyInfo, Kernel, Step, rows_of, true_arms, verdict
from .lp import LpInfeasible, LpOptimal, LpUnbounded, derive_gomory_cuts, lp_solve, propagate_bounds
from .model import (
    Bounds,
    ImtError,
    ImtInstance,
    InterfaceAtom,
    LinConstraint,
    ObjValue,
    Relation,
    Subproblem,
    Var,
    frac_ceil,
    frac_floor,
    obj_value,
    satisfies_all,
)


class EngineLimit(ImtError):
    """The search gave up before reaching a verdict; ``steps`` are those the kernel had accepted.

    ``incumbent`` is the best objective value found (+inf if none) and
    ``bound`` a lower bound on the optimum, at most ``incumbent``.
    """

    def __init__(self, message: str, steps: tuple[Step, ...], incumbent: ObjValue, bound: ObjValue):
        super().__init__(message)
        self.steps = steps
        self.incumbent = incumbent
        self.bound = bound


class UnsupportedShape(ImtError):
    """The instance has a shape the engine cannot decide with a certificate."""


# cuts added per round, best violation first
CUTS_PER_ROUND = 4


@dataclass
class Config:
    max_cut_rounds: int = 10
    node_limit: int | None = None


@dataclass
class Stats:
    nodes: int = 0
    lp_solves: int = 0
    pivots: int = 0
    lp_rows: int = 0  # tableau rows, summed over the LP solves
    cuts: int = 0  # Gomory cuts given to the LP, learned or not
    branches: int = 0
    propagations: int = 0
    theory_checks: int = 0
    conflicts: int = 0

    def summary(self) -> str:
        return (
            f"nodes={self.nodes} lp={self.lp_solves} pivots={self.pivots} lp_rows={self.lp_rows} "
            f"cuts={self.cuts} branches={self.branches} propagations={self.propagations} "
            f"theory={self.theory_checks} conflicts={self.conflicts}"
        )


@dataclass
class SolveResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: ObjValue
    assignment: dict[Var, int] | None
    stats: Stats
    steps: tuple[Step, ...]
    instance: ImtInstance


def fill_value(bounds: Bounds, v: Var) -> int:
    """Deterministic in-box value for a variable no active row constrains."""
    lo, hi = bounds.interval(v)
    if lo is not None:
        return lo
    if hi is not None:
        return hi
    return 0


def select_branch(x_star: dict[Var, Fraction], fractional: list[Var]) -> tuple[Var, int]:
    """Most-fractional variable, ties broken by name; split at the floor."""
    def key(v: Var):
        q = x_star[v]
        f = q - frac_floor(q)
        return (abs(f - Fraction(1, 2)), v)

    v = min(fractional, key=key)
    return v, frac_floor(x_star[v])


def arrangement_literals(atoms: frozenset[InterfaceAtom] | tuple[InterfaceAtom, ...], assignment: dict[Var, int]) -> list[TheoryLiteral]:
    """Literals pinning the assignment's view of the interface.

    The equality pattern over atom core variables (equal pairs as equalities,
    the rest as plain disequalities), plus the sign of each annotation. Atoms
    only distinguish equal from unequal, so this decides exactly whether the
    assignment extends to a model. A literal carries no offset: in a conflict
    core, negating an offset would only slide an unbounded variable one unit
    instead of closing the region.
    """
    core = sorted({v for a in atoms for v in a.core_vars()})
    lits: list[TheoryLiteral] = []
    for i, u in enumerate(core):
        for w in core[i + 1 :]:
            if assignment[u] == assignment[w]:
                lits.append(TheoryLiteral.var_eq(u, w))
            else:
                lits.append(TheoryLiteral.var_diseq(u, w))
    seen: set[Var] = set()
    for a in sorted(atoms, key=lambda a: a.render()):
        if a.annotation is None or a.annotation in seen:
            continue
        seen.add(a.annotation)
        if assignment[a.annotation] > 0:
            lits.append(TheoryLiteral.atom_true(a.annotation))
        else:
            lits.append(TheoryLiteral.atom_false(a.annotation))
    return lits


def _eq_evidence(lit: TheoryLiteral, row: LinConstraint) -> BoundFix:
    # the kernel checks the canonical row of x - y = 0, whose smaller name comes first
    ge = identity_cut(row, "ge")
    le = identity_cut(row, "le")
    return BoundFix(ge, le) if lit.x < lit.y else BoundFix(le, ge)


def syntactic_evidence(
    core: tuple[TheoryLiteral, ...], rows: frozenset[LinConstraint]
) -> tuple[LiteralEvidence, ...] | None:
    """Row-identity evidence for each core literal, or None if one is missing.

    The evidence cites the first of the literal's true-arm rows present.
    """
    out: list[LiteralEvidence] = []
    for lit in core:
        row = next((r for r in true_arms(lit) if r in rows), None)
        if row is None:
            return None
        if lit.kind == "eq":
            out.append(_eq_evidence(lit, row))
            continue
        direction = "le" if row.rel is Relation.LE else "ge"
        cut = identity_cut(row, direction)
        out.append(SideCut(direction, cut) if lit.kind == "diseq" else cut)
    return tuple(out)


def _cited(cert: object) -> Iterator[LinConstraint]:
    """The rows a certificate cites, depth first in field order."""
    if isinstance(cert, (CGCut, FarkasProof, LbDual)):
        for row, _, _ in cert.entries:
            yield row
    elif isinstance(cert, BoundFix):
        yield from _cited(cert.lower)
        yield from _cited(cert.upper)
    elif isinstance(cert, SideCut):
        yield from _cited(cert.cut)
    elif isinstance(cert, TheoryRefutation):
        for ev in cert.evidence:
            yield from _cited(ev)
    elif isinstance(cert, RetireEvidence):
        yield from _cited(cert.lb_match)


def _integralize_ray(ray: dict[Var, Fraction]) -> dict[Var, int]:
    scale = lcm(*(q.denominator for q in ray.values())) if ray else 1
    ints = {v: int(q * scale) for v, q in ray.items() if q != 0}
    shrink = 0
    for c in ints.values():
        shrink = gcd(shrink, abs(c))
    if shrink > 1:
        ints = {v: c // shrink for v, c in ints.items()}
    return ints


class _Search:
    def __init__(self, instance: ImtInstance, config: Config):
        self.instance = instance
        self.config = config
        self.kernel = Kernel(instance)
        self.stats = Stats()
        self.hints: dict[int, tuple[int, int]] = {0: ObjValue.neg_inf().sort_key()}
        self.theory_frozen: frozenset[Var] = frozenset(
            v for a in instance.atoms for v in a.all_vars()
        )
        # the current node's unlearned rows, in derivation order: its inherited
        # rows, then propagation's derived bounds and pinned differences, and the node's cuts
        self.derived: dict[LinConstraint, CGCut | BoundFix] = {}
        # the rows of ``derived`` that every child inherits: inherited rows and cuts
        self.kept: list[LinConstraint] = []
        # each pending node's inherited rows, in derivation order
        self.inherited: dict[int, dict[LinConstraint, CGCut | BoundFix]] = {}

    def run(self) -> SolveResult:
        cfg = self.config
        while self.kernel.state.pending:
            if cfg.node_limit is not None and self.stats.nodes >= cfg.node_limit:
                raise self._limit(f"node limit {cfg.node_limit} reached")
            sub = min(
                self.kernel.state.pending,
                key=lambda s: (self.hints.get(s.ident, (-1, 0)), s.ident),
            )
            self.stats.nodes += 1
            self._process(sub)
        status, value = verdict(self.instance, self.kernel.state)
        inc = self.kernel.state.incumbent
        assignment = None if inc.is_none else inc.assignment()
        return SolveResult(
            status, value, assignment, self.stats, tuple(self.kernel.log), self.instance
        )

    def _limit(self, message: str) -> EngineLimit:
        """A stop carrying the incumbent's value and the lowest pending hint, capped at it.

        A node without a hint counts as -inf. A pending node whose hint
        reaches the incumbent would be pruned, so the cap loses nothing.
        """
        best = obj_value(self.instance.objective, self.kernel.state.incumbent)
        kind, value = min(self.hints.get(s.ident, (-1, 0)) for s in self.kernel.state.pending)
        bound = min(best, ObjValue(kind, value if kind == 0 else None))
        return EngineLimit(message, tuple(self.kernel.log), best, bound)

    # node processing

    def _view(self, current: Subproblem) -> Subproblem:
        """The node as the LP sees it: C and the unlearned rows."""
        return Subproblem(current.ident, current.cons.union(self.derived)) if self.derived else current

    def _closure(self, rows: Iterable[LinConstraint]) -> list[LinConstraint]:
        """The unlearned rows among ``rows`` and those their derivations cite, in derivation order.

        Each unlearned row cites only rows derived before it, so every row
        comes after the rows its own derivation cites.
        """
        need: set[LinConstraint] = set()
        todo = list(rows)
        while todo:
            row = todo.pop()
            if row in self.derived and row not in need:
                need.add(row)
                todo += _cited(self.derived[row])
        return [row for row in self.derived if row in need]

    def _cite(self, current: Subproblem, cert: object) -> Subproblem:
        """Learn the unlearned rows ``cert`` cites, and those their derivations cite, in derivation order."""
        if not self.derived:
            return current
        for row in self._closure(_cited(cert)):
            current = self.kernel.apply(Step("learn", current.ident, row=row, cert=self.derived.pop(row))).created[0]
        return current

    def _apply(self, current: Subproblem, rule: str, cert: object) -> ApplyInfo:
        """Apply a step to the node, after learning the unlearned rows its certificate cites."""
        current = self._cite(current, cert)
        return self.kernel.apply(Step(rule, current.ident, cert=cert))

    def _branch(self, current: Subproblem, cert: object, hint: tuple[int, int]) -> None:
        """Branch without learning; each child inherits the node's kept rows and the derived rows they cite.

        A child's own rows are left out, since a conflict-split arm can equal one.
        """
        children = self.kernel.apply(Step("branch", current.ident, cert=cert)).created
        self.stats.branches += 1
        rows = self._closure(self.kept)
        for child in children:
            self.hints[child.ident] = hint
            self.inherited[child.ident] = {row: self.derived[row] for row in rows if row not in child.cons}

    def _process(self, sub: Subproblem) -> None:
        current = sub
        # inherited rows, derived bounds, pinned differences and cuts are learned
        # only when a certificate cites them
        self.derived = self.inherited.pop(sub.ident, {})
        self.kept = list(self.derived)
        prop = propagate_bounds(self._view(current), self.instance.bounds)
        self.derived.update(prop.derived)
        if prop.farkas is not None:
            self._apply(current, "drop", cert=prop.farkas)
            return
        self.derived.update(prop.fixes)
        self.stats.propagations += len(prop.fixes)

        rounds = 0
        prev: LpOptimal | None = None  # re-optimised after each cut round
        while True:
            out = lp_solve(self._view(current), self.instance.objective, self.instance.bounds, prev)
            self.stats.lp_solves += 1
            self.stats.pivots += out.pivots
            self.stats.lp_rows += out.tableau_rows
            if isinstance(out, LpInfeasible):
                self._apply(current, "drop", cert=out.farkas)
                return
            if isinstance(out, LpUnbounded):
                self._handle_unbounded(current, out)
                return
            lb = ObjValue.finite(frac_ceil(out.value))
            best = obj_value(self.instance.objective, self.kernel.state.incumbent)
            if not self.kernel.state.incumbent.is_none and lb >= best:
                self._apply(current, "prune", cert=LbDual(lb.value, out.dual))
                return
            fractional = [v for v, q in sorted(out.x_star.items()) if q.denominator != 1]
            if not fractional:
                self._handle_integral(current, out)
                return
            if rounds < self.config.max_cut_rounds:
                # each cut is new to the view's rows and violated at the vertex
                cuts = derive_gomory_cuts(out)[:CUTS_PER_ROUND]
                if cuts:
                    for cut, cert in cuts:
                        self.derived[cut] = cert
                        self.kept.append(cut)
                        self.stats.cuts += 1
                    rounds += 1
                    prev = out
                    continue
            self._branch(current, BranchDichotomy(*select_branch(out.x_star, fractional)), lb.sort_key())
            return

    def _complete(self, x_star: dict[Var, Fraction]) -> dict[Var, int]:
        point = {v: int(q) for v, q in x_star.items() if v in self.instance.vars}
        for v in self.instance.vars:
            if v not in point:
                point[v] = fill_value(self.instance.bounds, v)
        return point

    def _theory_conflict(self, point: dict[Var, int]) -> tuple[TheoryLiteral, ...] | None:
        """Check the point's atom arrangement in a theory session; the conflict core, or None."""
        if not self.instance.atoms:
            return None
        self.stats.theory_checks += 1
        session = EufSession(self.instance.atoms)
        for lit in arrangement_literals(self.instance.atoms, point):
            session.assert_literal(lit)
        res = session.check()
        if res is None:
            return None
        self.stats.conflicts += 1
        return res.core

    def _handle_integral(self, current: Subproblem, out: LpOptimal) -> None:
        point = self._complete(out.x_star)
        core = self._theory_conflict(point)
        if core is not None:
            self._handle_conflict(current, core, ObjValue.finite(frac_ceil(out.value)))
            return
        value = int(out.value)
        ev = RetireEvidence(tuple(sorted(point.items())), LbDual(value, out.dual))
        self._apply(current, "retire", cert=ev)

    def _handle_conflict(
        self, current: Subproblem, core: tuple[TheoryLiteral, ...], lb: ObjValue
    ) -> None:
        direct = syntactic_evidence(core, rows_of(self.instance, self._view(current)))
        if direct is not None:
            self._apply(current, "drop", cert=TheoryRefutation(core, direct))
        else:
            self._branch(current, BranchConflictSplit(core), lb.sort_key())

    def _handle_unbounded(self, current: Subproblem, out: LpUnbounded) -> None:
        ray = _integralize_ray(out.ray)
        moved = sorted(v for v in ray if v in self.theory_frozen)
        if moved:
            raise UnsupportedShape(
                f"unbounded direction moves interface variables {moved[:3]}; "
                "bound them to proceed"
            )
        fractional = sorted(v for v, q in out.point.items() if q.denominator != 1)
        point: dict[Var, int] | None = None
        if not fractional:
            point = self._complete(out.point)
        else:
            snapped = {v: frac_floor(q) for v, q in out.point.items()}
            candidate = self._complete({v: Fraction(c) for v, c in snapped.items()})
            if satisfies_all(rows_of(self.instance, current), candidate):
                point = candidate
        if point is None:
            v = fractional[0]
            self._branch(current, BranchDichotomy(v, frac_floor(out.point[v])), ObjValue.neg_inf().sort_key())
            return
        core = self._theory_conflict(point)
        if core is not None:
            self._handle_conflict(current, core, ObjValue.neg_inf())
            return
        ev = UnboundedEvidence(tuple(sorted(point.items())), tuple(sorted(ray.items())))
        self.kernel.apply(Step("unbounded", current.ident, cert=ev))
        # the step removes every pending node
        self.inherited.clear()


def solve(instance: ImtInstance, config: Config | None = None) -> SolveResult:
    """Decide or optimize the instance; the result carries the full derivation."""
    return _Search(instance, config or Config()).run()
