"""Branch-and-cut search engine.

The engine decides what to do next; the kernel decides whether it was
legal. Every state change goes through a kernel step with its certificate,
so a finished run leaves a complete derivation that replays independently.

Node recipe: certified interval propagation, then the exact relaxation.
An infeasible relaxation drops the node with Farkas multipliers; a dominated
bound prunes it; a fractional optimum is attacked with rounding cuts and
then a dichotomy branch; an integral optimum goes to the theory session,
which either endorses it (retire) or returns a conflict core that the engine
turns into a case split whose contradicted region is learned away.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .certificates import (
    BoundFix,
    BranchConflictSplit,
    BranchDichotomy,
    FarkasProof,
    LbDual,
    LiteralEvidence,
    RetireEvidence,
    SideCut,
    TheoryLiteral,
    TheoryToken,
    TLemma,
    UnboundedEvidence,
    identity_cut,
)
from .euf import EufSession, TheoryConflict
from .kernel import Kernel, Step, conflict_split_arms, rows_of, true_arms, verdict
from .lp import LpInfeasible, LpOptimal, LpUnbounded, derive_gomory_cuts, lp_solve, propagate_bounds
from .model import (
    Bounds,
    ImtError,
    ImtInstance,
    InterfaceAtom,
    InvariantError,
    LinConstraint,
    ObjValue,
    Relation,
    SimpleEquality,
    Subproblem,
    Var,
    frac_ceil,
    frac_floor,
    obj_value,
    satisfies_all,
    sentinel_contradiction,
)


class EngineLimit(ImtError):
    """The search gave up before reaching a verdict; ``steps`` are those the kernel had accepted."""

    def __init__(self, message: str, steps: tuple[Step, ...]):
        super().__init__(message)
        self.steps = steps


class UnsupportedShape(ImtError):
    """The instance has a shape the engine cannot decide with a certificate."""


# cuts learned per round, best violation first
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
    cuts: int = 0
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
    assignment extends to a model; keeping concrete offsets out of the
    literals keeps them out of conflict cores, where negating an offset only
    slides an unbounded variable one unit instead of closing the region.
    """
    core = sorted({v for a in atoms for v in a.core_vars()})
    lits: list[TheoryLiteral] = []
    for i, u in enumerate(core):
        for w in core[i + 1 :]:
            if assignment[u] == assignment[w]:
                lits.append(TheoryLiteral.var_eq(u, w, 0))
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
    # orientation must match the canonical form of the pinned equality
    d = SimpleEquality.diff(lit.x, lit.y, lit.offset)
    ge = identity_cut(row, "ge")
    le = identity_cut(row, "le")
    return BoundFix(ge, le) if d.x == lit.x else BoundFix(le, ge)


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


def _sentinel_farkas() -> FarkasProof:
    return FarkasProof(((sentinel_contradiction(), "le", Fraction(1)),))


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

    def run(self) -> SolveResult:
        cfg = self.config
        while self.kernel.state.pending:
            if cfg.node_limit is not None and self.stats.nodes >= cfg.node_limit:
                raise EngineLimit(f"node limit {cfg.node_limit} reached", tuple(self.kernel.log))
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

    # node processing

    def _process(self, sub: Subproblem) -> None:
        current = sub
        prop = propagate_bounds(current, self.instance.bounds)
        for cut, cert in prop.derived:
            if cut in current.cons:
                continue
            info = self.kernel.apply(Step("learn", current.ident, row=cut, cert=cert))
            current = info.created[0]
        if prop.farkas is not None:
            self.kernel.apply(Step("drop", current.ident, cert=prop.farkas))
            return
        for d, fix in prop.fixes:
            info = self.kernel.apply(Step("propagate", current.ident, eq=d, cert=fix))
            self.stats.propagations += 1
            current = info.created[0]

        rounds = 0
        prev: LpOptimal | None = None  # re-optimised after each cut round
        while True:
            out = lp_solve(current, self.instance.objective, self.instance.bounds, prev)
            self.stats.lp_solves += 1
            self.stats.pivots += out.pivots
            self.stats.lp_rows += out.tableau_rows
            if isinstance(out, LpInfeasible):
                self.kernel.apply(Step("drop", current.ident, cert=out.farkas))
                return
            if isinstance(out, LpUnbounded):
                self._handle_unbounded(current, out)
                return
            lb = ObjValue.finite(frac_ceil(out.value))
            best = obj_value(self.instance.objective, self.kernel.state.incumbent)
            if not self.kernel.state.incumbent.is_none and lb >= best:
                self.kernel.apply(Step("prune", current.ident, cert=LbDual(lb, out.dual)))
                return
            fractional = [v for v, q in sorted(out.x_star.items()) if q.denominator != 1]
            if not fractional:
                self._handle_integral(current, out)
                return
            if rounds < self.config.max_cut_rounds:
                cuts = derive_gomory_cuts(out)[:CUTS_PER_ROUND]
                fresh = [(cut, cert) for cut, cert in cuts if cut not in current.cons]
                if fresh:
                    for cut, cert in fresh:
                        info = self.kernel.apply(Step("learn", current.ident, row=cut, cert=cert))
                        self.stats.cuts += 1
                        current = info.created[0]
                    rounds += 1
                    prev = out
                    continue
            v, k = select_branch(out.x_star, fractional)
            info = self.kernel.apply(Step("branch", current.ident, cert=BranchDichotomy(v, k)))
            self.stats.branches += 1
            for child in info.created:
                self.hints[child.ident] = lb.sort_key()
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
        if not isinstance(res, TheoryConflict):
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
        ev = RetireEvidence(
            tuple(sorted(point.items())),
            LbDual(ObjValue.finite(value), out.dual),
            TheoryToken("model"),
        )
        self.kernel.apply(Step("retire", current.ident, cert=ev))

    def _handle_conflict(
        self, current: Subproblem, core: tuple[TheoryLiteral, ...], lb: ObjValue
    ) -> None:
        rows = rows_of(self.instance, current)
        direct = syntactic_evidence(core, rows)
        if direct is not None:
            self._learn_conflict(current, core, direct)
            return
        info = self.kernel.apply(Step("branch", current.ident, cert=BranchConflictSplit(core)))
        self.stats.branches += 1
        arms = conflict_split_arms(core)
        if len(arms) != len(info.created):
            raise InvariantError("conflict split produced an unexpected child count")
        for child, (_, all_true) in zip(info.created, arms):
            if all_true:
                ev = syntactic_evidence(core, rows_of(self.instance, child))
                if ev is None:
                    raise InvariantError("all-true child lost its own split rows")
                self._learn_conflict(child, core, ev)
            else:
                self.hints[child.ident] = lb.sort_key()

    def _learn_conflict(
        self,
        target: Subproblem,
        core: tuple[TheoryLiteral, ...],
        evidence: tuple[LiteralEvidence, ...],
    ) -> None:
        lemma = sentinel_contradiction()
        cert = TLemma(core, lemma, evidence, TheoryToken("conflict", core))
        info = self.kernel.apply(Step("tlearn", target.ident, row=lemma, cert=cert))
        self.kernel.apply(Step("drop", info.created[0].ident, cert=_sentinel_farkas()))

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
            k = frac_floor(out.point[v])
            info = self.kernel.apply(Step("branch", current.ident, cert=BranchDichotomy(v, k)))
            self.stats.branches += 1
            for child in info.created:
                self.hints[child.ident] = ObjValue.neg_inf().sort_key()
            return
        core = self._theory_conflict(point)
        if core is not None:
            self._handle_conflict(current, core, ObjValue.neg_inf())
            return
        ev = UnboundedEvidence(
            tuple(sorted(point.items())),
            tuple(sorted(ray.items())),
            TheoryToken("model"),
        )
        self.kernel.apply(Step("unbounded", current.ident, cert=ev))


def solve(instance: ImtInstance, config: Config | None = None) -> SolveResult:
    """Decide or optimize the instance; the result carries the full derivation."""
    return _Search(instance, config or Config()).run()
