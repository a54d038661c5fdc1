"""Equality-with-functions background theory.

The session decides conjunctions of literals (x = y, x != y, and atom signs)
against the instance's interface atoms. The theory sees the integer program
only through which shared variables are equal and which are not (Nelson and
Oppen, TOPLAS 1979), so a literal carries no offset. Internally it is a
union-find with congruence over function applications.

The closure is rebuilt from the literal trail on every ``check``. At our
problem sizes rebuilding is cheaper than maintaining a proof forest, and it
keeps conflict-core extraction trivial: delete one literal at a time and
re-check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .certificates import TheoryLiteral
from .model import ImtError, ImtInstance, InterfaceAtom, MissingVariable, Var


@dataclass(frozen=True)
class TheoryConflict:
    core: tuple[TheoryLiteral, ...]


class _Closure:
    """Union-find plus congruence over function applications."""

    def __init__(self) -> None:
        self.parent: list[int] = []
        self.rank: list[int] = []
        self.var_node: dict[Var, int] = {}
        self.app_node: dict[tuple[str, tuple[int, ...]], int] = {}
        self.apps: list[tuple[str, tuple[int, ...], int]] = []
        self.diseqs: list[tuple[int, int]] = []

    def _new_node(self) -> int:
        n = len(self.parent)
        self.parent.append(n)
        self.rank.append(0)
        return n

    def var(self, v: Var) -> int:
        n = self.var_node.get(v)
        if n is None:
            n = self._new_node()
            self.var_node[v] = n
        return n

    def app(self, fun: str, args: tuple[int, ...]) -> int:
        key = (fun, args)
        n = self.app_node.get(key)
        if n is None:
            n = self._new_node()
            self.app_node[key] = n
            self.apps.append((fun, args, n))
        return n

    def find(self, n: int) -> int:
        root = n
        while self.parent[root] != root:
            root = self.parent[root]
        while n != root:
            self.parent[n], n = root, self.parent[n]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the classes of a and b; False when they were one already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] > self.rank[rb]:
            ra, rb = rb, ra
        self.parent[ra] = rb
        if self.rank[ra] == self.rank[rb]:
            self.rank[rb] += 1
        return True

    def run(self) -> bool:
        """Congruence fixpoint, then disequality scan."""
        changed = True
        while changed:
            changed = False
            sig: dict[tuple[str, tuple[int, ...]], int] = {}
            for fun, args, node in self.apps:
                other = sig.setdefault((fun, tuple(map(self.find, args))), node)
                if self.union(node, other):
                    changed = True
        return all(self.find(a) != self.find(b) for a, b in self.diseqs)


def _build_closure(atoms: tuple[InterfaceAtom, ...], literals: Iterable[TheoryLiteral]) -> bool:
    """Consistency of the literal conjunction against the interface atoms."""
    cl = _Closure()
    activation: dict[Var, bool] = {}
    for lit in literals:
        if lit.kind == "atom_true":
            if activation.get(lit.var) is False:
                return False
            activation[lit.var] = True
        elif lit.kind == "atom_false":
            if activation.get(lit.var) is True:
                return False
            activation[lit.var] = False
        elif lit.kind == "eq":
            cl.union(cl.var(lit.x), cl.var(lit.y))
        elif lit.kind == "diseq":
            cl.diseqs.append((cl.var(lit.x), cl.var(lit.y)))
        else:
            raise ImtError(f"unknown theory literal kind {lit.kind!r}")
    for atom in atoms:
        if atom.annotation is None:
            active: bool | None = True
        else:
            active = activation.get(atom.annotation)
        if active is None:
            continue
        if atom.kind == "fun":
            a = cl.var(atom.result)
            b = cl.app(atom.fun, tuple(cl.var(v) for v in atom.args))
        else:
            a, b = cl.var(atom.x), cl.var(atom.y)
        if active:
            cl.union(a, b)
        else:
            cl.diseqs.append((a, b))
    return cl.run()


class EufSession:
    """A literal trail, decided by rebuilding the closure on each check."""

    def __init__(self, atoms: Iterable[InterfaceAtom]):
        self.atoms = tuple(sorted(atoms, key=lambda a: a.render()))
        self.trail: list[TheoryLiteral] = []

    def assert_literal(self, lit: TheoryLiteral) -> None:
        self.trail.append(lit)

    def consistent(self, literals: Iterable[TheoryLiteral] | None = None) -> bool:
        return _build_closure(self.atoms, self.trail if literals is None else literals)

    def check(self) -> TheoryConflict | None:
        """Decide the trail: None if it is consistent, else a deletion-minimal core."""
        if self.consistent():
            return None
        core = list(self.trail)
        i = 0
        while i < len(core):
            cand = core[:i] + core[i + 1 :]
            if not self.consistent(cand):
                core = cand
            else:
                i += 1
        return TheoryConflict(tuple(core))


def functional_consistency(atoms: Iterable[InterfaceAtom], assignment: Mapping[Var, int]) -> bool:
    """Existence of an interpretation making every atom's truth match the assignment.

    A total integer assignment fixes each annotation (positive means the atom
    holds) and each core variable. True definitions must describe a function;
    false ones must be avoidable, which only fails when a true definition pins
    the same argument tuple to the rejected result.
    """

    def val(v: Var) -> int:
        if v not in assignment:
            raise MissingVariable(v)
        return assignment[v]

    tables: dict[str, dict[tuple[int, ...], int]] = {}
    rejected: list[tuple[str, tuple[int, ...], int]] = []
    for atom in sorted(atoms, key=lambda a: a.render()):
        active = True if atom.annotation is None else val(atom.annotation) > 0
        if atom.kind == "eq":
            if (val(atom.x) == val(atom.y)) != active:
                return False
            continue
        argvals = tuple(val(a) for a in atom.args)
        rval = val(atom.result)
        if active:
            table = tables.setdefault(atom.fun, {})
            if table.setdefault(argvals, rval) != rval:
                return False
        else:
            rejected.append((atom.fun, argvals, rval))
    for fun, argvals, rval in rejected:
        if tables.get(fun, {}).get(argvals) == rval:
            return False
    return True


@dataclass(frozen=True)
class EufAdapter:
    """Replay callbacks the kernel uses to re-decide theory claims: refuted literal sets and models."""

    atoms: tuple[InterfaceAtom, ...]

    @staticmethod
    def for_instance(instance: ImtInstance) -> EufAdapter:
        return EufAdapter(tuple(sorted(instance.atoms, key=lambda a: a.render())))

    def replay_conflict(self, literals: Iterable[TheoryLiteral]) -> bool:
        """True when the literal conjunction really is inconsistent."""
        return not _build_closure(self.atoms, literals)

    def replay_model(self, assignment: Mapping[Var, int]) -> bool:
        """True when the total assignment is consistent with the atoms."""
        return functional_consistency(self.atoms, assignment)
