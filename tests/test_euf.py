import random

from imtsolver.certificates import TheoryLiteral
from imtsolver.euf import EufAdapter, EufSession, TheoryConflict, functional_consistency
from imtsolver.model import Bounds, ImtInstance, InterfaceAtom

from gen import random_instance


def fun_atoms():
    # r1 = f(x), r2 = f(y): the congruence test bed
    return [
        InterfaceAtom.fun_def("r1", "f", ["x"]),
        InterfaceAtom.fun_def("r2", "f", ["y"]),
    ]


def test_congruence_propagates_through_equal_arguments():
    s = EufSession(fun_atoms())
    s.assert_literal(TheoryLiteral.var_eq("x", "y"))
    s.assert_literal(TheoryLiteral.var_diseq("r1", "r2"))
    out = s.check()
    assert isinstance(out, TheoryConflict)
    assert set(out.core) <= {
        TheoryLiteral.var_eq("x", "y"),
        TheoryLiteral.var_diseq("r1", "r2"),
    }


def test_conflict_core_is_deletion_minimal():
    s = EufSession(fun_atoms())
    s.assert_literal(TheoryLiteral.var_eq("x", "y"))
    s.assert_literal(TheoryLiteral.var_eq("z", "w"))  # irrelevant claim
    s.assert_literal(TheoryLiteral.var_diseq("r1", "r2"))
    out = s.check()
    assert isinstance(out, TheoryConflict)
    assert TheoryLiteral.var_eq("z", "w") not in out.core
    # every literal in the core is necessary
    for i in range(len(out.core)):
        reduced = out.core[:i] + out.core[i + 1 :]
        assert s.consistent(reduced)
    assert not s.consistent(out.core)


def test_annotated_atom_only_binds_when_activated():
    atoms = [
        InterfaceAtom.fun_def("r1", "f", ["x"], "a"),
        InterfaceAtom.fun_def("r2", "f", ["y"], "b"),
    ]
    shared = [
        TheoryLiteral.var_eq("x", "y"),
        TheoryLiteral.var_diseq("r1", "r2"),
        TheoryLiteral.atom_true("a"),
    ]
    off, on = EufSession(atoms), EufSession(atoms)
    for lit in shared:
        off.assert_literal(lit)
        on.assert_literal(lit)
    off.assert_literal(TheoryLiteral.atom_false("b"))
    assert off.check() is None  # f(y) need not be r2
    on.assert_literal(TheoryLiteral.atom_true("b"))
    assert isinstance(on.check(), TheoryConflict)


def test_functional_consistency_basic():
    atoms = fun_atoms()
    assert functional_consistency(atoms, {"x": 1, "y": 1, "r1": 4, "r2": 4})
    assert not functional_consistency(atoms, {"x": 1, "y": 1, "r1": 4, "r2": 5})
    assert functional_consistency(atoms, {"x": 1, "y": 2, "r1": 4, "r2": 5})


def test_functional_consistency_with_annotations():
    atoms = [
        InterfaceAtom.fun_def("r1", "f", ["x"], "a"),
        InterfaceAtom.fun_def("r2", "f", ["y"], "b"),
    ]
    # a on, b off: f(1) = 4 stands, r2 = 4 would make the off-atom true
    ok = {"x": 1, "y": 1, "r1": 4, "a": 1, "b": 0}
    assert functional_consistency(atoms, {**ok, "r2": 5})
    assert not functional_consistency(atoms, {**ok, "r2": 4})


def test_functional_consistency_of_eq_atoms():
    atoms = [InterfaceAtom.eq_atom("x", "y", "a")]
    assert functional_consistency(atoms, {"x": 3, "y": 3, "a": 1})
    assert functional_consistency(atoms, {"x": 3, "y": 4, "a": 0})
    assert not functional_consistency(atoms, {"x": 3, "y": 4, "a": 1})
    assert not functional_consistency(atoms, {"x": 3, "y": 3, "a": 0})


def test_session_agrees_with_pointwise_oracle_on_random_instances():
    """check() on a full arrangement must match functional_consistency."""
    from imtsolver.engine import arrangement_literals

    rng = random.Random(777)
    agree = 0
    for _ in range(120):
        instance = random_instance(rng)
        if not instance.atoms:
            continue
        point = {v: rng.randint(*instance.bounds.interval(v)) for v in instance.vars}
        lits = arrangement_literals(instance.atoms, point)
        session = EufSession(instance.atoms)
        for lit in lits:
            session.assert_literal(lit)
        verdict = session.check() is None
        assert verdict == functional_consistency(instance.atoms, point)
        agree += 1
    assert agree > 40


def test_adapter_replays_tokens():
    atoms = fun_atoms()
    instance = ImtInstance(
        ["x", "y", "r1", "r2"],
        Bounds({v: (0, 3) for v in ("x", "y", "r1", "r2")}),
        [],
        atoms,
        funs={"f": 1},
    )
    adapter = EufAdapter.for_instance(instance)
    conflict = (TheoryLiteral.var_eq("x", "y"), TheoryLiteral.var_diseq("r1", "r2"))
    assert adapter.replay_conflict(conflict)
    assert not adapter.replay_conflict(conflict[:1])
    assert adapter.replay_model({"x": 0, "y": 1, "r1": 2, "r2": 3})
    assert not adapter.replay_model({"x": 0, "y": 0, "r1": 2, "r2": 3})
