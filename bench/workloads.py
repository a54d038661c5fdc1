"""Seeded workload generators and their independent references.

Nothing here imports the solver: a generator turns a seed into input texts
(SMT-LIB scripts or native instances), and a reference decides each input by
plain enumeration, so a fault in the solver's own parser, model or oracle
cannot make a wrong answer look right.

Workloads:

``cnf-band``
    random 3-CNF formulas in the acceptance suite's clause-encoding shape,
    encoded through the SMT-LIB front end, all from its overconstrained band
    (3 variables, 6-8x as many clauses): for each of a fixed list of clause
    counts, formulas are drawn until one has the wanted satisfiability, so
    one seed's set does about as much work as another's. Reference: a truth
    table.
``random-suite``
    many small boxed ILP+EUF instances in the random suite's shapes (at most
    4 variables in [-5, 5], at most 6 rows, up to 3 interface atoms), in the
    native format. Reference: enumeration of the box.
Why these two: ``cnf-band`` is LP-bound (``lp_solve`` and Gomory
derivation hold most of the time), and ``random-suite`` spreads its time
over every layer with tiny LPs, so a higher fixed cost per call shows there.
Every traced layer runs on at least one of them. The front ends
(``smtlib.encode_script`` on ``cnf-band``, ``native.parse_instance`` on
``random-suite``) are below 1% of solve time today: encoding all 110
acceptance-suite CNF scripts takes 0.18 s.

Left out (timings on a shared 2-core Xeon, CPython 3.11, no gmpy2):

- 4-variable band formulas (24-32 clauses) take 3-10 s each; one of them
  swings a run by a fifth, so the band here is the 3-variable one.
- The suite's sparse formulas (5-12 variables, up to 2.3x as many clauses)
  are heavy-tailed: most take under 0.3 s, but a 6-variable one took 3.2 s
  and doubled its seed's solve time.
- The CNF ladder rungs 8/30 (83.5 s for one formula) and 10/40 (over 300 s)
  wait for the LP rewrite.
- ``2x - 2y = 1`` over free variables does not finish in 60 s, even with
  ``--node-budget 200``.
- The banquet model takes 70 ms and 3 steps, too little to measure a layer.
- The CLI as a subprocess is dominated by a 0.12 s interpreter and import
  start.
- The unbounded-result conflict instance (``r1 = f(x)``, ``r2 = f(y)``,
  ``r1 - r2 >= gap`` over free results, minimise ``a x + b y``), which
  stresses propagation and the trace: about 930 steps, 850-895 of them
  propagation learns, 21 LP solves on up to 136 rows and a 200 KB trace. One
  solve takes 6-10 s, so a run holds only three, and the speed probe tracks
  it poorly: on ten seeds the scaled solve time spread by 16-26% of its
  median between quartiles, against 5% on the two workloads kept. The gap
  also moved its time by about 13% (gap 3 against gap 1) at equal step
  counts.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("cnf-band", "random-suite")
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Case:
    """One input: its text, its format and the plain data its reference needs."""

    label: str
    fmt: str  # "smt" | "native"
    text: str
    data: object


def generate(workload: str, seed: int, size: str = "full") -> list[Case]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cnf-band":
        return _cnf_band(rng, size)
    return _random_suite(rng, size)


def reference(case: Case) -> tuple[str, int | None]:
    """Expected (status, optimum); feasibility queries are optimal with 0."""
    kind = case.data[0]
    if kind == "cnf":
        _, clauses, nvars = case.data
        return ("optimal", 0) if _satisfiable(clauses, nvars) else ("infeasible", None)
    return _enumerate(case.data[1])


# --- cnf-band ------------------------------------------------------------------

# (variables, clause count of each formula, satisfiable?) per stratum; fixed
# clause counts keep the work of one seed's set close to that of another
_CNF_STRATA = {
    "full": ((3, tuple(range(18, 25)) * 4, False), (3, (19, 20, 22, 23), True)),
    "smoke": ((3, (18,), False), (3, (18,), True)),
}


def _random_cnf(rng: random.Random, nvars: int, nclauses: int) -> list[list[tuple[int, bool]]]:
    return [
        [(i, rng.random() < 0.5) for i in rng.sample(range(nvars), min(3, nvars))]
        for _ in range(nclauses)
    ]


def _satisfiable(clauses, nvars: int) -> bool:
    return any(
        all(any(bits[i] == pos for i, pos in cl) for cl in clauses)
        for bits in itertools.product((False, True), repeat=nvars)
    )


def _cnf_script(clauses, nvars: int) -> str:
    lines = [f"(declare-const p{i} Bool)" for i in range(nvars)]
    for cl in clauses:
        lits = " ".join(f"p{i}" if pos else f"(not p{i})" for i, pos in cl)
        lines.append(f"(assert (or {lits}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _cnf_band(rng: random.Random, size: str) -> list[Case]:
    picked: list[tuple[list, int]] = []
    for nvars, sizes, want_sat in _CNF_STRATA[size]:
        for nclauses in sizes:
            while True:
                clauses = _random_cnf(rng, nvars, nclauses)
                if _satisfiable(clauses, nvars) == want_sat:
                    picked.append((clauses, nvars))
                    break
    return [
        Case(f"cnf{k}-v{nvars}-c{len(clauses)}", "smt", _cnf_script(clauses, nvars), ("cnf", clauses, nvars))
        for k, (clauses, nvars) in enumerate(picked)
    ]


# --- random-suite ----------------------------------------------------------------

_RS_COUNT = {"full": 2000, "smoke": 40}
_RELS = ("<=", ">=", "=", "<", ">")


def _random_expr(rng: random.Random, names: list[str], allow_zero: bool = False) -> list[tuple[str, int]]:
    terms = [(v, rng.choice((-3, -2, -1, 1, 2, 3))) for v in names if rng.random() < 0.6]
    if not terms and not allow_zero:
        terms.append((rng.choice(names), rng.choice((-2, -1, 1, 2))))
    return terms


def _random_ilp(rng: random.Random, max_vars: int = 4, max_cons: int = 6) -> dict:
    n = rng.randint(1, max_vars)
    names = [f"x{i}" for i in range(n)]
    box: dict[str, tuple[int, int]] = {}
    for v in names:
        if rng.random() < 0.3:
            box[v] = (0, 1)  # annotation candidates
        else:
            lo = rng.randint(-5, 5)
            box[v] = (lo, rng.randint(lo, 5))
    # most rows hold at a witness point, so feasible instances stay common
    witness = {v: rng.randint(*box[v]) for v in names}
    cons = []
    for _ in range(rng.randint(0, max_cons)):
        terms = _random_expr(rng, names)
        rel = rng.choice(_RELS)
        at = sum(c * witness[v] for v, c in terms)
        if rng.random() < 0.25:
            rhs = rng.randint(-8, 8)
        elif rel in ("<=", "<"):
            rhs = at + rng.randint(int(rel == "<"), 4)
        elif rel in (">=", ">"):
            rhs = at - rng.randint(int(rel == ">"), 4)
        else:
            rhs = at
        cons.append((terms, rel, rhs))
    atoms: list[tuple] = []
    funs: set[str] = set()
    if rng.random() < 0.6:
        flags = [v for v in names if box[v] == (0, 1)]
        for _ in range(rng.randint(1, 3)):
            ann = rng.choice(flags) if flags and rng.random() < 0.5 else None
            if rng.random() < 0.6:
                f = f"f{rng.randint(0, 1)}"
                funs.add(f)
                atoms.append(("fun", rng.choice(names), f, rng.choice(names), ann))
            elif n >= 2:
                x, y = rng.sample(names, 2)
                atoms.append(("eq", x, y, ann))
    objective = _random_expr(rng, names, allow_zero=True)
    return {"names": names, "box": box, "cons": cons, "atoms": atoms, "funs": sorted(funs), "objective": objective}


def _render_expr(terms: list[tuple[str, int]]) -> str:
    if not terms:
        return "0"
    parts = []
    for v, c in terms:
        body = v if abs(c) == 1 else f"{abs(c)} {v}"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def _render_ilp(ilp: dict) -> str:
    lines = ["[vars]"] + [f"{v} int {lo} {hi}" for v, (lo, hi) in ilp["box"].items()]
    if ilp["funs"]:
        lines += ["[funs]"] + [f"{f} 1" for f in ilp["funs"]]
    lines += ["[objective]", f"min {_render_expr(ilp['objective'])}", "[constraints]"]
    lines += [f"{_render_expr(terms)} {rel} {rhs}" for terms, rel, rhs in ilp["cons"]]
    if ilp["atoms"]:
        lines.append("[atoms]")
        for atom in ilp["atoms"]:
            body = f"{atom[1]} = {atom[2]}({atom[3]})" if atom[0] == "fun" else f"({atom[1]} = {atom[2]})"
            lines.append(body if atom[-1] is None else f"{body} @ {atom[-1]}")
    return "\n".join(lines) + "\n"


def _random_suite(rng: random.Random, size: str) -> list[Case]:
    cases = []
    for k in range(_RS_COUNT[size]):
        ilp = _random_ilp(rng)
        cases.append(Case(f"rs{k}", "native", _render_ilp(ilp), ("ilp", ilp)))
    return cases


def _holds(lhs: int, rel: str, rhs: int) -> bool:
    if rel == "<=":
        return lhs <= rhs
    if rel == ">=":
        return lhs >= rhs
    if rel == "=":
        return lhs == rhs
    if rel == "<":
        return lhs < rhs
    return lhs > rhs


def _consistent(atoms: list[tuple], point: dict[str, int]) -> bool:
    """Some interpretation of the functions makes each atom's truth match the point.

    An annotated atom holds exactly when its 0/1 annotation is positive; an
    unannotated one holds outright. Holding definitions must describe a
    function, and a failing definition is only impossible when a holding one
    pins the same argument to the same result.
    """
    table: dict[tuple[str, int], int] = {}
    rejected = []
    for atom in atoms:
        ann = atom[-1]
        active = ann is None or point[ann] > 0
        if atom[0] == "eq":
            if (point[atom[1]] == point[atom[2]]) != active:
                return False
            continue
        _, result, fun, arg, _ = atom
        key, value = (fun, point[arg]), point[result]
        if active:
            if table.setdefault(key, value) != value:
                return False
        else:
            rejected.append((key, value))
    return all(table.get(key) != value for key, value in rejected)


def _enumerate(ilp: dict) -> tuple[str, int | None]:
    names = ilp["names"]
    best = None
    for values in itertools.product(*(range(lo, hi + 1) for lo, hi in (ilp["box"][v] for v in names))):
        point = dict(zip(names, values))
        if not all(_holds(sum(c * point[v] for v, c in terms), rel, rhs) for terms, rel, rhs in ilp["cons"]):
            continue
        if ilp["atoms"] and not _consistent(ilp["atoms"], point):
            continue
        value = sum(c * point[v] for v, c in ilp["objective"])
        if best is None or value < best:
            best = value
    return ("infeasible", None) if best is None else ("optimal", best)
