"""Frontend for a quantifier-free integer+functions s-expression dialect.

Supported commands: set-logic / set-info / set-option (ignored),
declare-fun, declare-const, assert, minimize, maximize, check-sat, get-model,
get-objectives, exit. Terms: integer linear arithmetic with comparisons,
uninterpreted functions over Int, and full Boolean structure (not, and, or,
=>, xor, ite, Bool equality).

Encoding: uninterpreted applications are flattened to definition atoms over
fresh result variables; equalities embedded under Boolean structure become
annotated equality atoms (exact, no box required); other embedded
comparisons become 0/1 indicator variables tied by two box-derived rows, so
those variables must have finite boxes, either declared by asserts or filled
in with ``default_bound``. Boolean gates get fresh 0/1 variables constrained
in both directions.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    Bounds,
    ImtError,
    ImtInstance,
    InterfaceAtom,
    InvariantError,
    LinConstraint,
    LinExpr,
    Relation,
    Var,
    digit_limit,
)

class SmtError(ImtError):
    """The script is malformed, ill-sorted, or outside the supported subset."""


class UnboundedForEncoding(SmtError):
    """An indicator row needs a finite box that no declaration provides."""

    def __init__(self, var: Var, context: str):
        super().__init__(
            f"variable {var} needs finite bounds to encode {context}; "
            "assert bounds for it or set a default box"
        )
        self.var = var


_NUM_RE = re.compile(r"\d+\Z")
# whitespace is exactly space, tab, CR and LF; a lone | or " opens a token that never closes
_TOKEN_RE = re.compile(r'[()]|[^ \t\r\n();|"]+|\|[^|]*\||"(?:[^"]|"")*"|;[^\n]*|[|"]')


def tokenize(text: str) -> list[str]:
    """Parentheses, symbols, |quoted symbols| and "strings"; comments are dropped."""
    tokens = _TOKEN_RE.findall(text)
    if "|" in tokens or '"' in tokens:
        lone = next(tok for tok in tokens if tok in ("|", '"'))
        raise SmtError("unterminated |symbol|" if lone == "|" else "unterminated string")
    return [tok for tok in tokens if tok[0] != ";"]


# The encoder walks a form recursively; its deepest shape, nested function
# applications, takes four Python frames per level, so 150 levels stay well
# under the default recursion limit of 1000.
MAX_DEPTH = 150


def parse_sexps(text: str) -> list:
    """All top-level forms in the text.

    Parentheses nested deeper than ``MAX_DEPTH`` are rejected, which also
    bounds the recursion of the encoder that walks the forms.
    """
    stack: list[list] = [[]]  # the top-level forms, then each open list
    for tok in tokenize(text):
        if tok == "(":
            if len(stack) > MAX_DEPTH:
                raise SmtError(f"parentheses nested deeper than {MAX_DEPTH} levels")
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SmtError("unbalanced closing parenthesis")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) > 1:
        raise SmtError("missing closing parenthesis")
    return stack[0]


def _numeral(tok: str) -> int:
    try:
        return int(tok)
    except ValueError as exc:  # over the interpreter's digit limit
        raise SmtError(f"numeral too long: {digit_limit(exc)}") from None


def _strip(symbol: str) -> str:
    return symbol[1:-1] if symbol[0] == "|" else symbol  # a token opening with | closes with it


def _show(form) -> str:
    if isinstance(form, str):
        return form
    return "(" + " ".join(_show(x) for x in form) + ")"


def _pair(x: Var, a: int, y: Var, b: int) -> LinExpr:
    """``a x + b y`` over two distinct variables, its terms in order."""
    return LinExpr(((x, a), (y, b)) if x < y else ((y, b), (x, a)))


# Boolean values during encoding: a constant, or (variable, polarity).
def _neg(lit):
    if isinstance(lit, bool):
        return not lit
    return (lit[0], not lit[1])


@dataclass
class EncodeResult:
    instance: ImtInstance
    declared: dict[str, str]  # user symbol -> "Int" | "Bool"
    has_objective: bool
    negated_objective: bool
    wants_model: bool

    def model_lines(self, assignment: dict[Var, int]) -> list[str]:
        out = []
        for name in sorted(self.declared):
            if self.declared[name] == "Bool":
                out.append(f"({name} {'true' if assignment[name] > 0 else 'false'})")
            else:
                out.append(f"({name} {assignment[name]})")
        return out


class Encoder:
    def __init__(self, default_bound: int | None = None):
        self.default_bound = default_bound
        self.sorts: dict[str, str] = {}
        self.funs: dict[str, tuple[int, str]] = {}  # name -> (arity, "Int")
        self.bounds: dict[str, list[int | None]] = {}
        self.rows: list[LinConstraint] = []
        self.atoms: list[InterfaceAtom] = []
        self.app_cache: dict[tuple[str, tuple[str, ...]], str] = {}
        self.cmp_cache: dict[tuple[tuple[tuple[str, int], ...], int], str] = {}
        self.eq_cache: dict[tuple[str, str], str] = {}
        self.gate_cache: dict[tuple, tuple] = {}
        self.def_cache: dict[tuple[tuple[tuple[str, int], ...], int], str] = {}
        self.counters: dict[str, int] = {}
        self.filled: set[str] = set()
        self.objective: LinExpr | None = None
        self.negated = False
        self.wants_model = False
        self.declared: dict[str, str] = {}

    # name management

    def _fresh(self, prefix: str) -> str:
        while True:
            n = self.counters.get(prefix, 0)
            self.counters[prefix] = n + 1
            name = f"${prefix}{n}"
            if name not in self.sorts and name not in self.funs:
                return name

    def _new_int(self, prefix: str, lo: int | None = None, hi: int | None = None) -> str:
        name = self._fresh(prefix)
        self.sorts[name] = "Int"
        self.bounds[name] = [lo, hi]
        return name

    def _new_flag(self, prefix: str) -> str:
        name = self._fresh(prefix)
        self.sorts[name] = "Bool"
        self.bounds[name] = [0, 1]
        return name

    # sorts

    def sort_of(self, term) -> str:
        if isinstance(term, str):
            tok = _strip(term)
            if _NUM_RE.match(tok):
                return "Int"
            if tok in ("true", "false"):
                return "Bool"
            if tok in self.sorts:
                return self.sorts[tok]
            raise SmtError(f"unknown symbol {tok}")
        if not term:
            raise SmtError("empty application")
        head = _strip(term[0]) if isinstance(term[0], str) else None
        args = term[1:]
        if head in ("+", "-", "*"):
            if head == "-" and not args:
                raise SmtError(f"- needs at least one term: {_show(term)}")
            for a in args:
                if self.sort_of(a) != "Int":
                    raise SmtError(f"arithmetic over non-integers in {_show(term)}")
            return "Int"
        if head in ("not", "and", "or", "=>", "xor"):
            for a in args:
                if self.sort_of(a) != "Bool":
                    raise SmtError(f"Boolean connective over non-Booleans in {_show(term)}")
            return "Bool"
        if head in ("<=", "<", ">=", ">"):
            if len(args) != 2 or any(self.sort_of(a) != "Int" for a in args):
                raise SmtError(f"comparison needs two integer terms: {_show(term)}")
            return "Bool"
        if head in ("=", "distinct"):
            if len(args) < 2:
                raise SmtError(f"{head} needs at least two terms")
            kinds = {self.sort_of(a) for a in args}
            if len(kinds) != 1:
                raise SmtError(f"mixed sorts in {_show(term)}")
            return "Bool"
        if head == "ite":
            if len(args) != 3 or self.sort_of(args[0]) != "Bool":
                raise SmtError(f"bad ite: {_show(term)}")
            s1, s2 = self.sort_of(args[1]), self.sort_of(args[2])
            if s1 != s2:
                raise SmtError(f"ite branches disagree in {_show(term)}")
            return s1
        if head in self.funs:
            arity, _ = self.funs[head]
            if len(args) != arity:
                raise SmtError(f"{head} expects {arity} arguments: {_show(term)}")
            for a in args:
                if self.sort_of(a) != "Int":
                    raise SmtError(f"function arguments must be integers: {_show(term)}")
            return "Int"
        raise SmtError(f"unsupported term {_show(term)}")

    # intervals

    def _interval(self, v: str, context: str) -> tuple[int, int]:
        lo, hi = self.bounds.get(v, [None, None])
        if lo is None or hi is None:
            if self.default_bound is None:
                raise UnboundedForEncoding(v, context)
            self.filled.add(v)
            d = self.default_bound
            lo = -d if lo is None else lo
            hi = d if hi is None else hi
        return lo, hi

    def _expr_interval(self, e: LinExpr, const: int, context: str) -> tuple[int, int]:
        lo = hi = const
        for v, c in e.terms:
            vlo, vhi = self._interval(v, context)
            if c > 0:
                lo += c * vlo
                hi += c * vhi
            else:
                lo += c * vhi
                hi += c * vlo
        return lo, hi

    # integer terms

    def linearize(self, term) -> tuple[LinExpr, int]:
        """Flatten an Int term to (linear expression over variables, constant)."""
        if isinstance(term, str):
            tok = _strip(term)
            if _NUM_RE.match(tok):
                return LinExpr.zero(), _numeral(tok)
            if self.sorts.get(tok) == "Int":
                return LinExpr.var(tok), 0
            if self.sorts.get(tok) == "Bool":
                raise SmtError(f"{tok} is Boolean, used as an integer")
            raise SmtError(f"unknown symbol {tok}")
        head = _strip(term[0]) if isinstance(term[0], str) else None
        args = term[1:]
        if head == "+":
            e, c = LinExpr.zero(), 0
            for a in args:
                ea, ca = self.linearize(a)
                e, c = e + ea, c + ca
            return e, c
        if head == "-":
            if len(args) == 1:
                e, c = self.linearize(args[0])
                return -e, -c
            e, c = self.linearize(args[0])
            for a in args[1:]:
                ea, ca = self.linearize(a)
                e, c = e - ea, c - ca
            return e, c
        if head == "*":
            scale = 1
            expr_part: tuple[LinExpr, int] | None = None
            for a in args:
                ea, ca = self.linearize(a)
                if ea.is_zero():
                    scale *= ca
                elif expr_part is None:
                    expr_part = (ea, ca)
                else:
                    raise SmtError(f"nonlinear product {_show(term)}")
            if expr_part is None:
                return LinExpr.zero(), scale
            return expr_part[0].scale(scale), expr_part[1] * scale
        if head == "ite":
            return LinExpr.var(self._encode_int_ite(term)), 0
        if head in self.funs:
            return LinExpr.var(self._encode_app(head, args)), 0
        raise SmtError(f"unsupported integer term {_show(term)}")

    def _abstract(self, e: LinExpr, c: int, prefix: str = "a") -> str:
        """Variable defined to equal e + c, with derived bounds when available."""
        if c == 0 and len(e.terms) == 1 and e.terms[0][1] == 1:
            return e.terms[0][0]
        key = (e.terms, c)
        cached = self.def_cache.get(key)
        if cached is not None:
            return cached
        lo, hi = None, None
        if all(None not in self.bounds.get(v, [None, None]) for v in e.vars()):
            lo, hi = self._expr_interval(e, c, "a definition")
        name = self._new_int(prefix, lo, hi)
        self.rows.append(LinConstraint(LinExpr.var(name) - e, Relation.EQ, c))
        self.def_cache[key] = name
        return name

    def _as_var(self, term) -> str:
        """Abstract an Int term to a single variable, adding a definition row."""
        e, c = self.linearize(term)
        return self._abstract(e, c)

    def _encode_app(self, fun: str, args: list) -> str:
        argvars = tuple(self._as_var(a) for a in args)
        key = (fun, argvars)
        cached = self.app_cache.get(key)
        if cached is None:
            cached = self._new_int("t")
            self.app_cache[key] = cached
            self.atoms.append(InterfaceAtom.fun_def(cached, fun, argvars))
        return cached

    def _encode_int_ite(self, term) -> str:
        cond = self.encode_bool(term[1])
        then_e, then_c = self.linearize(term[2])
        else_e, else_c = self.linearize(term[3])
        if isinstance(cond, bool):
            e, c = (then_e, then_c) if cond else (else_e, else_c)
            return self._abstract(e, c, "i")
        v, pos = cond
        t_lo, t_hi = self._expr_interval(then_e, then_c, "an if-then-else")
        e_lo, e_hi = self._expr_interval(else_e, else_c, "an if-then-else")
        # the result always equals one branch, so the union box is sound
        name = self._new_int("i", min(t_lo, e_lo), max(t_hi, e_hi))
        for on_true, (e, c) in ((pos, (then_e, then_c)), (not pos, (else_e, else_c))):
            diff = LinExpr.var(name) - e
            lo, hi = self._expr_interval(diff, -c, "an if-then-else")
            # force diff = c while the guard holds, slack from the box otherwise
            if on_true:
                self.rows.append(LinConstraint(diff + LinExpr.var(v, hi), Relation.LE, c + hi))
                self.rows.append(LinConstraint(diff + LinExpr.var(v, lo), Relation.GE, c + lo))
            else:
                self.rows.append(LinConstraint(diff + LinExpr.var(v, -hi), Relation.LE, c))
                self.rows.append(LinConstraint(diff + LinExpr.var(v, -lo), Relation.GE, c))
        return name

    # Boolean terms

    def _indicator(self, e: LinExpr, r: int) -> str:
        """0/1 variable v with v = 1 exactly when e <= r, via two box rows."""
        key = (e.terms, r)
        cached = self.cmp_cache.get(key)
        if cached is not None:
            return cached
        lo, hi = self._expr_interval(e, 0, "a comparison")
        v = self._new_flag("k")
        if hi > r:
            self.rows.append(LinConstraint(e + LinExpr.var(v, hi - r), Relation.LE, hi))
        else:
            self.rows.append(LinConstraint(LinExpr.var(v), Relation.GE, 1))
        if lo < r + 1:
            self.rows.append(LinConstraint(e + LinExpr.var(v, r + 1 - lo), Relation.GE, r + 1))
        else:
            self.rows.append(LinConstraint(LinExpr.var(v), Relation.LE, 0))
        self.cmp_cache[key] = v
        return v

    def _eq_flag(self, a, b) -> str:
        """Annotation variable of an equality atom for two integer terms."""
        x, y = sorted((self._as_var(a), self._as_var(b)))
        if x == y:
            v = self._new_flag("k")
            self.rows.append(LinConstraint(LinExpr.var(v), Relation.GE, 1))
            return v
        cached = self.eq_cache.get((x, y))
        if cached is None:
            cached = self._new_flag("e")
            self.eq_cache[(x, y)] = cached
            self.atoms.append(InterfaceAtom.eq_atom(x, y, cached))
        return cached

    def _gate(self, kind: str, lits: list) -> tuple:
        """Fresh 0/1 variable tied to an and/or of literals, both directions."""
        key = (kind, tuple(sorted(lits)))
        cached = self.gate_cache.get(key)
        if cached is not None:
            return cached
        v = self._new_flag("g")
        agg = {v: 1}  # v minus the literal sum, negatives folded in
        shift = 0
        for name, pos in lits:
            agg[name] = agg.get(name, 0) + (-1 if pos else 1)
            if not pos:
                shift += 1
            if kind == "and":
                if pos:  # v <= x
                    self.rows.append(LinConstraint(_pair(name, 1, v, -1), Relation.GE, 0))
                else:  # v <= 1 - x
                    self.rows.append(LinConstraint(_pair(name, 1, v, 1), Relation.LE, 1))
            else:
                if pos:  # v >= x
                    self.rows.append(LinConstraint(_pair(v, 1, name, -1), Relation.GE, 0))
                else:  # v >= 1 - x
                    self.rows.append(LinConstraint(_pair(v, 1, name, 1), Relation.GE, 1))
        if kind == "and":
            self.rows.append(LinConstraint(LinExpr.of(agg), Relation.GE, 1 - len(lits) + shift))
        else:
            self.rows.append(LinConstraint(LinExpr.of(agg), Relation.LE, shift))
        lit = (v, True)
        self.gate_cache[key] = lit
        return lit

    def _combine(self, kind: str, lits: list):
        flat = []
        for lit in lits:
            if isinstance(lit, bool):
                if kind == "and" and not lit:
                    return False
                if kind == "or" and lit:
                    return True
                continue
            flat.append(lit)
        if not flat:
            return kind == "and"
        if len(flat) == 1:
            return flat[0]
        return self._gate(kind, flat)

    def encode_bool(self, term):
        """Literal for a Boolean term: a constant or a signed 0/1 variable."""
        if isinstance(term, str):
            tok = _strip(term)
            if tok == "true":
                return True
            if tok == "false":
                return False
            if self.sorts.get(tok) == "Bool":
                return (tok, True)
            raise SmtError(f"{tok} is not Boolean")
        head = _strip(term[0]) if isinstance(term[0], str) else None
        args = term[1:]
        if head == "not":
            if len(args) != 1:
                raise SmtError("not takes one argument")
            return _neg(self.encode_bool(args[0]))
        if head == "and":
            return self._combine("and", [self.encode_bool(a) for a in args])
        if head == "or":
            return self._combine("or", [self.encode_bool(a) for a in args])
        if head == "=>":
            if len(args) < 2:
                raise SmtError("=> takes at least two arguments")
            lits = [_neg(self.encode_bool(a)) for a in args[:-1]]
            lits.append(self.encode_bool(args[-1]))
            return self._combine("or", lits)
        if head == "xor":
            if len(args) != 2:
                raise SmtError("xor takes two arguments")
            a, b = self.encode_bool(args[0]), self.encode_bool(args[1])
            return _neg(self._iff(a, b))
        if head == "ite":
            c = self.encode_bool(args[0])
            if self.sort_of(args[1]) != "Bool":
                raise SmtError("integer ite used as Boolean")
            a, b = self.encode_bool(args[1]), self.encode_bool(args[2])
            if isinstance(c, bool):
                return a if c else b
            return self._combine(
                "or", [self._combine("and", [c, a]), self._combine("and", [_neg(c), b])]
            )
        if head in ("<=", "<", ">=", ">"):
            e1, c1 = self.linearize(args[0])
            e2, c2 = self.linearize(args[1])
            e = e1 - e2
            r = c2 - c1
            if head == "<":
                r -= 1
            elif head == ">=":
                e, r = -e, -r
            elif head == ">":
                e, r = -e, -r - 1
            if e.is_zero():
                return 0 <= r
            return (self._indicator(e, r), True)
        if head == "=":
            if self.sort_of(args[0]) == "Bool":
                lits = [self.encode_bool(a) for a in args]
                out = True
                for a, b in zip(lits, lits[1:]):
                    out = self._combine("and", [out, self._iff(a, b)])
                return out
            out = True
            for a, b in zip(args, args[1:]):
                out = self._combine("and", [out, (self._eq_flag(a, b), True)])
            return out
        if head == "distinct":
            if self.sort_of(args[0]) == "Bool":
                if len(args) != 2:
                    raise SmtError("distinct over Booleans takes two arguments")
                a, b = self.encode_bool(args[0]), self.encode_bool(args[1])
                return _neg(self._iff(a, b))
            if len(args) == 2:
                return _neg((self._eq_flag(args[0], args[1]), True))
            lits = []
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    lits.append(_neg((self._eq_flag(args[i], args[j]), True)))
            return self._combine("and", lits)
        raise SmtError(f"unsupported Boolean term {_show(term)}")

    def _iff(self, a, b):
        if isinstance(a, bool):
            return b if a else _neg(b)
        if isinstance(b, bool):
            return a if b else _neg(a)
        return self._combine(
            "and",
            [self._combine("or", [_neg(a), b]), self._combine("or", [a, _neg(b)])],
        )

    # assertions

    def _tighten(self, v: str, lo: int | None, hi: int | None) -> bool:
        cur = self.bounds[v]
        new_lo = cur[0] if lo is None else (lo if cur[0] is None else max(lo, cur[0]))
        new_hi = cur[1] if hi is None else (hi if cur[1] is None else min(hi, cur[1]))
        if new_lo is not None and new_hi is not None and new_lo > new_hi:
            return False  # keep as a row; the box type cannot hold an empty interval
        self.bounds[v] = [new_lo, new_hi]
        return True

    def _try_bound(self, term) -> bool:
        """Absorb shapes like (<= x 5) into the box; False leaves the term alone."""
        neg = False
        t = term
        if isinstance(t, list) and len(t) == 2 and _strip(t[0]) == "not":
            neg, t = True, t[1]
        if not (isinstance(t, list) and len(t) == 3 and isinstance(t[0], str)):
            return False
        op = _strip(t[0])
        if op not in ("<=", "<", ">=", ">", "="):
            return False
        if op == "=" and neg:
            return False
        a, b = t[1], t[2]

        def as_const(x) -> int | None:
            if isinstance(x, str) and _NUM_RE.match(_strip(x)):
                return _numeral(_strip(x))
            if (
                isinstance(x, list)
                and len(x) == 2
                and _strip(x[0]) == "-"
                and isinstance(x[1], str)
                and _NUM_RE.match(_strip(x[1]))
            ):
                return -_numeral(_strip(x[1]))
            return None

        def as_var(x) -> str | None:
            if isinstance(x, str) and self.sorts.get(_strip(x)) == "Int":
                return _strip(x)
            return None

        v, k = as_var(a), as_const(b)
        flipped = False
        if v is None:
            v, k = as_var(b), as_const(a)
            flipped = True
        if v is None or k is None:
            return False
        if flipped:
            op = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}[op]
        if neg:
            op = {"<=": ">", "<": ">=", ">=": "<", ">": "<=", "=": "="}[op]
        if op == "<":
            op, k = "<=", k - 1
        elif op == ">":
            op, k = ">=", k + 1
        if op == "<=":
            return self._tighten(v, None, k)
        if op == ">=":
            return self._tighten(v, k, None)
        return self._tighten(v, k, k)

    def _prescan(self, term) -> None:
        if isinstance(term, list) and term and _strip(term[0]) == "and":
            for a in term[1:]:
                self._prescan(a)
            return
        self._try_bound(term)

    def _assert_lit(self, lit) -> None:
        if isinstance(lit, bool):
            if not lit:
                self.rows.append(LinConstraint(LinExpr.zero(), Relation.LE, -1))
            return
        v, pos = lit
        if pos:
            self.rows.append(LinConstraint(LinExpr.var(v), Relation.GE, 1))
        else:
            self.rows.append(LinConstraint(LinExpr.var(v), Relation.LE, 0))

    def encode_assert(self, term) -> None:
        if isinstance(term, list) and term and _strip(term[0]) == "and":
            for a in term[1:]:
                self.encode_assert(a)
            return
        if self._try_bound(term):
            return
        if isinstance(term, list) and term and isinstance(term[0], str):
            head = _strip(term[0])
            args = term[1:]
            if head in ("<=", "<", ">=", ">") and len(args) == 2:
                e1, c1 = self.linearize(args[0])
                e2, c2 = self.linearize(args[1])
                rel = {"<=": Relation.LE, "<": Relation.LT, ">=": Relation.GE, ">": Relation.GT}[head]
                self.rows.append(LinConstraint(e1 - e2, rel, c2 - c1))
                return
            if head == "=" and self.sort_of(args[0]) == "Int":
                for a, b in zip(args, args[1:]):
                    e1, c1 = self.linearize(a)
                    e2, c2 = self.linearize(b)
                    self.rows.append(LinConstraint(e1 - e2, Relation.EQ, c2 - c1))
                return
            if head == "not" and len(args) == 1:
                inner = args[0]
                if isinstance(inner, list) and inner and isinstance(inner[0], str):
                    ihead = _strip(inner[0])
                    if ihead == "=" and len(inner) == 3 and self.sort_of(inner[1]) == "Int":
                        flag = self._eq_flag(inner[1], inner[2])
                        self.rows.append(LinConstraint(LinExpr.var(flag), Relation.LE, 0))
                        return
                    if ihead in ("<=", "<", ">=", ">") and len(inner) == 3:
                        flipped = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}[ihead]
                        self.encode_assert([flipped, inner[1], inner[2]])
                        return
            if head == "distinct" and len(args) == 2 and self.sort_of(args[0]) == "Int":
                flag = self._eq_flag(args[0], args[1])
                self.rows.append(LinConstraint(LinExpr.var(flag), Relation.LE, 0))
                return
        self._assert_lit(self.encode_bool(term))

    # commands

    def run(self, forms: list) -> EncodeResult:
        asserts: list = []
        objective = None  # (term, maximize)
        for form in forms:
            if not isinstance(form, list) or not form or not isinstance(form[0], str):
                raise SmtError(f"bad command {_show(form)}")
            cmd = _strip(form[0])
            if cmd in ("set-logic", "set-info", "set-option", "check-sat", "get-objectives", "exit", "echo"):
                continue
            if cmd == "get-model":
                self.wants_model = True
                continue
            if cmd in ("declare-fun", "declare-const"):
                self._declare(form)
                continue
            if cmd == "assert":
                if len(form) != 2:
                    raise SmtError("assert takes one term")
                asserts.append(form[1])
                continue
            if cmd in ("minimize", "maximize"):
                if objective is not None:
                    raise SmtError("only one objective is supported")
                if len(form) != 2:
                    raise SmtError(f"{cmd} takes one term")
                objective = (form[1], cmd == "maximize")
                continue
            raise SmtError(f"unsupported command {cmd}")

        for term in asserts:
            if self.sort_of(term) != "Bool":
                raise SmtError(f"assertion is not Boolean: {_show(term)}")
        # absorb box-shaped asserts first so later encodings see tight boxes
        for term in asserts:
            self._prescan(term)
        if objective is not None:
            self._set_objective(*objective)
        for term in asserts:
            self.encode_assert(term)

        table = {
            v: (lo, hi)
            for v, (lo, hi) in self.bounds.items()
            if (lo, hi) != (None, None)
        }
        for v in sorted(self.filled):
            lo, hi = self.bounds.get(v, [None, None])
            d = self.default_bound
            table[v] = (-d if lo is None else lo, d if hi is None else hi)
        try:
            instance = ImtInstance(
                self.sorts.keys(),
                Bounds(table),
                self.rows,
                self.atoms,
                self.objective if self.objective is not None else LinExpr.zero(),
                {f: a for f, (a, _) in self.funs.items()},
            )
        except InvariantError as exc:  # a number of the encoding too long to print, say a product of numerals
            raise SmtError(str(exc)) from None
        return EncodeResult(
            instance,
            dict(self.declared),
            self.objective is not None,
            self.negated,
            self.wants_model,
        )

    def _declare(self, form) -> None:
        cmd = _strip(form[0])
        if cmd == "declare-const":
            if len(form) != 3 or not isinstance(form[1], str):
                raise SmtError(f"bad declare-const {_show(form)}")
            name, arg_sorts, ret = _strip(form[1]), [], form[2]
        else:
            if len(form) != 4 or not isinstance(form[1], str) or not isinstance(form[2], list):
                raise SmtError(f"bad declare-fun {_show(form)}")
            name, arg_sorts, ret = _strip(form[1]), form[2], form[3]
        if name in self.sorts or name in self.funs:
            raise SmtError(f"{name} declared twice")
        ret_sort = _strip(ret) if isinstance(ret, str) else None
        if ret_sort not in ("Int", "Bool"):
            raise SmtError(f"unsupported sort {_show(ret)}")
        if not arg_sorts:
            self.sorts[name] = ret_sort
            self.declared[name] = ret_sort
            self.bounds[name] = [0, 1] if ret_sort == "Bool" else [None, None]
            return
        if ret_sort != "Int" or any(not isinstance(s, str) or _strip(s) != "Int" for s in arg_sorts):
            raise SmtError(f"functions must map Int* to Int: {_show(form)}")
        self.funs[name] = (len(arg_sorts), "Int")

    def _set_objective(self, term, negate: bool) -> None:
        if self.sort_of(term) != "Int":
            raise SmtError("objective must be an integer term")
        e, c = self.linearize(term)
        if negate:
            e, c = -e, -c
            self.negated = True
        if c == 0:
            self.objective = e
            return
        lo, hi = None, None
        if all(v in self.bounds and None not in self.bounds[v] for v in e.vars()):
            lo, hi = self._expr_interval(e, c, "the objective")
        name = self._new_int("obj", lo, hi)
        self.rows.append(LinConstraint(LinExpr.var(name) - e, Relation.EQ, c))
        self.objective = LinExpr.var(name)


def encode_script(text: str, default_bound: int | None = None) -> EncodeResult:
    """Parse and encode a script into an optimization instance."""
    return Encoder(default_bound).run(parse_sexps(text))
