"""Shared test helpers.

The feasibility oracle here is deliberately a different algorithm from
the implementation: plain Fourier-Motzkin elimination with equalities
split into opposite inequalities, versus the package's solved form for
equalities plus a general simplex check on the reduced inequalities. The
two must agree on every system.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from pathlib import Path

import tccp
from tccp import ast
from tccp.linear import (
    FALSE_ROW, dump_lin, ls_add, ls_entails, ls_meet, ls_new, row,
)
from tccp.store import (
    STREAM, _CELL_FIELD, _cell_arg, _leaf_rule, _overlaid, compile_actual,
    compile_constraint,
)


# ------------------------ the store from syntax trees; its dump as a dict

def _code(st, scope, x, compile):
    """x compiled over its free names, and their registers in scope."""
    names = ast.free_vars(x)
    code = compile(x, {name: i for i, name in enumerate(names)})
    return code, tuple([st.lookup(scope, name) for name in names])


def tell(st, scope, c):
    """Tell st the syntax-tree constraint c, its names looked up in scope."""
    st.add_constraint(*_code(st, scope, c, compile_constraint))


def ask(st, scope, c):
    """Does st entail the syntax-tree constraint c, read in scope?"""
    return st.entails(*_code(st, scope, c, compile_constraint))


def actual(st, a, scope):
    """The register of a formal whose actual, read in scope, is a."""
    code, env = _code(st, scope, a, compile_actual)
    return env[code] if isinstance(code, int) else st.actual_cell(code, env)


def reference_ask(st, scope, c):
    """`ask`, but a stream ask that gets past the guard of `Store.entails`
    is answered by `reference_entailed`."""
    code, env = _code(st, scope, c, compile_constraint)
    if code[0] != STREAM or st.step_false or st.lin.empty:
        return st.entails(code, env)
    return reference_entailed(st, env[code[1]], code[2], env)


# `Store._entailed` as it was when the ask had a walk of its own, the
# reference for the differential test of the one walk that now serves
# tell, replay and ask; only the name is changed, and `self` is the store.

def reference_entailed(self, idx, rhs, env):
    """Ask-mode: does the store entail that register idx equals rhs, a
    compiled term over env? Pure; walks like `_unify`."""
    if rhs is None:
        return True
    stack = [(idx, env[rhs] if isinstance(rhs, int) else rhs)]
    seen = set()
    while stack:
        i, t = stack.pop()
        a, ca = self._deref(i)
        if isinstance(t, int):
            b, t = self._deref(t)
            if a == b:
                continue
        elif t[0] == "cons":
            if ca[0] != "functor":
                return False
            stack += [(h, env[p] if isinstance(p, int) else p)
                      for h, p in ((ca[1] + 1, t[2]), (ca[1], t[1]))
                      if p is not None]
            continue
        if ca[0] == "functor" and t[0] == "functor":  # t is cell b's
            key = (a, b) if a < b else (b, a)
            if key not in seen:
                seen.add(key)
                stack.append((ca[1] + 1, t[1] + 1))
                stack.append((ca[1], t[1]))
            continue
        r = _leaf_rule(ca, t)
        if r is False or r is not True and not ls_entails(self.lin, r):
            return False
    return True


def _cell_doc(cell):
    if cell is None:
        return None
    field = _CELL_FIELD[cell[0]]
    if field is None:
        return {"kind": cell[0]}
    return {"kind": cell[0], field: _cell_arg(cell)}


def _node_doc(node):
    return {"id": node.id, "parent": node.parent, "kind": node.kind,
            "label": node.label, "symbols": dict(node.symbols)}


def dump_doc(st):
    """The document that `st.dump()` writes as text, built as a dict: the
    reference that the text is held equal to. A register that only a
    sibling snapshot allocated is None."""
    return {
        "consistent": st.is_consistent(),
        "nodes": st.n_nodes,
        "registers": st.n_cells,
        "dims": st.n_dims,
        "scopes": [_node_doc(node) for node in st.base.scopes[:st.n_nodes]],
        "memory": [_cell_doc(cell) for cell in
                   _overlaid(st.base.memory, st._view(), st.n_cells)],
        "lin": dump_lin(st.lin),
    }


# ------------------------------------------------------- FM feasibility

def _fm_tidy(best, ineqs):
    """Scale rows to a comparable form and add them to `best`.

    `best` maps a scaled lhs to its tightest (const, op): among rows with
    the same scaled lhs only the tightest bound is kept. Rows are
    (op, {dim: Fraction}, Fraction) meaning expr + const op 0. Returns
    False when a ground row is violated.
    """
    for op, cs, k in ineqs:
        cs = {d: Fraction(c) for d, c in cs.items() if c != 0}
        if not cs:
            if (k > 0) if op == "<=" else (k >= 0):
                return False
            continue
        scale = abs(cs[min(cs)])
        key = tuple(sorted((d, c / scale) for d, c in cs.items()))
        cand = (Fraction(k) / scale, op)
        prev = best.get(key)
        # larger const is tighter; on a tie "<" beats "<="
        if prev is None or cand[0] > prev[0] or \
                (cand[0] == prev[0] and cand[1] == "<"):
            best[key] = cand
    return True


def fm_feasible(rows):
    """Decide rational satisfiability of canonical rows by elimination.

    The rows stay tidied in one dict between steps; each step tidies only
    the rows it creates."""
    ineqs = []
    for op, coeffs, const in rows:
        if op == "=":
            ineqs.append(("<=", dict(coeffs), Fraction(const)))
            ineqs.append(("<=", {d: -c for d, c in coeffs}, Fraction(-const)))
        else:
            ineqs.append((op, dict(coeffs), Fraction(const)))
    best = {}
    if not _fm_tidy(best, ineqs):
        return False
    while best:
        # eliminate the variable that breeds the fewest product rows
        lo, hi = {}, {}
        for key in best:
            for dd, c in key:
                side = lo if c < 0 else hi
                side[dd] = side.get(dd, 0) + 1
        d = min(sorted(lo.keys() | hi.keys()),
                key=lambda dd: lo.get(dd, 0) * hi.get(dd, 0))
        lowers, uppers = [], []
        for key in list(best):
            cs = dict(key)
            if d in cs:
                k, op = best.pop(key)
                (uppers if cs[d] > 0 else lowers).append((op, cs, k, cs[d]))
        new = []
        for lop, lcs, lk, lc in lowers:
            for uop, ucs, uk, uc in uppers:
                cs2 = {}
                for dd in set(lcs) | set(ucs):
                    if dd == d:
                        continue
                    v = uc * lcs.get(dd, 0) + (-lc) * ucs.get(dd, 0)
                    if v:
                        cs2[dd] = v
                k2 = uc * lk + (-lc) * uk
                op2 = "<" if (lop == "<" or uop == "<") else "<="
                new.append((op2, cs2, k2))
        if not _fm_tidy(best, new):
            return False
    return True


# ------------------------------------ reference Fraction-only arithmetic

# `row`, `_reduce` and `_absorb` as they were when every number in them
# was a Fraction, the reference for the differential test of the int
# arithmetic that replaced them; only the names are changed, and the two
# solved-form functions pivot on the highest dimension as the package does.

def fraction_row(op, coeffs, const):
    """Build a canonical row from op, {dim: coef} and a constant.

    Input ops may include `>`, `>=`; they are flipped into `<`, `<=`.
    Returns None when the constraint is trivially true, FALSE_ROW when
    trivially false.
    """
    work = {d: Fraction(c) for d, c in coeffs.items() if c != 0}
    const = Fraction(const)
    if op == ">":
        op, work, const = "<", {d: -c for d, c in work.items()}, -const
    elif op == ">=":
        op, work, const = "<=", {d: -c for d, c in work.items()}, -const
    if op not in ("=", "<=", "<"):
        raise ValueError(f"bad op {op!r}")
    if not work:
        truth = const == 0 if op == "=" else (const <= 0 if op == "<=" else const < 0)
        return None if truth else FALSE_ROW
    denom = 1
    for c in list(work.values()) + [const]:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = {d: int(c * denom) for d, c in work.items()}
    k = abs(int(const * denom))
    for c in ints.values():
        k = gcd(k, abs(c))
    ints = {d: c // k for d, c in ints.items()}
    const = int(const * denom) // k
    if op == "=" and ints[min(ints)] < 0:
        ints = {d: -c for d, c in ints.items()}
        const = -const
    return (op, tuple(sorted(ints.items())), const)


def fraction_reduce(coeffs, const, solved):
    """Substitute the pivots of `solved` out of `sum c*D + const`.

    Returns ({dim: Fraction}, Fraction) over non-pivot dimensions only.
    Pivots are taken highest first; a definition mentions only dimensions
    below its pivot, so each substitution's pivot is lower than the last
    and the loop ends.
    """
    work = {d: Fraction(c) for d, c in coeffs}
    const = Fraction(const)
    todo = [-d for d in work if d in solved]
    heapify(todo)
    while todo:
        p = -heappop(todo)
        f = work.pop(p, None)
        if f is None:  # cancelled out by an earlier substitution
            continue
        dcoeffs, dconst = solved[p]
        for j, c in dcoeffs.items():
            v = work.get(j, 0) + f * c
            if v:
                if j not in work and j in solved:
                    heappush(todo, -j)
                work[j] = v
            else:
                del work[j]
        const += f * dconst
    return work, const


def fraction_absorb(solved, r):
    """Add the equality row `r` to `solved` in place; False if it contradicts it.

    The reduced row's highest dimension becomes a pivot defined by the
    rest, so a definition only mentions lower dimensions.
    """
    coeffs, const = fraction_reduce(r[1], r[2], solved)
    if not coeffs:
        return const == 0
    p = max(coeffs)
    a = coeffs.pop(p)
    solved[p] = ({j: -c / a for j, c in coeffs.items()}, -const / a)
    return True


# -------------------------------------------------- random linear data

def random_row(rng, dims, ops=("=", "<=", "<"), lo=-4, hi=4):
    n = rng.randint(1, dims)
    chosen = rng.sample(range(dims), n)
    coeffs = {}
    for d in chosen:
        c = rng.randint(lo, hi)
        if c:
            coeffs[d] = Fraction(c)
    return row(rng.choice(ops), coeffs, Fraction(rng.randint(lo, hi)))


def random_store(rng, dims=3, max_rows=4):
    s = ls_new()
    for _ in range(rng.randint(0, max_rows)):
        s = ls_add(s, random_row(rng, dims))
    return s


def stores_equivalent(a, b):
    """Mutual entailment of two stores over the same dims."""
    return (all(ls_entails(a, r) for r in b.rows)
            and all(ls_entails(b, r) for r in a.rows))


# ------------------------------------------------ random tccp programs

ATOMS = ["a", "b", "on", "off"]


class ProgramGen:
    """Scope-correct random programs for the differential test."""

    def __init__(self, rng):
        self.rng = rng
        self.decls = []
        self.call_budget = 0

    def gen(self):
        rng = self.rng
        n_decls = rng.randint(0, 4)
        names = [f"p{i}" for i in range(n_decls)]
        arities = [rng.randint(0, 2) for _ in names]
        self.sigs = list(zip(names, arities))
        parts = []
        for name, arity in self.sigs:
            formals = tuple(f"F{i}" for i in range(arity))
            # one call per body keeps the spawn width of any run constant
            self.call_budget = 1
            body = self.agent(list(formals), depth=3)
            parts.append((name, formals, body))
        entry_vars = ["X", "Y", "Z"]
        self.call_budget = 2
        entry = self.agent(entry_vars, depth=3)
        decl_text = "\n".join(
            self._decl_text(name, formals, body)
            for name, formals, body in parts)
        return decl_text, ast.pretty_agent(entry)

    def _decl_text(self, name, formals, body):
        head = name if not formals else f"{name}({', '.join(formals)})"
        return f"{head} :- {ast.pretty_agent(body)}."

    # ---- agents

    def agent(self, scope, depth):
        rng = self.rng
        forms = ["skip", "tell", "tell", "choice", "now"]
        if depth > 0:
            forms += ["par", "par", "exists", "choice", "now"]
        if self.sigs and self.call_budget > 0:
            forms += ["call", "call"]
        kind = rng.choice(forms)
        if kind == "skip":
            return ast.Skip()
        if kind == "tell":
            return ast.Tell(self.constraint(scope))
        if kind == "choice":
            n = rng.randint(1, 3)
            return ast.Choice(tuple(
                (self.constraint(scope), self.agent(scope, depth - 1))
                for _ in range(n)))
        if kind == "now":
            return ast.Now(self.constraint(scope),
                           self.agent(scope, depth - 1),
                           self.agent(scope, depth - 1))
        if kind == "par":
            n = rng.randint(2, 3)
            return ast.Parallel(tuple(
                self.agent(scope, depth - 1) for _ in range(n)))
        if kind == "exists":
            n = rng.randint(1, 2)
            base = len([v for v in scope if v.startswith("L")])
            fresh = [f"L{base + i}" for i in range(n)]
            return ast.Exists(tuple(fresh),
                              self.agent(scope + fresh, depth - 1))
        self.call_budget -= 1
        name, arity = rng.choice(self.sigs)
        actuals = tuple(self.actual(scope) for _ in range(arity))
        return ast.Call(name, actuals)

    def actual(self, scope):
        rng = self.rng
        k = rng.randrange(4)
        if k == 0 and scope:
            return ast.Var(rng.choice(scope))
        if k == 1:
            return ast.Atom(rng.choice(ATOMS))
        if k == 2:
            return ast.Num(Fraction(rng.randint(-3, 5)))
        if scope:
            return (ast.LinExpr.of_var(rng.choice(scope))
                    + ast.LinExpr.of_num(Fraction(rng.randint(-2, 3))))
        return ast.Num(Fraction(rng.randint(-3, 5)))

    # ---- constraints

    def constraint(self, scope):
        rng = self.rng
        if not scope:
            return ast.CTrue()
        k = rng.randrange(6)
        if k == 0:
            return ast.CTrue()
        if k <= 2:
            return ast.StreamEq(rng.choice(scope), self.term(scope, depth=2))
        lhs = self.linexpr(scope)
        rhs = self.linexpr(scope)
        op = rng.choice(["=", "<", ">", "<=", ">="])
        if op == "=" and self._var_var(lhs, rhs):
            op = "<="
        return ast.Linear(lhs, op, rhs)

    @staticmethod
    def _var_var(lhs, rhs):
        # X = Y would parse back as a stream constraint
        return (len(lhs.coeffs) == 1 and lhs.coeffs[0][1] == 1
                and lhs.const == 0 and len(rhs.coeffs) == 1
                and rhs.coeffs[0][1] == 1 and rhs.const == 0)

    def term(self, scope, depth):
        rng = self.rng
        k = rng.randrange(6)
        if k == 0:
            return ast.Atom(rng.choice(ATOMS))
        if k == 1:
            return ast.Num(Fraction(rng.randint(-2, 4)))
        if k == 2:
            return ast.Anon()
        if k == 3 or depth == 0:
            return ast.Var(rng.choice(scope))
        return ast.Cons(self.term(scope, depth - 1),
                        self.term(scope, depth - 1))

    def linexpr(self, scope):
        rng = self.rng
        e = ast.LinExpr.of_num(Fraction(rng.randint(-3, 3)))
        for _ in range(rng.randint(0, 2)):
            v = ast.LinExpr.of_var(rng.choice(scope))
            e = e + v.scaled(Fraction(rng.choice([-2, -1, 1, 1, 2, 3])))
        return e


def _deep_list(depth, leaf):
    return "[a | " * (depth - 1) + leaf + "]" * (depth - 1)


# Programs in the forms that compiling specialises, none of which the
# photocopier, the goldens or `ProgramGen` builds: (declarations, entry).
SPECIALISED = [
    # atom, number and expression actuals, and a formal read by a guard
    ("p(A, N, M, S) :- exists T (tell(S = [A | T]) || tell(T = [N | _])"
     " || now (M > N) then q(M - 1, S) else r(off, N)).\n"
     "q(K, S) :- ask(K >= 0) -> tell(K = 3)"
     " + ask(K < 0) -> tell(S = [neg | _]).\n"
     "r(A, N) :- tell(N < 3) || ask(A = off) -> tell(true).",
     "p(a, 3, X + 1, S) || tell(X = 4) || p(b, -2, 2 * Y - 1, U)"
     " || p(on, Z, 7, W)"),
    # cons tells and asks with variables two and three cells deep, on
    # fresh and on bound registers
    ("s(X, Y) :- exists B, T, U (tell(X = [a | [B | T]])"
     " || tell(T = [[B | U] | [7 | Y]]) || tell(B = [U | nil])"
     " || ask(X = [a | [[_ | nil] | _]]) -> tell(U = b)"
     " || ask(X = [a | [B | [[B | U] | _]]]) -> tell(Y = [done | _])).",
     "s(X, Y) || s(X, Z) || tell(Y = [z | _])"),
    # an occurs check below the first cell of a bound register
    ("o(X) :- exists A, T (tell(X = [A | T])"
     " || ask(X = [_ | _]) -> tell(X = [A | [b | [T | _]]])).",
     "o(X) || tell(Y = [c | _])"),
    # linear guards in a choice (one of them twice) and in nested nows
    ("c(N, S) :- exists T (tell(S = [N | T])"
     " || (ask(N > 0) -> c(N - 1, T) + ask(N >= 1) -> c(N - 2, T)"
     " + ask(N < 1) -> tell(T = nil) + ask(2 * N = 2) -> tell(T = [one | _])"
     " + ask(N > 0) -> c(N - 1, T))"
     " || now (N + 1 > 3) then tell(T = [_ | _])"
     " else now (3 * N <= 1) then skip else tell(T = [_ | _])).",
     "c(4, S) || c(X, R) || tell(X = 1)"),
    # now inside exists inside ||, with a shadowed local
    ("w(X, K) :- tell(K = [t | _]) || exists Y, Z ("
     "now (X = [a | _]) then (tell(Y = 1) || exists V (now (Y > 0)"
     " then tell(V = Y) else tell(Z = [V | _])))"
     " else (tell(Y = 2) || exists V (now (K = [t | V]) then tell(V = [u | _])"
     " else tell(Z = [Y | V])))"
     " || exists Y (tell(Y = [s | _])"
     " || now (Y = [s | _]) then skip else tell(K = [t | [Y | _]])))"
     " || ask(true) -> w(X, K).",
     "w(X, K) || tell(X = [a | _]) || exists Q (now (Q > 0) then skip"
     " else (tell(Q = 1) || now (X = [a | _]) then tell(K2 = [q | _])"
     " else skip))"),
    # a list literal nested 300 deep, told twice in one instant and asked
    ("", "tell(X = %s) || tell(X = %s) || ask(X = %s) -> tell(Y = done)"
     " || tell(V = [b | _])" % (_deep_list(300, "[V | nil]"),
                                _deep_list(300, "[W | nil]"),
                                _deep_list(300, "[_ | _]"))),
]

# Programs whose asks turn on solved values that are not integers:
# (declarations, entry).
FRACTIONAL = [
    # X = 3/2 against guards on either side of it
    ("h(X, A, B, C) :- now (X > 1) then tell(A = gt) else tell(A = le)"
     " || now (2 * X < 3) then tell(B = lt) else tell(B = ge)"
     " || ask(4 * X >= 6) -> tell(C = half).",
     "tell(2 * X = 3) || h(X, A, B, C) || ask(X > 1) -> h(X, D, E, F)"),
    # 3 * X = 2 * Y + 1 chained over instants, from 5 up past 40 and from
    # 1/3 down
    ("ch(X, S) :- now (X > 40) then tell(S = nil) else exists Y, T"
     " (tell(3 * X = 2 * Y + 1) || tell(S = [Y | T]) || ch(Y, T)).",
     "ch(X, S) || tell(X = 5) || ch(Z, U) || tell(3 * Z = 1)"),
    # strict inequalities over two variables, decided by the simplex
    ("m(X, Y, P, Q, R) :- tell(2 * X + 3 * Y < 7) || tell(X > 1) || tell(Y > 1)"
     " || ask(3 * Y < 5) -> tell(3 * Y > 4) || ask(3 * Y < 5) -> tell(P = y)"
     " || now (2 * X + 3 * Y < 6) then tell(Q = six) else tell(Q = no)"
     " || ask(2 * X < 3) -> tell(R = x) + ask(3 * X > 4) -> tell(R = big).",
     "m(X, Y, P, Q, R) || exists A, B (tell(3 * A > 2 * B + 1)"
     " || tell(2 * B >= 5)"
     " || ask(true) -> now (A > 2) then tell(T = a) else tell(T = b))"),
    # expression actuals with non-unit coefficients, X = 7/4
    ("p(N, A, B) :- now (N > 4) then tell(A = big) else tell(A = small)"
     " || ask(2 * N = 9) -> tell(B = nine).",
     "tell(4 * X = 7) || p(2 * X + 1, S, T) || p(3 * X - 2, U, V)"),
    # numeric clashes that end the run failed, by an equality and by a
    # strict bound
    ("f(X) :- ask(X > 1) -> tell(4 * X = 5) + ask(X < 1) -> skip.",
     "tell(2 * X = 3) || f(X)"),
    ("g(Y) :- ask(Y > 1) -> tell(4 * Y < 6).",
     "tell(2 * Y > 3) || g(Y)"),
]


# --------------------------------------------------------- observables

def probe_set(program):
    """Constraints over entry variables used to compare the two routes."""
    roots = set(program.entry_vars)
    agents = [d.body for d in program.decls]
    if program.entry is not None:
        agents.append(program.entry)
    probes = [c for a in agents for c, _ in ast.walk(a)
              if isinstance(c, (ast.CTrue, ast.StreamEq, ast.Linear))
              and set(ast.free_vars(c)) <= roots]
    evs = list(program.entry_vars)
    for i, v in enumerate(evs):
        for w in evs[i + 1:]:
            probes.append(ast.StreamEq(v, ast.Var(w)))
            probes.append(ast.Linear(ast.LinExpr.of_var(v), "<=",
                                     ast.LinExpr.of_var(w)))
        for k in (0, 1, 2):
            kk = ast.LinExpr.of_num(Fraction(k))
            probes.append(ast.Linear(ast.LinExpr.of_var(v), "=", kk))
            probes.append(ast.Linear(ast.LinExpr.of_var(v), "<=", kk))
            probes.append(ast.StreamEq(v, ast.Cons(ast.Anon(), ast.Anon())))
    return probes


def machine_observables(trace, probes):
    out = []
    for el in trace:
        out.append((el.clock, el.status, el.store.is_consistent(),
                    tuple(ask(el.store, 0, c) for c in probes)))
    return out


def oracle_observables(trace, probes):
    out = []
    for el in trace:
        out.append((el.clock, el.status, el.state.is_consistent(),
                    tuple(el.state.entails(c) for c in probes)))
    return out


# ------------------------------------------------- reusable law checkers

def check_projection_axioms(rng, n_stores, dims=3):
    """Exercise the four projection laws on n random stores; returns count."""
    from tccp.linear import ls_entails, ls_is_empty, ls_meet, ls_project

    def equiv_or_both_empty(a, b):
        if ls_is_empty(a) or ls_is_empty(b):
            return ls_is_empty(a) == ls_is_empty(b)
        return stores_equivalent(a, b)

    for i in range(n_stores):
        s = random_store(rng, dims=dims)
        d = random_store(rng, dims=dims)
        x, y = rng.sample(range(dims), 2)
        # (a) the projection is entailed
        assert all(ls_entails(s, r) for r in ls_project(s, x).rows), i
        # (b) monotone: a weaker store projects to a weaker store
        sub = list(s.rows)
        rng.shuffle(sub)
        weaker = ls_new()
        for r in sub[:rng.randint(0, len(sub))]:
            weaker = ls_add(weaker, r)
        assert all(ls_entails(ls_project(s, x), r)
                   for r in ls_project(weaker, x).rows), i
        # (c) projecting out x absorbs an already-projected conjunct
        lhs = ls_project(ls_meet(ls_new(), [s, ls_project(d, x)]), x)
        rhs = ls_meet(ls_new(), [ls_project(s, x), ls_project(d, x)])
        assert equiv_or_both_empty(lhs, rhs), i
        # (d) projections commute
        assert equiv_or_both_empty(
            ls_project(ls_project(s, x), y),
            ls_project(ls_project(s, y), x)), i
    return n_stores


def check_parameter_law(rng, n_setups):
    """A formal linked to an actual answers asks exactly like the actual.

    Builds n random caller stores, links V through a call boundary as F,
    and checks entailment agreement in both directions (pre-existing caller
    facts seen through F; callee tells on F seen back on V). Returns count.
    """
    from tccp import ast
    from tccp.store import PROC_CALL, Store

    def probes_for(name):
        e = ast.LinExpr.of_var(name)
        out = [ast.StreamEq(name, ast.Cons(ast.Atom("a"), ast.Anon())),
               ast.StreamEq(name, ast.Atom("a")),
               ast.StreamEq(name, ast.Anon()),
               ast.StreamEq(name, ast.Cons(ast.Num(Fraction(2)), ast.Anon()))]
        for k in (0, 2, 5):
            kk = ast.LinExpr.of_num(Fraction(k))
            out.append(ast.Linear(e, "=", kk))
            out.append(ast.Linear(e, "<=", kk))
            out.append(ast.Linear(e, ">", kk))
        return out

    caller_tells = [
        None,
        ast.StreamEq("V", ast.Cons(ast.Atom("a"), ast.Anon())),
        ast.StreamEq("V", ast.Cons(ast.Num(Fraction(2)), ast.Var("W"))),
        ast.StreamEq("V", ast.Atom("a")),
        ast.Linear(ast.LinExpr.of_var("V"), "=", ast.LinExpr.of_num(Fraction(2))),
        ast.Linear(ast.LinExpr.of_var("V"), "<=", ast.LinExpr.of_num(Fraction(5))),
        ast.StreamEq("V", ast.Var("W")),
    ]
    callee_tells = [
        None,
        ast.StreamEq("F", ast.Cons(ast.Atom("a"), ast.Anon())),
        ast.StreamEq("F", ast.Atom("b")),
        ast.Linear(ast.LinExpr.of_var("F"), "=", ast.LinExpr.of_num(Fraction(5))),
        ast.Linear(ast.LinExpr.of_var("F"), ">", ast.LinExpr.of_num(Fraction(0))),
    ]
    for i in range(n_setups):
        st = Store.new(["V", "W"])
        pre = rng.choice(caller_tells)
        if pre is not None:
            tell(st, 0, pre)
        nid = st.add_scope(PROC_CALL, 0, {"F": actual(st, ast.Var("V"), 0)},
                           label="p")
        for pf, pv in zip(probes_for("F"), probes_for("V")):
            assert ask(st, nid, pf) == ask(st, 0, pv), (i, pf)
        post = rng.choice(callee_tells)
        if post is not None:
            tell(st, nid, post)
        for pf, pv in zip(probes_for("F"), probes_for("V")):
            assert ask(st, nid, pf) == ask(st, 0, pv), (i, pf, post)
    return n_setups


# ------------------------------------------------------ reference merge

def replay_merge(base, locals_):
    """`Store.merge` by full replay, the reference for its differential
    tests: every sibling's whole view over the base, less what is the
    same object in base's view, replayed onto a branch of base, new
    registers first, then older ones in index order through
    `Store._unify`. No sibling is dropped and none is adopted."""
    out = base.branch()
    base_cells, base_len = base._view(), base.n_cells
    lins = [snap.lin for snap in locals_ if snap.lin is not base.lin]
    if lins:
        out.lin = ls_meet(base.lin, lins)
    for snap in locals_:
        out.step_false = out.step_false or snap.step_false
        out.n_nodes = max(out.n_nodes, snap.n_nodes)
        out.n_dims = max(out.n_dims, snap.n_dims)
        cells = snap._view()
        own = sorted((idx, cell) for idx, cell in cells.items()
                     if base_cells.get(idx) is not cell)
        for idx, cell in own:
            if idx >= base_len:
                out._set(idx, cell)
        for idx, cell in own:
            if idx < base_len:
                out._unify(idx, cell[1] if cell[0] == "ref" else cell)
    out.view = None
    return out


# ---------------------------------------------------- CLI child processes

def cli_child_env(seed):
    """Environment for a `python -m tccp.cli` child process.

    It sets PYTHONHASHSEED to seed and PYTHONDONTWRITEBYTECODE, so that
    no child writes `__pycache__` into the source tree, and is otherwise
    minimal, so the caller's own settings cannot leak into the child.
    PYTHONPATH names the directory holding the `tccp` package this
    process imported, so the child runs the same source tree from a bare
    checkout (`PYTHONPATH=src`) and from an installed copy alike.
    """
    return {"PYTHONHASHSEED": str(seed), "PYTHONDONTWRITEBYTECODE": "1",
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": str(Path(tccp.__file__).resolve().parents[1])}
