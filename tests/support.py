"""Shared test helpers.

The feasibility oracle here is deliberately a different algorithm from
the implementation: plain Fourier-Motzkin elimination with equalities
split into opposite inequalities, versus the package's solved form for
equalities plus two-phase simplex on the reduced inequalities. The two
must agree on every system.
"""

from fractions import Fraction
from pathlib import Path

import tccp
from tccp import ast
from tccp.linear import ls_add, ls_entails, ls_grow, ls_new, row


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
    s = ls_grow(ls_new(), dims)
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
                    tuple(el.store.entails(0, c) for c in probes)))
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
        weaker = ls_grow(ls_new(), dims)
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
            st.add_constraint(0, pre)
        nid = st.add_scope(PROC_CALL, 0, {"F": st.actual_cell(ast.Var("V"), 0)},
                           label="p")
        for pf, pv in zip(probes_for("F"), probes_for("V")):
            assert st.entails(nid, pf) == st.entails(0, pv), (i, pf)
        post = rng.choice(callee_tells)
        if post is not None:
            st.add_constraint(nid, post)
        for pf, pv in zip(probes_for("F"), probes_for("V")):
            assert st.entails(nid, pf) == st.entails(0, pv), (i, pf, post)
    return n_setups


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
