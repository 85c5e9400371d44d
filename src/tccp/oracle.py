"""Reference interpreter, used to cross-check the register machine.

This route has no registers and no scope tree: hiding renames bound
variables to globally fresh names, a call substitutes actuals into the
body, and the store is a name-keyed solved form (variable -> term) plus
the same linear backend. Both interpreters must agree, instant for
instant, on consistency, on status, and on the entailment of any
constraint over the entry variables; they are free to disagree on
representation internals such as register or dimension counts.
"""

from collections import namedtuple
from fractions import Fraction

from . import ast
from .linear import ls_add, ls_entails, ls_grow, ls_is_empty, ls_new, row

RUNNING, QUIESCENT, FAILED = "running", "quiescent", "failed"


class OracleState:
    """Solved-form store: substitution, numeric dims, linear store."""

    __slots__ = ("subst", "dims", "lin", "false", "counter")

    def __init__(self):
        self.subst = {}
        self.dims = {}
        self.lin = ls_new()
        self.false = False
        self.counter = 0

    def copy(self):
        s = OracleState.__new__(OracleState)
        s.subst = dict(self.subst)
        s.dims = dict(self.dims)
        s.lin = self.lin
        s.false = self.false
        s.counter = self.counter
        return s

    def fresh(self, base):
        self.counter += 1
        return f"{base}~{self.counter}"

    def is_consistent(self):
        return not self.false and not ls_is_empty(self.lin)

    # ------------------------------------------------------------- terms

    def walk(self, t):
        while isinstance(t, ast.Var) and t.name in self.subst:
            t = self.subst[t.name]
        return t

    def occurs(self, name, t):
        stack = [t]
        while stack:
            t = self.walk(stack.pop())
            if isinstance(t, ast.Var):
                if t.name == name:
                    return True
            elif isinstance(t, ast.Cons):
                stack.append(t.tail)
                stack.append(t.head)
        return False

    def instantiate(self, t):
        """Replace anonymous positions by fresh variables before a tell."""
        if isinstance(t, ast.Anon):
            return ast.Var(self.fresh("_"))
        if isinstance(t, ast.Cons):
            return ast.Cons(self.instantiate(t.head), self.instantiate(t.tail))
        return t

    def var_dim(self, name, allocate):
        if name in self.dims:
            return self.dims[name]
        if not allocate:
            return None
        d = self.lin.dims
        self.lin = ls_grow(self.lin, d + 1)
        self.dims[name] = d
        return d

    def _numeric(self, t):
        # walked var carrying a dimension
        return isinstance(t, ast.Var) and t.name in self.dims

    # ------------------------------------------------------------- tells

    def unify(self, t1, t2):
        """Tell t1 = t2. Pairs wait on a stack, heads before tails, so the
        effects come in the order of a left-to-right walk."""
        stack = [(t1, t2)]
        while stack and not self.false:
            t1, t2 = stack.pop()
            a, b = self.walk(t1), self.walk(t2)
            if isinstance(a, ast.Var) and isinstance(b, ast.Var) \
                    and a.name == b.name:
                continue
            if isinstance(a, ast.Var) and a.name not in self.dims:
                if self.occurs(a.name, b):
                    self.false = True
                else:
                    self.subst[a.name] = b
            elif isinstance(b, ast.Var) and b.name not in self.dims:
                if self.occurs(b.name, a):
                    self.false = True
                else:
                    self.subst[b.name] = a
            elif self._numeric(a) or self._numeric(b):
                self._unify_numeric(a, b)
            elif isinstance(a, ast.Num) and isinstance(b, ast.Num):
                self.false = a.value != b.value
            elif isinstance(a, ast.Atom) and isinstance(b, ast.Atom):
                self.false = a.name != b.name
            elif isinstance(a, ast.Cons) and isinstance(b, ast.Cons):
                stack.append((a.tail, b.tail))
                stack.append((a.head, b.head))
            else:
                self.false = True

    def _unify_numeric(self, a, b):
        if self._numeric(a) and self._numeric(b):
            self._add_row("=", {self.dims[a.name]: Fraction(1),
                                self.dims[b.name]: Fraction(-1)}, Fraction(0))
        elif self._numeric(a) and isinstance(b, ast.Num):
            self._add_row("=", {self.dims[a.name]: Fraction(1)}, -b.value)
        elif self._numeric(b) and isinstance(a, ast.Num):
            self._add_row("=", {self.dims[b.name]: Fraction(1)}, -a.value)
        else:
            self.false = True

    def _add_row(self, op, coeffs, const):
        self.lin = ls_add(self.lin, row(op, coeffs, const))

    def resolve(self, e, allocate):
        """LinExpr over names -> ({dim: coef}, const), or None."""
        coeffs = {}
        const = Fraction(e.const)
        for name, c in e.coeffs:
            t = self.walk(ast.Var(name))
            if isinstance(t, ast.Num):
                const += c * t.value
            elif isinstance(t, ast.Var):
                d = self.var_dim(t.name, allocate)
                if d is None:
                    return None
                coeffs[d] = coeffs.get(d, Fraction(0)) + c
            else:
                return None
        return coeffs, const

    def tell(self, c):
        if isinstance(c, ast.CTrue):
            return
        if isinstance(c, ast.StreamEq):
            self.unify(ast.Var(c.var), self.instantiate(c.rhs))
            return
        if isinstance(c, ast.Linear):
            resolved = self.resolve(c.lhs - c.rhs, allocate=True)
            if resolved is None:
                self.false = True
                return
            coeffs, const = resolved
            self._add_row(c.op, coeffs, const)
            return
        raise TypeError(f"bad constraint: {c!r}")

    def tell_param(self, name, e):
        """A call's expression actual: name = e, resolving e first."""
        resolved = self.resolve(e, allocate=True)
        d = self.var_dim(name, allocate=True)
        if resolved is None:
            self.false = True
            return
        coeffs, const = resolved
        coeffs[d] = coeffs.get(d, Fraction(0)) - 1
        self._add_row("=", coeffs, const)

    # -------------------------------------------------------------- asks

    def entails(self, c):
        if not self.is_consistent():
            return True
        if isinstance(c, ast.CTrue):
            return True
        if isinstance(c, ast.Linear):
            resolved = self.resolve(c.lhs - c.rhs, allocate=False)
            if resolved is None:
                return False
            coeffs, const = resolved
            return ls_entails(self.lin, row(c.op, coeffs, const))
        if isinstance(c, ast.StreamEq):
            return self.match(self.walk(ast.Var(c.var)), c.rhs)
        raise TypeError(f"bad constraint: {c!r}")

    def match(self, sval, pat):
        """One-way: does the store entail sval = pat?"""
        stack = [(sval, pat)]
        while stack:
            sval, pat = stack.pop()
            if isinstance(pat, ast.Anon):
                continue
            if isinstance(pat, ast.Var):
                if not self.entailed_eq(sval, self.walk(pat)):
                    return False
            elif isinstance(pat, (ast.Atom, ast.Num)):
                if not self.entailed_eq(sval, pat):
                    return False
            elif isinstance(pat, ast.Cons):
                if not isinstance(sval, ast.Cons):
                    return False
                stack.append((self.walk(sval.tail), pat.tail))
                stack.append((self.walk(sval.head), pat.head))
            else:
                raise TypeError(f"bad term: {pat!r}")
        return True

    def entailed_eq(self, a, b):
        """Entailed equality of two walked store terms."""
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            if isinstance(a, ast.Cons) and isinstance(b, ast.Cons):
                stack.append((self.walk(a.tail), self.walk(b.tail)))
                stack.append((self.walk(a.head), self.walk(b.head)))
            elif not self._leaf_entailed(a, b):
                return False
        return True

    def _leaf_entailed(self, a, b):
        """entailed_eq for two walked terms that are not both cons cells."""
        if isinstance(a, ast.Var) and isinstance(b, ast.Var) and a.name == b.name:
            return True
        if self._numeric(a) or self._numeric(b):
            if self._numeric(a) and self._numeric(b):
                return ls_entails(self.lin, row(
                    "=", {self.dims[a.name]: Fraction(1),
                          self.dims[b.name]: Fraction(-1)}, Fraction(0)))
            num = a if isinstance(a, ast.Num) else b if isinstance(b, ast.Num) else None
            if num is None:
                return False
            dim = self.dims[a.name] if self._numeric(a) else self.dims[b.name]
            return ls_entails(self.lin, row("=", {dim: Fraction(1)}, -num.value))
        if isinstance(a, ast.Num) and isinstance(b, ast.Num):
            return a.value == b.value
        if isinstance(a, ast.Atom) and isinstance(b, ast.Atom):
            return a.name == b.name
        return False


# ------------------------------------------------------- substitution

def sub_term(t, mapping):
    if isinstance(t, ast.Var):
        return mapping.get(t.name, t)
    if isinstance(t, ast.Cons):
        return ast.Cons(sub_term(t.head, mapping), sub_term(t.tail, mapping))
    return t


def sub_linexpr(e, mapping):
    acc = ast.LinExpr.of_num(e.const)
    for name, c in e.coeffs:
        m = mapping.get(name)
        if m is None:
            acc = acc + ast.LinExpr.of_var(name).scaled(c)
        elif isinstance(m, ast.Var):
            acc = acc + ast.LinExpr.of_var(m.name).scaled(c)
        elif isinstance(m, ast.Num):
            acc = acc + ast.LinExpr.of_num(m.value * c)
        else:
            raise TypeError(f"bad mapping target: {m!r}")
    return acc


def sub_constraint(c, mapping):
    if isinstance(c, ast.CTrue):
        return c
    if isinstance(c, ast.StreamEq):
        lhs = mapping.get(c.var, ast.Var(c.var))
        return ast.StreamEq(lhs.name, sub_term(c.rhs, mapping))
    if isinstance(c, ast.Linear):
        return ast.Linear(sub_linexpr(c.lhs, mapping), c.op,
                          sub_linexpr(c.rhs, mapping))
    raise TypeError(f"bad constraint: {c!r}")


def sub_agent(a, mapping):
    if isinstance(a, ast.Skip):
        return a
    if isinstance(a, ast.Tell):
        return ast.Tell(sub_constraint(a.constraint, mapping))
    if isinstance(a, ast.Parallel):
        return ast.Parallel(tuple(sub_agent(x, mapping) for x in a.agents))
    if isinstance(a, ast.Choice):
        return ast.Choice(tuple(
            (sub_constraint(g, mapping), sub_agent(b, mapping))
            for g, b in a.branches))
    if isinstance(a, ast.Now):
        return ast.Now(sub_constraint(a.cond, mapping),
                       sub_agent(a.then_agent, mapping),
                       sub_agent(a.else_agent, mapping))
    if isinstance(a, ast.Exists):
        inner = {k: v for k, v in mapping.items() if k not in a.vars}
        return ast.Exists(a.vars, sub_agent(a.body, inner))
    if isinstance(a, ast.Call):
        actuals = []
        for x in a.actuals:
            if isinstance(x, ast.Var):
                actuals.append(mapping.get(x.name, x))
            elif isinstance(x, ast.LinExpr):
                actuals.append(sub_linexpr(x, mapping))
            else:
                actuals.append(x)
        return ast.Call(a.name, tuple(actuals))
    raise TypeError(f"bad agent: {a!r}")


# --------------------------------------------------------- transitions

# agent is None when every component has finished
OracleConfig = namedtuple("OracleConfig", "program agent state clock status")

OracleStep = namedtuple("OracleStep", "clock status state")


def o_initial(program):
    if program.entry is None:
        raise ValueError("program has no entry agent")
    return OracleConfig(program, program.entry, OracleState(), 0, RUNNING)


def trans(program, agent, state, policy, rng, effects):
    """One instant of one agent. Returns (residual agent or None, moved)."""
    if isinstance(agent, ast.Skip):
        return None, False

    if isinstance(agent, ast.Tell):
        effects.append(("tell", agent.constraint))
        return None, True

    if isinstance(agent, ast.Choice):
        enabled = [i for i, (g, _) in enumerate(agent.branches)
                   if state.entails(g)]
        if not enabled:
            return agent, False
        k = policy.choose(enabled, rng)
        return agent.branches[k][1], True

    if isinstance(agent, ast.Now):
        branch = agent.then_agent if state.entails(agent.cond) \
            else agent.else_agent
        residual, _ = trans(program, branch, state, policy, rng, effects)
        return residual, True

    if isinstance(agent, ast.Parallel):
        residuals = []
        moved = False
        for child in agent.agents:
            r, mv = trans(program, child, state, policy, rng, effects)
            if r is not None:
                residuals.append(r)
            moved = moved or mv
        if not residuals:
            return None, moved
        if len(residuals) == 1:
            return residuals[0], moved
        return ast.Parallel(tuple(residuals)), moved

    if isinstance(agent, ast.Exists):
        mapping = {v: ast.Var(state.fresh(v)) for v in agent.vars}
        return trans(program, sub_agent(agent.body, mapping),
                     state, policy, rng, effects)

    if isinstance(agent, ast.Call):
        decl = program.decl(agent.name)
        mapping = {}
        for formal, actual in zip(decl.formals, agent.actuals):
            if isinstance(actual, ast.Var):
                mapping[formal] = actual
            elif isinstance(actual, (ast.Atom, ast.Num)):
                fresh = ast.Var(state.fresh(formal))
                mapping[formal] = fresh
                effects.append(("bind", fresh.name, actual))
            elif isinstance(actual, ast.LinExpr):
                fresh = ast.Var(state.fresh(formal))
                mapping[formal] = fresh
                effects.append(("param", fresh.name, actual))
            else:
                raise TypeError(f"bad actual: {actual!r}")
        return sub_agent(decl.body, mapping), True

    raise TypeError(f"bad agent: {agent!r}")


def o_step(config, policy, rng):
    """Advance one instant. Returns (moved, new config)."""
    if config.status != RUNNING:
        return False, config
    if config.agent is None:
        return False, OracleConfig(config.program, None, config.state,
                                   config.clock, QUIESCENT)
    effects = []
    residual, moved = trans(config.program, config.agent, config.state,
                            policy, rng, effects)
    if not moved:
        return False, OracleConfig(config.program, config.agent, config.state,
                                   config.clock, QUIESCENT)
    state = config.state.copy()
    for eff in effects:
        if eff[0] == "tell":
            state.tell(eff[1])
        elif eff[0] == "bind":
            state.unify(ast.Var(eff[1]), eff[2])
        else:
            state.tell_param(eff[1], eff[2])
    if not state.is_consistent():
        status = FAILED
    elif residual is None:
        status = QUIESCENT
    else:
        status = RUNNING
    return True, OracleConfig(config.program, residual, state,
                              config.clock + 1, status)


def o_run(program, steps, policy=None, every=1):
    """Mirror of the machine's run(), over the solved-form store; `every`
    keeps the same steps as there."""
    from .interp import ChoicePolicy
    if policy is None:
        policy = ChoicePolicy("first")
    rng = policy.make_rng()
    config = o_initial(program)
    trace = [OracleStep(0, RUNNING, config.state)] if every else []
    for _ in range(steps):
        moved, config = o_step(config, policy, rng)
        if moved and every and config.clock % every == 0:
            trace.append(OracleStep(config.clock, RUNNING, config.state))
        if config.status != RUNNING:
            break  # o_step returns a quiescent config when nothing moved
    if not trace or trace[-1].clock != config.clock:
        trace.append(OracleStep(config.clock, RUNNING, config.state))
    trace[-1] = trace[-1]._replace(status=config.status)
    return trace
