"""Abstract syntax for tccp programs.

Agents form a small algebra: skip, tell, parallel composition, guarded
choice, now/else conditionals, local variables and procedure calls.
Constraints are either stream equations (list structure over atoms,
numbers and variables) or affine comparisons over numeric variables.

Linear expressions are kept in normalized affine form (sorted coefficient
table plus a constant) so structural equality is semantic equality and the
pretty-printer round-trips through the parser.
"""

from dataclasses import dataclass, field
from fractions import Fraction


# ---------------------------------------------------------------- terms

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Num:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Anon:
    pass


@dataclass(frozen=True)
class Cons:
    head: object
    tail: object


# ----------------------------------------------------- linear expressions

@dataclass(frozen=True)
class LinExpr:
    """Affine expression: sum of coeff*var plus a constant.

    coeffs is a tuple of (name, Fraction) pairs, sorted by name, with no
    zero coefficients.
    """

    coeffs: tuple = ()
    const: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "const", Fraction(self.const))

    @staticmethod
    def of_var(name):
        return LinExpr(((name, Fraction(1)),), Fraction(0))

    @staticmethod
    def of_num(value):
        return LinExpr((), Fraction(value))

    def _combine(self, other, sign):
        table = dict(self.coeffs)
        for name, c in other.coeffs:
            table[name] = table.get(name, Fraction(0)) + sign * c
        coeffs = tuple(sorted((n, c) for n, c in table.items() if c != 0))
        return LinExpr(coeffs, self.const + sign * other.const)

    def __add__(self, other):
        return self._combine(other, Fraction(1))

    def __sub__(self, other):
        return self._combine(other, Fraction(-1))

    def scaled(self, k):
        k = Fraction(k)
        if k == 0:
            return LinExpr((), Fraction(0))
        return LinExpr(tuple((n, c * k) for n, c in self.coeffs), self.const * k)

    def variables(self):
        return [n for n, _ in self.coeffs]


# ------------------------------------------------------------ constraints

@dataclass(frozen=True)
class CTrue:
    pass


@dataclass(frozen=True)
class StreamEq:
    """var = term, where term is an atom, number, variable, `_` or cons cell."""

    var: str
    rhs: object


@dataclass(frozen=True)
class Linear:
    """lhs op rhs over affine expressions; op is one of = < > <= >=."""

    lhs: LinExpr
    op: str
    rhs: LinExpr


# ----------------------------------------------------------------- agents

@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Tell:
    constraint: object


@dataclass(frozen=True)
class Parallel:
    agents: tuple


@dataclass(frozen=True)
class Choice:
    branches: tuple  # of (guard constraint, body agent)


@dataclass(frozen=True)
class Now:
    cond: object
    then_agent: object
    else_agent: object


@dataclass(frozen=True)
class Exists:
    vars: tuple
    body: object


@dataclass(frozen=True)
class Call:
    name: str
    actuals: tuple = ()  # each an Atom, Num, Var or LinExpr


@dataclass(frozen=True)
class Decl:
    name: str
    formals: tuple
    body: object


@dataclass(frozen=True)
class Program:
    decls: tuple = ()
    entry: object = None
    entry_vars: tuple = ()  # free variables of the entry, root-scope order

    def decl(self, name):
        for d in self.decls:
            if d.name == name:
                return d
        return None


# --------------------------------------------------------------- printing

def pretty_term(t):
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Num):
        return pretty_num(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Anon):
        return "_"
    if isinstance(t, Cons):
        return "[" + pretty_term(t.head) + " | " + pretty_term(t.tail) + "]"
    raise TypeError(f"not a term: {t!r}")


def pretty_num(v):
    """An integer or Fraction as `n` or `n/d`."""
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def pretty_linexpr(e):
    """`c*name` terms joined by signs, then the constant; `0` when empty."""
    out = ""
    for name, c in e.coeffs:
        if out:
            out += " + " if c > 0 else " - "
        elif c < 0:
            out += "-"
        out += name if abs(c) == 1 else pretty_num(abs(c)) + "*" + name
    if not out:
        return pretty_num(e.const)
    if e.const:
        out += (" + " if e.const > 0 else " - ") + pretty_num(abs(e.const))
    return out


def pretty_constraint(c):
    if isinstance(c, CTrue):
        return "true"
    if isinstance(c, StreamEq):
        return c.var + " = " + pretty_term(c.rhs)
    if isinstance(c, Linear):
        return pretty_linexpr(c.lhs) + f" {c.op} " + pretty_linexpr(c.rhs)
    raise TypeError(f"not a constraint: {c!r}")


def _pretty_actual(a):
    if isinstance(a, LinExpr):
        return pretty_linexpr(a)
    return pretty_term(a)


def _paren_unless_prefix(a):
    # prefix agents (skip/tell/now/exists/call) bind tightest; anything
    # looser must be parenthesized when printed in a tight position
    if isinstance(a, (Parallel, Choice)):
        return "(" + pretty_agent(a) + ")"
    return pretty_agent(a)


def _else_hungry(a):
    # an else-less trailing `now` in printed text would capture a
    # following `else` meant for an enclosing conditional
    while isinstance(a, Now):
        if isinstance(a.else_agent, Skip):
            return True
        a = a.else_agent
    return False


def pretty_agent(a):
    if isinstance(a, Skip):
        return "skip"
    if isinstance(a, Tell):
        return "tell(" + pretty_constraint(a.constraint) + ")"
    if isinstance(a, Parallel):
        return " || ".join(
            "(" + pretty_agent(x) + ")" if isinstance(x, Parallel) else pretty_agent(x)
            for x in a.agents
        )
    if isinstance(a, Choice):
        return " + ".join(
            "ask(" + pretty_constraint(g) + ") -> " + _paren_unless_prefix(b)
            for g, b in a.branches
        )
    if isinstance(a, Now):
        then_s = _paren_unless_prefix(a.then_agent)
        if not isinstance(a.else_agent, Skip) and _else_hungry(a.then_agent):
            then_s = "(" + pretty_agent(a.then_agent) + ")"
        s = "now " + pretty_constraint(a.cond) + " then " + then_s
        if not isinstance(a.else_agent, Skip):
            s += " else " + _paren_unless_prefix(a.else_agent)
        return s
    if isinstance(a, Exists):
        return "exists " + ", ".join(a.vars) + " (" + pretty_agent(a.body) + ")"
    if isinstance(a, Call):
        if not a.actuals:
            return a.name
        return a.name + "(" + ", ".join(_pretty_actual(x) for x in a.actuals) + ")"
    raise TypeError(f"not an agent: {a!r}")


def pretty_program(p):
    lines = []
    for d in p.decls:
        head = d.name if not d.formals else d.name + "(" + ", ".join(d.formals) + ")"
        lines.append(head + " :- " + pretty_agent(d.body) + ".")
    return "\n".join(lines) + ("\n" if lines else "")


# ------------------------------------------------------------- traversal

def _parts(x):
    """The children of an agent, constraint or term, in text order."""
    if isinstance(x, Tell):
        return (x.constraint,)
    if isinstance(x, Parallel):
        return x.agents
    if isinstance(x, Choice):
        return [part for branch in x.branches for part in branch]
    if isinstance(x, Now):
        return (x.cond, x.then_agent, x.else_agent)
    if isinstance(x, Exists):
        return (x.body,)
    if isinstance(x, Call):
        return x.actuals
    if isinstance(x, StreamEq):
        return (Var(x.var), x.rhs)
    if isinstance(x, Linear):
        return (x.lhs, x.rhs)
    if isinstance(x, Cons):
        return (x.head, x.tail)
    return ()


def walk(x):
    """Yield every node under an agent, constraint or term as (node, bound):
    x first, in text order, where bound is the set of names bound by the
    enclosing exists agents. Walks with an explicit stack, so nesting depth
    is not limited by recursion."""
    stack = [(x, frozenset())]
    while stack:
        node, bound = stack.pop()
        yield node, bound
        if isinstance(node, Exists):
            bound = bound | set(node.vars)
        stack.extend((part, bound) for part in reversed(_parts(node)))


def free_vars(x):
    """The names x uses that no enclosing exists binds, in first-occurrence
    order."""
    out = {}
    for node, bound in walk(x):
        if isinstance(node, Var):
            names = (node.name,)
        elif isinstance(node, LinExpr):
            names = node.variables()
        else:
            continue
        out.update((n, None) for n in names if n not in bound)
    return tuple(out)
