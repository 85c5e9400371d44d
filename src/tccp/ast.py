"""Abstract syntax for tccp programs.

Agents form a small algebra: skip, tell, parallel composition, guarded
choice, now/else conditionals, local variables and procedure calls.
Constraints are either stream equations (list structure over atoms,
numbers and variables) or affine comparisons over numeric variables.

Linear expressions are kept in normalized affine form (sorted coefficient
table plus a constant) so structural equality is semantic equality and the
pretty-printer round-trips through the parser.

Nodes are hand-slotted classes over one small base, `_Node`: as frozen
dataclasses they took most of the time of `import tccp.cli`, which every
`tccp` process pays, and a tuple base would make `Var("X") == Atom("X")`.
`tests/test_cli.py::TestStartup` keeps `dataclasses` out of the import.
"""

from fractions import Fraction


class _Node:
    """An immutable syntax node, equal to a node of the same class with
    equal fields. A subclass names its fields in __slots__, the values of
    its trailing optional fields in _defaults, and in _fractions the
    fields it stores as a Fraction."""

    __slots__ = ()
    _defaults = ()
    _fractions = ()

    def __init__(self, *args):
        fields, defaults = self.__slots__, self._defaults
        missing = len(fields) - len(args)
        if not 0 <= missing <= len(defaults):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} "
                            f"fields, got {len(args)}")
        args += defaults[len(defaults) - missing:]
        for name, value in zip(fields, args):
            if name in self._fractions:
                value = Fraction(value)
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return type(self).__name__ + "(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"

    def _frozen(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: {name!r}")

    __setattr__ = __delattr__ = _frozen


# ---------------------------------------------------------------- terms

class Atom(_Node):
    __slots__ = ("name",)


class Num(_Node):
    __slots__ = ("value",)
    _fractions = ("value",)


class Var(_Node):
    __slots__ = ("name",)


class Anon(_Node):
    __slots__ = ()


class Cons(_Node):
    __slots__ = ("head", "tail")


# ----------------------------------------------------- linear expressions

class LinExpr(_Node):
    """Affine expression: sum of coeff*var plus a constant.

    coeffs is a tuple of (name, Fraction) pairs, sorted by name, with no
    zero coefficients.
    """

    __slots__ = ("coeffs", "const")
    _defaults = ((), Fraction(0))
    _fractions = ("const",)

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


# ------------------------------------------------------------ constraints

class CTrue(_Node):
    __slots__ = ()


class StreamEq(_Node):
    """var = term, where term is an atom, number, variable, `_` or cons cell."""

    __slots__ = ("var", "rhs")


class Linear(_Node):
    """lhs op rhs over affine expressions; op is one of = < > <= >=."""

    __slots__ = ("lhs", "op", "rhs")


# ----------------------------------------------------------------- agents

class Skip(_Node):
    __slots__ = ()


class Tell(_Node):
    __slots__ = ("constraint",)


class Parallel(_Node):
    __slots__ = ("agents",)


class Choice(_Node):
    __slots__ = ("branches",)  # of (guard constraint, body agent)


class Now(_Node):
    __slots__ = ("cond", "then_agent", "else_agent")


class Exists(_Node):
    __slots__ = ("vars", "body")


class Call(_Node):
    __slots__ = ("name", "actuals")  # each actual an Atom, Num, Var or LinExpr
    _defaults = ((),)


class Decl(_Node):
    __slots__ = ("name", "formals", "body")


class Program(_Node):
    # entry_vars: free variables of the entry, root-scope order
    __slots__ = ("decls", "entry", "entry_vars")
    _defaults = ((), None, ())

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
        return _int_text(v.numerator)
    return _int_text(v.numerator) + "/" + _int_text(v.denominator)


_CHUNK = 10 ** 4000


def _int_text(n):
    """str(n) for an int of any length. str() refuses more than 4300
    digits, so a longer int is printed 4000 digits at a time."""
    try:
        return str(n)
    except ValueError:
        pass
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(str(low).zfill(4000))
    return sign + str(n) + "".join(reversed(chunks))


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
            names = [name for name, _ in node.coeffs]
        else:
            continue
        out.update((n, None) for n in names if n not in bound)
    return tuple(out)
