"""Monotonic store of affine constraints over rational-valued dimensions.

Constraints are kept in a canonical integer form: `sum a_i * D_i + b  op  0`
with op one of `=`, `<=`, `<`, coefficients scaled to integers with gcd 1,
and (for equalities) the lowest-numbered dimension carrying a positive
coefficient. Stores are immutable values; every operation returns a new
store. Dimensions are identified by index and are never renumbered; the
store does not count them, whoever allocates them does.

Satisfiability is decided exactly over the rationals. Each store keeps
its equalities in a solved form that grows by at most one pivot per told
equality, the newest dimension of its reduced row, so a definition
mentions only older dimensions. The inequalities, reduced through it, go
to the general simplex check of Dutertre & de Moura (CAV 2006), and only
when some of them still have variables. There each row bounds a slack
variable from above, dimensions are free, and a strict row's bound is
lowered by an infinitesimal δ, so strict and non-strict rows are decided
in one pass; Bland's rule picks every pivot. Projection uses
Fourier-Motzkin elimination with strictness propagation. Numbers are
ints where they are integral and Fractions where a pivot other than +-1
divides or in the simplex; answers never depend on floating point.
"""

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

from .ast import LinExpr, pretty_linexpr, pretty_num

# canonical row: (op, ((dim, int_coef), ...), int_const) meaning expr op 0
FALSE_ROW = ("<", (), 0)  # 0 < 0


def _holds(op, const):
    """Truth of the ground row `const op 0`."""
    return const == 0 if op == "=" else const <= 0 if op == "<=" else const < 0


def row(op, coeffs, const):
    """Build a canonical row from op, {dim: coef} and a constant.

    Input ops may include `>`, `>=`; they are flipped into `<`, `<=`.
    Returns None when the constraint is trivially true, FALSE_ROW when
    trivially false.
    """
    work = {d: c for d, c in coeffs.items() if c != 0}
    if op == ">":
        op, work, const = "<", {d: -c for d, c in work.items()}, -const
    elif op == ">=":
        op, work, const = "<=", {d: -c for d, c in work.items()}, -const
    if op not in ("=", "<=", "<"):
        raise ValueError(f"bad op {op!r}")
    if not work:
        return None if _holds(op, const) else FALSE_ROW
    denom = 1
    for c in (*work.values(), const):
        denom = denom * c.denominator // gcd(denom, c.denominator)
    # scaled to ints; an int is its own .numerator, with .denominator 1
    ints = {d: c.numerator * (denom // c.denominator) for d, c in work.items()}
    const = const.numerator * (denom // const.denominator)
    k = gcd(const, *ints.values())
    ints = {d: c // k for d, c in ints.items()}
    const //= k
    if op == "=" and ints[min(ints)] < 0:
        ints = {d: -c for d, c in ints.items()}
        const = -const
    return (op, tuple(sorted(ints.items())), const)


def _negate(r):
    """Rows whose disjunction negates r, a canonical row with coefficients;
    negating a canonical row's numbers keeps it canonical."""
    op, coeffs, const = r
    neg = tuple((d, -c) for d, c in coeffs)
    if op == "<=":  # not(e <= 0)  is  -e < 0
        return [("<", neg, -const)]
    if op == "<":  # not(e < 0)  is  -e <= 0
        return [("<=", neg, -const)]
    return [("<", coeffs, const), ("<", neg, -const)]  # e<0 or e>0


# ------------------------------------------------------------ feasibility

def _reduce(coeffs, const, solved):
    """Substitute the pivots of `solved` out of `sum c*D + const`.

    Returns ({dim: coef}, const) over non-pivot dimensions only, each
    number an int or a Fraction as the arithmetic left it. Pivots are
    taken highest first; a definition mentions only dimensions below its
    pivot, so each substitution's pivot is lower than the last, each
    pivot is substituted at most once and the loop ends.
    """
    work = dict(coeffs)
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


def _absorb(solved, r):
    """Add the equality row `r` to `solved` in place; False if it contradicts it.

    The reduced row's highest dimension, on a tell mostly the one it just
    allocated, becomes a pivot defined by the rest. So a definition
    mentions only lower dimensions, and a counter's `M = N + 1` defines M
    over N and forms no chain. Only a pivot coefficient other than +-1
    divides.
    """
    coeffs, const = _reduce(r[1], r[2], solved)
    if not coeffs:
        return const == 0
    p = max(coeffs)
    a = coeffs.pop(p)
    m = -a if a in (1, -1) else Fraction(-1, a)  # -1 / a, never a float
    solved[p] = ({j: m * c for j, c in coeffs.items()}, m * const)
    return True


class _Simplex:
    """The general simplex check of Dutertre & de Moura (CAV 2006).

    Row i, `sum c*D + k op 0`, gets the slack `-1-i` = `sum c*D`, which
    starts basic, with the upper bound `-k`, or `-k - δ` when the row is
    strict. A value or bound is a pair `(a, b)` meaning `a + b*δ` for a
    positive infinitesimal δ, so pairs compare as tuples. Dimensions are
    free. `rows` maps each basic variable to its {nonbasic: coef} and
    `value` holds the assignment, which nonbasic variables keep within
    their bounds.
    """

    def __init__(self, live):
        # _reduce made each row's coefficient dict, so the tableau takes it
        self.rows = {-1 - i: coeffs for i, (_, coeffs, _) in enumerate(live)}
        self.bound = {-1 - i: (-k, -1 if op == "<" else 0)
                      for i, (op, _, k) in enumerate(live)}
        self.value = dict.fromkeys(
            (*self.rows, *(d for e in self.rows.values() for d in e)), (0, 0))

    def _pivot(self, b, j):
        """Make nonbasic `j` basic in place of `b`, moving `j` so that `b`
        sits at its bound."""
        rows, value = self.rows, self.value
        expr = rows.pop(b)
        inv = Fraction(1) / expr.pop(j)  # never an int / int
        (u, ud), (v, vd) = self.bound[b], value[b]
        tu, td = (u - v) * inv, (ud - vd) * inv
        x, xd = value[j]
        value[j], value[b] = (x + tu, xd + td), self.bound[b]
        # j = inv*b - sum inv*c*k; every row that mentions j moves with it
        new = {k: -c * inv for k, c in expr.items()}
        new[b] = inv
        for r, e in rows.items():
            f = e.pop(j, None)
            if f is not None:
                x, xd = value[r]
                value[r] = (x + f * tu, xd + f * td)
                for k, c in new.items():
                    c = e.get(k, 0) + f * c
                    if c:
                        e[k] = c
                    else:
                        del e[k]
        rows[j] = new

    def solve(self):
        """True iff some assignment keeps every variable within its bound.

        Each round repairs the smallest basic variable above its bound
        with the smallest nonbasic one that can lower it (Bland's rule,
        which ends the loop).
        """
        rows, bound, value = self.rows, self.bound, self.value
        while True:
            b = min((b for b in rows if b in bound and value[b] > bound[b]),
                    default=None)
            if b is None:
                return True
            j = min((j for j, c in rows[b].items()
                     if c > 0 or j not in bound or value[j] < bound[j]),
                    default=None)
            if j is None:
                return False
            self._pivot(b, j)


def _feasible(rows, solved):
    """Exact satisfiability of inequality rows, canonical or reduced, conjoined
    with a solved form (see `LinStore`), over the rationals."""
    live = []
    for op, coeffs, const in rows:
        coeffs, const = _reduce(coeffs, const, solved)
        if coeffs:
            live.append((op, coeffs, const))
        elif not _holds(op, const):
            return False
    return not live or _Simplex(live).solve()


# -------------------------------------------------------------- the store

class LinStore:
    """Immutable set of canonical rows.

    `rows` are the rows as told and alone make the store's value. The
    other fields index them: `solved` holds the equalities in solved
    form, pivot dimension -> ({dim: coef}, k) meaning D_pivot =
    sum coef*D + k, each number an int where it is integral and a
    Fraction otherwise, and `ineqs` holds the inequality rows that the
    solved form does not decide. Once a store is empty the index stops
    following `rows`; nothing reads it.
    """

    __slots__ = ("rows", "solved", "ineqs", "empty")

    def __init__(self, rows, solved, ineqs, empty):
        self.rows = rows
        self.solved = solved
        self.ineqs = ineqs
        self.empty = empty


# one empty store for all: stores are values
_NEW = LinStore((), {}, (), False)


def ls_new():
    return _NEW


def _told(s, new):
    """`s` with the rows `new`, none of them in `s`, told.

    Only the new rows go through the solved form. An inequality that it
    reduces to a true constant stays true as the store grows, so it leaves
    `ineqs` for good; the rest reach the feasibility check reduced.
    """
    if not new:
        return s
    rows = s.rows + new
    if s.empty:
        return LinStore(rows, s.solved, s.ineqs, True)
    solved, ineqs = dict(s.solved), s.ineqs
    for r in new:
        if r[0] != "=":
            ineqs += (r,)
        elif not _absorb(solved, r):
            return LinStore(rows, solved, ineqs, True)
    live, reduced = [], []
    for r in ineqs:
        coeffs, const = _reduce(r[1], r[2], solved)
        if coeffs or not _holds(r[0], const):
            live.append(r)
            reduced.append((r[0], coeffs, const))
    return LinStore(rows, solved, tuple(live), not _feasible(reduced, solved))


def ls_add(s, r):
    """Meet the store with one canonical row (from `row(...)`), or None for true."""
    if r is None:
        return s
    if r in s.rows:
        return s
    return _told(s, (r,))


def ls_is_empty(s):
    return s.empty


def ls_entails(s, r):
    """Does every solution of the store satisfy the row? Pure."""
    if r is None or s.empty:
        return True
    return r != FALSE_ROW and not any(
        _feasible(s.ineqs + (neg,), s.solved) for neg in _negate(r))


def ls_meet(base, lins):
    """Least upper bound of stores that each grew from `base`, so that their
    own rows follow base's: those rows, told to `base` once each, in order.
    With `ls_new()` as base this is the meet of any stores."""
    new = dict.fromkeys(r for s in lins for r in s.rows[len(base.rows):])
    return _told(base, tuple(new))


def ls_project(s, dim):
    """Existentially quantify one dimension (Fourier-Motzkin).

    The dimension becomes unconstrained; relations among the remaining
    dimensions are preserved.
    """
    if s.empty:
        return _told(ls_new(), (FALSE_ROW,))
    work = [(op, {d: Fraction(c) for d, c in coeffs}, Fraction(const))
            for op, coeffs, const in s.rows]
    keep = [r for r in work if dim not in r[1]]
    touched = [r for r in work if dim in r[1]]
    eq = next((r for r in touched if r[0] == "="), None)
    out = []
    if eq is not None:
        _, ecoeffs, econst = eq
        a = ecoeffs[dim]
        for rop, rc, rconst in touched:
            if (rop, rc, rconst) == eq:
                continue
            f = rc[dim] / a
            nc = {j: rc.get(j, Fraction(0)) - f * c for j, c in ecoeffs.items() if j != dim}
            for j, c in rc.items():
                if j != dim and j not in nc:
                    nc[j] = c
            out.append((rop, nc, rconst - f * econst))
    else:
        lowers = [r for r in touched if r[1][dim] < 0]
        uppers = [r for r in touched if r[1][dim] > 0]
        for lop, lc, lconst in lowers:
            for uop, uc, uconst in uppers:
                al, au = -lc[dim], uc[dim]
                nc = {}
                for j, c in lc.items():
                    if j != dim:
                        nc[j] = c * au
                for j, c in uc.items():
                    if j != dim:
                        nc[j] = nc.get(j, Fraction(0)) + c * al
                nconst = lconst * au + uconst * al
                nop = "<" if "<" in (lop, uop) else "<="
                out.append((nop, nc, nconst))
    rows = []
    for rop, rc, rconst in keep + out:
        r = row(rop, rc, rconst)
        if r is not None and r not in rows:
            rows.append(r)
    return _told(ls_new(), tuple(rows))


# ------------------------------------------------------------------ dump

def dump_row(r):
    op, coeffs, const = r
    lhs = pretty_linexpr(LinExpr(tuple((f"D_{d}", c) for d, c in coeffs)))
    return f"{lhs} {op} {pretty_num(-const)}"


def dump_lin(s):
    """One canonical constraint per line; deterministic for a given store."""
    return [dump_row(r) for r in s.rows]
