"""Monotonic store of affine constraints over rational-valued dimensions.

Constraints are kept in a canonical integer form: `sum a_i * D_i + b  op  0`
with op one of `=`, `<=`, `<`, coefficients scaled to integers with gcd 1,
and (for equalities) the lowest-numbered dimension carrying a positive
coefficient. Stores are immutable values; every operation returns a new
store. Dimensions are identified by index and are never renumbered; the
store does not count them, whoever allocates them does.

Satisfiability is decided exactly over the rationals. Each store keeps
its equalities in a solved form that grows by at most one pivot per told
equality; the inequalities, reduced through it, go through a two-phase
dictionary simplex with Bland's rule, and only when some of them still
have variables. Strict systems are decided by maximizing a common slack
margin: the system has a solution iff its non-strict relaxation does and
the margin's supremum is positive. Projection uses Fourier-Motzkin
elimination with strictness propagation. Numbers are ints where they are
integral and Fractions where a pivot other than +-1 divides or in the
simplex; answers never depend on floating point.
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
    taken lowest first; a definition mentions only dimensions above its
    pivot, so each substitution's pivot is higher than the last and the
    loop ends.
    """
    work = dict(coeffs)
    todo = [d for d in work if d in solved]
    heapify(todo)
    while todo:
        p = heappop(todo)
        f = work.pop(p, None)
        if f is None:  # cancelled out by an earlier substitution
            continue
        dcoeffs, dconst = solved[p]
        for j, c in dcoeffs.items():
            v = work.get(j, 0) + f * c
            if v:
                if j not in work and j in solved:
                    heappush(todo, j)
                work[j] = v
            else:
                del work[j]
        const += f * dconst
    return work, const


def _absorb(solved, r):
    """Add the equality row `r` to `solved` in place; False if it contradicts it.

    The reduced row's lowest dimension becomes a pivot defined by the
    rest, so a definition only mentions higher dimensions that are not
    pivots yet. Only a pivot coefficient other than +-1 divides.
    """
    coeffs, const = _reduce(r[1], r[2], solved)
    if not coeffs:
        return const == 0
    p = min(coeffs)
    a = coeffs.pop(p)
    m = -a if a in (1, -1) else Fraction(-1, a)  # -1 / a, never a float
    solved[p] = ({j: m * c for j, c in coeffs.items()}, m * const)
    return True


class _Simplex:
    """Dictionary simplex for `M y <= d, y >= 0` with Bland's rule."""

    def __init__(self, mat, rhs, ncols):
        self.ncols = ncols
        self.nrows = len(mat)
        # x_{slack i} = rhs_i - sum mat_i[j] y_j
        self.rows = {}
        for i, (coeffs, b) in enumerate(zip(mat, rhs)):
            self.rows[ncols + i] = (Fraction(b), {j: Fraction(-c) for j, c in coeffs.items() if c})

    def _pivot(self, leave, enter):
        const, coeffs = self.rows.pop(leave)
        a = coeffs.pop(enter)
        # solve for x_enter
        nconst = -const / a
        ncoeffs = {leave: Fraction(1) / a}
        for j, c in coeffs.items():
            ncoeffs[j] = -c / a
        self.rows[enter] = (nconst, ncoeffs)
        for b, (rc, rcs) in list(self.rows.items()):
            if b == enter:
                continue
            f = rcs.pop(enter, None)
            if f is None or f == 0:
                continue
            nc = rc + f * nconst
            out = dict(rcs)
            for j, c in ncoeffs.items():
                out[j] = out.get(j, Fraction(0)) + f * c
            self.rows[b] = (nc, {j: c for j, c in out.items() if c != 0})

    def _sub_objective(self, obj_coeffs):
        const = Fraction(0)
        coeffs = {}
        for j, c in obj_coeffs.items():
            if j in self.rows:
                rc, rcs = self.rows[j]
                const += c * rc
                for k, ck in rcs.items():
                    coeffs[k] = coeffs.get(k, Fraction(0)) + c * ck
            else:
                coeffs[j] = coeffs.get(j, Fraction(0)) + c
        return const, {j: c for j, c in coeffs.items() if c != 0}

    def _maximize(self, const, coeffs):
        while True:
            enter = None
            for j in sorted(coeffs):
                if coeffs[j] > 0:
                    enter = j
                    break
            if enter is None:
                return ("optimal", const)
            leave, best = None, None
            for b in sorted(self.rows):
                rc, rcs = self.rows[b]
                a = rcs.get(enter, Fraction(0))
                if a < 0:
                    ratio = -rc / a
                    if best is None or ratio < best:
                        best, leave = ratio, b
            if leave is None:
                return ("unbounded", None)
            self._pivot(leave, enter)
            dconst, coeffs = self._sub_objective(coeffs)
            const += dconst

    def solve(self, objective_col=None):
        """Returns ('infeasible', None), ('optimal', value) or ('unbounded', None)."""
        if any(rc < 0 for rc, _ in self.rows.values()):
            aux = self.ncols + self.nrows
            for b, (rc, rcs) in list(self.rows.items()):
                rcs = dict(rcs)
                rcs[aux] = Fraction(1)
                self.rows[b] = (rc, rcs)
            worst = min(self.rows, key=lambda b: (self.rows[b][0], b))
            self._pivot(worst, aux)
            status, val = self._maximize(*self._sub_objective({aux: Fraction(-1)}))
            if val != 0:
                return ("infeasible", None)
            if aux in self.rows:  # basic at zero: pivot out or drop the row
                rc, rcs = self.rows[aux]
                j = next((k for k in sorted(rcs) if rcs[k] != 0), None)
                if j is None:
                    del self.rows[aux]
                else:
                    self._pivot(aux, j)
            for b, (rc, rcs) in list(self.rows.items()):
                rcs.pop(aux, None)
                self.rows[b] = (rc, rcs)
        if objective_col is None:
            return ("optimal", Fraction(0))
        return self._maximize(*self._sub_objective({objective_col: Fraction(1)}))


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
    if not live:
        return True
    dims = sorted({d for _, coeffs, _ in live for d in coeffs})
    # free x_d = u - v with u, v >= 0; one strict margin column for all rows
    col = {}
    for d in dims:
        col[d] = len(col) * 2
    eps = len(col) * 2
    has_strict = any(op == "<" for op, _, _ in live)
    mat, rhs = [], []
    for op, coeffs, const in live:
        r = {}
        for d, c in coeffs.items():
            r[col[d]] = c
            r[col[d] + 1] = -c
        if op == "<" and has_strict:
            r[eps] = 1
        mat.append(r)
        rhs.append(-const)
    ncols = eps + 1 if has_strict else eps
    sx = _Simplex(mat, rhs, ncols)
    if not has_strict:
        return sx.solve()[0] != "infeasible"
    status, val = sx.solve(objective_col=eps)
    if status == "infeasible":
        return False
    if status == "unbounded":
        return True
    return val > 0


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

    __slots__ = ("rows", "solved", "ineqs", "empty", "_memo")

    def __init__(self, rows, solved, ineqs, empty):
        self.rows = rows
        self.solved = solved
        self.ineqs = ineqs
        self.empty = empty
        self._memo = {}

    def __eq__(self, other):
        return isinstance(other, LinStore) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LinStore(rows={len(self.rows)}, empty={self.empty})"


# one empty store for all: stores are values, and its memo only caches answers
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
    """Does every solution of the store satisfy the row? Pure, memoized."""
    if r is None or s.empty:
        return True
    hit = s._memo.get(r)
    if hit is None:
        hit = s._memo[r] = r != FALSE_ROW and not any(
            _feasible(s.ineqs + (neg,), s.solved) for neg in _negate(r))
    return hit


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
        if r is FALSE_ROW:
            return _told(ls_new(), (FALSE_ROW,))
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
