"""Linear store: hand cases, a Fourier-Motzkin differential, and the
projection/meet laws the rest of the system leans on."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tccp import linear
from tccp.errors import UnallocatedDimensionError
from tccp.linear import (
    FALSE_ROW, dump_lin, dump_row, ls_add, ls_entails, ls_grow,
    ls_is_empty, ls_meet, ls_new, ls_project, row,
)
from support import fm_feasible, random_row, random_store, stores_equivalent


def R(op, coeffs, const):
    return row(op, {d: Fraction(c) for d, c in coeffs.items()}, Fraction(const))


def fm_entails(rows, c):
    """rows entail c iff rows meet (not c) is infeasible, case-split on not c."""
    if not fm_feasible(rows):
        return True
    op, coeffs, const = c
    neg = {d: -v for d, v in coeffs}
    if op == "<=":
        cases = [("<", neg, -const)]
    elif op == "<":
        cases = [("<=", neg, -const)]
    else:
        cases = [("<", dict(coeffs), const), ("<", neg, -const)]
    for o, cs, k in cases:
        r2 = row(o, cs, k)
        if r2 is None:  # the negation holds everywhere
            return False
        if r2 is not FALSE_ROW and fm_feasible(rows + (r2,)):
            return False
    return True


def store(dims, *rows_):
    s = ls_grow(ls_new(), dims)
    for r in rows_:
        s = ls_add(s, r)
    return s


# ----------------------------------------------------------- basic ops

class TestBasics:
    def test_fresh_store_is_satisfiable(self):
        assert not ls_is_empty(ls_new())

    def test_fresh_store_entails_only_trivial_rows(self):
        s = ls_new()
        s, d = ls_grow(s, s.dims + 1), s.dims
        assert d == 0
        assert ls_entails(s, None)
        assert not ls_entails(s, R("=", {0: 1}, 0))

    def test_add_dim_numbers_sequentially(self):
        s = ls_new()
        for expect in range(6):
            s, d = ls_grow(s, s.dims + 1), s.dims
            assert d == expect
        assert s.dims == 6

    def test_add_requires_allocated_dims(self):
        s = store(1)
        with pytest.raises(UnallocatedDimensionError):
            ls_add(s, R("=", {2: 1}, 0))
        with pytest.raises(UnallocatedDimensionError):
            ls_entails(s, R("=", {2: 1}, 0))

    def test_add_then_compatible_add_stays_satisfiable(self):
        # D0 = 5, then D0 > 0
        s = store(1, R("=", {0: 1}, -5), R(">", {0: 1}, 0))
        assert not ls_is_empty(s)

    def test_contradictory_adds_empty_the_store(self):
        s = store(1, R(">", {0: 1}, 0), R("<", {0: 1}, 0))
        assert ls_is_empty(s)

    def test_equal_constants_conflict(self):
        s = store(1, R("=", {0: 1}, -1), R("=", {0: 1}, -2))
        assert ls_is_empty(s)

    def test_opposed_bounds_leave_the_equality_solvable(self):
        s = store(2, R("<=", {0: 1, 1: -1}, 0), R("<=", {1: 1, 0: -1}, 0))
        assert not ls_is_empty(s)
        assert ls_entails(s, R("=", {0: 1, 1: -1}, 0))


# ----------------------------------------------------------- entailment

class TestEntailment:
    def test_equality_entails_strict_bound(self):
        s = store(1, R("=", {0: 1}, -5))
        assert ls_entails(s, R(">", {0: 1}, 0))
        assert ls_entails(s, R("=", {0: 1}, -5))
        assert not ls_entails(s, R("<", {0: 1}, 0))

    def test_open_bound_does_not_pin_a_value(self):
        s = store(1, R(">", {0: 1}, 0))
        assert not ls_entails(s, R("=", {0: 1}, -5))

    def test_rationals_are_dense(self):
        # over the rationals, D0 > 0 leaves room below 1
        s = store(1, R(">", {0: 1}, 0))
        assert not ls_entails(s, R(">=", {0: 1}, -1))
        assert ls_entails(store(1, R(">=", {0: 1}, -1)), R(">", {0: 1}, 0))

    def test_chained_decrement(self):
        # D0 = 5 and D1 = D0 - 1 pin D1 = 4
        s = store(2, R("=", {0: 1}, -5), R("=", {1: 1, 0: -1}, 1))
        assert ls_entails(s, R("=", {1: 1}, -4))
        assert not ls_entails(s, R("=", {1: 1}, -5))

    def test_empty_store_entails_everything(self):
        s = store(1, R("=", {0: 1}, -1), R("=", {0: 1}, -2))
        assert ls_entails(s, R("=", {0: 1}, -7))
        assert ls_entails(s, FALSE_ROW)

    def test_entailment_is_monotone_under_adds(self):
        rng = random.Random(40)
        checked = 0
        for _ in range(200):
            s = random_store(rng, dims=3)
            c = random_row(rng, 3)
            if c is None or not ls_entails(s, c):
                continue
            s2 = ls_add(s, random_row(rng, 3))
            assert ls_entails(s2, c)
            checked += 1
        assert checked > 30


# ----------------------------------------------- differential feasibility

class TestFeasibilityDifferential:
    def test_agrees_with_elimination_oracle_on_500_systems(self):
        rng = random.Random(7)
        for i in range(500):
            s = random_store(rng, dims=3, max_rows=5)
            assert ls_is_empty(s) == (not fm_feasible(s.rows)), \
                f"case {i}: {s.rows}"

    def test_agrees_on_wider_systems(self):
        rng = random.Random(11)
        for i in range(150):
            s = random_store(rng, dims=5, max_rows=7)
            assert ls_is_empty(s) == (not fm_feasible(s.rows)), \
                f"case {i}: {s.rows}"

    def test_entailment_agrees_with_oracle_definition(self):
        rng = random.Random(13)
        for _ in range(250):
            s = random_store(rng, dims=3)
            c = random_row(rng, 3)
            if c is None:
                continue
            assert ls_entails(s, c) == fm_entails(s.rows, c)


# ----------------------------------------------------------- dim growth

class TestDimensionGrowth:
    def test_growing_dims_preserves_satisfiability(self):
        rng = random.Random(21)
        for _ in range(120):
            s = random_store(rng, dims=3)
            s2 = ls_grow(s, s.dims + 1)
            assert ls_is_empty(s2) == ls_is_empty(s)
            assert s2.rows == s.rows

    def test_growing_dims_preserves_entailment(self):
        rng = random.Random(22)
        for _ in range(120):
            s = random_store(rng, dims=3)
            c = random_row(rng, 3)
            s2 = ls_grow(s, 6)
            assert ls_entails(s2, c) == ls_entails(s, c)


# ----------------------------------------------------------------- meet

class TestMeet:
    def test_meet_is_idempotent(self):
        rng = random.Random(31)
        for _ in range(60):
            s = random_store(rng, dims=3)
            m = ls_meet(ls_new(), [s, s])
            assert m.rows == s.rows and m.dims == s.dims

    def test_meet_of_bounds_pins_the_value(self):
        a = store(1, R(">=", {0: 1}, -1))
        b = store(1, R("<=", {0: 1}, -1))
        assert ls_entails(ls_meet(ls_new(), [a, b]), R("=", {0: 1}, -1))

    def test_meet_of_disjoint_bounds_is_empty(self):
        a = store(1, R(">=", {0: 1}, -1))
        b = store(1, R("<=", {0: 1}, 0))
        assert ls_is_empty(ls_meet(ls_new(), [a, b]))

    def test_meet_commutes_up_to_equivalence(self):
        rng = random.Random(32)
        for _ in range(60):
            a = random_store(rng, dims=3)
            b = random_store(rng, dims=3)
            ab, ba = ls_meet(ls_new(), [a, b]), ls_meet(ls_new(), [b, a])
            assert ls_is_empty(ab) == ls_is_empty(ba)
            if not ls_is_empty(ab):
                assert stores_equivalent(ab, ba)

    def test_meet_takes_the_wider_dim_space(self):
        a = store(2, R("=", {0: 1}, 0))
        b = store(4, R("=", {3: 1}, -1))
        m = ls_meet(ls_new(), [a, b])
        assert m.dims == 4
        assert ls_entails(m, R("=", {3: 1}, -1))


# ----------------------------------------------------------- solved form

def chain(links, k, x0=None, extra=None):
    """X_{i+1} = X_i + k for `links` links, X_0 = x0 if given; `extra`
    maps a link index to rows told just before that link."""
    s = ls_grow(ls_new(), links + 1)
    if x0 is not None:
        s = ls_add(s, R("=", {0: 1}, -x0))
    for i in range(links):
        for r in (extra or {}).get(i, ()):
            s = ls_add(s, r)
        s = ls_add(s, R("=", {i + 1: 1, i: -1}, -k))
    return s


class TestSolvedForm:
    def test_long_chains_agree_with_elimination(self):
        # the bounds are told before the links that pin their dimensions,
        # so later pivots must reach inequalities already in the store
        fits = {10: [R(">=", {90: 1, 0: -1}, -270)],
                80: [R("<=", {119: 1}, -1000), R(">", {60: 1, 2: -1}, 0)]}
        clash = {10: [R("<", {90: 1, 0: -1}, -270)],
                 80: [R("<=", {119: 1}, -1000)]}
        for x0 in (None, 5):
            for extra, feasible in ((fits, True), (clash, False)):
                s = chain(120, 3, x0, extra)
                assert len(s.rows) == 120 + (x0 is not None) + sum(
                    map(len, extra.values()))
                assert ls_is_empty(s) == (not fm_feasible(s.rows)) \
                    == (not feasible), (x0, feasible)

    def test_meet_of_siblings_agrees_with_elimination(self):
        rng = random.Random(61)
        for _ in range(20):
            base = chain(30, rng.randint(-3, 3))
            sibs = []
            for _ in range(rng.randint(2, 5)):
                sib = base
                for _ in range(2):  # rows on one or two dims keep FM small
                    dims_ = rng.sample(range(31), rng.randint(1, 2))
                    sib = ls_add(sib, R(rng.choice(["=", "<=", "<"]),
                                        {d: rng.choice([-2, -1, 1, 2])
                                         for d in dims_},
                                        rng.randint(-100, 100)))
                sibs.append(sib)
            m = ls_meet(base, sibs)
            told = []
            for sib in sibs:
                told += [r for r in sib.rows[len(base.rows):] if r not in told]
            assert m.rows == base.rows + tuple(told)
            assert ls_is_empty(m) == (not fm_feasible(m.rows))

    def test_chain_entailment_agrees_with_elimination(self):
        n, k = 20, 4
        stores = {"free": chain(n, k), "pinned": chain(n, k, x0=2),
                  "bounded": chain(n, k, extra={0: [R(">=", {0: 1}, -2)]})}
        questions = [R("=", {n: 1, 0: -1}, -n * k),
                     R("=", {n: 1, 0: -1}, -n * k - 1),
                     R("<=", {n: 1, 0: -1}, -n * k),
                     R("<", {n: 1, 0: -1}, -n * k)]
        for op in ("=", "<=", ">"):
            for at in (2 + n * k - 1, 2 + n * k, 2 + n * k + 1):
                questions.append(R(op, {n: 1}, -at))
        for name, s in stores.items():
            answers = [ls_entails(s, q) for q in questions]
            assert answers == [fm_entails(s.rows, q) for q in questions], name
            assert answers[:4] == [True, False, True, False], name
            if name != "free":  # X_n >= 2 + n*k holds, X_n > 2 + n*k does not
                assert ls_entails(s, R(">=", {n: 1}, -(2 + n * k)))
                assert not ls_entails(s, R(">", {n: 1}, -(2 + n * k)))

    def test_pure_equalities_never_reach_the_simplex(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("simplex built for a pure-equality store")
        monkeypatch.setattr(linear, "_Simplex", refuse)
        n, k = 400, 7
        free, pinned = chain(n, k), chain(n, k, x0=-3)
        assert not ls_is_empty(free) and not ls_is_empty(pinned)
        assert ls_entails(free, R("=", {n: 1, 0: -1}, -n * k))
        assert not ls_entails(free, R("<=", {n: 1, 0: -1}, -n * k + 1))
        assert ls_entails(pinned, R("=", {n: 1}, 3 - n * k))
        assert ls_entails(pinned, R(">", {n: 1, 200: -1}, 0))
        assert not ls_entails(pinned, R("<", {n: 1}, 3 - n * k))


# ------------------------------------------------------------ projection

def _project_all(s, dims_):
    for d in dims_:
        s = ls_project(s, d)
    return s


class TestProjection:
    def test_projecting_the_only_constraint_gives_universe(self):
        s = store(1, R("=", {0: 1}, -5))
        p = ls_project(s, 0)
        assert p.rows == ()
        assert p.dims == s.dims

    def test_projection_keeps_transitive_consequences(self):
        # D0 = D1 and D1 = 3, projecting D1, still pins D0 = 3
        s = store(2, R("=", {0: 1, 1: -1}, 0), R("=", {1: 1}, -3))
        p = ls_project(s, 1)
        assert ls_entails(p, R("=", {0: 1}, -3))
        assert not ls_entails(p, R("=", {1: 1}, -3))

    def test_projection_requires_allocated_dim(self):
        with pytest.raises(UnallocatedDimensionError):
            ls_project(store(1), 3)

    def test_strictness_survives_elimination(self):
        # D0 > D1 and D1 >= 2 project D1 to D0 > 2
        s = store(2, R(">", {0: 1, 1: -1}, 0), R(">=", {1: 1}, -2))
        p = ls_project(s, 1)
        assert ls_entails(p, R(">", {0: 1}, -2))
        assert not ls_entails(p, R(">=", {0: 1}, -3))

    # The four projection laws, with entailment as the oracle:
    #   (a) c entails project(c, x)
    #   (b) c entails d  =>  project(c, x) entails project(d, x)
    #   (c) project(c meet project(d, x), x) = project(c, x) meet project(d, x)
    #   (d) project(project(c, x), y) = project(project(c, y), x)

    def test_law_a_projection_is_entailed(self):
        rng = random.Random(51)
        for _ in range(150):
            s = random_store(rng, dims=3)
            p = ls_project(s, rng.randrange(3))
            assert all(ls_entails(s, r) for r in p.rows)

    def test_law_b_projection_is_monotone(self):
        rng = random.Random(52)
        for _ in range(150):
            s = random_store(rng, dims=3, max_rows=4)
            sub = list(s.rows)
            rng.shuffle(sub)
            weaker = store(3, *sub[:rng.randint(0, len(sub))])
            x = rng.randrange(3)
            ps, pw = ls_project(s, x), ls_project(weaker, x)
            assert all(ls_entails(ps, r) for r in pw.rows)

    def test_law_c_projection_absorbs_its_own_cylinder(self):
        rng = random.Random(53)
        for _ in range(150):
            c = random_store(rng, dims=3)
            d = random_store(rng, dims=3)
            x = rng.randrange(3)
            lhs = ls_project(ls_meet(ls_new(), [c, ls_project(d, x)]), x)
            rhs = ls_meet(ls_new(), [ls_project(c, x), ls_project(d, x)])
            assert ls_is_empty(lhs) == ls_is_empty(rhs)
            if not ls_is_empty(lhs):
                assert stores_equivalent(lhs, rhs)

    def test_law_d_projections_commute(self):
        rng = random.Random(54)
        for _ in range(150):
            s = random_store(rng, dims=3)
            x, y = rng.sample(range(3), 2)
            a = _project_all(s, (x, y))
            b = _project_all(s, (y, x))
            assert ls_is_empty(a) == ls_is_empty(b)
            if not ls_is_empty(a):
                assert stores_equivalent(a, b)

    def test_projection_agrees_with_elimination_oracle(self):
        # emptiness of the projection must match emptiness of the original
        rng = random.Random(55)
        for _ in range(150):
            s = random_store(rng, dims=3, max_rows=5)
            p = ls_project(s, rng.randrange(3))
            assert ls_is_empty(p) == ls_is_empty(s) == (not fm_feasible(s.rows))


# ------------------------------------------------------- canonical rows

coef = st.integers(min_value=-6, max_value=6)


class TestCanonicalRows:
    # row(op, k*coeffs, k*const) == row(op, coeffs, const) for k > 0
    @given(st.dictionaries(st.integers(0, 3), coef, max_size=4), coef,
           st.sampled_from(["=", "<=", "<"]), st.integers(1, 5))
    def test_scaling_invariance(self, coeffs, const, op, k):
        base = row(op, {d: Fraction(c) for d, c in coeffs.items()},
                   Fraction(const))
        scaled = row(op, {d: Fraction(c * k) for d, c in coeffs.items()},
                     Fraction(const * k))
        assert base == scaled

    # negating both sides of an equality gives the same canonical row
    @given(st.dictionaries(st.integers(0, 3), coef, min_size=1, max_size=4),
           coef)
    def test_equality_sign_normalization(self, coeffs, const):
        pos = row("=", {d: Fraction(c) for d, c in coeffs.items()},
                  Fraction(const))
        neg = row("=", {d: Fraction(-c) for d, c in coeffs.items()},
                  Fraction(-const))
        assert pos == neg

    def test_trivial_and_false_rows(self):
        assert row("<=", {}, Fraction(-1)) is None
        assert row("<", {}, Fraction(0)) is FALSE_ROW
        assert row("=", {0: Fraction(0)}, Fraction(0)) is None

    def test_dump_is_readable(self):
        s = store(2, R("=", {0: 1}, -5), R("=", {1: 1, 0: -1}, 1))
        assert dump_lin(s) == ["D_0 = 5", "D_0 - D_1 = 1"]
        assert dump_row(R("<=", {0: 2, 1: 4}, -6)) == "D_0 + 2*D_1 <= 3"
