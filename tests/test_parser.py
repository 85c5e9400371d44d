"""Concrete syntax: hand-written cases, error positions, and the
pretty-printer round-trip."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tccp.ast import (
    Anon, Atom, Call, Choice, Cons, CTrue, Exists, LinExpr, Linear, Now, Num,
    Parallel, Skip, StreamEq, Tell, Var, pretty_agent, pretty_constraint,
    pretty_program,
)
from tccp.errors import (
    ArityError, DuplicateDeclarationError, TccpError, TccpSyntaxError,
    UnboundVariableError, UnknownProcedureError,
)
from tccp.parser import parse_agent, parse_constraint, parse_program
from support import ProgramGen


def lx(*pairs, const=0):
    return LinExpr(tuple((n, Fraction(c)) for n, c in pairs), Fraction(const))


# ------------------------------------------------------------ constraints

class TestConstraints:
    def test_true(self):
        assert parse_constraint("true") == CTrue()

    def test_stream_atom(self):
        assert parse_constraint("X = a") == StreamEq("X", Atom("a"))

    def test_stream_var(self):
        assert parse_constraint("X = Y") == StreamEq("X", Var("Y"))

    def test_stream_anon(self):
        assert parse_constraint("X = _") == StreamEq("X", Anon())

    def test_stream_cons(self):
        assert parse_constraint("C = [on | T]") == \
            StreamEq("C", Cons(Atom("on"), Var("T")))

    def test_stream_nested_cons(self):
        assert parse_constraint("X = [a | [2 | _]]") == \
            StreamEq("X", Cons(Atom("a"), Cons(Num(2), Anon())))

    def test_stream_negative_head(self):
        assert parse_constraint("X = [-2 | T]") == \
            StreamEq("X", Cons(Num(-2), Var("T")))

    def test_primed_variables(self):
        assert parse_constraint("A' = [free | _]") == \
            StreamEq("A'", Cons(Atom("free"), Anon()))

    def test_var_eq_number_is_linear(self):
        # numbers live in the arithmetic fragment, not the stream one
        assert parse_constraint("X = 3") == \
            Linear(lx(("X", 1)), "=", lx(const=3))

    def test_var_eq_expr_is_linear(self):
        assert parse_constraint("X = Y + 1") == \
            Linear(lx(("X", 1)), "=", lx(("Y", 1), const=1))

    def test_var_eq_scaled_var_is_linear(self):
        assert parse_constraint("X = Y * 2") == \
            Linear(lx(("X", 1)), "=", lx(("Y", 2)))

    def test_comparison_ops(self):
        for op in ("<", ">", "<=", ">="):
            c = parse_constraint(f"X {op} Y")
            assert c == Linear(lx(("X", 1)), op, lx(("Y", 1)))

    def test_affine_normalization(self):
        c = parse_constraint("2*X + 1 - X + X <= Y - 3")
        assert c == Linear(lx(("X", 2), const=1), "<=", lx(("Y", 1), const=-3))

    def test_coefficients_cancel(self):
        c = parse_constraint("X - X + 2 = Y")
        assert c == Linear(lx(const=2), "=", lx(("Y", 1)))

    def test_a_zero_coefficient_drops_its_variable(self):
        c = parse_constraint("0 * X = 1")
        assert c == Linear(LinExpr.of_num(0), "=", LinExpr.of_num(1))
        assert pretty_constraint(c) == "0 = 1"

    def test_nonlinear_product_rejected(self):
        with pytest.raises(TccpSyntaxError):
            parse_constraint("X * Y = 2")

    def test_missing_operator_rejected(self):
        with pytest.raises(TccpSyntaxError) as e:
            parse_constraint("X + 1")
        assert "comparison" in str(e.value)

    def test_a_cons_without_its_tail_rejected(self):
        with pytest.raises(TccpSyntaxError) as e:
            parse_program("p(X) :- tell(X = [a | ]).")
        assert "expected a term, found ']'" in str(e.value)


# ----------------------------------------------------------------- agents

class TestAgents:
    def test_skip_and_tell(self):
        assert parse_agent("skip") == Skip()
        assert parse_agent("tell(X = a)") == Tell(StreamEq("X", Atom("a")))

    def test_parallel_is_nary(self):
        a = parse_agent("skip || tell(true) || skip")
        assert a == Parallel((Skip(), Tell(CTrue()), Skip()))

    def test_parallel_grouping_is_kept(self):
        a = parse_agent("(skip || skip) || skip")
        assert a == Parallel((Parallel((Skip(), Skip())), Skip()))

    def test_choice_collects_branches(self):
        a = parse_agent("ask(X = a) -> skip + ask(X = b) -> tell(Y = c)")
        assert a == Choice((
            (StreamEq("X", Atom("a")), Skip()),
            (StreamEq("X", Atom("b")), Tell(StreamEq("Y", Atom("c")))),
        ))

    def test_choice_binds_tighter_than_parallel(self):
        a = parse_agent("ask(true) -> skip || skip")
        assert a == Parallel((Choice(((CTrue(), Skip()),)), Skip()))

    def test_unguarded_branch_rejected(self):
        with pytest.raises(TccpSyntaxError) as e:
            parse_agent("skip + skip")
        assert "ask" in str(e.value)

    def test_now_with_default_else(self):
        a = parse_agent("now X = a then tell(Y = b)")
        assert a == Now(StreamEq("X", Atom("a")),
                        Tell(StreamEq("Y", Atom("b"))), Skip())

    def test_now_cond_parens_are_optional(self):
        bare = parse_agent("now X > 0 then skip else tell(Y = a)")
        wrapped = parse_agent("now (X > 0) then skip else tell(Y = a)")
        assert bare == wrapped
        assert bare.else_agent == Tell(StreamEq("Y", Atom("a")))

    def test_dangling_else_binds_innermost(self):
        a = parse_agent("now X = a then now Y = b then skip else tell(Z = c)")
        assert a.else_agent == Skip()
        assert a.then_agent.else_agent == Tell(StreamEq("Z", Atom("c")))

    def test_exists_lists_variables(self):
        a = parse_agent("exists X, Y' (tell(X = Y'))")
        assert a == Exists(("X", "Y'"), Tell(StreamEq("X", Var("Y'"))))

    def test_exists_duplicate_vars_rejected(self):
        with pytest.raises(TccpSyntaxError):
            parse_agent("exists X, X (skip)")

    def test_call_actual_kinds(self):
        a = parse_agent("p(X, a, 3, Y + 1, 2*Z)")
        assert a == Call("p", (Var("X"), Atom("a"), Num(3),
                               lx(("Y", 1), const=1), lx(("Z", 2))))

    def test_nullary_call(self):
        assert parse_agent("run") == Call("run", ())

    def test_parenthesized_agent(self):
        a = parse_agent("now true then (skip || skip)")
        assert a.then_agent == Parallel((Skip(), Skip()))


# ----------------------------------------------------------------- lexing

class TestLexing:
    def test_comments_and_whitespace(self):
        p = parse_program("p :- skip.  % trailing words\n% full line\nq :- p.\n")
        assert [d.name for d in p.decls] == ["p", "q"]

    def test_error_carries_position(self):
        with pytest.raises(TccpSyntaxError) as e:
            parse_program("p :- skip.\nq :- $")
        assert (e.value.line, e.value.col) == (2, 6)

    def test_underscore_prefix_rejected(self):
        with pytest.raises(TccpSyntaxError):
            parse_agent("tell(X = _y)")

    def test_primes_only_on_variables(self):
        with pytest.raises(TccpSyntaxError):
            parse_agent("tell(X = foo')")

    def test_keywords_are_not_atoms(self):
        with pytest.raises(TccpSyntaxError):
            parse_program("then :- skip.")

    def test_fraction_literals_are_not_tokens(self):
        with pytest.raises(TccpSyntaxError):
            parse_constraint("X = 1/2")

    def test_a_number_longer_than_int_takes_is_an_error(self):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(TccpSyntaxError) as e:
            parse_constraint(f"X = {digits}")
        assert (e.value.line, e.value.col) == (1, 5)


# --------------------------------------------------------------- programs

class TestPrograms:
    def test_declarations_and_arities(self):
        p = parse_program("p(X) :- tell(X = a).\nq :- p(b).\n")
        assert p.decl("p").formals == ("X",)
        assert p.decl("q").body == Call("p", (Atom("b"),))
        assert p.decl("missing") is None

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(DuplicateDeclarationError):
            parse_program("p :- skip. p :- skip.")

    def test_duplicate_formals_rejected(self):
        with pytest.raises(TccpSyntaxError):
            parse_program("p(X, X) :- skip.")

    def test_unknown_procedure_rejected(self):
        with pytest.raises(UnknownProcedureError):
            parse_program("p :- q.")
        with pytest.raises(UnknownProcedureError):
            parse_program("p :- skip.", entry="r(X)")

    def test_arity_mismatch_rejected(self):
        with pytest.raises(ArityError) as e:
            parse_program("p(X) :- skip. q :- p(a, b).")
        assert (e.value.expected, e.value.got) == (1, 2)

    def test_body_variables_must_be_bound(self):
        # call actuals too: no unbound name reaches the simulator
        for text in ("p(X) :- tell(Y = a).", "p(X) :- skip.\nq :- p(Y).",
                     "p(X) :- skip.\nq :- p(Y + 1)."):
            with pytest.raises(UnboundVariableError) as e:
                parse_program(text)
            assert e.value.name == "Y", text
        parse_program("p(X) :- exists Y (tell(Y = a)).")  # fine

    def test_entry_vars_in_first_occurrence_order(self):
        p = parse_program("", entry="tell(B = a) || tell(A = [x | B]) || tell(C + A = 2)")
        assert p.entry_vars == ("B", "A", "C")

    def test_entry_vars_skip_exists_bound(self):
        p = parse_program("", entry="exists X (tell(X = Y))")
        assert p.entry_vars == ("Y",)

    def test_empty_program_with_no_entry(self):
        p = parse_program("")
        assert p.decls == () and p.entry is None and p.entry_vars == ()

    def test_bundled_photocopier_parses(self):
        from importlib import resources
        text = (resources.files("tccp") / "programs" / "photocopier.tccp").read_text()
        p = parse_program(text)
        assert {d.name: len(d.formals) for d in p.decls} == {
            "user": 2, "photocopier": 5, "system": 5, "initialize": 1}


# -------------------------------------------------------------- round-trip

var_names = st.sampled_from(["X", "Y", "Z", "T", "A'", "B2"])
atom_names = st.sampled_from(["a", "b", "on", "off", "free"])
sm_int = st.integers(min_value=-5, max_value=5)

terms = st.recursive(
    st.one_of(
        st.builds(Atom, atom_names),
        st.builds(Var, var_names),
        st.builds(Num, st.integers(min_value=-9, max_value=9).map(Fraction)),
        st.just(Anon()),
    ),
    lambda inner: st.builds(Cons, inner, inner),
    max_leaves=5,
)

# a bare number on the right of `V =` reparses into the arithmetic fragment
stream_rhs = terms.filter(lambda t: not isinstance(t, Num))


@st.composite
def linexprs(draw, min_vars=0):
    names = draw(st.lists(var_names, unique=True, min_size=min_vars, max_size=3))
    coeffs = tuple(sorted((n, Fraction(draw(sm_int.filter(bool)))) for n in names))
    return LinExpr(coeffs, Fraction(draw(sm_int)))


@st.composite
def linear_constraints(draw):
    op = draw(st.sampled_from(["=", "<", ">", "<=", ">="]))
    lhs = draw(linexprs())
    rhs = draw(linexprs())
    bare = lambda e: len(e.coeffs) == 1 and e.coeffs[0][1] == 1 and e.const == 0
    # `V = W` prints identically to the stream equation, which wins the parse
    if op == "=" and bare(lhs) and bare(rhs):
        rhs = rhs + LinExpr.of_num(1)
    return Linear(lhs, op, rhs)


constraints = st.one_of(
    st.just(CTrue()),
    st.builds(StreamEq, var_names, stream_rhs),
    linear_constraints(),
)


def call_actual_ok(a):
    if not isinstance(a, LinExpr):
        return True
    if not a.coeffs:
        return False  # prints as a number, reparses as Num
    bare = len(a.coeffs) == 1 and a.coeffs[0][1] == 1 and a.const == 0
    return not bare  # prints as a name, reparses as Var


calls = st.builds(
    Call, st.sampled_from(["p", "q", "proc1"]),
    st.lists(
        st.one_of(st.builds(Var, var_names), st.builds(Atom, atom_names),
                  st.builds(Num, st.integers(-9, 9).map(Fraction)),
                  linexprs(min_vars=1).filter(call_actual_ok)),
        max_size=3).map(tuple))

agents = st.recursive(
    st.one_of(st.just(Skip()), st.builds(Tell, constraints), calls),
    lambda inner: st.one_of(
        st.builds(lambda xs: Parallel(tuple(xs)),
                  st.lists(inner, min_size=2, max_size=3)),
        st.builds(lambda bs: Choice(tuple(bs)),
                  st.lists(st.tuples(constraints, inner), min_size=1, max_size=2)),
        st.builds(Now, constraints, inner, inner),
        st.builds(lambda vs, b: Exists(tuple(vs), b),
                  st.lists(st.sampled_from(["L1", "L2"]), unique=True,
                           min_size=1, max_size=2), inner),
    ),
    max_leaves=6,
)


class TestRoundTrip:
    def test_else_stays_with_its_now(self):
        # an else-less inner now must not capture the outer else on reparse
        a = Now(CTrue(), Now(StreamEq("X", Atom("a")), Skip(), Skip()),
                Tell(StreamEq("Y", Atom("b"))))
        assert parse_agent(pretty_agent(a)) == a
        chain = Now(CTrue(),
                    Now(CTrue(), Skip(), Now(CTrue(), Skip(), Skip())),
                    Tell(CTrue()))
        assert parse_agent(pretty_agent(chain)) == chain

    @given(constraints)
    @settings(max_examples=300)
    def test_constraints_round_trip(self, c):
        assert parse_constraint(pretty_constraint(c)) == c

    @given(agents)
    @settings(max_examples=400)
    def test_agents_round_trip(self, a):
        assert parse_agent(pretty_agent(a)) == a

    def test_generated_programs_round_trip(self):
        rng = random.Random(99)
        for _ in range(60):
            decls, entry = ProgramGen(rng).gen()
            p1 = parse_program(decls, entry=entry)
            p2 = parse_program(pretty_program(p1),
                               entry=pretty_agent(p1.entry))
            assert p2.decls == p1.decls
            assert p2.entry == p1.entry


# ---------------------------------------------------------------- any text

# pieces of the grammar, so that generated text gets past the first
# character, and non-ASCII digits: `²` and `¹`, which int() refuses, and `٣`,
# which it takes
PIECES = st.sampled_from([
    "p", "q", "X", "Y'", "a", "skip", "tell", "ask", "now", "then", "else",
    "exists", "true", "||", ":-", "->", "<=", ">=", "(", ")", "[", "]", "|",
    ",", ".", "+", "-", "*", "=", "<", ">", "_", "1", "2/3", "\u00b2",
    "\u00b9", "\u0663", " ", "\n", "%",
])


@pytest.mark.parametrize("parse", [parse_program, parse_agent, parse_constraint])
@given(text=st.one_of(st.text(), st.lists(PIECES, max_size=30).map("".join)))
@settings(max_examples=400)
def test_any_text_parses_or_raises_a_tccp_error(parse, text):
    try:
        parse(text)
    except TccpError:
        pass
