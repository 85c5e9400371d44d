"""Scope tree, register cells, snapshot/merge discipline and ask/tell
behavior of the global store."""

import json
import random
from fractions import Fraction

import pytest

from tccp import ast
from tccp.errors import (
    DuplicateInScopeError, UnboundActualError, UnknownSymbolError,
)
from tccp.parser import parse_constraint
from tccp.store import EXISTS, PROC_CALL, Store, UNBOUND
from support import check_parameter_law


def C(text):
    return parse_constraint(text)


def fresh(*names):
    st = Store.new()
    for n in names:
        st.add_variable(0, n)
    return st


# ------------------------------------------------------------- scope tree

class TestScopes:
    def test_new_store_has_one_root_node(self):
        st = Store.new()
        assert st.counts() == {"nodes": 1, "registers": 0, "dims": 0}
        assert st.scopes[0].kind == "root"

    def test_variables_get_unbound_cells(self):
        st = fresh("X", "Y")
        assert st.counts()["registers"] == 2
        assert st.memory[st.lookup(0, "X")] == UNBOUND

    def test_duplicate_variable_in_one_node_rejected(self):
        st = fresh("X")
        with pytest.raises(DuplicateInScopeError):
            st.add_variable(0, "X")

    def test_lookup_walks_through_exists_nodes(self):
        st = fresh("X")
        inner = st.add_scope(EXISTS, 0)
        innermost = st.add_scope(EXISTS, inner)
        assert st.lookup(innermost, "X") == st.lookup(0, "X")

    def test_exists_shadows_outer_name(self):
        st = fresh("X")
        inner = st.add_scope(EXISTS, 0)
        idx = st.add_variable(inner, "X")
        assert st.lookup(inner, "X") == idx
        assert st.lookup(0, "X") != idx

    def test_call_boundary_hides_caller_names(self):
        st = fresh("X")
        call = st.add_scope(PROC_CALL, 0, label="p")
        with pytest.raises(UnknownSymbolError):
            st.lookup(call, "X")
        # locals under the call node still see the formals
        st.add_parameter(call, "F", ast.Var("X"), 0)
        body_local = st.add_scope(EXISTS, call)
        assert st.lookup(body_local, "F") == st.lookup(0, "X")

    def test_unknown_name_raises(self):
        st = fresh("X")
        with pytest.raises(UnknownSymbolError):
            st.lookup(0, "Nope")


# ------------------------------------------------------------- parameters

class TestParameters:
    def test_var_actual_shares_the_cell(self):
        st = fresh("X")
        before = st.counts()["registers"]
        call = st.add_scope(PROC_CALL, 0)
        st.add_parameter(call, "F", ast.Var("X"), 0)
        assert st.lookup(call, "F") == st.lookup(0, "X")
        assert st.counts()["registers"] == before

    def test_atom_and_num_actuals_cost_one_cell_each(self):
        st = Store.new()
        call = st.add_scope(PROC_CALL, 0)
        st.add_parameter(call, "A", ast.Atom("on"), 0)
        st.add_parameter(call, "N", ast.Num(Fraction(7)), 0)
        assert st.counts()["registers"] == 2
        assert st.memory[st.lookup(call, "A")] == ("const", "on")
        assert st.memory[st.lookup(call, "N")] == ("const", Fraction(7))

    def test_expression_actual_adds_dim_cell_and_row(self):
        st = fresh("Y")
        call = st.add_scope(PROC_CALL, 0)
        e = ast.LinExpr.of_var("Y") + ast.LinExpr.of_num(Fraction(1))
        st.add_parameter(call, "F", e, 0)
        # Y picked up dim 0, the formal dim 1, linked by one equation
        assert st.counts()["dims"] == 2
        assert st.entails(0, C("Y = 3")) is False
        st.add_constraint(0, C("Y = 3"))
        assert st.entails(call, C("F = 4"))

    def test_unknown_var_actual_raises(self):
        st = Store.new()
        call = st.add_scope(PROC_CALL, 0)
        with pytest.raises(UnboundActualError):
            st.add_parameter(call, "F", ast.Var("X"), 0)

    def test_stream_valued_expression_actual_is_a_clash(self):
        st = fresh("X")
        st.add_constraint(0, C("X = a"))
        call = st.add_scope(PROC_CALL, 0)
        st.add_parameter(call, "F", ast.LinExpr.of_var("X"), 0)
        assert not st.is_consistent()

    def test_duplicate_formal_rejected(self):
        st = fresh("X")
        call = st.add_scope(PROC_CALL, 0)
        st.add_parameter(call, "F", ast.Var("X"), 0)
        with pytest.raises(DuplicateInScopeError):
            st.add_parameter(call, "F", ast.Var("X"), 0)


# ------------------------------------------------------------------ tells

class TestTell:
    def test_cons_onto_unbound_costs_two_cells(self):
        st = fresh("X", "T")
        before = st.counts()["registers"]
        st.add_constraint(0, C("X = [a | T]"))
        assert st.counts()["registers"] == before + 2
        assert st.memory[st.lookup(0, "X")][0] == "functor"

    def test_anonymous_positions_allocate_nothing_extra(self):
        st = fresh("X")
        before = st.counts()["registers"]
        st.add_constraint(0, C("X = [_ | _]"))
        assert st.counts()["registers"] == before + 2

    def test_telling_deeper_extends_in_place(self):
        st = fresh("X", "T")
        st.add_constraint(0, C("X = [a | T]"))
        before = st.counts()["registers"]
        st.add_constraint(0, C("T = [b | _]"))
        assert st.counts()["registers"] == before + 2
        assert st.entails(0, C("X = [a | [b | _]]"))

    def test_repeated_tell_is_idempotent(self):
        st = fresh("X", "T")
        st.add_constraint(0, C("X = [a | T]"))
        snap = json.dumps(st.dump(), sort_keys=True)
        st.add_constraint(0, C("X = [a | T]"))
        assert json.dumps(st.dump(), sort_keys=True) == snap

    def test_atom_clash_latches_false(self):
        st = fresh("X")
        st.add_constraint(0, C("X = a"))
        assert st.is_consistent()
        st.add_constraint(0, C("X = b"))
        assert not st.is_consistent()

    def test_atom_vs_number_clash(self):
        st = fresh("X", "Y")
        st.add_constraint(0, C("X = a"))
        st.add_constraint(0, C("Y = [1 | _]"))
        st.add_constraint(0, ast.StreamEq("Y", ast.Cons(ast.Var("X"), ast.Anon())))
        assert not st.is_consistent()

    def test_structure_vs_numeric_clash(self):
        st = fresh("X")
        st.add_constraint(0, C("X = 3"))
        st.add_constraint(0, C("X = [a | _]"))
        assert not st.is_consistent()

    def test_linear_tell_with_stream_var_is_a_clash(self):
        st = fresh("X")
        st.add_constraint(0, C("X = a"))
        st.add_constraint(0, C("X > 0"))
        assert not st.is_consistent()

    def test_occurs_in_one_tell(self):
        st = fresh("X")
        st.add_constraint(0, ast.StreamEq("X", ast.Cons(ast.Atom("a"), ast.Var("X"))))
        assert not st.is_consistent()

    def test_occurs_across_two_tells(self):
        st = fresh("X", "Y")
        st.add_constraint(0, C("X = [a | Y]"))
        st.add_constraint(0, C("Y = [b | X]"))
        assert not st.is_consistent()

    def test_var_var_aliasing(self):
        st = fresh("X", "Y")
        st.add_constraint(0, C("X = Y"))
        st.add_constraint(0, C("Y = on"))
        assert st.entails(0, C("X = on"))

    def test_number_heads_meet_the_linear_store(self):
        st = fresh("X", "N")
        st.add_constraint(0, C("N = 4"))
        st.add_constraint(0, ast.StreamEq("X", ast.Cons(ast.Var("N"), ast.Anon())))
        assert st.entails(0, C("X = [4 | _]"))
        assert not st.entails(0, C("X = [5 | _]"))


# ------------------------------------------------------------------- asks

class TestEntails:
    def test_ask_is_negation_as_absence(self):
        st = fresh("X", "Y")
        assert not st.entails(0, C("X = a"))
        assert not st.entails(0, C("X = Y"))
        assert not st.entails(0, C("X > 0"))
        assert st.entails(0, C("true"))

    def test_anonymous_pattern_always_matches(self):
        st = fresh("X")
        assert st.entails(0, C("X = _"))

    def test_prefix_patterns(self):
        st = fresh("X", "T")
        st.add_constraint(0, C("X = [on | T]"))
        assert st.entails(0, C("X = [on | _]"))
        assert st.entails(0, ast.StreamEq("X", ast.Cons(ast.Atom("on"), ast.Var("T"))))
        assert not st.entails(0, C("X = [off | _]"))
        assert not st.entails(0, C("X = [on | [a | _]]"))

    def test_unbound_tail_matches_nothing_but_anon(self):
        st = fresh("X", "T", "Z")
        st.add_constraint(0, C("X = [on | T]"))
        assert not st.entails(0, ast.StreamEq("X", ast.Cons(ast.Atom("on"), ast.Var("Z"))))

    def test_linear_asks_use_entailment(self):
        st = fresh("X")
        st.add_constraint(0, C("X = 5"))
        assert st.entails(0, C("X > 0"))
        assert st.entails(0, C("X = 5"))
        assert not st.entails(0, C("X = 6"))
        assert not st.entails(0, C("X < 5"))

    def test_inconsistent_store_entails_everything(self):
        st = fresh("X")
        st.add_constraint(0, C("X = a"))
        st.add_constraint(0, C("X = b"))
        assert st.entails(0, C("X = c"))
        assert st.entails(0, C("X > 100"))

    def test_entails_is_pure(self):
        st = fresh("X", "Y", "T")
        st.add_constraint(0, C("X = [on | T]"))
        st.add_constraint(0, C("Y = 3"))
        before = json.dumps(st.dump(), sort_keys=True)
        counters = (st.alloc.next_cell, st.alloc.next_node, st.alloc.next_dim)
        for probe in ("X = [on | _]", "X = [off | _]", "Y > 1", "Y = 9",
                      "T = a", "X = Y", "Z' + Y = 3"):
            try:
                st.entails(0, C(probe))
            except UnknownSymbolError:
                pass
        assert json.dumps(st.dump(), sort_keys=True) == before
        assert (st.alloc.next_cell, st.alloc.next_node, st.alloc.next_dim) == counters

    def test_rational_values_round_trip_in_dump(self):
        st = Store.new()
        call = st.add_scope(PROC_CALL, 0)
        st.add_parameter(call, "F", ast.Num(Fraction(1, 2)), 0)
        cell = st.dump()["memory"][st.lookup(call, "F")]
        assert cell == {"kind": "const", "value": "1/2"}


# --------------------------------------------------------------- snapshots

class TestSnapshots:
    def test_branch_writes_stay_local(self):
        base = fresh("X")
        snap = base.branch()
        snap.add_constraint(0, C("X = a"))
        assert snap.entails(0, C("X = a"))
        assert not base.entails(0, C("X = a"))

    def test_merge_publishes_the_writes(self):
        base = fresh("X", "Y")
        s1, s2 = base.branch(), base.branch()
        s1.add_constraint(0, C("X = [a | _]"))
        s2.add_constraint(0, C("Y = 2"))
        out = Store.merge(base, [s1, s2])
        assert out.entails(0, C("X = [a | _]"))
        assert out.entails(0, C("Y = 2"))
        assert not base.entails(0, C("Y = 2"))

    def test_sibling_atom_clash_latches(self):
        base = fresh("X")
        s1, s2 = base.branch(), base.branch()
        s1.add_constraint(0, C("X = a"))
        s2.add_constraint(0, C("X = b"))
        assert s1.is_consistent() and s2.is_consistent()
        assert not Store.merge(base, [s1, s2]).is_consistent()

    def test_sibling_agreement_is_no_clash(self):
        base = fresh("X")
        s1, s2 = base.branch(), base.branch()
        s1.add_constraint(0, C("X = a"))
        s2.add_constraint(0, C("X = a"))
        out = Store.merge(base, [s1, s2])
        assert out.is_consistent() and out.entails(0, C("X = a"))

    def test_sibling_streams_merge_pointwise(self):
        base = fresh("X", "T")
        s1, s2 = base.branch(), base.branch()
        s1.add_constraint(0, C("X = [a | T]"))
        s2.add_constraint(0, C("X = [_ | [b | _]]"))
        out = Store.merge(base, [s1, s2])
        assert out.is_consistent()
        assert out.entails(0, C("X = [a | [b | _]]"))
        assert out.entails(0, C("T = [b | _]"))

    def test_cross_snapshot_cycle_is_inconsistent_in_both_orders(self):
        for flip in (False, True):
            base = fresh("X", "Y")
            s1, s2 = base.branch(), base.branch()
            s1.add_constraint(0, C("X = [a | Y]"))
            s2.add_constraint(0, C("Y = [b | X]"))
            snaps = [s2, s1] if flip else [s1, s2]
            assert not Store.merge(base, snaps).is_consistent()

    def test_merge_order_does_not_change_answers(self):
        rng = random.Random(17)
        tells = ["X = [a | T]", "X = [_ | [b | _]]", "T = [b | _]", "Y = 2",
                 "Y > 1", "X = a", "Z = Y", "Z = 2", "T = [c | _]", "Y = 3"]
        probes = ["X = [a | _]", "X = [a | [b | _]]", "T = [b | _]", "Y = 2",
                  "Y > 0", "Z = 2", "X = a"]
        for _ in range(120):
            picked = rng.sample(tells, rng.randint(1, 4))
            base = fresh("X", "Y", "Z", "T")
            snaps = []
            for text in picked:
                s = base.branch()
                s.add_constraint(0, C(text))
                snaps.append(s)
            fwd = Store.merge(base, snaps)
            rev = Store.merge(base, list(reversed(snaps)))
            assert fwd.is_consistent() == rev.is_consistent()
            for p in probes:
                assert fwd.entails(0, C(p)) == rev.entails(0, C(p)), (picked, p)

    def test_nested_merge_keeps_inner_writes(self):
        base = fresh("X", "Y")
        mid = base.branch()
        mid.add_constraint(0, C("X = [a | _]"))
        inner1, inner2 = mid.branch(), mid.branch()
        inner1.add_constraint(0, C("Y = 1"))
        inner2.add_constraint(0, C("X = [_ | [b | _]]"))
        merged_mid = Store.merge(mid, [inner1, inner2])
        out = Store.merge(base, [merged_mid])
        assert out.entails(0, C("X = [a | [b | _]]"))
        assert out.entails(0, C("Y = 1"))

    def test_scope_growth_survives_a_sibling_clash(self):
        base = fresh("X")
        s1, s2 = base.branch(), base.branch()
        nid = s1.add_scope(EXISTS, 0)
        s1.add_variable(nid, "L")
        s1.add_constraint(nid, C("L = on"))
        s2.add_constraint(0, C("X = a"))
        s2.add_constraint(0, C("X = b"))
        out = Store.merge(base, [s1, s2])
        assert not out.is_consistent()
        assert out.scopes[nid].kind == "exists"
        assert out.entails(nid, C("L = on"))  # trivially, by inconsistency

    def test_seal_forgets_the_log_only(self):
        base = fresh("X")
        snap = base.branch()
        snap.add_constraint(0, C("X = a"))
        out = Store.merge(base, [snap]).seal()
        assert out.write_log == {} and out.new_nodes == []
        assert out.entails(0, C("X = a"))


# ------------------------------------------------------- long streams

LONG = 3000  # cells per stream: far past Python's default recursion limit


def tell_stream(st, scope, var, values):
    """Tell var = [v0, v1, ... | nil] one cell per tell, through fresh tail
    variables, so that no single tell or term is deep."""
    node = st.add_scope(EXISTS, scope)
    prev = var
    for k, v in enumerate(values):
        st.add_variable(node, f"T{k}")
        st.add_constraint(node, C(f"{prev} = [{v} | T{k}]"))
        prev = f"T{k}"
    st.add_constraint(node, C(f"{prev} = nil"))


def long_values(same):
    """The elements of V, and those of W: equal, or the last one changed."""
    values = list(range(LONG))
    return values, values if same else values[:-1] + [-1]


@pytest.mark.parametrize("same", [True, False], ids=["equal", "last_differs"])
class TestLongStreams:
    def test_tell_walks_both_streams(self, same):
        v, w = long_values(same)
        st = fresh("V", "W")
        tell_stream(st, 0, "V", v)
        tell_stream(st, 0, "W", w)
        registers = st.counts()["registers"]
        st.add_constraint(0, C("V = W"))
        assert st.is_consistent() == same
        assert st.counts()["registers"] == registers

    def test_ask_walks_both_streams(self, same):
        v, w = long_values(same)
        st = fresh("V", "W")
        tell_stream(st, 0, "V", v)
        tell_stream(st, 0, "W", w)
        assert st.entails(0, C("V = W")) == same
        assert st.is_consistent()

    def test_merge_walks_both_streams(self, same):
        v, w = long_values(same)
        for flip in (False, True):
            base = fresh("V", "W")
            told, built = base.branch(), base.branch()
            told.add_constraint(0, C("V = W"))
            tell_stream(built, 0, "V", v)
            tell_stream(built, 0, "W", w)
            assert told.is_consistent() and built.is_consistent()
            snaps = [built, told] if flip else [told, built]
            out = Store.merge(base, snaps)
            assert out.is_consistent() == same
            if same:
                assert out.entails(0, C("V = W"))


# -------------------------------------------------------- the call law

class TestParameterLaw:
    def test_formal_and_actual_answer_alike(self):
        assert check_parameter_law(random.Random(23), 120) == 120
