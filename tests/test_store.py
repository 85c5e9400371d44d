"""Scope tree, register cells, snapshot/merge discipline and ask/tell
behavior of the global store."""

import json
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as strat

from tccp import ast
from tccp.errors import UnknownSymbolError
from tccp.parser import parse_constraint
from tccp.store import DumpMemo, EXISTS, PROC_CALL, Store, UNBOUND
from tccp.interp import ChoicePolicy, initial_config, step
from tccp.parser import parse_program
from support import (
    actual, ask, check_parameter_law, dump_doc, reference_ask, replay_merge,
    tell,
)


def C(text):
    return parse_constraint(text)


# ------------------------------------------------------------- scope tree

class TestScopes:
    def test_new_store_has_one_root_node(self):
        st = Store.new()
        assert st.counts() == {"nodes": 1, "registers": 0, "dims": 0}
        assert st.scopes[0].kind == "root"

    def test_variables_get_unbound_cells(self):
        st = Store.new(["X", "Y"])
        assert st.counts()["registers"] == 2
        assert st.memory[st.lookup(0, "X")] == UNBOUND

    def test_lookup_walks_through_exists_nodes(self):
        st = Store.new(["X"])
        inner = st.add_scope(EXISTS, 0, {})
        innermost = st.add_scope(EXISTS, inner, {})
        assert st.lookup(innermost, "X") == st.lookup(0, "X")

    def test_exists_shadows_outer_name(self):
        st = Store.new(["X"])
        idx = st.new_cell()
        inner = st.add_scope(EXISTS, 0, {"X": idx})
        assert st.lookup(inner, "X") == idx
        assert st.lookup(0, "X") != idx

    def test_call_boundary_hides_caller_names(self):
        st = Store.new(["X"])
        call = st.add_scope(PROC_CALL, 0,
                            {"F": actual(st, ast.Var("X"), 0)}, label="p")
        with pytest.raises(UnknownSymbolError):
            st.lookup(call, "X")
        # locals under the call node still see the formals
        body_local = st.add_scope(EXISTS, call, {})
        assert st.lookup(body_local, "F") == st.lookup(0, "X")

    def test_unknown_name_raises(self):
        st = Store.new(["X"])
        with pytest.raises(UnknownSymbolError):
            st.lookup(0, "Nope")


# ------------------------------------------------------------- parameters

class TestParameters:
    def test_var_actual_shares_the_cell(self):
        st = Store.new(["X"])
        before = st.counts()["registers"]
        call = st.add_scope(PROC_CALL, 0, {"F": actual(st, ast.Var("X"), 0)})
        assert st.lookup(call, "F") == st.lookup(0, "X")
        assert st.counts()["registers"] == before

    def test_atom_and_num_actuals_cost_one_cell_each(self):
        st = Store.new()
        call = st.add_scope(PROC_CALL, 0, {
            "A": actual(st, ast.Atom("on"), 0),
            "N": actual(st, ast.Num(Fraction(7)), 0)})
        assert st.counts()["registers"] == 2
        assert st.memory[st.lookup(call, "A")] == ("const", "on")
        assert st.memory[st.lookup(call, "N")] == ("const", Fraction(7))

    def test_expression_actual_adds_dim_cell_and_row(self):
        st = Store.new(["Y"])
        e = ast.LinExpr.of_var("Y") + ast.LinExpr.of_num(Fraction(1))
        call = st.add_scope(PROC_CALL, 0, {"F": actual(st, e, 0)})
        # Y picked up dim 0, the formal dim 1, linked by one equation
        assert st.counts()["dims"] == 2
        assert ask(st, 0, C("Y = 3")) is False
        tell(st, 0, C("Y = 3"))
        assert ask(st, call, C("F = 4"))

    def test_stream_valued_expression_actual_is_a_clash(self):
        st = Store.new(["X"])
        tell(st, 0, C("X = a"))
        actual(st, ast.LinExpr.of_var("X"), 0)
        assert not st.is_consistent()


# ------------------------------------------------------------------ tells

class TestTell:
    def test_cons_onto_unbound_costs_two_cells(self):
        st = Store.new(["X", "T"])
        before = st.counts()["registers"]
        tell(st, 0, C("X = [a | T]"))
        assert st.counts()["registers"] == before + 2
        assert st.memory[st.lookup(0, "X")][0] == "functor"

    def test_anonymous_positions_allocate_nothing_extra(self):
        st = Store.new(["X"])
        before = st.counts()["registers"]
        tell(st, 0, C("X = [_ | _]"))
        assert st.counts()["registers"] == before + 2

    def test_telling_deeper_extends_in_place(self):
        st = Store.new(["X", "T"])
        tell(st, 0, C("X = [a | T]"))
        before = st.counts()["registers"]
        tell(st, 0, C("T = [b | _]"))
        assert st.counts()["registers"] == before + 2
        assert ask(st, 0, C("X = [a | [b | _]]"))

    def test_repeated_tell_is_idempotent(self):
        st = Store.new(["X", "T"])
        tell(st, 0, C("X = [a | T]"))
        snap = json.dumps(dump_doc(st), sort_keys=True)
        tell(st, 0, C("X = [a | T]"))
        assert json.dumps(dump_doc(st), sort_keys=True) == snap

    def test_atom_clash_latches_false(self):
        st = Store.new(["X"])
        tell(st, 0, C("X = a"))
        assert st.is_consistent()
        tell(st, 0, C("X = b"))
        assert not st.is_consistent()

    def test_atom_vs_number_clash(self):
        st = Store.new(["X", "Y"])
        tell(st, 0, C("X = a"))
        tell(st, 0, C("Y = [1 | _]"))
        tell(st, 0, ast.StreamEq("Y", ast.Cons(ast.Var("X"), ast.Anon())))
        assert not st.is_consistent()

    def test_structure_vs_numeric_clash(self):
        st = Store.new(["X"])
        tell(st, 0, C("X = 3"))
        tell(st, 0, C("X = [a | _]"))
        assert not st.is_consistent()

    def test_linear_tell_with_stream_var_is_a_clash(self):
        st = Store.new(["X"])
        tell(st, 0, C("X = a"))
        tell(st, 0, C("X > 0"))
        assert not st.is_consistent()

    def test_occurs_in_one_tell(self):
        st = Store.new(["X"])
        tell(st, 0, ast.StreamEq("X", ast.Cons(ast.Atom("a"), ast.Var("X"))))
        assert not st.is_consistent()

    def test_occurs_across_two_tells(self):
        st = Store.new(["X", "Y"])
        tell(st, 0, C("X = [a | Y]"))
        tell(st, 0, C("Y = [b | X]"))
        assert not st.is_consistent()

    def test_var_var_aliasing(self):
        st = Store.new(["X", "Y"])
        tell(st, 0, C("X = Y"))
        tell(st, 0, C("Y = on"))
        assert ask(st, 0, C("X = on"))

    def test_number_heads_meet_the_linear_store(self):
        st = Store.new(["X", "N"])
        tell(st, 0, C("N = 4"))
        tell(st, 0, ast.StreamEq("X", ast.Cons(ast.Var("N"), ast.Anon())))
        assert ask(st, 0, C("X = [4 | _]"))
        assert not ask(st, 0, C("X = [5 | _]"))


# ------------------------------------------------------------------- asks

class TestEntails:
    def test_ask_is_negation_as_absence(self):
        st = Store.new(["X", "Y"])
        assert not ask(st, 0, C("X = a"))
        assert not ask(st, 0, C("X = Y"))
        assert not ask(st, 0, C("X > 0"))
        assert ask(st, 0, C("true"))

    def test_anonymous_pattern_always_matches(self):
        st = Store.new(["X"])
        assert ask(st, 0, C("X = _"))

    def test_prefix_patterns(self):
        st = Store.new(["X", "T"])
        tell(st, 0, C("X = [on | T]"))
        assert ask(st, 0, C("X = [on | _]"))
        assert ask(st, 0, ast.StreamEq("X", ast.Cons(ast.Atom("on"), ast.Var("T"))))
        assert not ask(st, 0, C("X = [off | _]"))
        assert not ask(st, 0, C("X = [on | [a | _]]"))

    def test_unbound_tail_matches_nothing_but_anon(self):
        st = Store.new(["X", "T", "Z"])
        tell(st, 0, C("X = [on | T]"))
        assert not ask(st, 0, ast.StreamEq("X", ast.Cons(ast.Atom("on"), ast.Var("Z"))))

    def test_linear_asks_use_entailment(self):
        st = Store.new(["X"])
        tell(st, 0, C("X = 5"))
        assert ask(st, 0, C("X > 0"))
        assert ask(st, 0, C("X = 5"))
        assert not ask(st, 0, C("X = 6"))
        assert not ask(st, 0, C("X < 5"))

    def test_inconsistent_store_entails_everything(self):
        st = Store.new(["X"])
        tell(st, 0, C("X = a"))
        tell(st, 0, C("X = b"))
        assert ask(st, 0, C("X = c"))
        assert ask(st, 0, C("X > 100"))

    def test_entails_is_pure(self):
        st = Store.new(["X", "Y", "T"])
        tell(st, 0, C("X = [on | T]"))
        tell(st, 0, C("Y = 3"))
        before = json.dumps(dump_doc(st), sort_keys=True)
        counters = (st.base.next_cell, len(st.base.scopes), st.base.next_dim)
        # a tell of "T = [a | _]" would allocate a head and a tail
        for probe in ("X = [on | _]", "X = [off | _]", "Y > 1", "Y = 9",
                      "T = a", "X = Y", "Z' + Y = 3", "T = [a | _]",
                      "X = [on | [b | _]]"):
            try:
                ask(st, 0, C(probe))
            except UnknownSymbolError:
                pass
        assert json.dumps(dump_doc(st), sort_keys=True) == before
        assert (st.base.next_cell, len(st.base.scopes),
                st.base.next_dim) == counters

    @settings(max_examples=200, deadline=None)
    @given(strat.data())
    def test_stream_asks_answer_as_the_reference_walk(self, data):
        # the one walk in ask mode against the ask's own walk that it
        # replaced, on stores built by tells and merges; asked are the
        # equations between two names, the stream ones told, those again
        # with numbers for the numeric names, and new ones
        ops = data.draw(ASK_SCRIPT)
        st = run_script(Store.new(NAMES), ops, Store.merge)
        told = [t[1] for op in ops
                for t in ([op] if op[0] == "tell" else sum(op[1], []))
                if t[1] not in NUMERIC]
        told += [text.translate(VALUES) for text in told]  # X = [3 | _]
        before = compact(st), st.base.next_cell, st.base.next_dim
        for text in NAME_PAIRS + told + data.draw(strat.lists(ASK_EQS)):
            assert ask(st, 0, C(text)) == reference_ask(st, 0, C(text)), text
        assert (compact(st), st.base.next_cell, st.base.next_dim) == before

    def test_rational_values_round_trip_in_dump(self):
        st = Store.new()
        call = st.add_scope(PROC_CALL, 0,
                            {"F": actual(st, ast.Num(Fraction(1, 2)), 0)})
        cell = dump_doc(st)["memory"][st.lookup(call, "F")]
        assert cell == {"kind": "const", "value": "1/2"}


# --------------------------------------------------------------- snapshots

class TestSnapshots:
    def test_branch_writes_stay_local(self):
        base = Store.new(["X"])
        snap = base.branch()
        tell(snap, 0, C("X = a"))
        assert ask(snap, 0, C("X = a"))
        assert not ask(base, 0, C("X = a"))

    def test_merge_publishes_the_writes(self):
        base = Store.new(["X", "Y"])
        s1, s2 = base.branch(), base.branch()
        tell(s1, 0, C("X = [a | _]"))
        tell(s2, 0, C("Y = 2"))
        out = Store.merge(base, [s1, s2])
        assert ask(out, 0, C("X = [a | _]"))
        assert ask(out, 0, C("Y = 2"))
        assert not ask(base, 0, C("Y = 2"))

    def test_sibling_atom_clash_latches(self):
        base = Store.new(["X"])
        s1, s2 = base.branch(), base.branch()
        tell(s1, 0, C("X = a"))
        tell(s2, 0, C("X = b"))
        assert s1.is_consistent() and s2.is_consistent()
        assert not Store.merge(base, [s1, s2]).is_consistent()

    def test_sibling_agreement_is_no_clash(self):
        base = Store.new(["X"])
        s1, s2 = base.branch(), base.branch()
        tell(s1, 0, C("X = a"))
        tell(s2, 0, C("X = a"))
        out = Store.merge(base, [s1, s2])
        assert out.is_consistent() and ask(out, 0, C("X = a"))

    def test_sibling_streams_merge_pointwise(self):
        base = Store.new(["X", "T"])
        s1, s2 = base.branch(), base.branch()
        tell(s1, 0, C("X = [a | T]"))
        tell(s2, 0, C("X = [_ | [b | _]]"))
        out = Store.merge(base, [s1, s2])
        assert out.is_consistent()
        assert ask(out, 0, C("X = [a | [b | _]]"))
        assert ask(out, 0, C("T = [b | _]"))

    def test_cross_snapshot_cycle_is_inconsistent_in_both_orders(self):
        for flip in (False, True):
            base = Store.new(["X", "Y"])
            s1, s2 = base.branch(), base.branch()
            tell(s1, 0, C("X = [a | Y]"))
            tell(s2, 0, C("Y = [b | X]"))
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
            base = Store.new(["X", "Y", "Z", "T"])
            snaps = []
            for text in picked:
                s = base.branch()
                tell(s, 0, C(text))
                snaps.append(s)
            fwd = Store.merge(base, snaps)
            rev = Store.merge(base, list(reversed(snaps)))
            assert fwd.is_consistent() == rev.is_consistent()
            for p in probes:
                assert ask(fwd, 0, C(p)) == ask(rev, 0, C(p)), (picked, p)

    def test_nested_merge_keeps_inner_writes(self):
        base = Store.new(["X", "Y"])
        mid = base.branch()
        tell(mid, 0, C("X = [a | _]"))
        inner1, inner2 = mid.branch(), mid.branch()
        tell(inner1, 0, C("Y = 1"))
        tell(inner2, 0, C("X = [_ | [b | _]]"))
        merged_mid = Store.merge(mid, [inner1, inner2])
        out = Store.merge(base, [merged_mid])
        assert ask(out, 0, C("X = [a | [b | _]]"))
        assert ask(out, 0, C("Y = 1"))

    def test_scope_growth_survives_a_sibling_clash(self):
        base = Store.new(["X"])
        s1, s2 = base.branch(), base.branch()
        nid = s1.add_scope(EXISTS, 0, {"L": s1.new_cell()})
        tell(s1, nid, C("L = on"))
        tell(s2, 0, C("X = a"))
        tell(s2, 0, C("X = b"))
        out = Store.merge(base, [s1, s2])
        assert not out.is_consistent()
        assert out.scopes[nid].kind == "exists"
        assert ask(out, nid, C("L = on"))  # trivially, by inconsistency

    def test_seal_forgets_the_log_only(self):
        base = Store.new(["X"])
        snap = base.branch()
        tell(snap, 0, C("X = a"))
        out = Store.merge(base, [snap]).seal()
        assert out.write_log == {}
        assert ask(out, 0, C("X = a"))

    def test_merge_tells_each_new_row_once_at_the_widest_dims(self):
        base = Store.new(["X", "Y", "Z"])
        tell(base, 0, C("Z >= 0"))  # Z gets dimension 0
        tell(base, 0, C("X = Y"))
        widened, same1, same2, idle = snaps = [base.branch() for _ in range(4)]
        for s in (same1, same2):
            tell(s, 0, C("Z <= 5"))
        tell(widened, 0, C("X + 1 = Y + 1"))  # a dimension, no row
        assert widened.lin.rows == base.lin.rows
        assert widened.counts()["dims"] == 2 and same1.counts()["dims"] == 1
        (told,) = same1.lin.rows[len(base.lin.rows):]
        out = Store.merge(base, snaps)
        assert out.lin.rows == base.lin.rows + (told,)
        assert out.counts()["dims"] == 2
        assert ask(out, 0, C("Z <= 5")) and ask(out, 0, C("X = Y"))

    def test_a_snapshot_counts_its_own_dimensions_not_a_siblings(self):
        # like registers, dims is a length: one past the highest dimension
        # that the snapshot or its ancestors allocated
        base = Store.new(["X", "Y", "N"])
        tell(base, 0, C("N >= 0"))  # N gets dimension 0
        s1, s2 = base.branch(), base.branch()
        tell(s1, 0, C("X = N + 1"))  # X gets dimension 1
        tell(s2, 0, C("Y = N + 2"))  # Y gets dimension 2
        tell(s1, 0, C("X >= 0"))  # a row over its own dimensions only
        assert base.counts()["dims"] == 1
        assert s1.counts()["dims"] == 2 and s2.counts()["dims"] == 3
        assert '"dims":2,' in s1.dump()
        out = Store.merge(base, [s1, s2])
        assert out.counts()["dims"] == out.base.next_dim == 3
        assert ask(out, 0, C("Y = X + 1"))


# ------------------------------------------------- snapshot isolation

def grow(st, tag):
    """Tell cells, add a scope with variables and a call with parameters."""
    a = tag == "a"
    tell(st, 0, C("X = [a | _]" if a else "X = [_ | [b | _]]"))
    tell(st, 0, C("Y = 2" if a else "Y > 1"))
    nid = st.add_scope(EXISTS, 0, {name: st.new_cell() for name in "LM"})
    tell(st, nid, C(f"L = [{tag} | M]"))
    tell(st, nid, C("M = N + 1" if a else "M = off"))
    st.add_scope(PROC_CALL, 0, {
        "F": actual(st, ast.Var("X"), 0),
        "G": actual(st, parse_constraint("Z = Y + 3").lhs, 0),
    }, label=f"p_{tag}")


def wide(registers):
    """A sealed store with X among `registers` unbound registers."""
    return Store.new(["X"] + [f"V{k}" for k in range(registers - 1)]).seal()


def branch_and_tell_bytes(base, c):
    """Bytes allocated by branching base and telling c on the branch."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        snap = base.branch()
        tell(snap, 0, c)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestCopyOnWrite:
    """Each snapshot keeps its own changes, and branching costs nothing
    that grows with the store."""

    def test_an_asking_branch_copies_nothing(self):
        base = Store.new(["X"])
        base_dump = dump_doc(base)
        snap = base.branch()
        assert not ask(snap, 0, C("X = a"))
        tell(snap, 0, C("X = a"))
        assert ask(snap, 0, C("X = a"))
        assert dump_doc(base) == base_dump

    def test_a_branch_allocates_nothing_that_grows_with_its_base(self):
        c = C("X = a")
        small, large = wide(1000), wide(50000)
        assert large.counts()["registers"] == 50000
        branch_and_tell_bytes(small, c)  # warm up caches
        small_bytes = branch_and_tell_bytes(small, c)
        large_bytes = branch_and_tell_bytes(large, c)
        assert large_bytes < small_bytes + 1024, (small_bytes, large_bytes)

    def test_branches_of_an_unsealed_store_share_one_view(self):
        # the first branch builds the view of the store's own writes; the
        # branches after it allocate nothing that grows with those writes
        c = C("X = a")
        small, large = (Store.new(["X"] + [f"V{k}" for k in range(n - 1)])
                        for n in (1000, 50000))
        assert len(large.write_log) == 50000
        for st in (small, large):
            st.branch()
        branch_and_tell_bytes(small, c)  # warm up caches
        small_bytes = branch_and_tell_bytes(small, c)
        large_bytes = branch_and_tell_bytes(large, c)
        assert large_bytes < small_bytes + 1024, (small_bytes, large_bytes)

    def test_siblings_and_merge_leave_every_snapshot_as_it_was(self):
        base = Store.new(["X", "Y", "Z", "N"])
        base_dump = dump_doc(base)
        s1, s2 = base.branch(), base.branch()
        grow(s1, "a")
        s1_dump = dump_doc(s1)
        assert dump_doc(base) == base_dump
        grow(s2, "b")
        s2_dump = dump_doc(s2)
        assert dump_doc(base) == base_dump and dump_doc(s1) == s1_dump
        assert s1_dump != s2_dump != base_dump
        for snaps in ([s1, s2], [s2, s1]):
            out = Store.merge(base, snaps)
            assert out.is_consistent()
            assert ask(out, 0, C("X = [a | [b | _]]"))
            assert dump_doc(base) == base_dump
            assert dump_doc(s1) == s1_dump and dump_doc(s2) == s2_dump

    def test_writes_after_a_branch_stay_on_their_side(self):
        base = Store.new(["X", "Y"])
        snap = base.branch()
        # the parent writes last
        base.add_scope(EXISTS, 0, {"L": base.new_cell()})
        tell(base, 0, C("X = a"))
        assert not ask(snap, 0, C("X = a"))
        assert snap.counts() == {"nodes": 1, "registers": 2, "dims": 0}
        mid = snap.branch()
        inner = mid.branch()
        tell(mid, 0, C("Y = b"))
        assert not ask(inner, 0, C("Y = b"))

    def test_a_node_added_on_a_branch_stays_off_its_base(self):
        b = Store.new(["X"])
        b_dump = dump_doc(b)
        s = b.branch()
        nid = s.add_scope(EXISTS, 0, {"Q": s.new_cell()})
        assert dump_doc(b) == b_dump
        assert b.counts() == {"nodes": 1, "registers": 1, "dims": 0}
        out = Store.merge(b, [s])
        assert dump_doc(out)["scopes"][nid]["symbols"] == {"Q": 1}
        assert out.lookup(nid, "X") == 0
        assert dump_doc(b) == b_dump

    def test_a_slot_a_sibling_allocated_dumps_as_null(self):
        # a register, that is: a scope node is written once, so a sibling's
        # node dumps as itself
        base = Store.new(["X"])
        s1, s2 = base.branch(), base.branch()
        n1 = s1.add_scope(EXISTS, 0, {"L": s1.new_cell()})
        n2 = s2.add_scope(EXISTS, 0, {"M": s2.new_cell()})
        d = dump_doc(s2)
        assert d["scopes"][n1]["symbols"] == {"L": s1.lookup(n1, "L")}
        assert d["memory"][s1.lookup(n1, "L")] is None
        assert d["scopes"][n2]["symbols"] == {"M": s2.lookup(n2, "M")}
        for st in (s1, s2):
            d, counts = dump_doc(st), st.counts()
            assert (d["nodes"], d["registers"], d["dims"]) == \
                (counts["nodes"], counts["registers"], counts["dims"])
            assert (len(d["scopes"]), len(d["memory"])) == \
                (counts["nodes"], counts["registers"])

    def test_a_frozen_copy_outlives_the_next_seal(self):
        base = Store.new(["X"]).seal()
        kept = base.frozen()
        kept_dump = dump_doc(kept)
        snap = base.branch()
        nid = snap.add_scope(EXISTS, 0, {"Q": snap.new_cell()})
        tell(snap, nid, C("X = [a | Q]"))
        out = Store.merge(base, [snap]).seal()
        assert ask(out, 0, C("X = [a | _]"))
        assert dump_doc(out)["scopes"][nid]["symbols"] == {"Q": 1}
        assert dump_doc(kept) == kept_dump
        assert not ask(kept, 0, C("X = [a | _]"))

    def test_a_scope_a_frozen_copy_adds_stays_off_the_run(self):
        def the_run(add_to_kept):
            base = Store.new(["X"]).seal()
            kept = base.frozen()
            if add_to_kept:
                kept.add_scope(EXISTS, 0, {"K": kept.new_cell()})
                assert kept.counts()["nodes"] == 2
            snap = base.branch()
            nid = snap.add_scope(EXISTS, 0, {"Q": snap.new_cell()})
            tell(snap, nid, C("X = [a | Q]"))
            out = Store.merge(base, [base.branch(), snap])
            dumps = [st.dump() for st in (base, snap, out, out.seal())]
            return dumps, len(out.base.scopes)
        assert the_run(True) == the_run(False)

    def test_a_merge_that_shares_its_base_copies_before_writing(self):
        base = Store.new(["X"])
        snap = base.branch()
        ask(snap, 0, C("X = a"))
        out = Store.merge(base, [snap])
        base_dump = dump_doc(base)
        tell(out, 0, C("X = a"))
        out.add_scope(EXISTS, 0, {})
        assert dump_doc(base) == base_dump
        assert ask(out, 0, C("X = a"))

    def test_a_store_is_as_long_as_the_registers_and_nodes_it_sees(self):
        # what the benchmark's tracer reads on every branch(): a branch
        # with writes of its own, and the store that an instant whose
        # threads only asked commits, which is the store it began with
        snap = Store.new(["X"]).seal().branch()
        nid = snap.add_scope(EXISTS, 0, {"L": snap.new_cell()})
        tell(snap, nid, C("X = [a | L]"))
        config = initial_config(parse_program("", entry=(
            "tell(X = a) || ask(X = a) -> skip || ask(true) -> skip")))
        config = step(config, ChoicePolicy(), None)[1]
        asked = step(config, ChoicePolicy(), None)[1]
        assert asked.clock == 2 and asked.store is config.store
        for st in (snap, asked.store):
            assert (len(st.memory), len(st.scopes)) == \
                (st.n_cells, st.n_nodes) == (len(dump_doc(st)["memory"]),
                                             len(dump_doc(st)["scopes"]))
        assert (snap.n_cells, snap.n_nodes) == (4, 2)


# ------------------------------------------------ merge against replay

def both_ways(build):
    """Run build(merge) -> (base, siblings) on a fresh store once with
    `Store.merge` and once with the reference `replay_merge`, merge the
    siblings each way, and assert the two results dump alike; returns the
    `Store.merge` result, its base and siblings."""
    runs = []
    for merge in (Store.merge, replay_merge):
        base, snaps = build(merge)
        runs.append((merge(base, snaps), base, snaps))
    (out, _, _), (ref, _, _) = runs
    assert dump_doc(out) == dump_doc(ref)
    assert out.is_consistent() == ref.is_consistent()
    return runs[0]


def a_lone(kind):
    """build(merge) for one writer of the given kind beside an idle one."""
    def build(merge):
        base = Store.new(["X", "Y", "T", "N", "M"])
        tell(base, 0, C("X = [a | T]"))
        tell(base, 0, C("N >= 0"))  # N gets dimension 0
        if kind == "dims":
            tell(base, 0, C("Y = M"))  # linked, so one dimension serves both
        idle, snap = base.branch(), base.branch()
        ask(idle, 0, C("X = [a | _]"))
        if kind == "step_false":
            tell(snap, 0, C("X = b"))
        elif kind == "empty_scope":  # a call without formals
            snap.add_scope(PROC_CALL, 0, {}, label="z")
        elif kind == "dims":  # Y gets dimension 1 and tells no row
            tell(snap, 0, C("Y + 1 = M + 1"))
        elif kind == "ref_to_own_binding":
            s1, s2 = snap.branch(), snap.branch()
            tell(s1, 0, C("T = a"))
            tell(s2, 0, C("Y = T"))  # Y, older than T, refs T
            snap = merge(snap, [s1, s2])
        else:
            tell(snap, 0, C("T = [b | Y]"))
        return base, [idle, snap]
    return build


class TestMergeWriters:
    """Merging reads only own writes, drops idle siblings and adopts the
    first writer; each result dumps as the full replay of every sibling
    (`replay_merge`) would."""

    @pytest.mark.parametrize("kind", ["step_false", "empty_scope", "dims",
                                      "ref_to_own_binding", "stream"])
    def test_a_lone_writer_beside_an_idle_sibling(self, kind):
        out, base, (idle, snap) = both_ways(a_lone(kind))
        assert (snap.write_log or snap.n_nodes != base.n_nodes
                or snap.lin is not base.lin or not snap.is_consistent())
        if kind == "ref_to_own_binding":
            # replay turns the ref around, so adopting would print another
            # store: the writer's own cells are not the merged ones
            assert dump_doc(snap)["memory"] != dump_doc(out)["memory"]
        else:
            assert dump_doc(snap) == dump_doc(out)

    def test_writes_to_an_adopted_result_stay_off_the_snapshot(self):
        out, base, (idle, snap) = both_ways(a_lone("stream"))
        dumps = [dump_doc(st) for st in (base, idle, snap)]
        assert dump_doc(out) == dump_doc(snap)
        nid = out.add_scope(EXISTS, 0, {"L": out.new_cell()})
        tell(out, nid, C("Y = [L | _]"))
        tell(out, 0, C("M = 2"))
        assert [dump_doc(st) for st in (base, idle, snap)] == dumps
        assert ask(out, 0, C("Y = [_ | _]"))

    def test_an_idle_merge_keeps_the_base_writes(self):
        base = Store.new(["X"]).seal()
        mid = base.branch()
        nid = mid.add_scope(EXISTS, 0, {"L": mid.new_cell()})
        inner = Store.merge(mid, [mid.branch(), mid.branch()])
        out = Store.merge(base, [inner])
        assert dump_doc(out) == dump_doc(mid)
        assert out.lookup(nid, "L") == 1

    @settings(max_examples=400, deadline=None)
    @given(strat.data())
    def test_random_sibling_sets(self, data):
        prep = data.draw(strat.lists(strat.sampled_from(TELLS), max_size=1))
        sealed = data.draw(strat.booleans())
        scripts = data.draw(strat.lists(
            data.draw(strat.sampled_from(SCRIPTS)), max_size=3))

        def build(merge):
            base = Store.new(["X", "Y", "T", "U", "N", "M"])
            for text in prep:
                tell(base, 0, C(text))
            if sealed:
                base.seal()
            return base, [run_script(base.branch(), ops, merge)
                          for ops in scripts]

        out, base, snaps = both_ways(build)
        dumps = [dump_doc(st) for st in [base] + snaps]
        tell(out, 0, C("U = [z | _]"))
        assert [dump_doc(st) for st in [base] + snaps] == dumps

    @settings(max_examples=300, deadline=None)
    @given(strat.data())
    def test_a_lone_writer_adopted_in_place_dumps_as_merged(self, data):
        # a JOIN with one writer over a parent that has writes of its own
        # (an exists first) adopts it in place; a call of variables alone
        # may add a node to the parent after the writer branched
        prep = data.draw(strat.lists(strat.sampled_from(TELLS), max_size=1))
        sealed, later_node = data.draw(strat.booleans()), data.draw(
            strat.booleans())
        scripts = data.draw(strat.sampled_from(SCRIPTS))
        own = [("exists", data.draw(strat.sampled_from(SCOPED)))]
        own += data.draw(scripts)
        base = Store.new(["X", "Y", "T", "U", "N", "M"])
        for text in prep:
            tell(base, 0, C(text))
        if sealed:
            base.seal()
        parent = run_script(base.branch(), own, Store.merge)
        writer = run_script(parent.branch(), data.draw(scripts), Store.merge)
        if later_node:
            parent.add_scope(PROC_CALL, 0, {}, label="z")
        assume(writer.adoptable(parent.n_cells))
        merged = dump_doc(Store.merge(parent, [writer]))
        adopted = writer.adopt(parent)
        assert dump_doc(adopted) == merged
        assert dump_doc(adopted.seal()) == merged  # its writes, not its view


def siblings(*tells, prep=()):
    """build(merge) for one sibling per list of `tells` over one sealed
    base, told `prep` first."""
    def build(merge):
        base = Store.new(["X", "Y", "T", "U", "N", "M"])
        for text in prep:
            tell(base, 0, C(text))
        base.seal()
        snaps = [base.branch() for _ in tells]
        for snap, texts in zip(snaps, tells):
            for text in texts:
                tell(snap, 0, C(text))
        return base, snaps
    return build


class TestMergeAcrossSiblings:
    """A later sibling's older registers are unified with the merged store,
    through ref chains onto an earlier sibling's bindings or onto unbound
    ends, with the occurs check; in every order of the siblings, the
    result dumps as the replay of `replay_merge`."""

    @pytest.mark.parametrize("tells, prep, consistent", [
        ((["X = a"], ["X = b"]), (), False),
        ((["X = a"], ["X = a"]), (), True),
        ((["X = [a | T]"], ["X = [b | U]"]), (), False),
        ((["Y = a"], ["X = Y"]), (), True),
        ((["X = a"], ["Y = X"]), (), True),
        ((["T = a"], ["Y = [b | U]"]), ("Y = T",), False),
        ((["U = a"], ["Y = [b | U]"]), ("Y = T",), True),
        ((["X = Y"], ["Y = [b | U]"]), (), True),
        ((["Y = X"], ["X = [a | Y]"]), (), False),
        ((["U = T"], ["X = [a | [b | U]]", "T = X"]), (), False),
        ((["X = a"], ["X = 3"]), (), False),
        ((["N = 3"], ["N = a"]), (), False),
    ], ids=["same-register", "same-register-agreeing", "same-register-cons",
            "ref-to-a-register-a-sibling-bound", "ref-from-a-newer-register",
            "through-a-chain-onto-a-binding", "through-a-chain-unbound",
            "through-a-siblings-ref",
            "occurs-cycle", "occurs-cycle-deeper", "atom-against-number",
            "number-against-atom"])
    def test_explicit_siblings(self, tells, prep, consistent):
        for order in (tells, tells[::-1]):
            out, base, snaps = both_ways(siblings(*order, prep=prep))
            assert out.is_consistent() == consistent

    @settings(max_examples=300, deadline=None)
    @given(strat.data())
    def test_random_flat_siblings(self, data):
        prep = data.draw(strat.lists(strat.sampled_from(TELLS), max_size=2))
        tells = data.draw(strat.lists(strat.lists(
            strat.sampled_from(TELLS + SIBLING_TELLS), min_size=1, max_size=3),
            min_size=2, max_size=4))
        both_ways(siblings(*tells, prep=prep))


SIBLING_TELLS = ["X = b", "X = 3", "Y = [b | T]", "U = [a | X]", "T = X",
                 "Y = [a | [b | U]]", "M = a"]
TELLS = ["X = Y", "Y = T", "T = U", "X = U", "Y = a", "T = a", "U = b",
         "X = [a | T]", "T = [b | U]", "X = [Y | U]", "U = [Y | X]", "X = a",
         "N = 3", "N + M = 2", "N > 1", "M = N + 1", "N + 1 = N + 1", "Y = N"]
# bindings and aliases alone: a thread that binds a register and refs an
# older one to it shows whether the merge replays it
BINDINGS = TELLS[:7]
SCOPED = ["L = X", "L = [a | Y]", "X = [L | _]", "L = N + 1", "T = [L | L]",
          "L = U"]


# stream equations over stream and numeric names: shared substructure,
# `_` positions, refs, unbound pairs, and atom, number and dvar leaves
STREAMS, NUMBERS = ["X", "Y", "T", "U"], ["N", "M", "K"]
NAMES = STREAMS + NUMBERS


def lists_of(leaves):
    terms = strat.recursive(
        strat.sampled_from(leaves),
        lambda terms: strat.builds("[{} | {}]".format, terms, terms),
        max_leaves=4)
    return strat.builds("[{} | {}]".format, terms, terms)


ASK_EQS = strat.builds("{} = {}".format, strat.sampled_from(NAMES),
                       strat.one_of(strat.sampled_from(NAMES + ["_", "a"]),
                                    lists_of(NAMES + ["_", "a", "b", "3"])))
# N = 3, M = 4 and K = 3 once all are told
NUMERIC = ["N = 3", "M = N + 1", "N > 1", "M >= 2", "N + M = 7", "K = N",
           "K >= 3"]
VALUES = str.maketrans({"N": "3", "M": "4", "K": "3"})
NAME_PAIRS = [f"{x} = {y}" for x in NAMES for y in NAMES if x < y]
ASK_TELL = strat.tuples(strat.just("tell"), strat.one_of(
    strat.builds("{} = {}".format, strat.sampled_from(STREAMS),
                 lists_of(NAMES + ["_", "a"])).filter(
        lambda eq: eq[0] not in eq[1:]),  # not a cycle by itself
    strat.sampled_from(NUMERIC + ["X = Y", "T = U"])))
ASK_SCRIPT = strat.lists(strat.one_of(ASK_TELL, strat.tuples(
    strat.just("par"), strat.lists(strat.lists(ASK_TELL, max_size=3),
                                   min_size=1, max_size=3))), max_size=6)


def scripts_of(tells):
    """Scripts for `run_script` whose tells come from `tells`."""
    op = strat.one_of(
        strat.tuples(strat.just("tell"), strat.sampled_from(tells)),
        strat.tuples(strat.just("exists"), strat.sampled_from(SCOPED)),
        strat.just(("call",)))
    return strat.recursive(
        strat.lists(op, max_size=2),
        lambda scripts: strat.lists(strat.one_of(strat.tuples(
            strat.just("par"), strat.lists(scripts, min_size=1, max_size=3)),
            op), max_size=3),
        max_leaves=10)


SCRIPTS = [scripts_of(TELLS), scripts_of(BINDINGS)]


def run_script(st, ops, merge):
    """Run ops on store st as one thread of an instant; ("par", scripts)
    runs each script on its own branch and merges them with `merge`."""
    for op in ops:
        if op[0] == "tell":
            tell(st, 0, C(op[1]))
        elif op[0] == "exists":
            nid = st.add_scope(EXISTS, 0, {"L": st.new_cell()})
            tell(st, nid, C(op[1]))
        elif op[0] == "call":
            st.add_scope(PROC_CALL, 0, {}, label="z")
        else:
            st = merge(st, [run_script(st.branch(), s, merge) for s in op[1]])
    return st


def compact(st):
    return json.dumps(dump_doc(st), separators=(",", ":"))


class TestDumpMemo:
    """`dump(memo)` is the compact JSON of `dump()`, whatever the memo
    rendered before: of the same run, another run or a snapshot with
    writes that no seal has logged."""

    def test_a_live_snapshot_dumped_before_and_after_it_grows(self):
        base = Store.new(["X", "Y"]).seal()
        snap = base.branch()
        nid = snap.add_scope(EXISTS, 0, {"L": snap.new_cell()})
        memo = DumpMemo()
        before = snap.dump(memo)
        assert before == compact(snap)
        inner = snap.add_scope(EXISTS, nid, {"M": snap.new_cell()})
        tell(snap, inner, C("L = [a | M]"))
        tell(snap, 0, C("X = Y + 1"))
        after = snap.dump(memo)
        assert after == compact(snap) != before
        scopes = json.loads(after)["scopes"]
        assert (scopes[nid]["symbols"], scopes[inner]["symbols"]) == \
            ({"L": 2}, {"M": 3})

    def test_slots_a_sibling_allocated_turn_null_and_back(self):
        base = Store.new(["X"])
        s1, s2 = base.branch(), base.branch()
        for st, name in ((s1, "L"), (s2, "M")):
            st.add_scope(EXISTS, 0, {name: st.new_cell()})
            tell(st, 0, C(f"X = [{name.lower()} | _]"))
        memo = DumpMemo()
        for st in (s2, s1, s2, base, s1):
            text = st.dump(memo)
            assert text == compact(st)
        assert json.loads(s2.dump(memo))["memory"][1] is None

    def test_a_seal_over_an_inherited_view_logs_it(self):
        """A store sealed over its parent's view logs the parent's writes
        with its own, so one memo prints it, the store before and it
        again as fresh dumps."""
        root = Store.new(["X", "Y"]).seal()
        before, memo = root.frozen(), DumpMemo()
        assert before.dump(memo) == compact(before)
        parent = root.branch()
        tell(parent, 0, C("X = a"))
        child = parent.branch()
        tell(child, 0, C("Y = b"))
        child.seal()
        for st in (child, before, child):
            assert st.dump(memo) == compact(st)
        assert json.loads(child.dump(memo))["memory"] == [
            {"kind": "const", "value": "a"}, {"kind": "const", "value": "b"}]

    def test_a_dump_without_a_memo_is_the_same_text(self):
        base = Store.new(["X", "N"])
        snap = base.branch()
        nid = snap.add_scope(EXISTS, 0, {"L": snap.new_cell()})
        tell(snap, nid, C("X = [L | _]"))
        tell(snap, 0, C("2 * N = 1"))
        for st in (base, snap):
            assert st.dump() == compact(st)


# ------------------------------------------------------- long streams

LONG = 3000  # cells per stream: far past Python's default recursion limit


def tell_stream(st, scope, var, values):
    """Tell var = [v0, v1, ... | nil] one cell per tell, through fresh tail
    variables, so that no single tell or term is deep."""
    node = st.add_scope(EXISTS, scope,
                        {f"T{k}": st.new_cell() for k in range(len(values))})
    prev = var
    for k, v in enumerate(values):
        tell(st, node, C(f"{prev} = [{v} | T{k}]"))
        prev = f"T{k}"
    tell(st, node, C(f"{prev} = nil"))


def long_values(same):
    """The elements of V, and those of W: equal, or the last one changed."""
    values = list(range(LONG))
    return values, values if same else values[:-1] + [-1]


@pytest.mark.parametrize("same", [True, False], ids=["equal", "last_differs"])
class TestLongStreams:
    def test_tell_walks_both_streams(self, same):
        v, w = long_values(same)
        st = Store.new(["V", "W"])
        tell_stream(st, 0, "V", v)
        tell_stream(st, 0, "W", w)
        registers = st.counts()["registers"]
        tell(st, 0, C("V = W"))
        assert st.is_consistent() == same
        assert st.counts()["registers"] == registers

    def test_ask_walks_both_streams(self, same):
        v, w = long_values(same)
        st = Store.new(["V", "W"])
        tell_stream(st, 0, "V", v)
        tell_stream(st, 0, "W", w)
        assert ask(st, 0, C("V = W")) == same
        assert st.is_consistent()

    def test_merge_walks_both_streams(self, same):
        v, w = long_values(same)
        for flip in (False, True):
            base = Store.new(["V", "W"])
            told, built = base.branch(), base.branch()
            tell(told, 0, C("V = W"))
            tell_stream(built, 0, "V", v)
            tell_stream(built, 0, "W", w)
            assert told.is_consistent() and built.is_consistent()
            snaps = [built, told] if flip else [told, built]
            out = Store.merge(base, snaps)
            assert out.is_consistent() == same
            if same:
                assert ask(out, 0, C("V = W"))


# -------------------------------------------------------- the call law

class TestParameterLaw:
    def test_formal_and_actual_answer_alike(self):
        assert check_parameter_law(random.Random(23), 120) == 120
