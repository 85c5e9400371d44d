"""Step semantics: synchrony, per-form move behavior, choice policies,
statuses and trace shape."""

import json
from collections import Counter
from importlib import resources

import pytest

from tccp.interp import ChoicePolicy, initial_config, run, step
from tccp.parser import parse_constraint, parse_program
from tccp.store import Store
from support import ask, dump_doc


def P(entry, decls=""):
    return parse_program(decls, entry=entry)


def trace_of(entry, steps=10, decls="", policy=None):
    return run(P(entry, decls), steps, policy=policy)


def holds(el, text):
    return ask(el.store, 0, parse_constraint(text))


def dumps(trace):
    return [json.dumps(dump_doc(el.store), sort_keys=True) for el in trace]


# -------------------------------------------------------------- synchrony

class TestSynchrony:
    def test_tell_lands_on_the_next_instant(self):
        t = trace_of("tell(X = a)")
        assert not holds(t[0], "X = a")
        assert holds(t[1], "X = a")
        assert [el.status for el in t] == ["running", "quiescent"]

    def test_guards_read_the_entering_store(self):
        # the ask sees the X told in the same instant only one tick later
        t = trace_of("tell(X = a) || ask(X = a) -> tell(Y = b)")
        assert holds(t[1], "X = a") and not holds(t[1], "Y = b")
        assert not holds(t[2], "Y = b")  # branch fired, body runs next
        assert holds(t[3], "Y = b")
        assert t[-1].status == "quiescent" and t[-1].clock == 3

    def test_now_reads_the_entering_store_too(self):
        t = trace_of("tell(X = a) || now X = a then tell(Y = on) else tell(Y = off)")
        assert holds(t[1], "X = a")
        assert holds(t[1], "Y = off") and not holds(t[1], "Y = on")

    def test_parallel_components_are_isolated_within_the_instant(self):
        # both see X unbound; their numeric readings merge afterwards
        t = trace_of("tell(X = 3) || tell(X = 3)")
        assert t[-1].status == "quiescent"
        assert holds(t[1], "X = 3")

    def test_first_numeric_tells_in_parallel_get_a_dimension_each(self):
        # docs/accounting.md: each branch allocates a dimension for the
        # fresh M, and the merge equates the second with the first
        t = trace_of("tell(M >= 1) || tell(M <= 3)")
        assert [el.status for el in t] == ["running", "quiescent"]
        assert t[-1].store.dump() == (
            '{"consistent":true,"nodes":1,"registers":1,"dims":2,'
            '"scopes":[{"id":0,"parent":null,"kind":"root","label":"",'
            '"symbols":{"M":0}}],"memory":[{"kind":"dvar","dim":0}],'
            '"lin":["-D_0 <= -1","D_1 <= 3","D_0 - D_1 = 0"]}')

    def test_conflicting_same_instant_tells_fail(self):
        t = trace_of("tell(X = 1) || tell(X = 2)")
        assert [el.status for el in t] == ["running", "failed"]
        t2 = trace_of("tell(X = a) || tell(X = b)")
        assert t2[-1].status == "failed"

    def test_tells_inside_nested_groups_land(self):
        # regression: a grouped parallel hands back a merged snapshot,
        # which must itself be merged rather than its pre-branch shell
        t = trace_of("(skip || tell(X = 1)) || tell(Y = 2)")
        assert holds(t[1], "X = 1") and holds(t[1], "Y = 2")
        t2 = trace_of("(now true then (tell(A = 1) || tell(B = 2))) || skip")
        assert holds(t2[1], "A = 1") and holds(t2[1], "B = 2")


# -------------------------------------------------------- per-form moves

class TestMoves:
    def test_skip_never_moves(self):
        t = trace_of("skip", steps=5)
        assert len(t) == 1 and t[0].status == "quiescent"

    def test_suspended_choice_never_commits(self):
        # in the second, an exists makes a scope before its choice suspends
        for entry, residual, moves in (
                ("ask(X = a) -> skip", "ask(X = a) -> skip", 0),
                ("ask(true) -> exists L (ask(L = a) -> skip)",
                 "exists L (ask(L = a) -> skip)", 1)):
            t = trace_of(entry, steps=5)
            assert len(t) == 1 + moves and t[-1].status == "quiescent"
            assert t[-1].agents == (residual,)
            config = initial_config(P(entry))
            for _ in range(moves):
                config = step(config, ChoicePolicy(), None)[1]
            before = config.store.dump(), config.store.counts()
            moved, config = step(config, ChoicePolicy(), None)
            assert not moved
            assert (config.store.dump(), config.store.counts()) == before

    def test_now_moves_even_into_skip(self):
        t = trace_of("now X = a then skip", steps=5)
        assert len(t) == 2
        assert [el.status for el in t] == ["running", "quiescent"]

    def test_now_unwraps_a_stuck_branch_to_its_residual(self):
        t = trace_of("now X = a then skip else (ask(Y = b) -> skip)", steps=5)
        # instant 1 commits the now; the bare choice is the residual
        assert len(t) == 2
        assert t[1].agents == ("ask(Y = b) -> skip",)
        assert t[1].status == "quiescent"

    def test_unwrapped_residual_can_fire_later(self):
        t = trace_of("now X = a then skip else (ask(Y = b) -> tell(Z = c))"
                     " || tell(Y = b)")
        assert holds(t[1], "Y = b")
        assert not holds(t[2], "Z = c")
        assert holds(t[3], "Z = c")
        assert t[-1].status == "quiescent"

    def test_exists_runs_its_body_in_the_same_instant(self):
        t = trace_of("exists L (tell(L = on) || tell(X = L))")
        assert holds(t[1], "X = on")

    def test_call_takes_one_instant_before_the_body_tells(self):
        t = trace_of("p(X)", decls="p(F) :- tell(F = a).")
        assert not holds(t[1], "X = a")
        assert holds(t[2], "X = a")
        assert [el.status for el in t] == ["running", "running", "quiescent"]

    def test_call_scope_grows_one_node(self):
        t = trace_of("p(X)", decls="p(F) :- skip.")
        assert t[1].store.counts()["nodes"] == t[0].store.counts()["nodes"] + 1

    def test_recursion_is_clocked(self):
        # one unfolding per instant, stream grows one element per instant
        t = trace_of("count(X)",
                     decls="count(S) :- exists T (tell(S = [tick | T]) || count(T)).",
                     steps=4)
        assert t[-1].status == "running"
        assert holds(t[2], "X = [tick | _]")
        assert holds(t[4], "X = [tick | [tick | _]]")
        assert not holds(t[2], "X = [tick | [tick | _]]")


# ----------------------------------------------------------------- choice

class TestChoice:
    BOTH = "ask(true) -> tell(X = a) + ask(true) -> tell(X = b)"

    def test_first_policy(self):
        t = trace_of(self.BOTH, policy=ChoicePolicy("first"))
        assert holds(t[2], "X = a")

    def test_last_policy(self):
        t = trace_of(self.BOTH, policy=ChoicePolicy("last"))
        assert holds(t[2], "X = b")

    def test_random_policy_needs_no_reseeding_to_reproduce(self):
        a = trace_of(self.BOTH, policy=ChoicePolicy("random", seed=5))
        b = trace_of(self.BOTH, policy=ChoicePolicy("random", seed=5))
        assert dumps(a) == dumps(b)
        assert [el.status for el in a] == [el.status for el in b]

    def test_policies_agree_when_at_most_one_guard_is_enabled(self):
        entry = ("tell(X = a) || (ask(X = a) -> tell(Y = on)"
                 " + ask(X = b) -> tell(Y = off))")
        ts = [trace_of(entry, policy=ChoicePolicy(k, 3))
              for k in ("first", "last", "random")]
        assert dumps(ts[0]) == dumps(ts[1]) == dumps(ts[2])

    def test_only_entailed_guards_are_enabled(self):
        entry = ("tell(X = b) || (ask(X = a) -> tell(Y = on)"
                 " + ask(X = b) -> tell(Y = off))")
        t = trace_of(entry, policy=ChoicePolicy("first"))
        assert holds(t[3], "Y = off") and not holds(t[3], "Y = on")

    def test_each_distinct_guard_is_asked_once_per_try(self, monkeypatch):
        asked = []
        entails = Store.entails

        def counted(store, *args):
            asked.append(args)
            return entails(store, *args)

        monkeypatch.setattr(Store, "entails", counted)
        # the choice is tried at each of 4 instants, while tick moves
        t = trace_of("tick(S) || (ask(X = a) -> skip + ask(X = a) -> skip"
                     " + ask(X = b) -> skip)", steps=4,
                     decls="tick(S) :- exists T (tell(S = [t | T]) || tick(T)).")
        assert [el.status for el in t] == ["running"] * 5
        assert len(asked) == 2 * 4

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ChoicePolicy("alphabetical")


# ------------------------------------------------------------ trace shape

class TestTraceShape:
    def test_element_zero_is_the_pre_step_store(self):
        t = trace_of("tell(X = a)", steps=0)
        assert len(t) == 1 and t[0].clock == 0
        assert t[0].status == "running"
        assert t[0].agents == ("tell(X = a)",)

    def test_clocks_count_up_from_zero(self):
        t = trace_of("tell(X = a) || ask(X = a) -> tell(Y = b)")
        assert [el.clock for el in t] == list(range(len(t)))

    def test_earlier_runs_are_prefixes_of_longer_ones(self):
        entry = ("tell(X = a) || ask(X = a) -> tell(Y = b)"
                 " || now X = a then skip else (ask(Y = b) -> tell(Z = c))")
        long = trace_of(entry, steps=9)
        for k in range(1, 6):
            short = trace_of(entry, steps=k)
            n = len(short)
            assert dumps(short) == dumps(long[:n])
            assert [e.status for e in short][:n - 1] == \
                [e.status for e in long[:n - 1]]

    def test_no_entry_is_rejected(self):
        with pytest.raises(ValueError):
            run(parse_program("p :- skip."), 3)

    def test_failed_run_stops_immediately(self):
        t = trace_of("tell(X = 1) || tell(X = 2) || tell(Y = a)", steps=10)
        assert len(t) == 2 and t[-1].status == "failed"
        # the instant still committed everything it could
        st = t[1].store
        assert st.memory[st._deref(st.lookup(0, "Y"))[0]] == ("const", "a")

    def test_budget_exhaustion_reports_running(self):
        t = trace_of("count(X)",
                     decls="count(S) :- exists T (tell(S = [tick | T]) || count(T)).",
                     steps=3)
        assert len(t) == 4 and t[-1].status == "running"


# ------------------------------------------------------ snapshots per write

class TestSnapshotsPerWrite:
    def test_a_lone_writer_that_refs_an_older_register_it_bound(self):
        # the thread's one snapshot holds X -> Y, Y = a; committed as it
        # is, it would print that, not the replay's X = a, Y -> X
        st = trace_of("p(X, Y)", steps=5,
                      decls="p(X, Y) :- tell(Y = a) || tell(X = Y).")[-1].store
        x, y = st.lookup(0, "X"), st.lookup(0, "Y")
        assert x < y and (st.memory[x], st.memory[y]) == \
            (("const", "a"), ("ref", x))

    def test_photocopier_snapshot_merge_and_walk_counts(self, monkeypatch):
        # Store calls over 500 photocopier instants (MIdle = 8, --policy
        # last, every=0). With a snapshot per thread and a merge per frame,
        # these were 2 015 branches, 802 merges, 1 661 unifier walks and
        # 723 asks: a snapshot at the first write cut them to 1 316, 310,
        # 1 661 and 723. A call of variables alone branches nothing and a
        # lone writer is adopted without a merge, so the call's sibling
        # tell is no longer replayed; every tell still walks once.
        counts = Counter()

        def counted(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return call

        for name in ("branch", "_unify", "entails"):
            monkeypatch.setattr(Store, name,
                                counted(name, getattr(Store, name)))
        monkeypatch.setattr(Store, "merge",
                            staticmethod(counted("merge", Store.merge)))
        text = (resources.files("tccp") / "programs" / "photocopier.tccp"
                ).read_text()
        program = parse_program(
            text, entry="initialize(MIdle) || tell(MIdle = 8)")
        trace = run(program, 500, ChoicePolicy("last"), every=0)
        assert trace[-1].clock == 500
        assert counts == {"branch": 1015, "merge": 209, "_unify": 1660,
                          "entails": 723}
