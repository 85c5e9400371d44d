"""`run(..., every=M)` keeps only the trace steps that `--dump-every M`
prints, stores taken during a run never change afterwards, and a run that
keeps only its final step holds far less memory than one that keeps all.
One sha256 pins the jsonl bytes of the generated programs' full traces,
rendered through one `DumpMemo` per run, and that memo's text matches a
fresh dump at every kept step.
"""

import hashlib
import json
import random
import tracemalloc

from importlib import resources

import pytest

from tccp import cli, interp
from tccp.cli import _jsonl_line
from tccp.interp import ChoicePolicy, run
from tccp.parser import parse_program
from tccp.store import DumpMemo, STREAM, _cell_text, _node_text
from support import FRACTIONAL, SPECIALISED, ProgramGen, dump_doc

# _jsonl_line reads `json`, which tccp.cli binds on first use, as main does
getattr(cli, "json")

PHOTOCOPIER_ENTRY = "initialize(MIdle) || tell(MIdle = 5)"
EVERY = (0, 1, 2, 3, 7)
POLICIES = ("first", "last", "random")


@pytest.fixture(scope="module")
def photocopier():
    text = (resources.files("tccp") / "programs" / "photocopier.tccp").read_text()
    return parse_program(text, entry=PHOTOCOPIER_ENTRY)


@pytest.fixture(scope="module")
def generated():
    rng = random.Random(2024)
    programs = []
    for _ in range(220):
        decls, entry = ProgramGen(rng).gen()
        programs.append(parse_program(decls, entry=entry))
    return programs


def reference_selection(trace, every):
    """Element k of the full trace when k % every == 0, plus the final
    element; every=0 selects the final element alone."""
    if every == 0:
        return [trace[-1]]
    picked = [el for k, el in enumerate(trace) if k % every == 0]
    if picked[-1] is not trace[-1]:
        picked.append(trace[-1])
    return picked


def observed(trace):
    return [(el.clock, el.status, el.agents,
             json.dumps(dump_doc(el.store), sort_keys=True)) for el in trace]


def policy_of(kind, i):
    return ChoicePolicy(kind, i if kind == "random" else None)


def check_every(program, steps, policy):
    full = run(program, steps, policy=policy)
    for every in EVERY:
        kept = run(program, steps, policy=policy, every=every)
        assert observed(kept) == observed(reference_selection(full, every)), \
            (steps, policy.kind, every)
    return full[-1]


class TestEvery:
    def test_generated_programs_under_each_policy(self, generated):
        ends = {}
        for kind in POLICIES:
            for i, program in enumerate(generated):
                last = check_every(program, 12, policy_of(kind, i))
                early = last.clock < 12
                ends[last.status, early] = ends.get((last.status, early), 0) + 1
        # runs that end before the budget, quiescent and failed, and runs
        # cut by it are all among them
        assert ends.get(("quiescent", True), 0) > 0
        assert ends.get(("failed", True), 0) > 0
        assert ends.get(("running", False), 0) > 0

    def test_zero_steps_keeps_the_initial_step(self, generated):
        for i, program in enumerate(generated):
            for kind in POLICIES:
                for every in EVERY:
                    kept = run(program, 0, policy=policy_of(kind, i),
                               every=every)
                    assert [el.clock for el in kept] == [0]
                    assert kept[0].status == "running"

    def test_photocopier(self, photocopier):
        # 60 is a multiple of 2 and 3, not of 7
        for kind in ("first", "last"):
            last = check_every(photocopier, 60, ChoicePolicy(kind))
            assert (last.clock, last.status) == (60, "running")

    def test_the_final_step_is_kept_off_the_stride(self, photocopier):
        kept = run(photocopier, 20, policy=ChoicePolicy("last"), every=7)
        assert [el.clock for el in kept] == [0, 7, 14, 20]
        assert [el.status for el in kept] == ["running"] * 4


class TestSnapshotsStayPut:
    def test_no_later_instant_mutates_an_earlier_store(self, generated,
                                                       monkeypatch):
        eager = {}
        real_step = interp.step

        def step(config, policy, rng):
            if config.clock not in eager:
                eager[config.clock] = dump_doc(config.store)
            moved, new = real_step(config, policy, rng)
            if moved:
                eager[new.clock] = dump_doc(new.store)
            return moved, new

        monkeypatch.setattr(interp, "step", step)
        for kind in POLICIES:
            for i, program in enumerate(generated):
                eager.clear()
                for el in run(program, 12, policy=policy_of(kind, i)):
                    assert dump_doc(el.store) == eager[el.clock], (kind, i)


def test_committed_stores_count_every_dimension_of_the_run(generated):
    """After every step that moves, the committed store counts each
    dimension that the run allocated, a merged sibling's included."""
    allocating = 0
    for kind in POLICIES:
        for i, program in enumerate(generated):
            policy = policy_of(kind, i)
            rng, config = policy.make_rng(), interp.initial_config(program)
            for _ in range(12):
                moved, config = interp.step(config, policy, rng)
                if not moved:
                    break
                store = config.store
                assert store.counts()["dims"] == store.base.next_dim, (kind, i)
            allocating += config.store.base.next_dim > 0
    assert allocating == 233


def compact(store):
    return json.dumps(dump_doc(store), separators=(",", ":"))


# the kept steps of a trace of k, in the orders one memo dumps them: as
# `tccp run` does, backwards, and forwards twice (the memo's mark moves
# back to the start and repeats every step)
DUMP_ORDERS = {"forward": lambda k: range(k),
               "reversed": lambda k: range(k - 1, -1, -1),
               "forward twice": lambda k: [*range(k), *range(k)]}


def test_a_run_memo_renders_each_kept_step_as_a_fresh_dump(generated):
    """`dump(memo)` with one memo for the run, against json.dumps of the
    memo-free `dump()`, with the kept steps dumped in each of
    `DUMP_ORDERS`."""
    for kind in POLICIES:
        for i, program in enumerate(generated):
            for every in (1, 3, 7):
                trace = run(program, 12, policy=policy_of(kind, i),
                            every=every)
                fresh = [compact(el.store) for el in trace]
                for order, steps in DUMP_ORDERS.items():
                    memo = DumpMemo()
                    for k in steps(len(trace)):
                        assert trace[k].store.dump(memo) == fresh[k], \
                            (kind, i, every, order, trace[k].clock)


def test_a_memo_dumps_a_live_snapshot_then_the_next_kept_store():
    """A mid-instant snapshot's own writes are in no change log: the memo
    that printed them renders the next kept store afresh, where the
    snapshot's binding of Z is unbound and its new register is null."""
    program = parse_program(
        "walk(S, Z) :- exists T (tell(S = [a | T]) || walk(T, Z)).",
        entry="walk(S, Z)")
    policy = ChoicePolicy("first")
    rng, config = policy.make_rng(), interp.initial_config(program)
    memo = DumpMemo()
    for _ in range(3):
        config = interp.step(config, policy, rng)[1]
        kept = config.store.frozen()
        assert kept.dump(memo) == compact(kept)
    snap = config.store.branch()
    z = snap.lookup(0, "Z")
    snap.add_constraint((STREAM, 0, ("const", "b")), (z,))
    new = snap.new_cell()
    assert snap.dump(memo) == compact(snap)
    config = interp.step(config, policy, rng)[1]
    kept = config.store.frozen()
    assert kept.dump(memo) == compact(kept)
    memory = json.loads(kept.dump(memo))["memory"]
    assert (memory[z], memory[new]) == ({"kind": "unbound"}, None)


def test_a_memo_renders_each_changed_register_once(monkeypatch, capsys):
    """`tccp run --dump-every 1` on the photocopier encodes a register
    once per line on which its cell differs from the line before (or is
    new), and each scope node once."""
    calls = {"cell": 0, "node": 0}

    def counted(key, render):
        def call(x):
            calls[key] += 1
            return render(x)
        return call

    monkeypatch.setattr("tccp.store._cell_text", counted("cell", _cell_text))
    monkeypatch.setattr("tccp.store._node_text", counted("node", _node_text))
    program = resources.files("tccp") / "programs" / "photocopier.tccp"
    assert cli.main(["run", "--program", str(program),
                     "--entry", "initialize(MIdle) || tell(MIdle = 8)",
                     "--steps", "500", "--policy", "last",
                     "--format", "jsonl", "--dump-every", "1"]) == 0
    lines = [json.loads(x)["store"] for x in capsys.readouterr().out.split(
        "\n") if x]
    changed, before = 0, []
    for line in lines:
        changed += sum(k >= len(before) or cell != before[k]
                       for k, cell in enumerate(line["memory"]))
        before = line["memory"]
    assert len(lines) == 501
    assert calls == {"cell": changed, "node": len(lines[-1]["scopes"])} \
        == {"cell": 1917, "node": 503}


def test_each_kept_instruction_is_printed_once(monkeypatch, capsys):
    """`tccp run --dump-every 1` on the photocopier pretty-prints the
    agent of each instruction that a kept instant runs once per run,
    however many lines show it, and prints the bytes it printed when
    every line printed its agents anew (sha256 recorded then)."""
    printed = []

    def counted(agent):
        printed.append(agent)
        return interp.ast.pretty_agent(agent)

    monkeypatch.setattr("tccp.interp.pretty_agent", counted)
    program = resources.files("tccp") / "programs" / "photocopier.tccp"
    assert cli.main(["run", "--program", str(program),
                     "--entry", "initialize(MIdle) || tell(MIdle = 8)",
                     "--steps", "500", "--policy", "last",
                     "--format", "jsonl", "--dump-every", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 501
    assert len(printed) == len({id(a) for a in printed}) == 9
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8b2c4f5e3e03f28913e38c6fea9e115495c829562d6d6830e02aa327a6c03337")


def test_one_memo_across_two_runs_the_second_shorter(photocopier,
                                                     generated):
    memo = DumpMemo()
    runs = (run(photocopier, 30, policy=ChoicePolicy("last"), every=10),
            run(generated[0], 12))
    for trace in runs:
        for el in trace:
            assert el.store.dump(memo) == compact(el.store)
    assert runs[1][-1].store.counts()["registers"] < \
        runs[0][-1].store.counts()["registers"]


def test_keeping_only_the_final_step_needs_a_quarter_of_the_memory(
        photocopier):
    def peak(every):
        tracemalloc.start()
        try:
            run(photocopier, 1000, every=every)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    full, final_only = peak(1), peak(0)
    assert final_only < full / 4, (final_only, full)


GENERATED_JSONL_SHA256 = (
    "e7526dc8014f9d666f9505a1e9af9b6a0e19728d808a0ec69266ff60e730bf9d")


def test_generated_jsonl_bytes_are_pinned(generated):
    """One sha256 over the full jsonl traces (12 instants, every instant)
    of the 220 generated programs under each policy: the store's output,
    byte for byte, on a few thousand small instants. Each run renders
    through one memo, as `tccp run` does."""
    h = hashlib.sha256()
    for kind in POLICIES:
        for i, program in enumerate(generated):
            memo = DumpMemo()
            for el in run(program, 12, policy=policy_of(kind, i)):
                h.update(_jsonl_line(el, memo).encode() + b"\n")
    assert h.hexdigest() == GENERATED_JSONL_SHA256


SPECIALISED_JSONL_SHA256 = (
    "7aafc2813d67730c38cfa789f6f38028ffd4859cb4cd9734ae69acd0149ee9d0")


def policies_sha256(programs):
    """One sha256 over the full jsonl traces (12 instants, every instant)
    of (declarations, entry) pairs under each policy."""
    h = hashlib.sha256()
    for kind in POLICIES:
        for i, (decls, entry) in enumerate(programs):
            memo = DumpMemo()
            program = parse_program(decls, entry=entry)
            for el in run(program, 12, policy=policy_of(kind, i)):
                h.update(_jsonl_line(el, memo).encode() + b"\n")
    return h.hexdigest()


def test_specialised_forms_jsonl_bytes_are_pinned():
    assert policies_sha256(SPECIALISED) == SPECIALISED_JSONL_SHA256


FRACTIONAL_JSONL_SHA256 = (
    "eb7eed629216fc2d0b9d783965e836db76d7d02e75c3927dd4878446d2bb1d1f")


def test_fractional_numerics_jsonl_bytes_are_pinned():
    """Asks and failures that turn on solved values that are not
    integers."""
    assert policies_sha256(FRACTIONAL) == FRACTIONAL_JSONL_SHA256


# Choices that list one guard several times: the photocopier's user and
# a walker over a stream of atoms; (declarations, entry, steps).
REPEATED_GUARDS = [
    ((resources.files("tccp") / "programs" / "photocopier.tccp").read_text(),
     PHOTOCOPIER_ENTRY, 40),
    ("g(X, S) :- exists T (tell(S = [X | T])"
     " || (ask(X = a) -> g(b, T) + ask(X = a) -> g(a, T) + ask(X = b) -> g(a, T)"
     " + ask(X = b) -> tell(T = nil) + ask(true) -> g(X, T)"
     " + ask(X = a) -> skip)).",
     "g(a, S)", 30),
]

REPEATED_GUARDS_JSONL_SHA256 = (
    "e4c79d1f8f5416b8261ae0fe46847b3100a9b21063b2d75ca3be61b7dd9ed0db")


def test_repeated_guards_jsonl_bytes_are_pinned():
    """One sha256 over the full jsonl traces of `REPEATED_GUARDS` under
    --policy first, last, and random with seeds 0 to 9: the choice a
    policy makes does not depend on how often a guard is asked."""
    policies = [ChoicePolicy("first"), ChoicePolicy("last")] + [
        ChoicePolicy("random", seed) for seed in range(10)]
    h = hashlib.sha256()
    for decls, entry, steps in REPEATED_GUARDS:
        program = parse_program(decls, entry=entry)
        for policy in policies:
            memo = DumpMemo()
            for el in run(program, steps, policy=policy):
                h.update(_jsonl_line(el, memo).encode() + b"\n")
    assert h.hexdigest() == REPEATED_GUARDS_JSONL_SHA256
