"""Acceptance gate: seven end-to-end criteria, one test each.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion. Each test also prints the measured quantities it judged.
"""

import json
import random
import subprocess
import sys
import time

from fractions import Fraction
from importlib import resources

import pytest

from tccp.interp import ChoicePolicy, run
from tccp.linear import ls_add, ls_entails, ls_new, row
from tccp.oracle import o_run
from tccp.parser import parse_constraint, parse_program
from support import (
    ProgramGen, ask, check_parameter_law, check_projection_axioms,
    cli_child_env, dump_doc, machine_observables, oracle_observables,
    probe_set,
)
from test_goldens import GOLDENS, compare_golden

ENTRY = "initialize(MIdle) || tell(MIdle = 5)"


@pytest.fixture(scope="module")
def photocopier():
    text = (resources.files("tccp") / "programs" / "photocopier.tccp").read_text()
    return parse_program(text, entry=ENTRY)


def stream_heads(dump, idx):
    """Constants sitting at the heads of the list chain starting at idx."""
    mem = dump["memory"]
    deref = lambda i: deref(mem[i]["to"]) if mem[i]["kind"] == "ref" else i
    heads, seen = [], set()
    idx = deref(idx)
    while mem[idx]["kind"] == "functor" and idx not in seen:
        seen.add(idx)
        h = deref(mem[idx]["head"])
        heads.append(mem[h]["value"] if mem[h]["kind"] == "const" else None)
        idx = deref(mem[idx]["head"] + 1)
    return heads


def counter_rows():
    # D_0 = 5, D_1 = 4, ... D_5 = 0 as canonical rows
    return [row("=", {i: 1}, Fraction(i - 5)) for i in range(6)]


def test_c1_photocopier_end_state(photocopier):
    t0 = time.perf_counter()
    trace = run(photocopier, 30, policy=ChoicePolicy("last"))
    elapsed = time.perf_counter() - t0
    last = trace[-1].store
    d = dump_doc(last)
    assert d["consistent"] is True
    assert d["dims"] == 6

    # the linear system is exactly the counter values, up to equivalence
    expected = ls_new()
    for r in counter_rows():
        expected = ls_add(expected, r)
    assert all(ls_entails(last.lin, r) for r in counter_rows())
    assert all(ls_entails(expected, r) for r in last.lin.rows)

    # stop was announced on the state stream E
    init = next(n for n in d["scopes"]
                if n["kind"] == "proc_call" and n["label"] == "initialize")
    ex = next(n for n in d["scopes"]
              if n["kind"] == "exists" and n["parent"] == init["id"])
    heads = stream_heads(d, ex["symbols"]["E"])
    assert "stop" in heads

    assert elapsed < 1.0
    print(f"criterion 1 PASS: consistent, 6 dims, counter 5..0, "
          f"E heads {heads}, {elapsed * 1000:.0f} ms")


def test_c2_structure_trends(photocopier):
    counts = {}
    for steps in (30, 100, 500):
        trace = run(photocopier, steps, policy=ChoicePolicy("last"))
        counts[steps] = trace[-1].store.counts()
        assert counts[steps]["dims"] == 6
    c30, c100, c500 = counts[30], counts[100], counts[500]

    # linear growth: equal slopes on both intervals
    for key in ("nodes", "registers"):
        s1 = Fraction(c100[key] - c30[key], 70)
        s2 = Fraction(c500[key] - c100[key], 400)
        assert s1 == s2, (key, s1, s2)

    node_ratio = c500["nodes"] / c100["nodes"]
    reg_ratio = c500["registers"] / c100["registers"]
    assert abs(node_ratio - 417 / 85) <= 0.15 * (417 / 85)
    assert abs(reg_ratio - 1169 / 239) <= 0.15 * (1169 / 239)
    print(f"criterion 2 PASS: counts {c30} / {c100} / {c500}, "
          f"ratios {node_ratio:.3f} vs 4.906, {reg_ratio:.3f} vs 4.891")


def test_c3_golden_suite():
    for name in sorted(GOLDENS):
        compare_golden(name)
    print(f"criterion 3 PASS: {len(GOLDENS)} per-rule goldens bit-exact")


def test_c4_oracle_equivalence(photocopier):
    rng = random.Random(2024)
    for i in range(220):
        decls, entry = ProgramGen(rng).gen()
        program = parse_program(decls, entry=entry)
        probes = probe_set(program)
        m = machine_observables(
            run(program, 12, policy=ChoicePolicy("first")), probes)
        o = oracle_observables(
            o_run(program, 12, policy=ChoicePolicy("first")), probes)
        assert m == o, f"program {i}:\n{decls}\nentry: {entry}"

    probes = probe_set(photocopier)
    m = machine_observables(
        run(photocopier, 30, policy=ChoicePolicy("last")), probes)
    o = oracle_observables(
        o_run(photocopier, 30, policy=ChoicePolicy("last")), probes)
    assert m == o
    print("criterion 4 PASS: 220 generated programs + photocopier, "
          "0 disagreements")


def test_c5_store_axioms():
    n_stores = check_projection_axioms(random.Random(5), 500)
    n_setups = check_parameter_law(random.Random(23), 120)
    assert n_stores == 500 and n_setups == 120
    print(f"criterion 5 PASS: projection laws on {n_stores} stores, "
          f"parameter law on {n_setups} call setups")


def test_c6_determinism_and_synchrony(photocopier):
    path = str(resources.files("tccp") / "programs" / "photocopier.tccp")
    argv = [sys.executable, "-m", "tccp.cli", "run", "--program", path,
            "--entry", ENTRY, "--steps", "30", "--policy", "last",
            "--format", "jsonl"]
    outs = set()
    for i in range(5):
        r = subprocess.run(argv, capture_output=True, env=cli_child_env(i))
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert len(outs) == 1

    trace = run(parse_program("", entry="tell(X = a) || ask(X = a) -> tell(Y = b)"), 6)
    see = lambda k, c: ask(trace[k].store, 0, parse_constraint(c))
    assert not see(0, "X = a") and see(1, "X = a")
    assert not see(2, "Y = b") and see(3, "Y = b")
    print("criterion 6 PASS: 5 byte-identical jsonl runs, "
          "tells visible exactly one instant later")


def test_c7_performance(photocopier):
    t0 = time.perf_counter()
    trace = run(photocopier, 500, policy=ChoicePolicy("last"))
    lines = [json.dumps({"clock": el.clock, "status": el.status,
                         "store": dump_doc(el.store)}, separators=(",", ":"))
             for el in trace]
    elapsed = time.perf_counter() - t0
    assert len(lines) == 501
    assert elapsed < 2.2
    print(f"criterion 7 PASS: 500 instants + buffered dumps in "
          f"{elapsed:.2f} s (ceiling 2.2 s)")
