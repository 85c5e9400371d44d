"""Differential test: the register-machine interpreter against an
independent substitution-based evaluator.

Both execute the same programs step for step; at every instant they must
agree on status, consistency, and the answer to every probe ask. The
probes cover the constraints occurring in the program plus relations
among the entry variables, so a divergence in either engine's store
content surfaces as a flipped answer.
"""

import hashlib
import random

from fractions import Fraction
from importlib import resources

import pytest

from tccp import ast
from tccp.ast import pretty_constraint
from tccp.interp import ChoicePolicy, run
from tccp.oracle import o_initial, o_run, o_step
from tccp.parser import parse_constraint, parse_program
from support import (
    SPECIALISED, ProgramGen, ask, machine_observables, oracle_observables,
    probe_set,
)

PHOTOCOPIER_ENTRY = "initialize(MIdle) || tell(MIdle = 5)"

# sha256 of the printed probe sets of the 220 generated programs (seed
# 2024) and the photocopier, each set one probe per line, sets separated
# by a blank line; 9011 probes in all
PROBES_SHA256 = (
    "bac1822eddb69a0802d7182e60e552f91ee0246246b9eecbfbe16e86b3b16fc7")


def agree(program, steps, policy=None):
    probes = probe_set(program)
    m = machine_observables(run(program, steps, policy=policy), probes)
    o = oracle_observables(o_run(program, steps, policy=policy), probes)
    return m, o


def test_probe_sets_are_pinned(program):
    """The equivalence tests are only as strong as their probes."""
    rng = random.Random(2024)
    programs = [parse_program(*ProgramGen(rng).gen()) for _ in range(220)]
    h = hashlib.sha256()
    n = 0
    for p in programs + [program]:
        probes = probe_set(p)
        n += len(probes)
        h.update(("\n".join(map(pretty_constraint, probes)) + "\n\n").encode())
    assert (h.hexdigest(), n) == (PROBES_SHA256, 9011)


class TestGenerated:
    def test_two_hundred_random_programs(self):
        rng = random.Random(2024)
        checked = 0
        for i in range(220):
            decls, entry = ProgramGen(rng).gen()
            program = parse_program(decls, entry=entry)
            m, o = agree(program, 12, policy=ChoicePolicy("first"))
            assert m == o, f"program {i}:\n{decls}\nentry: {entry}"
            checked += 1
        assert checked == 220

    def test_random_policy_with_shared_seed_agrees(self):
        rng = random.Random(77)
        for i in range(40):
            decls, entry = ProgramGen(rng).gen()
            program = parse_program(decls, entry=entry)
            m, o = agree(program, 10, policy=ChoicePolicy("random", i))
            assert m == o, f"program {i}:\n{decls}\nentry: {entry}"


def test_the_innermost_equal_name_wins():
    """An exists shadows an entry variable, a formal, and an outer exists
    name: were any X or Y below the outer one, two tells would clash."""
    program = parse_program(
        "p(X, Y) :- tell(X = [x | _]) || exists X (tell(X = c)"
        " || tell(Y = [X | _]) || exists Y, X (tell(X = d) || tell(Y = e))).",
        entry="p(A, B) || exists A (tell(A = b) || tell(C = [A | _]))")
    m, o = agree(program, 5)
    assert m == o
    final = run(program, 5)[-1]
    assert final.status == "quiescent"
    for c in ("A = [x | _]", "B = [c | _]", "C = [b | _]"):
        assert ask(final.store, 0, parse_constraint(c)), c


def test_a_list_told_equal_to_its_own_tail_fails():
    """The occurs check with the variable on the right: X = [a | Y], then
    X = Y binds Y to a term that holds Y."""
    program = parse_program(
        "", entry="tell(X = [a | Y]) || ask(true) -> tell(X = Y)")
    m, o = agree(program, 4)
    assert m == o
    assert m[-1][:2] == (2, "failed")  # clock and status, on both engines


class TestNumericStreamEquations:
    """A stream equation whose sides walk to a numeric variable and a
    number, or to two numeric variables, is a linear equality. Each
    equation waits an instant behind a `now`, so that its variables
    already have dimensions when it is told."""

    def test_between_two_numeric_variables(self):
        program = parse_program(
            "p(X, Y) :- tell(X >= 1) || tell(Y <= 3)"
            " || now (X > 100) then skip else tell(X = Y).", entry="p(A, B)")
        m, o = agree(program, 4)
        assert m == o
        final = run(program, 4)[-1]
        assert final.status == "quiescent"
        for c in ("A = B", "A <= 3", "B >= 1"):
            assert ask(final.store, 0, parse_constraint(c)), c

    def test_between_a_number_and_a_numeric_variable(self):
        decls = ("p(F, Y) :- tell(Y >= 0) || now (Y > 100) then skip"
                 " else tell(F = Y)."
                 " q(F, Y) :- tell(Y >= 0) || now (Y > 100) then skip"
                 " else tell(Y = F).")
        finals = []
        for entry in ("p(2, A) || q(5, B)", "p(2, A) || q(3, A)"):
            program = parse_program(decls, entry=entry)
            m, o = agree(program, 4)
            assert m == o, entry
            finals.append(run(program, 4)[-1])
        good, clash = finals
        assert (good.status, clash.status) == ("quiescent", "failed")
        for c in ("A = 2", "B = 5"):
            assert ask(good.store, 0, parse_constraint(c)), c


def test_a_stopped_oracle_config_does_not_step():
    program = parse_program("p(X) :- tell(X = a).", entry="p(A)")
    policy = ChoicePolicy("first")
    rng = policy.make_rng()
    config = o_initial(program)
    while config.status == "running":
        _, config = o_step(config, policy, rng)
    assert (config.status, config.agent) == ("quiescent", None)
    assert o_step(config, policy, rng) == (False, config)


@pytest.fixture(scope="module")
def program():
    text = (resources.files("tccp") / "programs" / "photocopier.tccp").read_text()
    return parse_program(text, entry=PHOTOCOPIER_ENTRY)


class TestPhotocopier:
    def test_thirty_instants_under_last_policy(self, program):
        m, o = agree(program, 30, policy=ChoicePolicy("last"))
        assert len(m) == 31
        assert m == o

    def test_twelve_instants_under_first_policy(self, program):
        m, o = agree(program, 12, policy=ChoicePolicy("first"))
        assert m == o


def test_every_keeps_the_same_steps_on_both_engines():
    rng = random.Random(31)
    for i in range(40):
        decls, entry = ProgramGen(rng).gen()
        program = parse_program(decls, entry=entry)
        probes = probe_set(program)
        for every in (0, 3, 7):
            m = machine_observables(run(program, 12, every=every), probes)
            o = oracle_observables(o_run(program, 12, every=every), probes)
            assert m == o, (i, every)


def test_the_specialised_forms_agree_under_each_policy():
    for kind in ("first", "last", "random"):
        for i, (decls, entry) in enumerate(SPECIALISED):
            program = parse_program(decls, entry=entry)
            m, o = agree(program, 12, policy=ChoicePolicy(
                kind, i if kind == "random" else None))
            assert m == o, (kind, i)


class TestLongStreams:
    def test_two_streams_of_twelve_hundred_cells(self):
        # each instant adds one cell to each stream; the probes then walk
        # both streams, far past Python's default recursion limit
        program = parse_program(
            "gen(S) :- exists T (tell(S = [a | T]) || gen(T)).",
            entry="gen(A) || gen(B)")
        probes = probe_set(program)
        m = machine_observables(run(program, 1200, every=0), probes)
        o = oracle_observables(o_run(program, 1200, every=0), probes)
        assert m[0][:2] == (1200, "running")
        assert m == o

    def test_two_numeric_streams_of_six_hundred_cells(self):
        # each instant adds one cell and one linear equality to each
        # stream, so the final stores hold long chains of dimensions. The
        # run stops at 600 instants to stay within the slowest oracle
        # test's time (about 2 s); 1200 instants take about 3 s.
        program = parse_program(
            "gen(S, N) :- now (N > 1000000) then skip else exists T, M "
            "(tell(S = [N | T]) || tell(M = N + 1) || gen(T, M)).",
            entry="gen(A, 0) || gen(B, 0)")

        def prefix(values):
            t = ast.Anon()
            for v in reversed(values):
                t = ast.Cons(ast.Num(Fraction(v)), t)
            return t

        counted = list(range(599))
        off_by_one = counted[:-1] + [counted[-1] + 1]
        deep = [ast.StreamEq("A", prefix(counted)),
                ast.StreamEq("B", prefix(off_by_one))]
        probes = probe_set(program) + deep
        m = machine_observables(run(program, 600, every=0), probes)
        o = oracle_observables(o_run(program, 600, every=0), probes)
        assert m[0][:3] == (600, "running", True)
        assert m[0][3][-2:] == (True, False)
        assert m == o
