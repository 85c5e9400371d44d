"""Step interpreter: one step = one time instant.

All active threads run in the same instant, each on its own store
snapshot; the snapshots merge into the next store. Guards (ask and now
conditions) therefore read the store as it was when the instant began:
what a thread tells becomes visible to the others at the next instant.

Agents are compiled once per run into abstract instructions, lists
[opcode, agent, operands...] that keep their agent for the trace. A
thread is an instruction, its scope node and its environment, the
registers of the names it sees (`tccp.store` compiles constraints and
actuals over it). Within one instant:
  - [SKIP, a] does nothing and does not move;
  - [TELL, a, c] tells constraint c;
  - [CHOOSE, a, guards, guard of each branch, bodies] asks each distinct
    guard once and fires one enabled branch, whose body starts next
    instant, or, when none is enabled, suspends unchanged and unmoved;
  - [NOW, a, c, [then, else]] runs the branch that entailment of c picks;
  - [PAR, a, components] runs each on a branch of the snapshot, and a
    JOIN merges their snapshots; it moves when any component does;
  - [HIDE, a, names, [body]], exists, makes a scope of new registers and
    runs the body; it moves when the body does;
  - [CALL, a, name, actuals, formals, body] makes the call's scope and
    schedules the declaration's compiled body for the next instant.
Tells, nows and calls always move. An instant in which no thread moves
is never committed: the run ends quiescent and the store stays as it was.
"""

import random
from collections import namedtuple

from . import ast
from .ast import pretty_agent
from .store import EXISTS, PROC_CALL, Store, compile_actual, compile_constraint

RUNNING, QUIESCENT, FAILED = "running", "quiescent", "failed"

SKIP, TELL, CHOOSE, NOW, PAR, HIDE, CALL, JOIN = range(8)
_JOIN = (JOIN,)

Thread = namedtuple("Thread", "code scope env")


class ChoicePolicy:
    """Which enabled branch a choice fires: first, last, or seeded random."""

    def __init__(self, kind="first", seed=None):
        if kind not in ("first", "last", "random"):
            raise ValueError(f"unknown policy: {kind}")
        self.kind = kind
        self.seed = seed

    def make_rng(self):
        return random.Random(self.seed) if self.kind == "random" else None

    def choose(self, enabled, rng):
        if self.kind == "first":
            return enabled[0]
        if self.kind == "last":
            return enabled[-1]
        return enabled[rng.randrange(len(enabled))]


Config = namedtuple("Config", "store active clock status")

TraceStep = namedtuple("TraceStep", "clock status store agents")


def _compile(agent, names, calls):
    """The instruction for `agent`, run over an environment laid out as
    `names`. Instructions are made parent first, from an explicit stack,
    and each goes into the list of its parent's children; every CALL also
    goes into `calls`. Each scope maps its names to their slots in one
    dict, built once, in which the last equal name wins; beside it goes
    n, the length of the environment, so an exists's k names take slots
    n ... n+k-1."""
    root = []
    todo = [(agent, {name: i for i, name in enumerate(names)}, len(names),
             root)]
    while todo:
        a, slots, n, out = todo.pop()
        kids, inner = (), (slots, n)
        if isinstance(a, ast.Tell):
            ins = [TELL, a, compile_constraint(a.constraint, slots)]
        elif isinstance(a, ast.Choice):
            # equal guards print alike; flat text compares without recursing
            keys = [(type(g), ast.pretty_constraint(g)) for g, _ in a.branches]
            distinct = {k: compile_constraint(g, slots)
                        for k, (g, _) in zip(keys, a.branches)}
            ins = [CHOOSE, a, list(distinct.values()),
                   [list(distinct).index(k) for k in keys]]
            kids = [body for _, body in a.branches]
        elif isinstance(a, ast.Now):
            ins = [NOW, a, compile_constraint(a.cond, slots)]
            kids = (a.then_agent, a.else_agent)
        elif isinstance(a, ast.Parallel):
            ins, kids = [PAR, a], a.agents
        elif isinstance(a, ast.Exists):
            ins, kids = [HIDE, a, a.vars], (a.body,)
            inner = ({**slots, **{v: n + i for i, v in enumerate(a.vars)}},
                     n + len(a.vars))
        elif isinstance(a, ast.Call):
            ins = [CALL, a, a.name,
                   [compile_actual(x, slots) for x in a.actuals]]
            calls.append(ins)
        elif isinstance(a, ast.Skip):
            ins = [SKIP, a]
        else:
            raise TypeError(f"bad agent: {a!r}")
        out.append(ins)
        if kids:
            ins.append([])
            todo += [(kid, *inner, ins[-1]) for kid in reversed(kids)]
    return root[0]


def compile_program(program):
    """The entry's instruction, with each declaration body compiled once
    and linked into every call of it."""
    calls = []
    decls = {d.name: [d.formals, _compile(d.body, tuple(d.formals), calls)]
             for d in program.decls}
    entry = _compile(program.entry, tuple(program.entry_vars), calls)
    for ins in calls:
        ins += decls[ins[2]]
    return entry


def initial_config(program):
    if program.entry is None:
        raise ValueError("program has no entry agent")
    store = Store.new(program.entry_vars).seal()
    env = tuple([store.lookup(0, name) for name in program.entry_vars])
    return Config(store, [Thread(compile_program(program), 0, env)], 0,
                  RUNNING)


def step(config, policy, rng):
    """Advance one instant. Returns (moved, new config).

    Threads run from one explicit stack of work items (instruction,
    scope, env, snapshot, the list its final snapshot goes to). A
    committed instant seals its store into the base that it shares with
    config.store, which is then no longer valid (see `tccp.store`)."""
    if config.status != RUNNING:
        return False, config
    base = config.store
    snaps, threads, moved = [], [], False
    work = [(code, scope, env, base.branch(), snaps)
            for code, scope, env in reversed(config.active)]
    while work:
        code, scope, env, snap, out = work.pop()
        while code[0] == NOW or code[0] == HIDE:  # go on in the same instant
            if code[0] == NOW:
                moved = True  # even when the branch it runs cannot move
                code = code[3][0 if snap.entails(code[2], env) else 1]
            else:
                regs = tuple([snap.new_cell() for _ in code[2]])
                scope = snap.add_scope(EXISTS, scope, dict(zip(code[2], regs)))
                env += regs
                code = code[3][0]
        op = code[0]
        if op == TELL:
            snap.add_constraint(code[2], env)
            moved = True
        elif op == CHOOSE:
            asked = [snap.entails(g, env) for g in code[2]]
            enabled = [k for k, g in enumerate(code[3]) if asked[g]]
            if enabled:
                code = code[4][policy.choose(enabled, rng)]
                moved = True
            threads.append(Thread(code, scope, env))
        elif op == PAR:  # components run in order, then the JOIN below
            frame = []
            work.append((_JOIN, frame, None, snap, out))
            work += [(kid, scope, env, snap.branch(), frame)
                     for kid in reversed(code[2])]
            continue
        elif op == CALL:
            regs = tuple([snap.actual_cell(a, env) for a in code[3]])
            scope = snap.add_scope(PROC_CALL, scope, dict(zip(code[4], regs)),
                                   code[2])
            threads.append(Thread(code[5], scope, regs))
            moved = True
        elif op == JOIN:
            snap = Store.merge(snap, scope)
        out.append(snap)
    if not moved:
        return False, config._replace(status=QUIESCENT)
    store = Store.merge(base, snaps).seal()
    status = (FAILED if not store.is_consistent()
              else RUNNING if threads else QUIESCENT)
    return True, Config(store, threads, config.clock + 1, status)


def _trace_step(config):
    # the store is copied: the next instant's seal() changes its base
    agents = tuple(pretty_agent(t.code[1]) for t in config.active)
    return TraceStep(config.clock, RUNNING, config.store.frozen(), agents)


def run(program, steps, policy=None, every=1):
    """Simulate for at most `steps` instants; returns the kept trace steps.

    Element k describes the store after k instants (element 0 is the
    store before the first). Every element is "running" except the last,
    which carries the final status: "running" when the step budget ran
    out mid-computation, "quiescent" when no thread could move, "failed"
    when the store became inconsistent.

    Only element k with k % every == 0 is kept, plus the final element;
    every=0 keeps the final element alone. The default keeps them all.
    """
    if policy is None:
        policy = ChoicePolicy("first")
    rng = policy.make_rng()
    config = initial_config(program)
    trace = [_trace_step(config)] if every else []
    for _ in range(steps):
        moved, config = step(config, policy, rng)
        if moved and every and config.clock % every == 0:
            trace.append(_trace_step(config))
        if config.status != RUNNING:
            break  # a step that moved nothing returns a quiescent config
    if not trace or trace[-1].clock != config.clock:
        trace.append(_trace_step(config))
    trace[-1] = trace[-1]._replace(status=config.status)
    return trace
