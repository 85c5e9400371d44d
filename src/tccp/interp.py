"""Step interpreter: one step = one time instant.

All active threads run in the same instant, each on its own store
snapshot; the snapshots merge into the next store. Guards (ask and now
conditions) therefore read the store as it was when the instant began:
what a thread tells becomes visible to the others at the next instant.

Per agent form, within one instant:
  - tell adds its constraint and finishes;
  - a choice fires one enabled branch (its body starts next instant) or
    suspends unchanged when no guard is entailed;
  - now picks its branch by entailment and executes it in the same
    instant;
  - parallel runs all components in the same instant;
  - exists allocates a scope and executes its body in the same instant;
  - a call links formals to actuals and schedules the body for the next
    instant.

A thread "moves" when any rule applies to it: tells, nows and calls
always move, a choice moves only when some guard fires, skip never
moves, parallel moves when any component does, exists moves when its
body does. An instant in which no thread moves is never committed: the
run ends quiescent and the store stays as it was.
"""

import random
from collections import namedtuple
from itertools import repeat

from . import ast
from .ast import pretty_agent
from .store import EXISTS, PROC_CALL, Store

RUNNING, QUIESCENT, FAILED = "running", "quiescent", "failed"


Thread = namedtuple("Thread", "agent scope")


class ChoicePolicy:
    """Which enabled branch a choice fires: first, last, or seeded random."""

    def __init__(self, kind="first", seed=None):
        if kind not in ("first", "last", "random"):
            raise ValueError(f"unknown policy: {kind}")
        self.kind = kind
        self.seed = seed

    def make_rng(self):
        if self.kind == "random":
            return random.Random(self.seed)
        return None

    def choose(self, enabled, rng):
        if self.kind == "first":
            return enabled[0]
        if self.kind == "last":
            return enabled[-1]
        return enabled[rng.randrange(len(enabled))]


Config = namedtuple("Config", "program store active clock status")

TraceStep = namedtuple("TraceStep", "clock status store agents")


def initial_config(program):
    if program.entry is None:
        raise ValueError("program has no entry agent")
    store = Store.new(program.entry_vars).seal()
    return Config(program, store, [Thread(program.entry, 0)], 0, RUNNING)


def execute(program, agent, scope, snap, policy, rng):
    """Run one agent for one instant on its snapshot.

    Returns (snapshot, continuation threads, moved).
    """
    if isinstance(agent, ast.Skip):
        return snap, [], False

    if isinstance(agent, ast.Tell):
        snap.add_constraint(scope, agent.constraint)
        return snap, [], True

    if isinstance(agent, ast.Choice):
        enabled = [i for i, (g, _) in enumerate(agent.branches)
                   if snap.entails(scope, g)]
        if not enabled:
            return snap, [Thread(agent, scope)], False
        k = policy.choose(enabled, rng)
        return snap, [Thread(agent.branches[k][1], scope)], True

    if isinstance(agent, ast.Now):
        branch = agent.then_agent if snap.entails(scope, agent.cond) \
            else agent.else_agent
        # now always moves: a branch that cannot move is unwrapped from
        # the now and left to wait as its own residual.
        snap, threads, _ = execute(program, branch, scope, snap, policy, rng)
        return snap, threads, True

    if isinstance(agent, ast.Parallel):
        snaps, threads, moved = _run_threads(
            program, zip(agent.agents, repeat(scope)), snap, policy, rng)
        return Store.merge(snap, snaps), threads, moved

    if isinstance(agent, ast.Exists):
        nid = snap.add_scope(EXISTS, scope,
                             {name: snap.new_cell() for name in agent.vars})
        return execute(program, agent.body, nid, snap, policy, rng)

    if isinstance(agent, ast.Call):
        decl = program.decl(agent.name)
        formals = {formal: snap.actual_cell(actual, scope)
                   for formal, actual in zip(decl.formals, agent.actuals)}
        nid = snap.add_scope(PROC_CALL, scope, formals, label=agent.name)
        return snap, [Thread(decl.body, nid)], True

    raise TypeError(f"bad agent: {agent!r}")


def _run_threads(program, pairs, store, policy, rng):
    """Execute each (agent, scope) pair on its own branch of store.

    Returns (snapshots, continuation threads, moved). The snapshots are
    the ones execute() returns, not the branches handed out: a nested
    parallel hands back a fresh merged store.
    """
    snaps = []
    continued = []
    moved = False
    for agent, scope in pairs:
        snap, th, mv = execute(program, agent, scope, store.branch(),
                               policy, rng)
        snaps.append(snap)
        continued.extend(th)
        moved = moved or mv
    return snaps, continued, moved


def step(config, policy, rng):
    """Advance one instant. Returns (moved, new config).

    A committed instant seals its store into the base that it shares with
    config.store, which is then no longer valid (see `tccp.store`)."""
    if config.status != RUNNING:
        return False, config
    base = config.store
    snaps, threads, moved = _run_threads(config.program, config.active,
                                         base, policy, rng)
    if not moved:
        return False, config._replace(status=QUIESCENT)
    store = Store.merge(base, snaps).seal()
    if not store.is_consistent():
        status = FAILED
    elif not threads:
        status = QUIESCENT
    else:
        status = RUNNING
    return True, Config(config.program, store, threads,
                        config.clock + 1, status)


def _trace_step(config):
    # the store is copied: the next instant's seal() changes its base
    agents = tuple(pretty_agent(t.agent) for t in config.active)
    return TraceStep(config.clock, RUNNING, config.store.frozen(), agents)


def run(program, steps, policy=None, seed=None, every=1):
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
    if seed is not None and policy.seed is None:
        policy = ChoicePolicy(policy.kind, seed)
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
