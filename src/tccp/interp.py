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
from dataclasses import dataclass, replace

from . import ast
from .ast import pretty_agent
from .store import EXISTS, PROC_CALL, Store

RUNNING, QUIESCENT, FAILED = "running", "quiescent", "failed"


@dataclass(frozen=True)
class Thread:
    agent: object
    scope: int


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


@dataclass
class Config:
    program: ast.Program
    store: Store
    active: list
    clock: int
    status: str


@dataclass(frozen=True)
class TraceStep:
    clock: int
    status: str
    store: Store
    agents: tuple


def initial_config(program):
    if program.entry is None:
        raise ValueError("program has no entry agent")
    store = Store.new()
    for name in program.entry_vars:
        store.add_variable(0, name)
    store.seal()
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
        # merge the snapshots execute() returns, not the ones we handed
        # out: a nested parallel child hands back a fresh merged store
        results = []
        threads = []
        moved = False
        for child in agent.agents:
            res, th, mv = execute(program, child, scope, snap.branch(),
                                  policy, rng)
            results.append(res)
            threads.extend(th)
            moved = moved or mv
        return Store.merge(snap, results), threads, moved

    if isinstance(agent, ast.Exists):
        nid = snap.add_scope(EXISTS, scope)
        for name in agent.vars:
            snap.add_variable(nid, name)
        return execute(program, agent.body, nid, snap, policy, rng)

    if isinstance(agent, ast.Call):
        decl = program.decl(agent.name)
        nid = snap.add_scope(PROC_CALL, scope, label=agent.name)
        for formal, actual in zip(decl.formals, agent.actuals):
            snap.add_parameter(nid, formal, actual, scope)
        return snap, [Thread(decl.body, nid)], True

    raise TypeError(f"bad agent: {agent!r}")


def step(config, policy, rng):
    """Advance one instant. Returns (moved, new config)."""
    if config.status != RUNNING:
        return False, config
    base = config.store
    snaps = []
    threads = []
    moved = False
    for t in config.active:
        snap = base.branch()
        snap, th, mv = execute(config.program, t.agent, t.scope, snap,
                               policy, rng)
        snaps.append(snap)
        threads.extend(th)
        moved = moved or mv
    if not moved:
        return False, replace(config, status=QUIESCENT)
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
    agents = tuple(pretty_agent(t.agent) for t in config.active)
    return TraceStep(config.clock, RUNNING, config.store, agents)


def run(program, steps, policy=None, seed=None):
    """Simulate for at most `steps` instants; returns the list of trace steps.

    Element k describes the store after k instants (element 0 is the
    store before the first). Every element is "running" except the last,
    which carries the final status: "running" when the step budget ran
    out mid-computation, "quiescent" when no thread could move, "failed"
    when the store became inconsistent.
    """
    if policy is None:
        policy = ChoicePolicy("first")
    if seed is not None and policy.seed is None:
        policy = ChoicePolicy(policy.kind, seed)
    rng = policy.make_rng()
    config = initial_config(program)
    trace = [_trace_step(config)]
    final = RUNNING
    for _ in range(steps):
        moved, config = step(config, policy, rng)
        if not moved:
            final = QUIESCENT
            break
        trace.append(_trace_step(config))
        if config.status != RUNNING:
            final = config.status
            break
    else:
        final = config.status
    trace[-1] = replace(trace[-1], status=final)
    return trace
