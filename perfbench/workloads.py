"""The benchmark's workloads: seeded inputs for one `tccp run` child each.

A workload turns a seed into the program text, the entry agent and the
run flags of one `python -m tccp.cli run` call, together with the shape
its jsonl output must have. The CLI sees only the generated text; the
seed never reaches it. Each workload keeps a different layer busy (see
METRICS.md), and each is sized inside the region where its run time
grows faster than its input, so the super-linear defects stay visible.

`smoke=True` gives the same workload at a size that runs in well under a
second, for the smoke test.
"""

import random
from dataclasses import dataclass
from importlib import resources

# One counter per chain, each with its own step; every instant of a
# chain allocates one dimension and tells one equality on it.
COUNTER = ("count{i}(N) :- now (N > 1000000) then skip "
           "else exists M (tell(M = N + {k}) || count{i}(M)).\n")


@dataclass(frozen=True)
class Inputs:
    program: str  # declarations, fed to the child on stdin
    entry: str
    flags: tuple  # run flags after --program/--entry
    lines: int  # jsonl lines the run must print
    clock: int  # clock of the last line
    status: str  # status of the last line


@dataclass(frozen=True)
class Workload:
    name: str
    make: object  # (random.Random, smoke) -> Inputs
    # per-layer counters this workload must drive above zero; a zero
    # means a wrapper no longer sees the work, e.g. after a rename
    exercises: tuple

    def inputs(self, seed, smoke=False):
        return self.make(random.Random(seed), smoke)


def _photocopier():
    return (resources.files("tccp") / "programs" / "photocopier.tccp").read_text()


def photocopier(rng, smoke):
    steps, every = (60, 10) if smoke else (3000, 100)
    midle = rng.randint(2, 9)
    return Inputs(
        program=_photocopier(),
        entry=f"initialize(MIdle) || tell(MIdle = {midle})",
        flags=("--steps", str(steps), "--policy", "last",
               "--format", "jsonl", "--dump-every", str(every)),
        lines=steps // every + 1, clock=steps, status="running")


def counter_chains(rng, smoke):
    # starts and steps keep every N below the guard's bound for every
    # instant run, so no chain stops
    chains, steps = (2, 8) if smoke else (4, 40)
    program = "".join(COUNTER.format(i=i, k=rng.randint(1, 999))
                      for i in range(chains))
    entry = " || ".join(f"count{i}({rng.randint(0, 1000)})"
                        for i in range(chains))
    return Inputs(
        program=program, entry=entry,
        flags=("--steps", str(steps), "--format", "jsonl", "--dump-every", "0"),
        lines=1, clock=steps, status="running")


WORKLOADS = {w.name: w for w in (
    Workload("photocopier", photocopier,
             ("interp.instants", "interp.threads", "store.branch_calls",
              "store.cells_copied", "store.merge_calls", "store.merge_siblings",
              "store.tell_calls", "store.ask_calls", "store.ask_entailed",
              "store.dump_calls", "ast.pretty_calls", "linear.meet_calls",
              "linear.feasible_calls", "linear.feasible_empty_calls",
              "cli.output_bytes")),
    Workload("counter-chains", counter_chains,
             ("linear.add_calls", "linear.entails_calls", "linear.meet_calls",
              "linear.feasible_calls", "linear.feasible_rows",
              "store.merge_siblings")),
)}
