"""Traced tccp CLI: `python traced.py <tccp cli arguments>`.

Wraps the entry points of each tccp layer from outside the package,
runs `tccp.cli.main` on the arguments, and writes one report line,
prefixed with REPORT_PREFIX, to stderr. Stdout is the CLI's own output,
byte for byte.

Each wrapper is installed on the name its callers look up: `tccp.store`
binds `ls_add`, `ls_meet` and `ls_entails` by `from .linear import`, and
`tccp.interp` binds `pretty_agent` by `from .ast import`, so those are
patched in the importing module. A wrapper records a span (name, parent
span, start, end); spans stay in memory until the run ends. A missing
name raises AttributeError here, so a rename fails the traced run.
"""

import json
import sys
from collections import Counter
from time import perf_counter

REPORT_PREFIX = b"perfbench-trace "

# Spans of the wrapped entry points, keyed by the name under which the
# report gives their self time. Each belongs to the layer before the dot.
SPANS = ("parser.parse", "interp.run", "interp.step", "store.branch",
         "store.merge", "store.tell", "store.ask", "store.dump", "linear.add",
         "linear.meet", "linear.entails", "linear.feasible", "ast.pretty",
         "cli.main", "cli.json")


class Tracer:
    def __init__(self):
        self.spans = []  # (name, parent index or -1, start, end)
        self.stack = [-1]
        self.counts = Counter()

    def wrap(self, name, fn, note=None):
        """fn, recording a span per call; note(counts, args, result) after."""
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)
            if note is not None:
                note(counts, args, result)
            return result

        return traced

    def report(self):
        """Call counts, self times and span bookkeeping of the run."""
        child_time = [0.0] * len(self.spans)
        calls, self_s = Counter(), dict.fromkeys(SPANS, 0.0)
        root_s = 0.0
        steps = []
        for name, parent, t0, t1 in self.spans:
            if parent < 0:
                root_s += t1 - t0
            else:
                child_time[parent] += t1 - t0
            if name == "interp.step":
                steps.append(t1 - t0)
        for i, (name, _, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += t1 - t0 - child_time[i]
        # cli.main's self time splits at the moment run() returned
        main = next(i for i, s in enumerate(self.spans) if s[0] == "cli.main")
        run_end = next(s[3] for s in self.spans if s[0] == "interp.run")
        after_run = sum(t1 - t0 for _, parent, t0, t1 in self.spans
                        if parent == main and t0 >= run_end)
        emit = self.spans[main][3] - run_end - after_run
        return {"calls": dict(calls), "self_s": self_s,
                "emit_s": emit, "args_s": self_s["cli.main"] - emit,
                "root_s": root_s, "counts": dict(self.counts),
                "step_s": steps}


def _branch(counts, args, _):
    store = args[0]
    counts["cells_copied"] += len(store.memory) + len(store.scopes)


def _merge(counts, args, _):
    counts["merge_siblings"] += len(args[1])


def _ask(counts, _, entailed):
    counts["ask_entailed"] += bool(entailed)


def _feasible(counts, args, _):
    counts["feasible_rows"] += len(args[0])
    counts["feasible_empty"] += not args[0]


def _step(counts, args, _):
    counts["threads"] += len(args[0].active)


def install(tracer):
    """Patch the tccp modules in place; returns the traced cli.main."""
    import tccp.cli as cli
    import tccp.interp as interp
    import tccp.linear as linear
    import tccp.store as store

    def patch(owner, attr, name, note=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), note))

    patch(cli, "parse_program", "parser.parse")
    patch(cli, "run", "interp.run")
    patch(interp, "step", "interp.step", _step)
    patch(interp, "pretty_agent", "ast.pretty")
    patch(store.Store, "branch", "store.branch", _branch)
    store.Store.merge = staticmethod(
        tracer.wrap("store.merge", store.Store.merge, _merge))
    patch(store.Store, "add_constraint", "store.tell")
    patch(store.Store, "entails", "store.ask", _ask)
    patch(store.Store, "dump", "store.dump")
    patch(store, "ls_add", "linear.add")
    patch(store, "ls_meet", "linear.meet")
    patch(store, "ls_entails", "linear.entails")
    patch(linear, "_feasible", "linear.feasible", _feasible)

    class TracedJson:
        """tccp.cli's `json`, with dumps traced; json.dumps elsewhere is not."""
        dumps = staticmethod(tracer.wrap("cli.json", cli.json.dumps))

        def __getattr__(self, attr):
            return getattr(json, attr)

    cli.json = TracedJson()

    def main(argv):
        code = cli.main(argv)
        sys.stdout.flush()  # writing the output is part of emitting it
        return code

    return tracer.wrap("cli.main", main)


if __name__ == "__main__":
    tracer = Tracer()
    code = install(tracer)(sys.argv[1:])
    sys.stderr.buffer.write(
        REPORT_PREFIX + json.dumps(tracer.report()).encode() + b"\n")
    sys.exit(code)
