"""Command line front end.

  tccp run --program file.tccp --entry "main(X) || tell(X = 1)" --steps 30
  tccp check --program file.tccp
  tccp stats --program file.tccp --entry "..." --steps 500

Exit codes: 0 when the run ends running or quiescent, 2 when the store
became inconsistent, 1 on parse/scope errors.

`main()` without arguments runs as the program, and the process only
exits after it. So it then freezes the collector: CPython's exit-time
collections skip every object alive at that point, and the OS takes the
memory back. Callers that pass `argv` keep a heap that is never frozen.
"""

import argparse
import gc
import sys
import time

from .errors import TccpError
from .parser import parse_program

_SIMULATOR = ("run", "ChoicePolicy", "FAILED", "DumpMemo", "dump_lin", "json")


def __getattr__(name):
    """Bind the simulator's names not yet bound; `check` never needs them."""
    if name not in _SIMULATOR:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import json
    from .interp import ChoicePolicy, FAILED, run
    from .linear import dump_lin
    from .store import DumpMemo
    for key in _SIMULATOR:
        globals().setdefault(key, locals()[key])
    return globals()[name]


def _build_argparser():
    ap = argparse.ArgumentParser(prog="tccp",
                                 description="simulator for timed concurrent "
                                             "constraint programs")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_run_flags=True):
        p.add_argument("--program", required=True,
                       help="path to a .tccp declarations file")
        if with_run_flags:
            p.add_argument("--entry", required=True,
                           help="entry agent, e.g. 'main(X) || tell(X = 1)'")
            p.add_argument("--steps", type=int, required=True,
                           help="maximum number of time instants")
            p.add_argument("--policy", choices=["first", "last", "random"],
                           default="first",
                           help="which enabled choice branch fires")
            p.add_argument("--seed", type=int, default=None,
                           help="rng seed for --policy random")

    p_run = sub.add_parser("run", help="simulate and print the store trace")
    common(p_run)
    p_run.add_argument("--format", choices=["text", "jsonl"], default="text")
    p_run.add_argument("--dump-every", type=int, default=1, metavar="M",
                       help="emit every M-th instant (0: only the final one)")

    p_check = sub.add_parser("check", help="parse and scope-check only")
    common(p_check, with_run_flags=False)
    p_check.add_argument("--entry", default=None,
                         help="optional entry agent to check against the "
                              "declarations")

    p_stats = sub.add_parser("stats",
                             help="run with buffered output and print sizes "
                                  "and timings")
    common(p_stats)
    return ap


def _jsonl_line(el, memo):
    """One jsonl line; `memo` is the run's `DumpMemo`."""
    head = json.dumps({"clock": el.clock, "status": el.status,
                       "agents": list(el.agents)}, separators=(",", ":"))
    return "".join([head[:-1], ',"store":', el.store.dump(memo), "}"])


def _text_block(el):
    store = el.store
    counts = store.counts()
    lines = [f"-- instant {el.clock} [{el.status}]"
             f" nodes={counts['nodes']} registers={counts['registers']}"
             f" dims={counts['dims']}"
             f" consistent={str(store.is_consistent()).lower()}"]
    lines += [f"   lin: {r}" for r in dump_lin(store.lin)]
    lines += [f"   agent: {a}" for a in el.agents]
    return "\n".join(lines)


def _exit_code(trace):
    return 2 if trace[-1].status == FAILED else 0


def _read_program(path):
    with open(path, encoding="utf-8") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            raise TccpError(f"{path}: not UTF-8 text: {e.reason} "
                            f"at byte {e.start}") from None


def cmd_run(args):
    program = parse_program(_read_program(args.program), entry=args.entry)
    policy = ChoicePolicy(args.policy, args.seed)
    trace = run(program, args.steps, policy, every=args.dump_every)
    # written only now: an error mid-run leaves stdout empty
    memo = DumpMemo()
    for el in trace:
        print(_jsonl_line(el, memo) if args.format == "jsonl"
              else _text_block(el))
    return _exit_code(trace)


def cmd_check(args):
    program = parse_program(_read_program(args.program), entry=args.entry)
    n = len(program.decls)
    print(f"ok: {n} declaration{'s' if n != 1 else ''}")
    return 0


def cmd_stats(args):
    text = _read_program(args.program)
    t0 = time.perf_counter()
    program = parse_program(text, entry=args.entry)
    t1 = time.perf_counter()
    policy = ChoicePolicy(args.policy, args.seed)
    trace = run(program, args.steps, policy, every=0)
    t2 = time.perf_counter()
    counts = trace[-1].store.counts()
    print(f"instants           {trace[-1].clock}")
    print(f"status             {trace[-1].status}")
    print(f"symbol-table nodes {counts['nodes']}")
    print(f"registers          {counts['registers']}")
    print(f"lin dims           {counts['dims']}")
    print(f"parse ms           {1000 * (t1 - t0):.2f}")
    print(f"simulate ms        {1000 * (t2 - t1):.2f}")
    return _exit_code(trace)


def _bad_usage(args):
    """Flag violations argparse cannot express. None when fine."""
    if getattr(args, "steps", None) is not None and args.steps < 0:
        return "--steps must be >= 0"
    if getattr(args, "dump_every", None) is not None and args.dump_every < 0:
        return "--dump-every must be >= 0"
    policy = getattr(args, "policy", None)
    if policy == "random" and args.seed is None:
        return "--policy random needs a --seed"
    if policy not in (None, "random") and args.seed is not None:
        return f"--seed makes no sense with --policy {policy}"
    return None


def main(argv=None):
    try:
        args = _build_argparser().parse_args(argv)
        problem = _bad_usage(args)
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 1
        if args.command == "check":
            return cmd_check(args)
        __getattr__("run")  # binds every simulator name
        return cmd_run(args) if args.command == "run" else cmd_stats(args)
    except (TccpError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if argv is None:  # the process only exits from here
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
