"""Time the simulator's curves in process, at n and 2n instants.

    PYTHONPATH=src python tools/curves.py [--smoke] [--repeat R] [--digest]
                                          [curve ...]

For each curve, prints its size n, the best of R wall times at n and at
2n, their ratio (near 2 is a linear curve, near 4 a quadratic one), the
microseconds per instant at n, and the calls per instant at n and at 2n
with their ratio: cProfile's count of function calls over one more run
at each size that is not timed. Unlike the times, the counts are the
same from run to run on one CPython, so they can gate: the exit code is
1 when a curve's calls per instant grow by more than 10% from n to 2n,
that is when its work per instant grows with the run, unless the curve
is in GROWING. The curves are the photocopier with every instant printed
(`tccp.cli.main` to os.devnull), the benchmark's photocopier run alone
(its program and entry, `--policy last`, through `tccp.run(program, n,
policy, every=0)`, so the step loop is timed apart from output) and four
numeric programs run through `tccp.run(program, n, every=0)`. `--smoke`
runs each at a few instants, to check that the curves still run;
`--digest` also prints the sha256 of the photocopier's output at 2n,
from one more run that is not timed. Stdlib only; pytest does not
collect it.
"""

import argparse
import contextlib
import cProfile
import hashlib
import io
import os
import pstats
import sys
import time
from importlib import resources

from tccp import cli, parse_program, run
from tccp.interp import ChoicePolicy

# name: (declarations, entry agent, n, smoke n)
NUMERIC = {
    "two-streams": (
        "gen(S, N) :- now (N > 1000000) then skip else exists T, M "
        "(tell(S = [N | T]) || tell(M = N + 1) || gen(T, M)).",
        "gen(A, 0) || gen(B, 0)", 1200, 20),
    "counter": (
        "count(N) :- now (N > 1000000) then skip "
        "else exists M (tell(M = N + 1) || count(M)).",
        "count(0)", 1600, 20),
    # the counter from a start that is bounded below only, so the
    # store keeps one live inequality
    "bounded-counter": (
        "count(N) :- now (N > 1000000) then skip "
        "else exists M (tell(M = N + 1) || count(M)).",
        "count(A) || tell(A >= 0)", 800, 20),
    "sum-chain": (
        "c(X, Y) :- now (X > 1000000) then skip else exists X1, Y1 "
        "(tell(X1 + Y1 <= X + Y + 1) || tell(X1 >= X) || tell(Y1 >= 0) "
        "|| c(X1, Y1)).",
        "c(A, B) || tell(A = 0) || tell(B = 0)", 100, 10),
}
PHOTOCOPIER = "photocopier-every-instant"
PHOTOCOPIER_RUN = "photocopier-run"
RUN_ENTRY = "initialize(MIdle) || tell(MIdle = 8)"  # perfbench's, seed 0
CURVES = (PHOTOCOPIER, PHOTOCOPIER_RUN, *NUMERIC)
# curves whose calls per instant still grow with n: each instant of the
# sum chain adds a live inequality that every later simplex check solves
# again (ROADMAP items 15 and 6)
GROWING = {"sum-chain"}
GROWTH_LIMIT = 1.10  # calls per instant at 2n over those at n
PATH = resources.files("tccp") / "programs" / "photocopier.tccp"


def photocopier(n, out):
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", "--program", str(PATH),
                         "--entry", "initialize(MIdle) || tell(MIdle = 5)",
                         "--steps", str(n), "--policy", "last",
                         "--format", "jsonl", "--dump-every", "1"])
    if code != 0:
        raise SystemExit(f"{PHOTOCOPIER} at {n}: exit {code}")


def curve(name, smoke, devnull):
    """The size n of a curve and the function that runs it at k instants."""
    if name == PHOTOCOPIER:
        return (20 if smoke else 1000), lambda k: photocopier(k, devnull)
    if name == PHOTOCOPIER_RUN:
        program = parse_program(PATH.read_text(), entry=RUN_ENTRY)
        return (20 if smoke else 3000), lambda k: run(
            program, k, ChoicePolicy("last"), 0)
    decls, entry, n, smoke_n = NUMERIC[name]
    program = parse_program(decls, entry=entry)
    return (smoke_n if smoke else n), lambda k: run(program, k, every=0)


def calls(fn):
    """The number of calls that cProfile counts in one run of fn."""
    profile = cProfile.Profile()
    profile.runcall(fn)
    return pstats.Stats(profile).total_calls


def timed(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("curves", nargs="*", metavar="curve",
                    help="any of " + ", ".join(CURVES) + " (default: all)")
    ap.add_argument("--smoke", action="store_true",
                    help="a few instants per curve")
    ap.add_argument("--repeat", type=int, default=2,
                    help="runs per size; the best is printed")
    ap.add_argument("--digest", action="store_true",
                    help="sha256 of the photocopier's output at 2n")
    args = ap.parse_args(argv)
    unknown = set(args.curves) - set(CURVES)
    if unknown:
        ap.error(f"unknown curve: {', '.join(sorted(unknown))}")
    curves = args.curves or CURVES
    print(f"{'curve':<28}{'n':>6}{'t(n) s':>10}{'t(2n) s':>10}{'ratio':>7}"
          f"{'us/inst':>9}{'calls/inst':>12}{'at 2n':>10}{'ratio':>7}")
    grown = []
    with open(os.devnull, "w") as devnull:
        for name in curves:
            n, fn = curve(name, args.smoke, devnull)
            times = [timed(lambda: fn(k), args.repeat) for k in (n, 2 * n)]
            per = [calls(lambda: fn(k)) / k for k in (n, 2 * n)]
            growth = per[1] / per[0]
            print(f"{name:<28}{n:>6}{times[0]:>10.3f}{times[1]:>10.3f}"
                  f"{times[1] / times[0]:>7.2f}{times[0] / n * 1e6:>9.1f}"
                  f"{per[0]:>12.1f}{per[1]:>10.1f}{growth:>7.3f}", flush=True)
            if growth > GROWTH_LIMIT and name not in GROWING:
                grown.append(name)
    if args.digest and PHOTOCOPIER in curves:
        out = io.StringIO()
        photocopier(2 * (20 if args.smoke else 1000), out)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        print(f"{PHOTOCOPIER} sha256 at 2n: {digest}")
    if grown:
        print(f"calls per instant grow by more than "
              f"{GROWTH_LIMIT - 1:.0%} from n to 2n: {', '.join(grown)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
