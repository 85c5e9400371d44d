"""Benchmark of `tccp run`, end to end and layer by layer.

    python3 perfbench/run.py --workload photocopier --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is taken from its
`src/` directory, never from an installed copy. Load is closed-loop
with one client: this process runs one `python -m tccp.cli run` child
at a time, back to back, for --seconds, and checks each child's exit
code and stdout sha256 against the values in digests.json. Before each
`run` child it times a fresh `tccp check` child on the same input
(setup_s). One untimed pair of children, also checked, warms the
file cache and writes the bytecode before the clock starts.

--trace 0 prints the end-to-end metrics. Times are scaled to a nominal
host speed by a fixed reference task timed between the pairs of
children (see reference_s), then averaged over the children with the
extremes trimmed; peak_rss_mb is a median.
--trace 1 alternates plain children with children under traced.py and
prints the per-layer metrics: self times, call counts, the untraced
remainder (other_s) and the tracing overhead. METRICS.md lists every
metric and workload.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every
output was correct.
"""

import argparse
import json
import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from child import spawn
from traced import REPORT_PREFIX
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

HARD_LIMIT_S = 150  # no child outlives this, whatever --seconds says
SMOKE_SECONDS = 0.5

# Layer of each traced self-time metric; with other_s they cover the run.
LAYER_SELF = {
    "parser": ("parser.parse_s",),
    "interp": ("interp.run_s", "interp.step_s"),
    "store": ("store.branch_s", "store.merge_s", "store.tell_s",
              "store.ask_s", "store.dump_s"),
    "linear": ("linear.add_s", "linear.meet_s", "linear.entails_s",
               "linear.feasible_s"),
    "ast": ("ast.pretty_s",),
    "cli": ("cli.args_s", "cli.emit_s", "cli.json_s"),
}
ACCOUNTING_TOLERANCE = 0.05

# The reference task takes about this long on the host the benchmark was
# written on; end-to-end times are scaled to that speed.
REFERENCE_NOMINAL_S = 0.2
TRIM = 0.1  # share of samples dropped at each end before averaging


def load_tccp():
    """Import tccp from this checkout's src/, or exit 1 if it has none."""
    if not (SRC / "tccp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tccp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tccp
    if Path(tccp.__file__).resolve().parent != SRC / "tccp":
        sys.exit(f"perfbench: imported tccp from {tccp.__file__}, not {SRC}")
    return tccp


def child_env(tccp):
    """The caller's environment, with PYTHONPATH leading to this tccp."""
    env = dict(os.environ)
    pkg_parent = str(Path(tccp.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = pkg_parent + (os.pathsep + rest if rest else "")
    return env


class Bench:
    def __init__(self, env, digests):
        self.env = env
        self.digests = digests
        self.hard_deadline = time.perf_counter() + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.shapes_ok = set()  # sha256 values whose output shape was checked

    def spawn(self, argv, inputs):
        self.attempted += 1
        return spawn(argv, inputs.program.encode(), self.env, str(ROOT),
                     self.hard_deadline)

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def run_cli(self, inputs, traced=False):
        head = [sys.executable, str(HERE / "traced.py")] if traced \
            else [sys.executable, "-m", "tccp.cli"]
        return self.spawn(head + ["run", "--program", "/dev/stdin", "--entry",
                                  inputs.entry, *inputs.flags], inputs)

    def check_run(self, key, seed, inputs, res, reference):
        """Count the run as failed unless its output is the expected one.

        Expected is the recorded (exit code, sha256) for this workload and
        seed; for a seed with no record, the first run of this process,
        whose output must also have the workload's shape.
        """
        got = [res.exit_code, res.sha256]
        want = self.digests.get(key, {}).get(str(seed))
        if res.timed_out:
            self.fail(f"{key}: child killed at the {HARD_LIMIT_S} s limit")
        elif want is not None and got != want[:2]:
            self.fail(f"{key} seed {seed}: exit {res.exit_code} sha256 "
                      f"{res.sha256}, recorded {want[0]} {want[1]}")
        elif want is None and reference and got != reference:
            self.fail(f"{key} seed {seed}: output differs between runs")
        elif res.sha256 not in self.shapes_ok:
            problem = shape_problem(inputs, res)
            if problem:
                self.fail(f"{key} seed {seed}: {problem}")
            else:
                self.shapes_ok.add(res.sha256)
        return reference or got

    def setup_time(self, inputs):
        """Wall time of one `tccp check` child on the workload's input."""
        res = self.spawn([sys.executable, "-m", "tccp.cli", "check",
                          "--program", "/dev/stdin", "--entry", inputs.entry],
                         inputs)
        if res.exit_code != 0 or not res.last_line.startswith(b"ok: "):
            self.fail(f"check exited {res.exit_code}: "
                      f"{res.stderr.decode(errors='replace').strip()}")
        return res.wall_s


def shape_problem(inputs, res):
    """What is wrong with a run's jsonl, or None."""
    if res.exit_code != 0:
        return f"exit code {res.exit_code}: " \
               f"{res.stderr.decode(errors='replace').strip()[-500:]}"
    if res.out_lines != inputs.lines:
        return f"{res.out_lines} lines, expected {inputs.lines}"
    try:
        last = json.loads(res.last_line)
    except ValueError:
        return "last line is not JSON"
    if (last.get("clock"), last.get("status")) != (inputs.clock, inputs.status):
        return (f"ends at clock {last.get('clock')} {last.get('status')}, "
                f"expected {inputs.clock} {inputs.status}")
    if last.get("store", {}).get("consistent") is not True:
        return "final store is inconsistent"
    return None


def reference_s():
    """Seconds this host takes for a fixed pure-Python task.

    The task does the kinds of work tccp does: rational arithmetic, dict
    copies, string and json building. It depends on no code of the
    checkout, so no change to tccp can move it. On a shared virtual
    machine the CPU speed swings by 30-50% over seconds to minutes, and
    the task's time swings with that of the children around it.
    """
    t0 = time.perf_counter()
    cells = {}
    for i in range(1, 20000):
        x = Fraction(i, i + 7) + Fraction(i + 3, i + 11)
        cells[f"k{i % 500}"] = (i, str(x.denominator % 97))
        if i % 50 == 0:
            cells = dict(cells)
            json.dumps(cells)
    return time.perf_counter() - t0


def trimmed_mean(values):
    values = sorted(values)
    k = int(TRIM * len(values))
    return statistics.fmean(values[k:len(values) - k])


def end_to_end(bench, key, seed, inputs, seconds):
    """Wall, CPU and setup time of plain children, at nominal host speed.

    A `check` child precedes each `run` child, so setup_s samples the
    same stretch of time as the other metrics. The reference task runs
    before and after each pair; the pair's times are scaled by
    REFERENCE_NOMINAL_S over the mean of those two. The first pair is a
    warm-up: checked, not timed.
    """
    bench.setup_time(inputs)
    reference = bench.check_run(key, seed, inputs, bench.run_cli(inputs), None)
    deadline = time.perf_counter() + seconds
    runs, setup, scales = [], [], []
    before = reference_s()
    while not runs or time.perf_counter() < deadline:
        setup_s = bench.setup_time(inputs)
        res = bench.run_cli(inputs)
        after = reference_s()
        reference = bench.check_run(key, seed, inputs, res, reference)
        scales.append(2 * REFERENCE_NOMINAL_S / (before + after))
        before = after
        setup.append(setup_s)
        runs.append(res)
        if res.timed_out:
            break
    print(f"perfbench: {key}: {len(runs)} children; unscaled medians "
          f"wall_s {statistics.median(r.wall_s for r in runs):.4f} "
          f"cpu_s {statistics.median(r.cpu_s for r in runs):.4f} "
          f"setup_s {statistics.median(setup):.4f}; "
          f"speed scale {min(scales):.3f}..{max(scales):.3f}", file=sys.stderr)
    return {
        "wall_s": trimmed_mean(r.wall_s * f for r, f in zip(runs, scales)),
        "cpu_s": trimmed_mean(r.cpu_s * f for r, f in zip(runs, scales)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
        "setup_s": trimmed_mean(s * f for s, f in zip(setup, scales)),
    }


def per_layer(bench, key, seed, inputs, seconds):
    """Per-layer metrics: medians over traced children, plain ones between."""
    deadline = time.perf_counter() + seconds
    plain, traced, reference = [], [], None
    while not traced or time.perf_counter() < deadline:
        res = bench.run_cli(inputs)
        reference = bench.check_run(key, seed, inputs, res, reference)
        plain.append(res.wall_s)
        res = bench.run_cli(inputs, traced=True)
        reference = bench.check_run(key, seed, inputs, res, reference)
        if res.timed_out:
            break
        line = res.stderr.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        if not line.startswith(REPORT_PREFIX):
            sys.exit(f"perfbench: traced run of {key} printed no report:\n"
                     + res.stderr.decode(errors="replace"))
        report = json.loads(line[len(REPORT_PREFIX):])
        traced.append(layer_metrics(report, res))
    metrics = {name: statistics.median(m[name] for m in traced)
               for name in traced[0]}
    metrics["trace_overhead"] = (metrics["traced_wall_s"]
                                 / statistics.median(plain))
    return metrics


def layer_metrics(report, res):
    """Named per-layer metrics of one traced child."""
    calls, self_s, counts = report["calls"], report["self_s"], report["counts"]
    steps = sorted(report["step_s"]) or [0.0]

    def pct(q):  # nearest rank
        return steps[max(0, -(-len(steps) * q // 100) - 1)]

    m = {
        "parser.parse_s": self_s["parser.parse"],
        "interp.instants": calls.get("interp.step", 0),
        "interp.threads": counts.get("threads", 0),
        "interp.run_s": self_s["interp.run"],
        "interp.step_s": self_s["interp.step"],
        "interp.step_p50_ms": 1000 * pct(50),
        "interp.step_p99_ms": 1000 * pct(99),
        "store.cells_copied": counts.get("cells_copied", 0),
        "store.merge_siblings": counts.get("merge_siblings", 0),
        "store.ask_entailed": counts.get("ask_entailed", 0),
        "linear.feasible_rows": counts.get("feasible_rows", 0),
        "linear.feasible_empty_calls": counts.get("feasible_empty", 0),
        "cli.args_s": report["args_s"],
        "cli.emit_s": report["emit_s"],
        "cli.json_s": self_s["cli.json"],
        "cli.output_bytes": res.out_bytes,
    }
    for span in ("store.branch", "store.merge", "store.tell", "store.ask",
                 "store.dump", "linear.add", "linear.meet", "linear.entails",
                 "linear.feasible", "ast.pretty"):
        m[span + "_calls"] = calls.get(span, 0)
        m[span + "_s"] = self_s[span]
    m["store.ask_useful_share"] = (m["store.ask_entailed"]
                                   / max(1, m["store.ask_calls"]))
    # other_s is what no span covers, measured apart from the self times,
    # so the check below fails when spans overlap or lose their parent
    m["traced_wall_s"] = res.wall_s
    m["other_s"] = res.wall_s - report["root_s"]
    layers = sum(m[name] for names in LAYER_SELF.values() for name in names)
    gap = abs(layers + m["other_s"] - res.wall_s)
    if gap > ACCOUNTING_TOLERANCE * res.wall_s:
        sys.exit(f"perfbench: layer self times plus other_s miss the traced "
                 f"wall time {res.wall_s:.4f} s by {gap:.4f} s")
    return m


def require_exercised(workload, metrics):
    zero = [name for name in workload.exercises if not metrics[name]]
    if zero:
        sys.exit(f"perfbench: {workload.name} must exercise {', '.join(zero)}, "
                 "but the traced run counted zero; has a wrapped name moved?")


def run_workload(bench, workload, seed, seconds, trace, smoke=False):
    """{metric name: value} of one workload."""
    inputs = workload.inputs(seed, smoke)
    bench.hard_deadline = time.perf_counter() + HARD_LIMIT_S
    key = ("smoke/" if smoke else "") + workload.name
    if not trace:
        return end_to_end(bench, key, seed, inputs, seconds)
    metrics = per_layer(bench, key, seed, inputs, seconds)
    require_exercised(workload, metrics)
    return metrics


def smoke(bench, spec):
    """Every workload at tiny size, both modes, names checked against the spec."""
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        want = sorted(m["name"] for m in spec[kind])
        for w in WORKLOADS.values():
            got = sorted(run_workload(bench, w, 0, SMOKE_SECONDS, trace,
                                      smoke=True))
            if got != want:
                bench.fail(f"{w.name} --trace {trace}: metrics {got}, "
                           f"BENCHMARK.json lists {want}")
            print(f"smoke {w.name} --trace {trace}: {bench.failed} failed",
                  file=sys.stderr)


def main(argv=None):
    tccp = load_tccp()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny size, both modes")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")

    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    bench = Bench(child_env(tccp), json.loads(DIGESTS.read_text()))
    metrics = {}
    if args.smoke:
        smoke(bench, spec)
    elif args.workload == "all":
        for w in WORKLOADS.values():
            attempted, failed = bench.attempted, bench.failed
            m = run_workload(bench, w, args.seed, args.seconds, args.trace)
            share = (bench.failed - failed) / (bench.attempted - attempted)
            print(f"{w.name:18} " + "  ".join(
                f"{k} {v:.4g} {units[k]}" for k, v in m.items())
                + f"  fail_share {share:.4g}")
            metrics.update({f"{w.name}/{k}": {"value": v, "unit": units[k]}
                            for k, v in m.items()})
    else:
        m = run_workload(bench, WORKLOADS[args.workload], args.seed,
                         args.seconds, args.trace)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in m.items()}
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if bench.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
