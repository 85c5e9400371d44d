"""Record the expected output of every shipped (workload, seed) pair.

    python3 perfbench/record.py

Runs each workload once per seed in SEEDS, plus every workload at smoke
size for seed 0, and writes [exit code, stdout sha256, stdout bytes] for
each to digests.json. The jsonl bytes are fixed by the project, so
digests.json changes only when a workload or its size does; re-record
then, at a commit whose output is known to be right.
"""

import json
import sys

import run
from workloads import WORKLOADS

# 0-39 cover the small seeds; 7919 is held out:
# it was never used while the workloads were sized.
SEEDS = (*range(40), 7919)


def main():
    tccp = run.load_tccp()
    env = run.child_env(tccp)
    table = {}
    for key, seeds, smoke in (
            *((name, SEEDS, False) for name in WORKLOADS),
            *((f"smoke/{name}", (0,), True) for name in WORKLOADS)):
        w = WORKLOADS[key.removeprefix("smoke/")]
        table[key] = {}
        for seed in seeds:
            inputs = w.inputs(seed, smoke)
            bench = run.Bench(env, {})
            res = bench.run_cli(inputs)
            problem = run.shape_problem(inputs, res)
            if problem:
                sys.exit(f"record: {key} seed {seed}: {problem}")
            table[key][str(seed)] = [res.exit_code, res.sha256, res.out_bytes]
            print(f"{key} {seed} {res.sha256} {res.wall_s:.3f} s", flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
