"""The benchmark's own tests: python3 -m pytest -q perfbench"""

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

from child import spawn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def last_json(stdout):
    return json.loads(stdout.splitlines()[-1])


def test_smoke_runs_every_workload_in_both_modes():
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert res.returncode == 0, res.stderr
    out = last_json(res.stdout)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0


def test_spec_lists_the_shipped_workloads():
    from workloads import WORKLOADS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    digests = json.loads((HERE / "digests.json").read_text())
    for name in WORKLOADS:
        assert {"0", "7919"} <= set(digests[name])
        assert set(digests[f"smoke/{name}"]) == {"0"}


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                          "counter-chains", "--seed", "0", "--seconds", "1",
                          "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=170)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout


def test_spawn_hashes_the_stream_and_keeps_the_last_line():
    long_line = "x" * 300_000  # spans several reads
    script = ("import sys\nprint('first')\nprint(sys.stdin.read().strip())\n"
              "print('x' * 300_000)\n")
    res = spawn([sys.executable, "-c", script], b"from stdin\n", None,
                str(HERE), time.perf_counter() + 60)
    want = f"first\nfrom stdin\n{long_line}\n".encode()
    assert res.exit_code == 0 and not res.timed_out
    assert res.sha256 == hashlib.sha256(want).hexdigest()
    assert (res.out_bytes, res.out_lines) == (len(want), 3)
    assert res.last_line == long_line.encode()
    assert res.cpu_s > 0 and res.peak_rss_mb > 1 and res.wall_s > 0
