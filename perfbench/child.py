"""Run one child process and measure it.

The child's stdout is hashed as it streams, so a 20 MB trace is never
held in memory; only its last line is kept, for the shape check. The
child is reaped with `os.wait4`, which gives its own CPU time and peak
resident set, not those of every child so far.
"""

import hashlib
import os
import selectors
import subprocess
import time
from dataclasses import dataclass

CHUNK = 1 << 16


@dataclass
class Result:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    sha256: str
    out_bytes: int
    out_lines: int
    last_line: bytes
    stderr: bytes
    timed_out: bool


def spawn(argv, stdin, env, cwd, deadline):
    """Run argv to completion with `stdin` (bytes) as its input.

    The child is killed if it is still running at `deadline`
    (a time.perf_counter() value); the result then has timed_out set.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    # the program text is far below a pipe buffer, so this cannot block
    proc.stdin.write(stdin)
    proc.stdin.close()
    digest = hashlib.sha256()
    out_bytes = out_lines = 0
    line, last = [], []  # the line being read, the last complete one
    err = []
    timed_out = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(timeout=left):
                chunk = os.read(key.fd, CHUNK)
                if not chunk:
                    sel.unregister(key.fileobj)
                elif key.fileobj is proc.stdout:
                    digest.update(chunk)
                    out_bytes += len(chunk)
                    out_lines += chunk.count(b"\n")
                    end = chunk.rfind(b"\n")
                    if end < 0:
                        line.append(chunk)
                        continue
                    start = chunk.rfind(b"\n", 0, end) + 1
                    last = line + [chunk[:end]] if start == 0 \
                        else [chunk[start:end]]
                    line = [chunk[end + 1:]]
                else:
                    err.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Result(
        exit_code=proc.returncode, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        sha256=digest.hexdigest(), out_bytes=out_bytes, out_lines=out_lines,
        last_line=b"".join(line if any(line) else last),
        stderr=b"".join(err), timed_out=timed_out)
