"""Spawns the job processes of run.py from a process that stays small.

A child's ru_maxrss also counts the memory of the process it was
forked from, so jobs are not forked from the benchmark itself, whose
memory grows with the outputs it keeps.  Protocol on stdin and stdout:
the first line is {"cwd": ..., "env": {...}}; then each request is one
JSON line holding an argv list, and each reply is one JSON line
{"wall_s", "code", "rss_kib", "out", "err"} (the last two are byte
counts) followed by that many bytes of stdout, then of stderr.  The
wall time runs from spawn to exit with all output read.
"""

import json
import os
import subprocess
import sys
import tempfile
import time


def main() -> None:
    config = json.loads(sys.stdin.readline())
    reply = sys.stdout.buffer
    with tempfile.TemporaryFile(dir=config["cwd"]) as err:
        for line in sys.stdin:
            err.seek(0)
            err.truncate()
            t0 = time.perf_counter()
            proc = subprocess.Popen(json.loads(line), cwd=config["cwd"],
                                    env=config["env"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            data = err.read()
            wall = time.perf_counter() - t0
            head = {"wall_s": wall, "code": proc.returncode,
                    "rss_kib": usage.ru_maxrss, "out": len(out),
                    "err": len(data)}
            reply.write(json.dumps(head).encode() + b"\n" + out + data)
            reply.flush()


if __name__ == "__main__":
    main()
