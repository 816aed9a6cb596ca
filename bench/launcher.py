"""Starts the benchmark's child processes from a small process of its own.

On Linux, the peak RSS that ``os.wait4`` reports for a child is at least
the peak RSS of the process that spawned it, because the spawner's
high-water mark is carried across vfork and exec.  The benchmark process
grows as it collects outputs, so every op is spawned by this launcher
instead.  It runs without ``site`` and sends each child's stdout to a file,
so it stays at the size of a bare interpreter, far below any runcomp
process.

Usage: ``python -S launcher.py STDOUT_FILE``.  Protocol: one JSON array
(the argv) per line on stdin; one JSON object per line on stdout with
``wall_s``, ``cpu_s``, ``rss_kb`` and ``code`` of that child, whose stdout
is then in STDOUT_FILE.
"""

import json
import os
import subprocess
import sys
import time


def main():
    stdout_path = sys.argv[1]
    for line in sys.stdin:
        argv = json.loads(line)
        with open(stdout_path, "wb") as stdout:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stdout,
                                    stderr=subprocess.DEVNULL)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                 "rss_kb": usage.ru_maxrss, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
