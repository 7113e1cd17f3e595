"""Start and time child processes from a process with a small memory image.

Linux charges a child's ``ru_maxrss`` with the peak resident size of the
process it was forked from (the old image's high-water mark is kept across
exec), so children forked by the benchmark itself, which holds NumPy and
SciPy, would all report at least the benchmark's size. This launcher runs
as its own small interpreter and forks the children instead.

Protocol: one JSON request per line on stdin (``argv``, ``env``, ``cwd``,
``stdout``, ``stderr``, ``timeout``), one JSON reply per line on stdout
(``wall``, ``code``, ``max_rss_kb``, ``timed_out``). It exits at end of input.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"]
        )
        status = None
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([pidfd], [], [], request["timeout"])
            finally:
                os.close(pidfd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            if status is None:
                proc.kill()
                os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "code": proc.returncode,
        "max_rss_kb": usage.ru_maxrss,
        "timed_out": not ready,
    }


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
