"""Starts the benchmark's jobs from a small process, one at a time.

Linux charges a child's ``ru_maxrss`` with the resident size of the process
that forked it, so jobs are forked from here rather than from the benchmark,
whose numpy arrays would otherwise set a floor under every job's peak.

Reads one JSON request per stdin line, ``{"argv": [...], "stderr": path}``,
runs the job to completion and answers one JSON line with the wall time from
spawn to exit, the exit code and the child's ``ru_maxrss`` in KiB.  A job
still running after JOB_TIMEOUT_S seconds is killed and reports exit code -9.
"""

import json
import os
import signal
import subprocess
import sys
import time

JOB_TIMEOUT_S = 60


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
            signal.alarm(JOB_TIMEOUT_S)
            _, status, usage = os.wait4(proc.pid, 0)
            signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "exit_code": proc.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
