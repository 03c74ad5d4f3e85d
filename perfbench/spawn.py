"""Run one command and report its wall time and peak RSS as a JSON line.

    python3 -S perfbench/spawn.py TIMEOUT_S OUT_FILE ERR_FILE COMMAND [ARG ...]

Linux carries a process's peak RSS across fork and exec, so a child spawned
by the benchmark's own interpreter (numpy, scipy and the parsed inputs
loaded) would report at least the benchmark's RSS. Spawning through this
small interpreter keeps ``ru_maxrss`` the command's own. The command is
killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout, out, err, *argv = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    print(json.dumps({
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "exit": os.waitstatus_to_exitcode(status),
    }))


if __name__ == "__main__":
    main()
