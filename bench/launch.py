"""Run one command to completion and print its wall time and resource use as JSON.

    python3 bench/launch.py TIMEOUT_S STDOUT_PATH COMMAND...

The command's stdout goes to STDOUT_PATH; this process prints one JSON line
with ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and ``returncode`` (``-9`` after a
timeout).  The numbers come from ``os.wait4`` on that one child.

The benchmark spawns every measured child through this small process, not
directly: Linux carries the spawning process's own peak RSS over into the
child's ``ru_maxrss`` across exec, so a child spawned by the benchmark itself,
which holds numpy and checked outputs, would report the benchmark's memory.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout_s, stdout_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "wall_s": wall_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "returncode": proc.returncode,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
