"""One timed operation in a fresh interpreter, so that peak RSS and CPU
time belong to that operation alone.

    python3 perfbench/child.py REQUEST_JSON

REQUEST_JSON is {"op": ..., ...}; the result is one JSON line on stdout.
srlkit is imported before the clock starts, so import cost is excluded
(it is measured separately as setup_s). Whatever the program prints is
captured and returned, never mixed into this script's own output.

ops:
  cli    {"argv": [...], "reps": n}  cli.main(argv) n times; wall per call,
         exit code and captured stdout of the last call
  trace  traced extract + stats mirror; see traced.run for the request
"""

import contextlib
import io
import json
import resource
import sys
import time

import srlkit.cli
import traced


def _cli(request) -> dict:
    walls, rc, out = [], None, ""
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(request.get("reps", 1)):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            rc = srlkit.cli.main(request["argv"])
            walls.append(time.perf_counter() - t0)
        out = buf.getvalue()
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {"walls": walls, "rc": rc, "stdout": out, "cpu_s": cpu,
            "maxrss_kb": _peak_rss_kb()}


def _peak_rss_kb() -> int:
    """This process's own peak RSS. ru_maxrss is no good here: Linux keeps
    it across fork and exec, so it is at least the spawning parent's RSS."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    request = json.loads(sys.argv[1])
    if request["op"] == "cli":
        result = _cli(request)
    elif request["op"] == "trace":
        result = traced.run(request)
    else:
        raise ValueError(f"unknown op {request['op']!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
