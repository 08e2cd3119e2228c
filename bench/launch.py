"""Starts the benchmark's commands from a process that stays small.

Linux carries the peak RSS of the process that starts a child across exec
into the child's own ru_maxrss, so a benchmark that holds its generated
inputs in memory would report its own size for every command it starts.
This helper holds little. It reads one JSON request per line on stdin,
``{"argv", "cwd", "timeout"}``, runs the command to completion with its
stdout and stderr in ``cwd/.stdout`` and ``cwd/.stderr``, and answers with
one JSON line: ``{"wall", "refs", "rss_mb", "code", "timed_out"}``, the
peak RSS being the child's own, from wait4.

The helper pins itself, and so every command it starts, to one CPU, and
times a fixed reference task on that CPU just before and just after each
command; ``refs`` holds those timings. On a shared host the speed of a CPU
swings by up to 2x within seconds, and its average over a minute drifts
with what other tenants run beside it (a process's CPU time equals its wall
time throughout). The reference task is slowed by the same swings, so over
a run the mean command time divided by the mean reference time measures
the command's cost with the drift cancelled out.
"""

import json
import os
import subprocess
import sys
import threading
import time

REF_SAMPLES = 2  # timings of the reference task on each side of a command
_ROWS = json.dumps([
    {"dialogue_id": f"d{i // 30:04d}", "turn_index": i,
     "text": f"could you bring the {i % 17} old letters to the station {i % 5} today"}
    for i in range(600)
])


def reference() -> int:
    """A small cut of qapkit's own work: parse JSON rows and count their words, then
    build a 10k-entry table and look keys up in it out of order. Measured on a
    shared host, the table part follows the tree learner's slow-downs, which the
    JSON part alone under-corrects."""
    counts: dict = {}
    for _ in range(4):
        for row in json.loads(_ROWS):
            for word in row["text"].split():
                counts[word] = counts.get(word, 0) + 1
    table = {f"w{i}-{i % 97}": (i, i % 13) for i in range(10_000)}
    keys = list(table)
    total = 0
    for j in range(20_000):
        total += table[keys[j * 7919 % 10_000]][1]
    return len(counts) + total


def ref_times() -> list:
    times = []
    for _ in range(REF_SAMPLES):
        start = time.perf_counter()
        reference()
        times.append(time.perf_counter() - start)
    return times


def spawn(argv: list, cwd: str, timeout: float) -> dict:
    timed_out = threading.Event()
    before = ref_times()
    with open(os.path.join(cwd, ".stdout"), "wb") as out, open(os.path.join(cwd, ".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(timeout, lambda: (timed_out.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "refs": before + ref_times(), "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode, "timed_out": timed_out.is_set()}


def main() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
