"""Full-size output identity of two source trees on every benchmark workload.

    PYTHONPATH=src python tests/same_outputs.py PARENT CHANGE [--seed N ...]

PARENT and CHANGE are checkouts whose ``src`` directories hold a qapkit.
For each workload of ``bench/workloads.py`` at the benchmark's own size, and
each seed (101 and 202 by default), the workload's commands run once against
each tree's ``src``, each in a fresh directory, and the results are compared
as ``tests/test_golden.py`` hashes them: the sha256 of every file left in the
directory and of each command's stdout and stderr, and each exit code. Every
difference is printed on a line of its own, and the exit code is 1 if there
is any, 0 if there is none.
"""

import argparse
import sys
import tempfile
from pathlib import Path

from test_golden import WORKLOAD_SIZES, run_workload


def differences(label: str, old: dict, new: dict) -> list[str]:
    """One line per command field or file whose hash or exit code differs between two manifest entries."""
    out = []
    for command in {**old["commands"], **new["commands"]}:
        a, b = old["commands"].get(command, {}), new["commands"].get(command, {})
        out += [f"{label}: {command} {field}: {a.get(field)} != {b.get(field)}"
                for field in ("exit", "stdout", "stderr") if a.get(field) != b.get(field)]
    for path in {**old["files"], **new["files"]}:
        a, b = old["files"].get(path, "missing"), new["files"].get(path, "missing")
        if a != b:
            out.append(f"{label}: file {path}: {a} != {b}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, action="append", help="workload seed; repeatable (default 101 and 202)")
    args = parser.parse_args(argv)
    found = []
    for seed in args.seed or [101, 202]:
        for name in WORKLOAD_SIZES:
            entries = []
            for tree in (args.parent, args.change):
                with tempfile.TemporaryDirectory() as work:
                    entries.append(run_workload(name, Path(work), seed, sizes={}, path=tree.resolve() / "src")[0])
            found += differences(f"{name} seed {seed}", *entries)
            print(f"{name} seed {seed}: {len(entries[0]['commands'])} commands, "
                  f"{len(entries[0]['files'])} files compared", file=sys.stderr)
    print("\n".join(found) if found else "every output is the same")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
