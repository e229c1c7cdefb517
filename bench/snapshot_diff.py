#!/usr/bin/env python3
"""Compares two BENCH_*.json snapshots field by field.

    python3 bench/snapshot_diff.py COMMITTED FRESH --ignore wall_s,decisions_per_s

Keys named by --ignore are skipped at any depth (wall-clock fields vary
from run to run); every other field must be equal in value and JSON
type. Prints each differing path and exits 1 if there is one, 0 if the
two documents agree.
"""
import argparse
import json
import sys


def diff(a, b, path, ignore, out):
    """Appends to `out` one line per path where a and b differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key in ignore:
                continue
            if key not in b:
                out.append(f"{path}/{key}: missing from the fresh snapshot")
            elif key not in a:
                out.append(f"{path}/{key}: not in the committed snapshot")
            else:
                diff(a[key], b[key], f"{path}/{key}", ignore, out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{path}: {len(a)} items committed, {len(b)} fresh")
        for i, (x, y) in enumerate(zip(a, b)):
            diff(x, y, f"{path}[{i}]", ignore, out)
    elif type(a) is not type(b) or a != b:
        out.append(f"{path}: committed {a!r}, fresh {b!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("committed")
    ap.add_argument("fresh")
    ap.add_argument("--ignore", default="",
                    help="comma-separated keys to skip at any depth")
    a = ap.parse_args()
    with open(a.committed) as f:
        committed = json.load(f)
    with open(a.fresh) as f:
        fresh = json.load(f)
    ignore = {k for k in a.ignore.split(",") if k}
    out = []
    diff(committed, fresh, "", ignore, out)
    for line in out:
        print(line)
    if out:
        print(f"{len(out)} field(s) differ between {a.committed} and {a.fresh}")
        return 1
    print(f"{a.fresh} matches {a.committed}"
          + (f" (ignoring {', '.join(sorted(ignore))})" if ignore else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
