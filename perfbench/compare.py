"""Diff the numeric outputs of two benchmark results files to a tolerance.

    python3 perfbench/compare.py OLD.json NEW.json [--rtol 1e-9] [--atol 0]

The files are the ``.perfbench/results/*.json`` documents that ``run.py``
writes.  Numbers match when ``|new - old| <= atol + rtol * |old|``; every
other value must be equal.  Prints each mismatch and exits 1 if there is
any, so a performance change can show that its results did not move.
"""

from __future__ import annotations

import argparse
import json
import math
import sys


def diff(old, new, rtol, atol, path="outputs"):
    """Yield a description of every leaf where ``new`` differs from ``old``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new:
                yield f"{path}.{key}: present in only one file"
            else:
                yield from diff(old[key], new[key], rtol, atol, f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            yield f"{path}: length {len(old)} != {len(new)}"
        for k, (a, b) in enumerate(zip(old, new)):
            yield from diff(a, b, rtol, atol, f"{path}[{k}]")
    elif (isinstance(old, (int, float)) and isinstance(new, (int, float))
          and not isinstance(old, bool) and not isinstance(new, bool)):
        if not (math.isclose(new, old, rel_tol=rtol, abs_tol=atol)
                or (math.isnan(old) and math.isnan(new))):
            yield f"{path}: {old!r} -> {new!r}"
    elif old != new:
        yield f"{path}: {old!r} -> {new!r}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rtol", type=float, default=1e-9)
    parser.add_argument("--atol", type=float, default=0.0)
    args = parser.parse_args(argv)
    docs = []
    for path in (args.old, args.new):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    mismatches = list(diff(docs[0]["outputs"], docs[1]["outputs"],
                           args.rtol, args.atol))
    for line in mismatches:
        print(line)
    print(f"{len(mismatches)} mismatches (rtol={args.rtol}, atol={args.atol})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
