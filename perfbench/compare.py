"""Compare two benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Refuses, with exit code 2, to compare results of different workloads or
modes, or results measured on a different kernel backend or BLAS
configuration, because their times do not measure the same thing.
Otherwise prints every metric of both and the change as a share of BEFORE.
"""

import argparse
import json
import sys
from pathlib import Path

#: Provenance fields that must match for two results to be comparable.
MUST_MATCH = ("kernel_backend", "blas", "blas_threads")


def refusal(before: dict, after: dict) -> str | None:
    """Why the two results may not be compared, or None."""
    for key in ("workload", "trace"):
        if before[key] != after[key]:
            return f"{key} differs: {before[key]!r} vs {after[key]!r}"
    for key in MUST_MATCH:
        a, b = before["provenance"][key], after["provenance"][key]
        if a != b:
            return f"provenance {key} differs: {a!r} vs {b!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = (json.loads(p.read_text(encoding="utf-8")) for p in (args.before, args.after))
    reason = refusal(before, after)
    if reason:
        print(f"refusing to compare: {reason}", file=sys.stderr)
        return 2
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"{name:<52} {old['value']:>14.6g} {'(missing)':>14}")
            continue
        change = (f"{(new['value'] - old['value']) / old['value']:+.1%}"
                  if old["value"] else "")
        print(f"{name:<52} {old['value']:>14.6g} {new['value']:>14.6g} {old['unit']:<6} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
