"""Output-identity check: run a fixed list of CLI invocations and compare
everything they print and write with the same list run on another git ref.

    python3 tools/identity.py                # one digest line per invocation
    python3 tools/identity.py --against REF  # each difference from REF

The list is every ``configs/*.yaml`` through the subcommand on its
``# Usage: sofim <subcommand>`` line, at full length (``scaling`` at
``dims=[1000, 10000]``), then ``sofim gradcheck`` and a run naming an
unknown optimizer, which is refused.  Each invocation runs ``python -m
sofim.cli`` in a fresh interpreter, with the tree's root as working
directory and its ``src`` on ``PYTHONPATH``, into an empty output directory
of its own.  Its record is its exit code, stdout, stderr and every file it
wrote, less what differs between identical runs: the ``wall_ms`` and
``median_step_seconds`` columns and values, and the output directory's path.

``--against`` runs the list, as this tree defines it, on this tree and on a
``git archive`` export of ``REF``, one after the other on the same host, so
nothing is pinned and the check holds on any CPU or BLAS.  It prints each
difference and exits 1 if there is one, else 0.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The CSV columns and printed values that differ between identical runs.
WALL_TIME = ("wall_ms", "median_step_seconds")

#: The most lines of one difference that are printed.
DIFF_LINES = 40


def invocations(root: Path) -> dict:
    """The fixed list of ``sofim`` argument lists, by name."""
    out = {}
    for path in sorted((root / "configs").glob("*.yaml")):
        subcommand = re.search(r"^# Usage: sofim (\S+)", path.read_text(encoding="utf-8"),
                               re.M).group(1)
        sizes = ["--set", "dims=[1000, 10000]"] if subcommand == "scaling" else []
        out[path.name] = [subcommand, f"configs/{path.name}", *sizes]
    out["gradcheck"] = ["gradcheck"]
    out["unknown-optimizer"] = ["run", "configs/quadratic_sofim.yaml", "--set", "optimizer=bogus"]
    return out


def normalized(text: str, out_dir: Path, is_csv: bool = False) -> str:
    """``text`` with the output directory's path and every wall time dropped."""
    text = text.replace(str(out_dir), "<out>")
    if is_csv:
        rows = list(csv.reader(io.StringIO(text)))
        keep = [i for i, column in enumerate(rows[0] if rows else ()) if column not in WALL_TIME]
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([row[i] for i in keep] for row in rows)
        return buffer.getvalue()
    return re.sub(rf"({'|'.join(WALL_TIME)})=\S+", r"\1=<dropped>", text)


def record(tree: Path, scratch: Path, argv: list) -> dict:
    """Run ``sofim argv`` on ``tree`` into a fresh directory under ``scratch``
    and return its normalized exit code, stdout, stderr and files."""
    out_dir = scratch / "out"
    if argv[0] != "gradcheck":
        argv = [*argv, "--set", f"output_dir={out_dir}"]
    env = {key: value for key, value in os.environ.items() if key != "SOFIM_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(tree / "src")
    done = subprocess.run([sys.executable, "-m", "sofim.cli", *argv], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    files = {}
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            text = path.read_bytes().decode("utf-8", errors="replace")
            name = str(path.relative_to(out_dir))
            files[name] = normalized(text, out_dir, path.suffix == ".csv")
    return {"exit": done.returncode, "stdout": normalized(done.stdout, out_dir),
            "stderr": normalized(done.stderr, out_dir), "files": files}


def records(tree: Path, listed: dict, label: str) -> dict:
    """The record of each listed invocation on ``tree``."""
    tic = time.perf_counter()
    out = {}
    for name, argv in listed.items():
        with tempfile.TemporaryDirectory(prefix="identity-") as scratch:
            out[name] = record(tree, Path(scratch), argv)
    print(f"{label}: {len(out)} invocations in {time.perf_counter() - tic:.1f} s",
          file=sys.stderr)
    return out


def export(ref: str, dest: Path) -> Path:
    """A ``git archive`` export of ``ref`` of this repository, in ``dest``."""
    tar = dest / "tree.tar"
    subprocess.run(["git", "-C", str(ROOT), "archive", "--output", str(tar), ref], check=True)
    tree = dest / "tree"
    tree.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(tree)], check=True)
    return tree


def differences(ours: dict, theirs: dict, ref: str) -> list:
    """One block of text per item that differs between two sets of records."""
    out = []

    def compare(where: str, a, b) -> None:
        if a == b:
            return
        if isinstance(a, str) and isinstance(b, str):
            lines = list(difflib.unified_diff(b.splitlines(), a.splitlines(), ref, "this tree",
                                              lineterm=""))
            more = len(lines) - DIFF_LINES
            lines = lines[:DIFF_LINES] + ([f"... {more} more lines"] if more > 0 else [])
            out.append(f"{where}:\n" + "\n".join(lines))
        else:
            out.append(f"{where}: {ref} {b!r}, this tree {a!r}")

    for name in sorted({*ours, *theirs}):
        a, b = ours.get(name), theirs.get(name)
        if a is None or b is None:
            out.append(f"{name}: only {'in ' + ref if a is None else 'in this tree'}")
            continue
        for key in ("exit", "stdout", "stderr"):
            compare(f"{name} {key}", a[key], b[key])
        for path in sorted({*a["files"], *b["files"]}):
            if path not in a["files"] or path not in b["files"]:
                out.append(f"{name} {path}: written only "
                           f"{'by ' + ref if path not in a['files'] else 'by this tree'}")
            else:
                compare(f"{name} {path}", a["files"][path], b["files"][path])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REF",
                        help="git ref to compare with; without it, print a digest per invocation")
    args = parser.parse_args(argv)
    listed = invocations(ROOT)
    ours = records(ROOT, listed, "this tree")
    if args.against is None:
        for name, rec in ours.items():
            digest = hashlib.sha256(json.dumps(rec, sort_keys=True).encode()).hexdigest()[:16]
            print(f"{name} exit={rec['exit']} {digest}")
        return 0
    with tempfile.TemporaryDirectory(prefix="identity-ref-") as scratch:
        theirs = records(export(args.against, Path(scratch)), listed, args.against)
    found = differences(ours, theirs, args.against)
    for block in found:
        print(block)
    print(f"{len(found)} difference(s) against {args.against} in {len(listed)} invocations")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
