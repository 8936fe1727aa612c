"""Compare the `confcalc check` report of a base revision with this checkout's.

Usage, from the root of a git checkout:

    python3 tools/compare_check.py BASE_REV [CHECK_ARG ...]
    python3 tools/compare_check.py BASE_REV SUBCOMMAND [ARG ...]

BASE_REV is exported with `git archive` to a temporary directory.  Then
`python -m confcalc check CHECK_ARG ...` runs once with that export's
`src/` and once with this checkout's `src/`.  The script prints whether
the two reports are byte-identical.  If they are not, it prints how many
cases moved and lists them: position, identity id, subject and inputs.
A moved case is reported, not refused, so the exit status is 0 whenever
both reports were produced.

The second form runs any other subcommand the same way, for example
`ivp ...` or `deriv ... --t-range ...`.  Its output has no cases to
list, so only the sizes, the sha256 digests and byte identity are
printed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _report(src: Path, args: list[str]) -> bytes:
    run = subprocess.run(
        [sys.executable, "-m", "confcalc", *args],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, cwd=src.parent,
    )
    if not run.stdout:
        sys.exit(f"{args[0]} at {src} produced no report (exit {run.returncode}):\n"
                 + run.stderr.decode(errors="replace"))
    return run.stdout


def _case_id(i: int, case: dict) -> str:
    inputs = json.dumps(case["inputs"], sort_keys=True)
    return f"#{i} {case['identity_id']} {case['subject']} {inputs}"


def _moved(base: dict, head: dict) -> list[str]:
    old, new = base["cases"], head["cases"]
    ids = [_case_id(i, c) for i, c in enumerate(new) if i >= len(old) or c != old[i]]
    ids += [_case_id(i, c) + " (only in base)" for i, c in enumerate(old) if i >= len(new)]
    return ids


def main(argv: list[str]) -> int:
    if not argv:
        sys.exit(__doc__)
    rev, args = argv[0], argv[1:]
    if not args or args[0].startswith("-"):
        args = ["check", *args]
    with tempfile.TemporaryDirectory() as tmp:
        tar = Path(tmp) / "base.tar"
        subprocess.run(["git", "-C", str(ROOT), "archive", "-o", str(tar), rev, "src"],
                       check=True)
        with tarfile.open(tar) as t:
            t.extractall(Path(tmp) / "base", filter="data")
        base = _report(Path(tmp) / "base" / "src", args)
    head = _report(ROOT / "src", args)

    for name, out in (("base", base), ("head", head)):
        print(f"{name}: {len(out)} bytes, sha256 {hashlib.sha256(out).hexdigest()}")
    if base == head:
        print(f"{args[0]} reports are byte-identical")
        return 0
    if args[0] != "check":
        print(f"{args[0]} reports differ")
        return 0
    moved = _moved(json.loads(base), json.loads(head))
    print(f"check reports differ: {len(moved)} case(s) moved")
    for line in moved:
        print("  " + line)
    if not moved:
        print("  every case matches; the summary, config or statements differ")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
