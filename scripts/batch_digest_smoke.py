#!/usr/bin/env python
"""CI batch-digest smoke: the benchmark's batch commands must produce the
pinned counters.

Runs ``perfbench/child.py`` once for each command of the benchmark's
``batch`` workload (``paper-cold``, ``shootout`` and ``long-stream``), each
in a fresh process and a fresh temporary work directory, and compares the
digest it prints (a hash of every simulated cell's committed instructions,
cycles, branch mispredictions, override flushes and predicate flushes)
with the value pinned below.  A timing-kernel or predictor change that
moves any counter of any cell fails here, with the command's name.

Usage::

    PYTHONPATH=src python scripts/batch_digest_smoke.py [command ...]

With no arguments all three commands run.  Nothing under ``perfbench/`` is
modified; the child's working files live in the temporary directories.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")

#: The digest each batch command must print.
EXPECTED_DIGESTS = {
    "paper-cold": "b1a6cba8b2f72139",
    "shootout": "67cdc9e7fcf99d5e",
    "long-stream": "796cebc2ba94bde8",
}


def run_command(command: str) -> dict:
    """Run one batch command in a fresh process; return its JSON report."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory(prefix=f"batch-{command}-") as work_dir:
        completed = subprocess.run(
            [sys.executable, CHILD, "--workload", command, "--work-dir", work_dir],
            cwd=work_dir,
            env=env,
            capture_output=True,
            text=True,
            check=False,
        )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{command}: child exited with {completed.returncode}")
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{command}: child printed no report")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    commands = (argv if argv is not None else sys.argv[1:]) or list(EXPECTED_DIGESTS)
    unknown = [command for command in commands if command not in EXPECTED_DIGESTS]
    if unknown:
        raise SystemExit(f"unknown batch command(s): {', '.join(unknown)}")
    failures = []
    for command in commands:
        start = time.perf_counter()
        report = run_command(command)
        elapsed = time.perf_counter() - start
        expected = EXPECTED_DIGESTS[command]
        ok = report["digest"] == expected and report["failed"] == 0
        print(
            f"{command:12s} digest {report['digest']} (expected {expected}) "
            f"cells {report['cells']} failed {report['failed']} "
            f"sim_inst {report['sim_inst']} [{elapsed:.1f} s] {'ok' if ok else 'MISMATCH'}"
        )
        if not ok:
            failures.append(command)
    if failures:
        raise SystemExit(f"batch digest mismatch: {', '.join(failures)}")
    print("batch digests: all match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
