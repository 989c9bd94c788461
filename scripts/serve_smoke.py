#!/usr/bin/env python
"""CI smoke test of the ``repro serve`` daemon, over real processes.

Starts the daemon as a subprocess on an ephemeral port, submits a
rob-scaling sweep at a small instruction budget through the ``repro
submit`` CLI, follows with a cell-document submission of a wish-branch
cell (the non-paper scheme kinds go through the same submit path), polls
both to completion, re-submits the wish-cell document (its footer must
report ``0 simulated``: a fully cached round trip), then sends SIGTERM and asserts the daemon exits
cleanly (status 0).  A *second* daemon is then started over
the same cache directory: its job journal must list the first daemon's
job as done (``recovered``) and still serve its result — the restart
recovery path, over the wire.  Exercises exactly what a deployment
would: process startup, the HTTP API, the client CLI, signal-driven
shutdown, and journal-based recovery.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [instruction-budget]
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import urllib.request

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def start_daemon(env):
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--max-store-bytes",
            "64M",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    banner = daemon.stdout.readline()
    print(banner.strip())
    match = re.search(r"http://[\d.]+:\d+", banner)
    return daemon, (match.group(0) if match else None)


def stop_daemon(daemon):
    """SIGTERM the daemon; return its exit code (None on timeout)."""
    daemon.send_signal(signal.SIGTERM)
    try:
        code = daemon.wait(timeout=30)
    except subprocess.TimeoutExpired:
        return None
    print(daemon.stdout.read(), end="")
    return code


def submit_file(path, url, env):
    """Run ``repro submit`` on a job-document file; echo and return the run."""
    run = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "submit",
            path,
            "--url",
            url,
            "--timeout",
            "300",
            "--retries",
            "3",
        ],
        env=env,
        cwd=REPO_ROOT,
        timeout=420,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    print(run.stdout, end="")
    return run


def get_json(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def main() -> int:
    budget = sys.argv[1] if len(sys.argv) > 1 else "3000"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.setdefault("REPRO_CACHE_DIR", os.path.join(REPO_ROOT, ".serve-smoke-cache"))

    daemon, url = start_daemon(env)
    revived = None
    try:
        if url is None:
            print("FAIL: daemon did not print its bound address", file=sys.stderr)
            return 1

        submit = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "--instructions",
                budget,
                "submit",
                "rob-scaling",
                "--url",
                url,
                "--timeout",
                "300",
                "--retries",
                "3",
            ],
            env=env,
            cwd=REPO_ROOT,
            timeout=420,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        print(submit.stdout, end="")
        if submit.returncode != 0:
            print(f"FAIL: repro submit exited {submit.returncode}", file=sys.stderr)
            return 1
        match = re.search(r"job ([0-9a-f]+):", submit.stdout)
        if not match:
            print("FAIL: submit output did not name its job id", file=sys.stderr)
            return 1
        job_id = match.group(1)

        # A cell document naming a non-paper scheme kind: the wish-branch
        # scheme must flow through submit -> parse -> engine like any other.
        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", dir=REPO_ROOT, delete=False
        ) as handle:
            json.dump(
                {
                    "cells": [
                        {"benchmark": "gzip", "scheme": {"kind": "wish"}},
                    ],
                    "instructions": int(budget),
                },
                handle,
            )
            cells_path = handle.name
        try:
            wish = submit_file(cells_path, url, env)
            # The same document again: served whole from the store,
            # through the daemon's cached long-poll path.
            again = submit_file(cells_path, url, env)
        finally:
            os.unlink(cells_path)
        if wish.returncode != 0:
            print(f"FAIL: wish-cell submit exited {wish.returncode}", file=sys.stderr)
            return 1
        if "wish" not in wish.stdout:
            print(
                "FAIL: wish-cell result does not mention the wish scheme",
                file=sys.stderr,
            )
            return 1
        if again.returncode != 0:
            print(f"FAIL: repeated wish-cell submit exited {again.returncode}", file=sys.stderr)
            return 1
        if not re.search(r"\b0 simulated\b", again.stdout):
            print(
                "FAIL: repeated wish-cell submit simulated again "
                "(footer does not report '0 simulated')",
                file=sys.stderr,
            )
            return 1

        code = stop_daemon(daemon)
        if code != 0:
            print(f"FAIL: daemon exited {code!r} on SIGTERM", file=sys.stderr)
            return 1

        # Restart over the same cache directory: the journal must bring the
        # finished job back, listable and with its result still servable.
        revived, revived_url = start_daemon(env)
        if revived_url is None:
            print("FAIL: restarted daemon printed no address", file=sys.stderr)
            return 1
        jobs = get_json(f"{revived_url}/v1/jobs")["jobs"]
        recovered = {job["id"]: job for job in jobs}.get(job_id)
        if recovered is None:
            print(
                f"FAIL: restarted daemon does not list job {job_id}",
                file=sys.stderr,
            )
            return 1
        if recovered["state"] != "done" or not recovered["recovered"]:
            print(
                f"FAIL: job {job_id} came back as {recovered['state']} "
                f"(recovered={recovered['recovered']}), expected a recovered "
                "'done'",
                file=sys.stderr,
            )
            return 1
        result = get_json(f"{revived_url}/v1/jobs/{job_id}/result?format=json")
        if not result.get("cells"):
            print(
                f"FAIL: recovered job {job_id} served no result cells",
                file=sys.stderr,
            )
            return 1

        code = stop_daemon(revived)
        if code != 0:
            print(f"FAIL: restarted daemon exited {code!r} on SIGTERM", file=sys.stderr)
            return 1
        print(
            "serve smoke: OK (submit completed, daemon restarted, "
            f"job {job_id} recovered from the journal)"
        )
        return 0
    finally:
        for process in (daemon, revived):
            if process is not None and process.poll() is None:
                process.kill()


if __name__ == "__main__":
    sys.exit(main())
