"""Start a ``repro serve`` daemon, optionally with the layer wrappers.

The serve-warm workload launches its daemon through this script so the
traced run can install the wrappers inside the daemon process before the
CLI starts serving.  Everything after ``--`` is passed to ``repro``'s CLI
unchanged.  With ``--spans-dir`` the daemon is traced and writes its roots
there when it shuts down (SIGTERM).

    PYTHONPATH=src python3 perfbench/serve_launcher.py [--spans-dir DIR] \
        -- --cache-dir STORE serve --port 0
"""

from __future__ import annotations

import argparse
import sys

import tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-dir")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    recorder = tracer.prepare(args.spans_dir)

    from repro.cli import main as repro_main

    try:
        return repro_main(cli)
    finally:
        if recorder is not None:
            recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
