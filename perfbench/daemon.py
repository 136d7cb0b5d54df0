"""Run ``repro serve`` with the benchmark's layer probes installed.

Used by the traced ``serve_mix`` run in place of ``python -m repro serve``::

    PYTHONPATH=src python perfbench/daemon.py --spans-out SPANS.json -- --trace serve

Everything after ``--`` is handed to the ``repro`` command line unchanged.
When the server stops (SIGINT), every recorded span, the probes' and the
program's own, is written to ``SPANS.json`` for the benchmark to read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.cli import main as repro_main
from repro.obs.trace import drain_spans

from probes import check_complete, installed


def run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, type=Path)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args[1:] if args.repro_args[:1] == ["--"] else args.repro_args
    with installed():
        code = repro_main(repro_args)
    check_complete()
    args.spans_out.write_text(json.dumps(drain_spans(), default=str))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
