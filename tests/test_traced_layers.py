"""The benchmark's tracer around in-process ``hrcn`` commands.

perfbench binds the functions it traces by name (``workloads.TRACED``) and
lists the spans each workload must reach.  These tests install that tracer,
unchanged, around one ``hrcn solve`` and one ``hrcn compare``: every expected
span is reached and tracing changes no output.  A rename or a signature
change of a traced function fails here instead of only in
``perfbench/run.py --trace 1``.
"""

import contextlib
import io
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")
sys.path.insert(0, BENCH)

from hrcn import cli  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with (contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(io.StringIO())):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _unreached(tracer, spans) -> list:
    return [name for name in spans if not tracer.reached[name]]


def test_solve_reaches_every_span_unchanged():
    argv = ["solve", "--interval", "3"]
    plain = _run(argv)
    with Tracer(workloads.TRACED) as tracer:
        traced = _run(argv)
    assert plain[0] == 0
    assert traced == plain
    assert _unreached(tracer,
                      workloads.SolveSweepWorkload.expected_spans) == []


def test_compare_reaches_every_span_unchanged(tmp_path):
    argv = ["compare", "--trials", "1", "--out", str(tmp_path)]

    def run():
        rc, text = _run(argv)
        files = [(tmp_path / name).read_bytes()
                 for name in ("manifest.json", "results.csv")]
        return rc, text, files

    plain = run()
    with Tracer(workloads.TRACED) as tracer:
        traced = run()
    assert plain[0] == 0
    assert traced == plain
    assert _unreached(tracer, workloads.CompareWorkload.expected_spans) == []
