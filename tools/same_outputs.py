#!/usr/bin/env python3
"""Byte-compare the output files of two source trees.

    python3 tools/same_outputs.py --parent ../hrcn-parent --change . \
        [--keep DIR]

Each tree runs the same ``hrcn`` commands in one process of its own, with
its own ``src/hrcn``, ``perfbench/scenarios.py`` and ``tests/conftest.py``
on the path:

* ``hrcn compare --trials 3 --seed 1`` on the packaged default scenario and
  on ``large_net(0)``, and ``hrcn compare --trials 100 --seed 0`` on the
  default scenario, a full-size Monte-Carlo batch;
* ``hrcn compare --trials 3 --seed 1`` on the default scenario with
  ``--policies random optimized``, a reordered subset of the policies
  tracked together, and with ``--policies uniform``, a batch of one plan;
* ``hrcn simulate --seed 1``, a single tracking trial;
* ``hrcn solve --interval k`` for every interval of every floor variant of
  the ``solve-sweep`` benchmark workload at seeds 0 and 3, and of
  ``large_net(0)``;
* ``hrcn solve --interval k`` for every interval, and ``hrcn compare
  --trials 3 --seed 1``, on the default scenario with per-interval (J, K)
  floors: interval k takes the k-th of the ``solve-sweep`` floor variants
  at seed 0, from slack to tight;
* ``hrcn compare --trials 3 --seed 1`` on the default scenario with its
  last PAR revisiting target 1 at 1.5 times its interval, so the targets
  keep different numbers of rows in an interval;
* ``hrcn solve --interval k`` for every interval, and ``hrcn compare
  --trials 3 --seed 1``, on the default scenario with every radar's first
  look at target 1 one interval later, so target 1 has no rows in interval
  0: an empty block of the schedule's row table.  Planning runs on the
  prior alone there, and tracking keeps target 1's prediction;
* ``hrcn solve --interval k`` for every interval, and ``hrcn sweep
  --interval 3`` of the base-station budget over 20 and 30 W, on the
  default scenario with the floors of ``tests/conftest.py``'s
  ``floors_the_even_comm_split_misses``: from interval 1 on, the problems
  chain their priors through the solver's start point wherever the even
  comm split misses a floor;
* ``hrcn compare --trials 3 --seed 1`` and ``hrcn simulate --seed 1`` on
  the default scenario with target 0 at zero process-noise intensity, so
  one target's truth is the noise-free constant-velocity recursion and the
  other's is noisy;
* ``hrcn sweep --values 0.5 1.0 1.5``, and the same sweep of the
  base-station budget over 5, 10 and 40 W, at interval 0;
* ``hrcn sweep --interval 3`` of the base-station budget over 10, 30 and
  60 W, whose problems take their priors from the uniform chain.

Every command's stdout (or stderr and exit code, when it fails) and every
file it writes are kept under one output directory per tree.  The tool then
reports, per file, ``same`` or the offset of the first differing byte
followed by the first differing line of each tree with its line number and,
for a text file, how many of its numeric fields differ, compared by
position, and the largest relative difference among them (or, when the
trees' files hold different numbers of numeric fields, both counts).  It
exits 1 unless every file is byte-identical and present in both trees.
The output directories live in a temporary directory deleted on exit, or,
with ``--keep DIR``, in ``DIR/parent`` and ``DIR/change``, which must not
exist yet and are kept.

Standard library only.
"""

import argparse
import contextlib
import os
import re
import subprocess
import sys
import tempfile

SOLVE_SEEDS = (0, 3)

# a number that is a field of its own, not part of a name such as "link1"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"(?![\w.])")

# Runs inside a tree, with its src/, perfbench/ and tests/ on sys.path and
# the output directory as the working directory.
SCRIPT = """
import contextlib, dataclasses, io, sys
import numpy as np
import hrcn.cli
import scenarios
import workloads
from conftest import floors_the_even_comm_split_misses
from hrcn.scenario import (RadarKind, build_schedule, default_scenario_path,
                           load_scenario)

def run(name, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = hrcn.cli.main(argv)
    with open(name + ".out", "w") as fh:
        fh.write(f"exit {rc}\\n" + out.getvalue()
                 + (err.getvalue() if rc else ""))

scenarios.to_yaml(scenarios.large_net(0), "large_net.yaml")
run("compare-default", ["compare", "--trials", "3", "--seed", "1",
                        "--out", "compare-default"])
run("compare-large-net", ["compare", "--trials", "3", "--seed", "1",
                          "--scenario", "large_net.yaml",
                          "--out", "compare-large-net"])
run("compare-100", ["compare", "--trials", "100", "--seed", "0",
                    "--out", "compare-100"])
for name, policies in (("compare-subset", ["random", "optimized"]),
                       ("compare-uniform", ["uniform"])):
    run(name, ["compare", "--trials", "3", "--seed", "1",
               "--policies", *policies, "--out", name])
run("simulate", ["simulate", "--seed", "1", "--out", "simulate"])
base = load_scenario(default_scenario_path())
schedule = build_schedule(base)
for seed in SEEDS:
    for v, floor in enumerate(scenarios.floor_variants(
            base, schedule, seed, workloads.SolveSweepWorkload.n_variants)):
        path = f"floor_s{seed}_v{v}.yaml"
        scenarios.to_yaml(dataclasses.replace(
            base, comm=dataclasses.replace(base.comm, throughput_floor=floor)),
            path)
        for k in range(base.grid.num_intervals):
            run(f"solve-s{seed}-v{v}-k{k}",
                ["solve", "--scenario", path, "--interval", str(k)])
net = scenarios.large_net(0)
for k in range(net.grid.num_intervals):
    run(f"solve-large-net-k{k}", ["solve", "--scenario", "large_net.yaml",
                                  "--interval", str(k)])
k_n = base.grid.num_intervals
scenarios.to_yaml(dataclasses.replace(base, comm=dataclasses.replace(
    base.comm, throughput_floor=np.stack(scenarios.floor_variants(
        base, schedule, 0, k_n), axis=1))), "floor_jk.yaml")
for k in range(k_n):
    run(f"solve-floor-jk-k{k}", ["solve", "--scenario", "floor_jk.yaml",
                                 "--interval", str(k)])
run("compare-floor-jk", ["compare", "--trials", "3", "--seed", "1",
                         "--scenario", "floor_jk.yaml",
                         "--out", "compare-floor-jk"])
# the last PAR revisits target 1 every 3 s instead of 2, so the targets
# keep different numbers of rows in an interval
radars = list(base.radars)
par = [i for i, r in enumerate(radars) if r.kind is RadarKind.PAR][-1]
radars[par] = dataclasses.replace(radars[par], revisit_interval=(
    radars[par].revisit_interval * np.array([1.0, 1.5])))
scenarios.to_yaml(dataclasses.replace(base, radars=radars), "uneven_rows.yaml")
run("compare-uneven-rows", ["compare", "--trials", "3", "--seed", "1",
                            "--scenario", "uneven_rows.yaml",
                            "--out", "compare-uneven-rows"])
# every radar first looks at target 1 one interval later: no rows of target
# 1 in interval 0
later = np.array([0.0, base.grid.interval_length])
scenarios.to_yaml(dataclasses.replace(base, radars=[dataclasses.replace(
    r, initial_time=r.initial_time + later) for r in base.radars]),
    "empty_block.yaml")
for k in range(k_n):
    run(f"solve-empty-block-k{k}", ["solve", "--scenario", "empty_block.yaml",
                                    "--interval", str(k)])
run("compare-empty-block", ["compare", "--trials", "3", "--seed", "1",
                            "--scenario", "empty_block.yaml",
                            "--out", "compare-empty-block"])
# link 0's floor is one the even comm split misses
scenarios.to_yaml(dataclasses.replace(base, comm=dataclasses.replace(
    base.comm, throughput_floor=floors_the_even_comm_split_misses(
        base, schedule))), "split_missed.yaml")
for k in range(k_n):
    run(f"solve-split-missed-k{k}",
        ["solve", "--scenario", "split_missed.yaml", "--interval", str(k)])
run("sweep-split-missed-k3", ["sweep", "--scenario", "split_missed.yaml",
                              "--interval", "3", "--param", "comm-budget",
                              "--values", "20", "30",
                              "--out", "sweep-split-missed-k3"])
# target 0 moves without process noise: its truth is the constant-velocity
# prediction, while target 1's is noisy
scenarios.to_yaml(dataclasses.replace(base, targets=[dataclasses.replace(
    base.targets[0], process_noise_intensity=0.0), *base.targets[1:]]),
    "quiet_target.yaml")
run("compare-quiet-target", ["compare", "--trials", "3", "--seed", "1",
                             "--scenario", "quiet_target.yaml",
                             "--out", "compare-quiet-target"])
run("simulate-quiet-target", ["simulate", "--seed", "1",
                              "--scenario", "quiet_target.yaml",
                              "--out", "simulate-quiet-target"])
run("sweep", ["sweep", "--values", "0.5", "1.0", "1.5", "--out", "sweep"])
run("sweep-budget", ["sweep", "--param", "comm-budget", "--values", "5", "10",
                     "40", "--out", "sweep-budget"])
run("sweep-budget-k3", ["sweep", "--interval", "3", "--param", "comm-budget",
                        "--values", "10", "30", "60",
                        "--out", "sweep-budget-k3"])
"""


def run_tree(tree: str, outdir: str) -> None:
    tree = os.path.abspath(tree)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(tree, name) for name in ("src", "perfbench", "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("HRCN_OUTPUT_DIR", None)
    code = f"SEEDS = {SOLVE_SEEDS!r}\n" + SCRIPT
    proc = subprocess.run([sys.executable, "-c", code], cwd=outdir, env=env,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"outputs script failed in {tree}: "
                           f"{proc.stderr[-1000:]}")


def files_under(root: str) -> set:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def first_difference(a: bytes, b: bytes) -> int:
    """Offset of the first differing byte, or -1 when a == b."""
    if a == b:
        return -1
    n = min(len(a), len(b))
    return next((i for i in range(n) if a[i] != b[i]), n)


def first_differing_line(a: bytes, b: bytes) -> tuple:
    """(1-based number, line of a, line of b) of the first line where two
    differing text files differ, each line without its line ending; a file
    that ends first reads "<end of file>" there."""
    lines_a, lines_b = (blob.decode(errors="replace").splitlines(True)
                        for blob in (a, b))
    n = min(len(lines_a), len(lines_b))
    at = next((i for i in range(n) if lines_a[i] != lines_b[i]), n)
    return (at + 1, *(lines[at].rstrip("\r\n") if at < len(lines)
                      else "<end of file>" for lines in (lines_a, lines_b)))


def numeric_difference(a: bytes, b: bytes) -> str:
    """How the numeric fields of two text files differ, compared by
    position: the count that differ and the largest relative difference
    |x - y| / max(|x|, |y|) among them, or both counts when the files hold
    different numbers of fields; "" for a file that is not UTF-8 text."""
    try:
        fields = [[float(x) for x in NUMBER.findall(blob.decode())]
                  for blob in (a, b)]
    except UnicodeDecodeError:
        return ""
    if len(fields[0]) != len(fields[1]):
        return (f"numeric fields: {len(fields[0])} in parent, "
                f"{len(fields[1])} in change")
    rel = [abs(x - y) / max(abs(x), abs(y)) for x, y in zip(*fields)
           if x != y]
    return (f"{len(rel)} of {len(fields[0])} numeric fields differ"
            + (f", largest relative difference {max(rel):.2e}" if rel else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--keep", metavar="DIR",
                        help="write the outputs to DIR/parent and DIR/change "
                        "and keep them")
    args = parser.parse_args(argv)
    with (contextlib.nullcontext(args.keep) if args.keep else
          tempfile.TemporaryDirectory(prefix="same-outputs-")) as tmp:
        dirs = {}
        for side in ("parent", "change"):
            dirs[side] = os.path.join(tmp, side)
            os.makedirs(dirs[side])
            run_tree(getattr(args, side), dirs[side])
        names = files_under(dirs["parent"]) | files_under(dirs["change"])
        bad = 0
        for name in sorted(names):
            sides = []
            for side in ("parent", "change"):
                path = os.path.join(dirs[side], name)
                sides.append(open(path, "rb").read()
                             if os.path.exists(path) else None)
            if None in sides:
                where = "change" if sides[0] is not None else "parent"
                print(f"{name}: missing in {where}")
                bad += 1
                continue
            at = first_difference(*sides)
            if at < 0:
                print(f"{name}: same ({len(sides[0])} bytes)")
            else:
                line, parent, change = first_differing_line(*sides)
                print(f"{name}: differs at byte {at}")
                print(f"  parent line {line}: {parent}")
                print(f"  change line {line}: {change}")
                numeric = numeric_difference(*sides)
                if numeric:
                    print(f"  {numeric}")
                bad += 1
    print(f"{len(names) - bad} of {len(names)} files byte-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
