"""The output comparison of tools/same_outputs.py: the first differing byte
and line, the numeric fields that differ, and its report and exit code on
fixture trees."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))
import same_outputs  # noqa: E402
from same_outputs import (first_difference, first_differing_line,  # noqa: E402
                          numeric_difference)


@pytest.mark.parametrize("a, b, at", [
    (b"manifest", b"manifest", -1), (b"", b"", -1),
    (b"abc", b"abcd", 3), (b"abcd", b"abc", 3),
    (b"abXd", b"abcd", 2), (b"x", b"y", 0)])
def test_first_difference(a, b, at):
    assert first_difference(a, b) == at


@pytest.mark.parametrize("a, b, line", [
    (b"k,g\n0,0.5\n1,0.25\n", b"k,g\n0,0.5\n1,0.26\n",
     (3, "1,0.25", "1,0.26")),
    (b"x\ny\n", b"x\n", (2, "y", "<end of file>")),
    (b"x\n", b"x", (1, "x", "x"))])
def test_first_differing_line(a, b, line):
    assert first_differing_line(a, b) == line


def _fake_trees(monkeypatch, files):
    """Make run_tree write files[tree], a {relative path: bytes} dict,
    instead of running hrcn."""
    def run_tree(tree, outdir):
        for name, data in files[tree].items():
            path = os.path.join(outdir, name)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(data)

    monkeypatch.setattr(same_outputs, "run_tree", run_tree)


def test_identical_trees_exit_zero(monkeypatch, capsys):
    same = {"solve.out": b"exit 0\n",
            os.path.join("run", "results.csv"): b"k\n0\n"}
    _fake_trees(monkeypatch, {"old": same, "new": dict(same)})
    assert same_outputs.main(["--parent", "old", "--change", "new"]) == 0
    out = capsys.readouterr().out
    assert "solve.out: same (7 bytes)" in out
    assert "2 of 2 files byte-identical" in out


def test_differing_and_missing_files_exit_one(monkeypatch, capsys):
    _fake_trees(monkeypatch, {
        "old": {"a.out": b"g = 0.5", "same.out": b"x", "gone.out": b"1"},
        "new": {"a.out": b"g = 0.6", "same.out": b"x", "new.out": b"2"}})
    assert same_outputs.main(["--parent", "old", "--change", "new"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "a.out: differs at byte 6" in lines
    assert "gone.out: missing in change" in lines
    assert "new.out: missing in parent" in lines
    assert "same.out: same (1 bytes)" in lines
    assert lines[-1] == "1 of 4 files byte-identical"


def test_report_names_the_first_differing_line(monkeypatch, capsys):
    _fake_trees(monkeypatch, {
        "old": {"sweep.csv": b"floor,g_value\n0.5,0.0125\n1.0,0.0100\n"},
        "new": {"sweep.csv": b"floor,g_value\n0.5,0.0125\n1.0,0.0101\n"}})
    assert same_outputs.main(["--parent", "old", "--change", "new"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "sweep.csv: differs at byte 34",
        "  parent line 3: 1.0,0.0100",
        "  change line 3: 1.0,0.0101",
        "  1 of 4 numeric fields differ, largest relative difference 9.90e-03",
        "0 of 1 files byte-identical"]


def test_keep_leaves_both_output_trees(tmp_path, monkeypatch, capsys):
    files = {"old": {os.path.join("run", "results.csv"): b"k\n0\n"},
             "new": {os.path.join("run", "results.csv"): b"k\n1\n"}}
    _fake_trees(monkeypatch, files)
    keep = tmp_path / "kept"
    args = ["--parent", "old", "--change", "new", "--keep", str(keep)]
    assert same_outputs.main(args) == 1
    for side, tree in (("parent", "old"), ("change", "new")):
        assert same_outputs.files_under(keep / side) == set(files[tree])
        assert ((keep / side / "run" / "results.csv").read_bytes()
                == files[tree][os.path.join("run", "results.csv")])
    capsys.readouterr()
    # kept outputs are never mixed with a later run's
    with pytest.raises(FileExistsError):
        same_outputs.main(args)


@pytest.mark.parametrize("a, b, report", [
    # every field compared by position, names such as "link1" not fields
    (b"Pc[link1] = 0.5\ng = 1e-3, 2.0 (-4)\n",
     b"Pc[link1] = 0.5\ng = 1.5e-3, 2.0 (-3)\n",
     "2 of 4 numeric fields differ, largest relative difference 3.33e-01"),
    (b"x = 0.0\n", b"x = -0.0\n", "0 of 1 numeric fields differ"),
    # a solve whose trace gained a step
    (b'{"g": [0.1, 0.2]}', b'{"g": [0.1, 0.2, 0.3]}',
     "numeric fields: 2 in parent, 3 in change"),
    (b"\xff\xfe", b"\xff\xff", "")])
def test_numeric_difference(a, b, report):
    assert numeric_difference(a, b) == report
