"""One sha256 over the output of a fixed sweep of valid ``mgt`` command lines.

Usage (from the repository root):

    python3 tools/cli_sweep.py

Writes four small graph files (K4, a graph with a bridge and a loop, a banana
and a tree) into a temporary directory, makes it the working directory and
runs every command line of ``calls()`` in this process through
``mgt.cli.main``. The command lines name the files relative to that
directory, so no output depends on where it is. Prints the sha256 over each
call's argv, exit code, stdout and stderr, in order; the call count and the
seconds the sweep took go to stderr. Two versions of mgt that print the same
digest give byte-identical output on every call of the sweep. ``minimize`` is
left out: ``tests/test_cli.py::test_minimize_json_is_pinned`` pins its output.
Standard library only. No call needs numpy, which only ``minimize`` loads, so
an interpreter without numpy runs the whole sweep and prints the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from mgt.cli import main  # noqa: E402

GRAPHS = {  # file name -> edge-list text
    "k4.txt": "v 4\ne 0 1 1\ne 0 2 1\ne 0 3 1\ne 1 2 1\ne 1 3 1\ne 2 3 1\n",
    "bridge_loop.txt": "v 3\ne 0 1 1/2\ne 1 2 1/3\ne 1 2 1/4\ne 2 2 1/5\n",
    "banana.txt": "v 2\ne 0 1 1\ne 0 1 1/2\ne 0 1 1/3\n",
    "tree.txt": "v 4\ne 0 1 1\ne 1 2 1/2\ne 1 3 1/3\n",
}
OUTPUT_FLAGS = ((), ("--json",), ("--float",))
OPS = (  # the arguments of each op after its name
    ("delete", "1", "k4.txt"), ("delete", "2", "bridge_loop.txt"),
    ("contract", "0", "k4.txt"), ("contract", "0", "tree.txt"),
    ("identify", "0", "2", "k4.txt"), ("identify", "0", "3", "tree.txt"),
    ("add-edge", "0", "3", "1/2", "tree.txt"), ("add-edge", "2", "2", "1/3", "k4.txt"),
    ("union1", "0", "1", "k4.txt", "bridge_loop.txt"),
    ("union2", "0", "1", "0", "1", "k4.txt", "banana.txt"),
    ("da-n", "2", "k4.txt"), ("da-n", "3", "bridge_loop.txt"),
    ("subdivide", "2", "bridge_loop.txt"), ("subdivide", "3", "k4.txt"),
    ("immerse", "tree.txt", "banana.txt", "0", "1"), ("immerse", "bridge_loop.txt", "k4.txt", "0", "1"),
    ("tower", "0", "1", "2", "k4.txt"), ("tower", "1", "2", "3", "bridge_loop.txt"),
)


def calls() -> list[list[str]]:
    """Every command line of the sweep, in the order it runs them."""
    argvs = []
    for name in GRAPHS:
        argvs += [["tau", name, *flags] for flags in (*OUTPUT_FLAGS, ("--per-edge",),
                                                      ("--per-edge", "--float"))]
        for verb, *points in (("resistance", "0", "1"), ("resistance", "0:1/4", "1"),
                              ("voltage", "0:1/4", "0", "1"), ("apq", "0", "1"), ("mucan",),
                              ("gradient",), ("bounds",)):
            argvs += [[verb, name, *points, *flags] for flags in OUTPUT_FLAGS]
        argvs += [["verify", name], ["verify", name, "--json"]]
    argvs += [["op", *args, *flags] for args in OPS for flags in ((), ("--json",))]
    argvs += [["scan", "--family", family] for family in ("complete", "banana", "necklace", "circle")]
    argvs += [["scan", "--family", "banana", "--params", "m=1..3"],
              ["scan", "--family", "necklace", "--params", "a=1/8;t=2,3"]]
    argvs.append(["verify", "--random", "--count", "3"])
    return argvs


def run_one(argv: list[str]) -> tuple[int, str, str]:
    """``mgt.cli.main(argv)`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def main_sweep() -> int:
    argvs = calls()
    digest = hashlib.sha256()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in GRAPHS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for argv in argvs:
                digest.update(repr((argv, *run_one(argv))).encode())
        finally:
            os.chdir(cwd)
    seconds = time.perf_counter() - start
    print(f"{len(argvs)} calls, {seconds:.3f} s", file=sys.stderr)
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main_sweep())
