"""The exact layer's printed bytes, pinned command by command.

Every operation of the `sat-witness` and `exact-reference` benchmark
workloads at seeds 1-3, and the exact and SAT commands and refusals that CI
runs, go through ``cospart.cli.main`` in this process.  Each line of
``exact_corpus.txt`` holds the sha256 of a command's exit code, standard
output and standard error, then its argv, with the work directory replaced
by ``<tmp>`` in both.  Analogue and grid commands stay out: their bytes can
depend on numpy's FFT and summation order.

    python tests/test_exact_corpus.py [--update]

checks the corpus against the file, or rewrites the file with ``--update``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("exact_corpus.txt")
TOKEN = "<tmp>"
SEEDS = (1, 2, 3)

# CI's SAT formulas: a satisfiable 3-CNF whose first oracle call is an n = 27
# reduction, and SATLIB's trailer of a '%' line and a '0' line
_FORMULA = ("p cnf 6 10\n-2 -5 6 0\n-5 1 4 0\n-6 4 5 0\n6 2 4 0\n5 -1 -3 0\n"
            "-5 -4 6 0\n3 -1 5 0\n-3 -4 -6 0\n5 -6 4 0\n-3 5 2 0\n")
_SATLIB = "p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n"


def _workload_module():
    """``perfbench/workloads.py``, loaded by path with the ``reference`` it imports."""
    for name in ("reference", "workloads"):
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses and `import reference` look it up
        spec.loader.exec_module(module)
    return module


def corpus(workdir: Path) -> list[list[str]]:
    """The argv of every command, with its input files written into ``workdir``."""
    saved = {name: sys.modules.get(name) for name in ("reference", "workloads")}
    try:
        workloads = _workload_module()
        argvs = []
        for name in ("sat-witness", "exact-reference"):
            for seed in SEEDS:
                wd = workdir / f"{name}-{seed}"
                wd.mkdir()
                argvs += [list(op.argv) for op in workloads.WORKLOADS[name](seed, wd).ops]
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    files = {"formula.cnf": _FORMULA, "satlib.cnf": _SATLIB,
             "wide.txt": " ".join(["99452"] * 1999 + ["99512"]) + "\n",
             # past the guards of every route but the DP's, with an odd and an even total
             "odd45.txt": " ".join(["1000000007"] * 44 + ["1"]) + "\n",
             "even45.txt": " ".join(["1000000007"] * 44 + ["2"]) + "\n",
             "even44.txt": " ".join(["1000000007"] * 43 + ["1"]) + "\n"}
    for name, text in files.items():
        (workdir / name).write_text(text)
    ones = " ".join(["1"] * 32)
    argvs += [
        ["decide", "--oracle", "exact", "3 2 5"],
        ["decide", "--oracle", "exact", "3 6 4"],
        ["decide", "--oracle", "exact",
         "3 3 8 8 14 14 21 21 30 30 41 41 55 55 72 72 5 11 17 26 38 47 63 80 99 120 150 190"],
        # three repeated pairs beside large singles
        ["decide", "--oracle", "exact",
         "3 3 8 8 14 14 100 101 1000 1001 10000 10001 100000 100001"],
        ["decide", "--oracle", "exact", ones],
        ["decide", "--oracle", "exact-dp", ones],
        ["decide", "--oracle", "exact-bf", "3 2 5"],
        ["decide", "--oracle", "exact", " ".join(["2"] + ["1"] * 44)],
        ["decide", "--oracle", "exact", str(workdir / "wide.txt")],
        *[["decide", "--oracle", oracle, str(workdir / name)]
          for oracle in ("exact", "exact-dp", "exact-bf")
          for name in ("odd45.txt", "even45.txt", "even44.txt")],
        ["decide", "--oracle", "exact", "3 x 5"],
        ["decide", "--jobs", "0", "3 2 5"],
        ["spectrum", "1000000 999999 1"],
        ["spectrum", "2 3 5"],
        ["spectrum", " ".join(["1"] * 21)],
        # many lines, whose rows stdout carries: 20,736 distinct sums; 211 lines of counts
        # up to 2**20; copies beside singles, whose kernel table is sorted and merged
        ["spectrum", "1 3 9 27 81 243 729 2187 6561 19683 59049 177147 7 11 13 17"],
        ["spectrum", " ".join(map(str, range(1, 21)))],
        ["spectrum", "3 3 5 5 5 9 1000 1001 1002 40000 40001 123456 7 7 7 7"],
        ["gen", "--n", "6", "--max-mag", "16", "--kind", "YES", "--count", "4", "--seed", "3"],
        ["gen", "--n", "6", "--max-mag", "16", "--kind", "NO", "--count", "4", "--seed", "3"],
        ["sat", str(workdir / "formula.cnf")],
        ["sat", "--backend", "exact", str(workdir / "formula.cnf")],
        ["sat", "--strict", str(workdir / "satlib.cnf")],
    ]
    return argvs


def _run(argv: list[str]) -> tuple[int, str, str]:
    from cospart import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def digest_lines(workdir: Path) -> list[str]:
    """One ``<sha256> <argv>`` line per command of the corpus."""
    lines = []
    for argv in corpus(workdir):
        code, out, err = _run(argv)
        text = f"exit={code}\n--stdout--\n{out}--stderr--\n{err}".replace(str(workdir), TOKEN)
        digest = hashlib.sha256(text.encode()).hexdigest()
        lines.append(f"{digest} {shlex.join(argv).replace(str(workdir), TOKEN)}\n")
    return lines


def moved(lines: list[str]) -> list[str]:
    """The lines that differ from the committed file's, position by position."""
    want = DIGESTS.read_text().splitlines(keepends=True)
    if len(lines) != len(want):
        return [f"{len(lines)} commands against {len(want)} committed lines\n"]
    return [got for got, line in zip(lines, want) if got != line]


def test_exact_outputs_match_the_corpus(tmp_path):
    diff = moved(digest_lines(tmp_path))
    assert not diff, "".join(diff[:10])


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest_lines(Path(tmp))
    if argv == ["--update"]:
        DIGESTS.write_text("".join(lines))
        print(f"wrote {len(lines)} lines to {DIGESTS}")
        return 0
    diff = moved(lines)
    print("".join(diff) or f"{len(lines)} commands match {DIGESTS.name}\n", end="")
    return int(bool(diff))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
