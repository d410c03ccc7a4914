"""Tests of the benchmark's reference routines and a short run of each workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, labelled_instance  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.mark.parametrize("values, count", [
    ([1], 0),
    ([1, 2], 0),
    ([1, 1], 2),            # +1-1 and -1+1
    ([3, 2, 5], 2),         # {3, 2} against {5}, and its mirror
    ([1, 2, 3, 4], 2),      # {1, 4} against {2, 3}, either side plus
    ([2, 2, 2, 2], 6),      # any two of four on the plus side
    ([1, 1, 1], 0),         # odd total
])
def test_balanced_count_hand_worked(values, count):
    assert reference.balanced_count(values) == count


def test_balanced_count_matches_sign_enumeration():
    rng = random.Random(7)
    for _ in range(200):
        values = [rng.randint(1, 9) for _ in range(rng.randint(1, 9))]
        direct = sum(1 for signs in itertools.product((1, -1), repeat=len(values))
                     if sum(s * a for s, a in zip(signs, values)) == 0)
        assert reference.balanced_count(values) == direct


@pytest.mark.parametrize("num_vars, clauses, sat", [
    (1, [[1], [-1]], False),
    (2, [[1, 2], [-1], [-2, 1]], False),
    (2, [[1, -2], [2]], True),
    (3, [], True),
    (2, [[1, 2], []], False),
    (3, [[1, 2, 3], [-1, -2, -3], [1, -2], [-1, 2]], True),   # x1 = x2, x3 != x1
])
def test_cnf_satisfiable_hand_worked(num_vars, clauses, sat):
    assert reference.cnf_satisfiable(num_vars, clauses) is sat


def test_model_checks():
    clauses = [[1, -2], [2, 3]]
    assert reference.model_satisfies(clauses, [1, 2, -3])
    assert reference.model_satisfies(clauses, [-1, -2, 3])
    assert not reference.model_satisfies(clauses, [-1, 2, -3])
    assert reference.parse_model("s SATISFIABLE\nv 1 -2 3 0\n", 3) == [1, -2, 3]
    for bad in ("s SATISFIABLE\nv 1 -2 0\n", "s SATISFIABLE\nv 1 -2 3\n",
                "s SATISFIABLE\nv 1 1 3 0\n", "s UNSATISFIABLE\n"):
        with pytest.raises(ValueError):
            reference.parse_model(bad, 3)


@pytest.mark.parametrize("yes", [True, False])
def test_labelled_instance(yes):
    rng = random.Random(3)
    for n, total in ((10, 1251), (10, 22044), (22, 10**8)):
        values = labelled_instance(rng, n, total, yes)
        assert len(values) == n and min(values) >= 1
        assert sum(values) == total + (total % 2 if yes else 0)
        assert (reference.balanced_count(values) > 0) is yes


def test_offset_instance_carries_no_signal(tmp_path):
    # Seed whose first NO training instance would otherwise be
    # 47 204 164 6 185 206 188 176 225 160, where 185 - 206 - 188 - 176 + 225 + 160
    # = 0 carries 2/64 of the third multiplier's output offset to the last one's.
    work = _mkdir(tmp_path / "work")
    wl = WORKLOADS["analog-calibrated"](1043275458, work, round_size=2)
    first_no = [int(v) for v in (work / "train_no.txt").read_text().splitlines()[0].split()]
    assert not any(reference.balanced_count(first_no[i:j])
                   for i in range(len(first_no)) for j in range(i + 2, len(first_no) + 1))
    rc, out = run.call_cli(wl.setup_argv)
    assert wl.check_setup(rc, out) is None
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert float(fields["yes_band_min"]) > 0.75 * 2 / 2 ** 10  # one partition, n = 10


def test_inputs_depend_only_on_seed(tmp_path):
    def inputs(seed, work):
        wl = cls(seed, _mkdir(work), round_size=4)
        files = sorted(p.read_text() for p in work.iterdir() if p.is_file())
        return [(op.argv[-1], op.expect) for op in wl.ops], files

    for name, cls in WORKLOADS.items():
        a = inputs(5, tmp_path / f"{name}-a")
        assert a == inputs(5, tmp_path / f"{name}-b")
        assert a != inputs(6, tmp_path / f"{name}-c")


def _mkdir(path: Path) -> Path:
    path.mkdir()
    return path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run(name, tmp_path):
    wl = WORKLOADS[name](2, _mkdir(tmp_path / "work"), round_size=4)
    checker = run.Checker(wl)
    e2e = run.measure_end_to_end(wl, 0.0, checker)
    layers = run.measure_per_layer(wl, 0.0, checker, tmp_path / "spans.jsonl")
    assert checker.errors == []
    assert e2e["failed"] == layers["failed"] == 0
    assert e2e["attempted"] == layers["attempted"] == 4 * run.MIN_ROUNDS
    assert set(e2e["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(v > 0 for v in e2e["metrics"].values())
    assert set(layers["metrics"]) == set(run.PER_LAYER)
    assert layers["metrics"]["cli.self_s"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert all(cls.round_size >= 100 for cls in WORKLOADS.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sat-witness",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
