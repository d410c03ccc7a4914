"""The benchmark's workloads: seeded inputs, CLI argument lists and output checks.

Each workload turns a seed into one round of operations.  An operation is
the argument list a user would type after ``cospart``; its expected result
comes from ``reference`` and never from the package under test.  Operation
sizes follow a fixed ladder given by the position in the round, and the seed
draws only the values, so the cost of a round barely depends on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import reference

EXIT_NO, EXIT_YES = 0, 1

# Nonideal chain for `analog-calibrated`: per-stage output offsets (compensated
# through Z by `cospart calibrate`), a 0.25 mV amplifier offset (not
# compensated), the one-pole output pole with f* above the largest summed
# frequency (22044 * 10 kHz), 0.1 mV of noise per sample, and the default
# brickwall low-pass.  Input offsets stay out: Z cancels only the
# instance-independent part of the DC they add, so they would need a workload
# of their own.  The amplifier offset lifts every output by the same 0.25 mV,
# so the NO band sits there and not at 0 V: `calibrate` cuts at the geometric
# mean of the band edges, which collapses towards 0 V when the NO band's top
# is barely positive, and its first NO instance reads ~0 V after Z
# compensation.  Over 200 seeds the NO band's top read 0.25-0.37 mV and the
# cut 0.74-1.04 mV; single-partition YES outputs read about 2.2 mV.
ANALOG_N = 10
ANALOG_CONFIG = (
    "mult_output_offset=" + ",".join(f"{4e-3 + 3e-4 * k:.4g}" for k in range(ANALOG_N - 1)) + "\n"
    "amp_offset=2.5e-4\n"
    "bandwidth_model=one-pole\n"
    "bandwidth_f_star=1e9\n"
    "noise_sigma=1e-4\n"
    "kind=brickwall\n"
    "cutoff_f0=5000\n")
ANALOG_TRAIN_MAG = 300
ANALOG_TRAIN_EACH = 8

SAT_VARS, SAT_CLAUSES = 6, 10

DP_BUDGET_TOTAL = 2 * 10**8  # cospart's 10**8-cell reachability budget, in instance total


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must show."""

    argv: tuple[str, ...]
    expect: dict


def _composition(rng: random.Random, total: int, k: int) -> list[int]:
    """Uniform random split of ``total`` into ``k`` positive parts."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def labelled_instance(rng: random.Random, n: int, total: int, yes: bool) -> list[int]:
    """n positive values summing to ``total`` (made even for YES) with the given label.

    YES instances are two random halves of total/2; NO instances are random
    splits rejected until the reference count of balanced sign vectors is 0.
    """
    if yes:
        total += total % 2
        left = n // 2
        values = _composition(rng, total // 2, left) + _composition(rng, total // 2, n - left)
        rng.shuffle(values)
        return values
    while True:
        values = _composition(rng, total, n)
        if reference.balanced_count(values) == 0:
            return values


def _mag_instance(rng: random.Random, n: int, max_mag: int, yes: bool) -> list[int]:
    """Labelled instance with every value in 1..max_mag (calibration training sets)."""
    while True:
        if yes:
            head = [rng.randint(1, max_mag) for _ in range(n - 1)]
            last = abs(sum(rng.choice((1, -1)) * a for a in head))
            values = head + [last]
            if not 1 <= last <= max_mag:
                continue
            rng.shuffle(values)
        else:
            values = [rng.randint(1, max_mag) for _ in range(n)]
        if (reference.balanced_count(values) > 0) == yes:
            return values


def _offset_instance(rng: random.Random, n: int, max_mag: int) -> list[int]:
    """NO instance for `calibrate` to measure stage offsets on.

    `calibrate` compensates through Z the DC it measures at each multiplier
    output of its first NO instance.  When a run of consecutive values of that
    instance has a balanced signing, an earlier stage's offset (or the partial
    product itself) reaches a later output at DC, is compensated as if it were
    that stage's offset, and shifts every calibrated decision by up to the
    whole single-partition level.  Such instances are redrawn.
    """
    while True:
        values = _mag_instance(rng, n, max_mag, False)
        if not any(reference.balanced_count(values[i:j])
                   for i in range(n) for j in range(i + 2, n + 1)):
            return values


def _ladder(lo: float, hi: float, steps: int, k: int) -> int:
    return round(lo * (hi / lo) ** (k / (steps - 1)))


def _record_fields(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class Workload:
    """Base: a round of operations plus the optional program set-up before them."""

    name = ""
    round_size = 0
    setup_argv: Optional[tuple[str, ...]] = None
    max_oracle_calls: Optional[int] = None  # per operation, for witness extraction

    def __init__(self, seed: int, workdir: Path, round_size: Optional[int] = None):
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.ops = [self.make_op(k) for k in range(round_size or self.round_size)]

    def make_op(self, k: int) -> Op:
        raise NotImplementedError

    def check_setup(self, rc: int, out: str) -> Optional[str]:
        return None

    def check(self, op: Op, rc: int, out: str) -> Optional[str]:
        """None when the output is right, else a description of what is wrong."""
        raise NotImplementedError


class AnalogCalibrated(Workload):
    """`decide --oracle analog --calibration` on n=10 instances after `calibrate`.

    Round: 95 totals from 1250 to 3000 (grids of 2.0e4-4.8e4 points) and 5
    from 3500 to 22044 (5.6e4-3.5e5 points), alternating YES and NO.  The
    many distinct grid lengths, whose FFT costs vary with their prime
    factors, give p50 and p90 a dense stretch of operation costs to fall on;
    the few large grids sit above p90 and weigh on ops_per_s.
    """

    name = "analog-calibrated"
    round_size = 100

    def __init__(self, seed: int, workdir: Path, round_size: Optional[int] = None):
        self.config = workdir / "nonideal.cfg"
        self.config.write_text(ANALOG_CONFIG)
        rng = random.Random(f"{self.name}:train:{seed}")
        train = {kind: [_mag_instance(rng, ANALOG_N, ANALOG_TRAIN_MAG, yes)
                        for _ in range(ANALOG_TRAIN_EACH)]
                 for kind, yes in (("yes", True), ("no", False))}
        train["no"][0] = _offset_instance(rng, ANALOG_N, ANALOG_TRAIN_MAG)
        for kind, rows in train.items():
            (workdir / f"train_{kind}.txt").write_text(
                "".join(" ".join(map(str, v)) + "\n" for v in rows))
        self.cal_dir = workdir / "cal"
        self.setup_argv = ("calibrate", "--yes", str(workdir / "train_yes.txt"),
                           "--no", str(workdir / "train_no.txt"), "--config", str(self.config),
                           "--seed", str(seed), "--out", str(self.cal_dir))
        super().__init__(seed, workdir, round_size)

    def make_op(self, k: int) -> Op:
        total = _ladder(1250, 3000, 95, k) if k < 95 else _ladder(3500, 22044, 5, k - 95)
        yes = k % 2 == 0
        values = labelled_instance(self.rng, ANALOG_N, total, yes)
        argv = ("decide", "--oracle", "analog", "--config", str(self.config),
                "--calibration", str(self.cal_dir / "calibration.txt"), "--seed", str(self.seed),
                " ".join(map(str, values)))
        return Op(argv, {"yes": yes})

    def check_setup(self, rc: int, out: str) -> Optional[str]:
        fields = _record_fields(out)
        if rc != 0 or fields.get("separable") != "1":
            return f"calibrate exit {rc}, separable={fields.get('separable')}"
        no_max, cut, yes_min = (float(fields[k]) for k in ("no_band_max", "cut", "yes_band_min"))
        if not no_max < cut < yes_min:
            return f"cut {cut:g} does not lie between the bands {no_max:g} and {yes_min:g}"
        if len(fields.get("z_compensation", "").split(",")) != ANALOG_N - 1:
            return "calibrate did not compensate every stage through Z"
        return None

    def check(self, op: Op, rc: int, out: str) -> Optional[str]:
        want = EXIT_YES if op.expect["yes"] else EXIT_NO
        answer = _record_fields(out).get("answer")
        if rc != want or answer != ("YES" if op.expect["yes"] else "NO"):
            return f"exit {rc} / answer {answer}, expected exit {want}"
        return None


class SatWitness(Workload):
    """`sat --backend exact-dp` on random 3-CNFs with 6 variables and 10 clauses."""

    name = "sat-witness"
    round_size = 100
    max_oracle_calls = SAT_VARS + 1

    def make_op(self, k: int) -> Op:
        clauses = [[v if self.rng.random() < 0.5 else -v
                    for v in self.rng.sample(range(1, SAT_VARS + 1), 3)]
                   for _ in range(SAT_CLAUSES)]
        path = self.workdir / f"formula{k:03d}.cnf"
        path.write_text(f"p cnf {SAT_VARS} {SAT_CLAUSES}\n"
                        + "".join(" ".join(map(str, cl)) + " 0\n" for cl in clauses))
        return Op(("sat", str(path), "--backend", "exact-dp"),
                  {"clauses": clauses, "sat": reference.cnf_satisfiable(SAT_VARS, clauses)})

    def check(self, op: Op, rc: int, out: str) -> Optional[str]:
        if not op.expect["sat"]:
            return None if rc == EXIT_NO and "s UNSATISFIABLE" in out else \
                f"exit {rc} on an unsatisfiable formula"
        if rc != EXIT_YES or "s SATISFIABLE" not in out:
            return f"exit {rc} on a satisfiable formula"
        try:
            model = reference.parse_model(out, SAT_VARS)
        except ValueError as exc:
            return str(exc)
        if not reference.model_satisfies(op.expect["clauses"], model):
            return f"printed model {model} leaves a clause unsatisfied"
        return None


class ExactReference(Workload):
    """`decide --oracle exact` on n=22-24 instances on both sides of the DP budget.

    Round of 100: n cycles 22, 23, 24; every other triple sits below the
    budget (totals 1e7-2e8, reachability DP) or above it (2e8-4e8,
    meet-in-the-middle); labels alternate every six operations and totals
    climb a nine-step ladder every twelve.  Totals are even so both routes
    do their full work.
    """

    name = "exact-reference"
    round_size = 100

    def make_op(self, k: int) -> Op:
        n = 22 + k % 3
        below = (k // 3) % 2 == 0
        lo, hi = (10**7, DP_BUDGET_TOTAL - 10**6) if below else \
            (DP_BUDGET_TOTAL + 10**6, 4 * 10**8)
        total = _ladder(lo, hi, 9, (k // 12) % 9)
        total += total % 2
        yes = (k // 6) % 2 == 0
        values = labelled_instance(self.rng, n, total, yes)
        count = reference.balanced_count(values)
        return Op(("decide", "--oracle", "exact", " ".join(map(str, values))),
                  {"count": count, "n": n})

    def check(self, op: Op, rc: int, out: str) -> Optional[str]:
        count = op.expect["count"]
        want = EXIT_YES if count else EXIT_NO
        dc = _record_fields(out).get("dc_volts")
        if rc != want:
            return f"exit {rc}, expected {want}"
        if dc != f"{count / 2 ** op.expect['n']:.9g}":
            return f"dc_volts={dc}, expected {count}/2^{op.expect['n']}"
        return None


WORKLOADS = {w.name: w for w in (AnalogCalibrated, SatWitness, ExactReference)}

