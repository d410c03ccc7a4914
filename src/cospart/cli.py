"""Command-line front end: decide, spectrum, calibrate, sat, netlist, gen.

Exit codes for `decide` and `sat`: 0 = NO/UNSATISFIABLE, 1 = YES/SATISFIABLE,
2 or higher = error.  Other commands exit 0 on success.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import Optional

from . import calibration, dsp, exact, instances, netlist, pipeline, reductions
from .calibration import decision_record
from .instances import CpiInstance

EXIT_NO = 0
EXIT_YES = 1
EXIT_ERROR = 2

def _chain(args, kind: str) -> reductions.OracleBackend:
    """The oracle ``kind`` on the chain the command's flags give, built and named once.

    ``--config``'s fields, ``--seed`` and ``--calibration``'s Z make one config; ``--filter``
    and ``--f0`` override its filter fields, and `reductions._open_filter` fills the rest.
    The seed is ``--seed``'s alone: a ``--config`` file that sets one is refused.
    """
    config = getattr(args, "config", None)
    items: dict[str, object] = pipeline.parse_kv(Path(config).read_text()) if config else {}
    if "seed" in items:
        raise ValueError(f"{config} sets seed=; give the seed with --seed")
    filt = {f.name: items.pop(f.name) for f in fields(dsp.FilterSpec) if f.name in items}
    flags = {"kind": getattr(args, "filter", None), "cutoff_f0": getattr(args, "f0", None)}
    filt.update((key, value) for key, value in flags.items() if value is not None)
    items["seed"] = args.seed
    cal = getattr(args, "calibration", None)
    thr, z = calibration.threshold_from_text(Path(cal).read_text()) if cal else (None, ())
    if z:
        items["z_compensation"] = z
    cfg = pipeline.from_items(pipeline.NonidealityConfig, items)
    fspec = reductions._open_filter(cfg, **filt)
    return reductions.OracleBackend(kind, cfg, fspec, thr)


def _load_instance_arg(arg: str) -> list[CpiInstance]:
    """The instances in file ``arg``, else ``arg`` inline, as when it is too long for a name."""
    if not os.path.isfile(arg):
        return [instances.parse_instance(arg)]
    insts = instances.load_instances(Path(arg).read_text())
    if not insts:
        raise instances.InstanceError(f"no instance in {arg}")
    return insts


def _provenance(argv: list[str], digest: str, seed: int, comment: str = "#") -> str:
    """The run's command, chain digest and seed, one ``comment``-led line each."""
    lead = comment + " " if comment else ""
    return (f"{lead}command=cospart {' '.join(argv)}\n"
            f"{lead}config_hash={digest}\n"
            f"{lead}seed={seed}\n")


def _write_out(args, argv: list[str], t0: float, digest: str, files: dict[str, str],
               comment: str = "#") -> list[Path]:
    """Write each file into ``--out`` behind the provenance header, then the run's record.

    The record, ``<command>.record``, holds the provenance lines, the files
    written and the wall time since ``t0``.  Returns the files' paths, sorted.
    """
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    head = _provenance(argv, digest, args.seed, comment)
    for name, text in files.items():
        (out / name).write_text(head + text)
    (out / f"{args.command}.record").write_text(
        _provenance(argv, digest, args.seed, comment="")
        + f"outputs={','.join(sorted(files))}\nwall_time={time.monotonic() - t0:.3f}\n")
    return [out / name for name in sorted(files)]


def cmd_decide(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    insts = _load_instance_arg(args.instance)
    if len(insts) > 1 and not args.batch:
        raise ValueError(f"{len(insts)} instances given; pass --batch to decide them all")
    chain = _chain(args, args.oracle)

    # deterministic per-instance sub-seeds keep batch runs reproducible
    tasks = [(inst, args.seed + i if args.batch else args.seed) for i, inst in enumerate(insts)]
    write_trace = bool(args.out) and not args.batch and chain.kind.startswith("analog")

    def decide_one(task: tuple[CpiInstance, int]) -> calibration.Decision:
        # an analogue decision keeps its filtered samples only for the trace
        decision = chain.decision(*task, args.strict)
        return decision if write_trace else replace(decision, sampled=None)

    decisions = calibration.parallel_map(decide_one, tasks, args.jobs)
    records = [decision_record(d, inst, chain.digest, seed)
               for d, (inst, seed) in zip(decisions, tasks)]
    last_answer = decisions[-1].answer
    text = "\n".join(records)
    print(text, end="")

    if args.out:
        files = {"decisions.txt": text}
        if write_trace:
            sampled = decisions[0].sampled  # None when the DC came from the harmonics
            if sampled is None:
                sampled = calibration.run_and_measure(insts[0], chain.cfg, chain.fspec)[2]
            files["trace.csv"] = pipeline.xy_csv("time_s,volts", sampled.times(), sampled.values)
            files["spectrum.csv"] = dsp.dft(sampled).to_csv(units="Hz")
        _write_out(args, argv, t0, chain.digest, files)
    if args.batch:
        return 0
    return EXIT_YES if last_answer == "YES" else EXIT_NO


def cmd_spectrum(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    inst = _load_instance_arg(args.instance)[0]
    chain = _chain(args, "analog-ideal")

    outputs = {"spectrum_analytic.csv": exact.analytic_spectrum(inst).to_csv(units="instance")}
    if args.simulate:
        # no filter; the sampling step is the grid's own, so every grid point is read
        sampled = calibration.run_and_measure(
            inst, chain.cfg, replace(chain.fspec, kind="none"))[2]
        outputs["spectrum_measured.csv"] = dsp.dft(sampled).to_csv(units="Hz")

    if args.out:
        print(*_write_out(args, argv, t0, chain.digest, outputs), sep="\n")
    else:
        head = _provenance(argv, chain.digest, args.seed)
        for name, text in outputs.items():
            print(f"== {name} ==")
            print(head + text, end="")
    return 0


def cmd_calibrate(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    train_yes = instances.load_instances(Path(args.yes).read_text())
    train_no = instances.load_instances(Path(args.no).read_text())
    chain = _chain(args, "analog")
    sizes = sorted({inst.n for inst in train_yes + train_no})
    if len(sizes) > 1:
        raise ValueError(f"training instances have {sizes} values; Z compensation is "
                         "per stage, so calibrate one size at a time")
    over_band = 0
    for inst in train_yes + train_no:
        pipeline.check_grid(inst, chain.cfg)
        try:
            pipeline.check_bandwidth(inst, chain.cfg)
        except pipeline.BandwidthError as exc:
            if args.strict:
                raise
            print(f"warning: training instance {instances.serialize_instance(inst)}: {exc}",
                  file=sys.stderr)
            over_band += 1

    offset_instance = calibration.pick_offset_instance(train_no)
    offsets = calibration.measure_stage_offsets(offset_instance, chain.cfg)
    cfg_used = calibration.compensate(chain.cfg, offsets)
    thr = calibration.bootstrap_threshold(train_yes, train_no, cfg_used, chain.fspec,
                                          jobs=args.jobs)
    text = calibration.threshold_to_text(thr, z_compensation=cfg_used.z_compensation,
                                         offsets=offsets, offset_instance=offset_instance)
    if over_band:
        text += f"bandwidth_warnings={over_band}\n"
    print(text, end="")
    if args.out:
        _write_out(args, argv, t0, thr.chain, {"calibration.txt": text})
    if not thr.separable:
        print("warning: training bands overlap; calibration is not separable",
              file=sys.stderr)
    return 0


def cmd_sat(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    formula = reductions.parse_dimacs(Path(args.dimacs).read_text(), strict=args.strict)
    backend = _chain(args, args.backend)
    assignment = reductions.extract_witness(formula, backend)
    text = reductions.format_solution(assignment)
    print(text, end="")
    if args.out:
        _write_out(args, argv, t0, backend.digest, {"solution.txt": text}, comment="c")
    return EXIT_YES if assignment is not None else EXIT_NO


def cmd_netlist(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    inst = _load_instance_arg(args.instance)[0]
    chain = _chain(args, "analog")
    doc = netlist.emit_netlist(inst, chain.cfg, chain.fspec)
    netlist.validate_netlist(doc)
    if args.out:
        print(*_write_out(args, argv, t0, chain.digest, {"cascade.cir": doc.text()},
                          comment="*"))
    else:
        print(_provenance(argv, chain.digest, args.seed, comment="*") + doc.text(), end="")
    return 0


def cmd_gen(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    lines = []
    for i in range(args.count):
        inst = instances.random_instance(args.n, max_mag=args.max_mag,
                                         kind=args.kind, seed=args.seed + i)
        lines.append(instances.serialize_instance(inst))
    text = "\n".join(lines) + "\n"
    # the instances are labelled by the exact oracles, so name their chain
    chain = _chain(args, "exact")
    if args.out:
        print(*_write_out(args, argv, t0, chain.digest, {"instances.txt": text}))
    else:
        print(_provenance(argv, chain.digest, args.seed) + text, end="")
    return 0


def _at_least_one(text: str) -> int:  # a count flag: below 1, argparse exits 2 naming it
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


_at_least_one.__name__ = "int"  # a non-integer is refused as type=int refuses it
_FLAGS = {
    "--config": dict(help="key=value config file"),
    "--seed": dict(type=int, default=0),
    "--filter": dict(choices=dsp.FILTER_KINDS, default=None),
    "--f0": dict(type=float, default=None, help="filter cutoff in Hz"),
    "--jobs": dict(type=_at_least_one, default=1),
    "--out": dict(help="output directory"),
    "--strict": dict(action="store_true"),
}


def _add_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every later call.

    Sharing it is safe: ``parse_args`` returns a fresh namespace each time and
    no option has a mutable default, so one call's flags never reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="cospart",
        description="Simulated analogue oracle for balanced-partition decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one instance (exit 1=YES, 0=NO)")
    p.add_argument("instance", help="inline values like '3 2 5' or an instance file")
    p.add_argument("--oracle", default="exact-dp", choices=reductions.ORACLES)
    p.add_argument("--calibration", help="calibration file from cospart calibrate")
    p.add_argument("--batch", action="store_true", help="decide every instance in a file")
    _add_flags(p, "--config", "--seed", "--filter", "--f0", "--out", "--jobs", "--strict")

    p = sub.add_parser("spectrum", help="emit analytic (and measured) spectra")
    p.add_argument("instance")
    p.add_argument("--simulate", action="store_true")
    _add_flags(p, "--config", "--seed", "--filter", "--f0", "--out")

    p = sub.add_parser("calibrate", help="measure offsets and learn the threshold")
    p.add_argument("--yes", required=True, help="file of known YES instances")
    p.add_argument("--no", required=True, help="file of known NO instances")
    _add_flags(p, "--config", "--seed", "--filter", "--f0", "--out", "--jobs", "--strict")

    p = sub.add_parser("sat", help="solve a DIMACS CNF file via the reduction")
    p.add_argument("dimacs")
    p.add_argument("--backend", default="exact-dp", choices=reductions.ORACLES)
    p.add_argument("--calibration")
    _add_flags(p, "--config", "--seed", "--filter", "--f0", "--out", "--strict")

    p = sub.add_parser("netlist", help="emit a SPICE netlist for an instance")
    p.add_argument("instance")
    _add_flags(p, "--config", "--seed", "--filter", "--f0", "--out")

    p = sub.add_parser("gen", help="generate labeled random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-mag", type=int, default=50)
    p.add_argument("--kind", choices=["YES", "NO"], default="YES")
    p.add_argument("--count", type=_at_least_one, default=1)
    _add_flags(p, "--seed", "--out")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command; calls in one process are independent of each other.

    The parser is built once per process (`build_parser`); the command's
    ``cmd_<name>`` function is looked up when the call runs.  Any exception
    becomes ``error: ...`` and exit 2; with ``COSPART_DEBUG=1`` the traceback
    is printed to standard error first.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command]
    try:
        return command(args, argv)
    except Exception as exc:  # error contract: anything >= 2 is a failure
        if os.environ.get("COSPART_DEBUG") == "1":
            import traceback  # only on failure: the normal path never loads it
            print(traceback.format_exc(), end="", file=sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
