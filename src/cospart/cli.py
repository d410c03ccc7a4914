"""Command-line front end: decide, spectrum, calibrate, sat, netlist, gen.

Exit codes for `decide` and `sat`: 0 = NO/UNSATISFIABLE, 1 = YES/SATISFIABLE,
2 or higher = error.  Other commands exit 0 on success.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from . import calibration, dsp, exact, instances, netlist, pipeline, reductions
from .calibration import config_digest, decision_record
from .dsp import FilterSpec
from .instances import CpiInstance
from .pipeline import NonidealityConfig

EXIT_NO = 0
EXIT_YES = 1
EXIT_ERROR = 2

_FILTER_KEYS = {"kind", "cutoff_f0", "order", "per_stage_gain"}


@dataclass
class RunRecord:
    """Reproducibility record for one CLI run."""

    command: str
    config_hash: str
    seed: int
    outputs: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    def to_text(self) -> str:
        return (f"command={self.command}\n"
                f"config_hash={self.config_hash}\n"
                f"seed={self.seed}\n"
                f"outputs={','.join(self.outputs)}\n"
                f"wall_time={self.wall_time:.3f}\n")


def _load_config(args) -> tuple[NonidealityConfig, FilterSpec,
                                Optional[calibration.DecisionThreshold]]:
    """Config and filter from ``--config``; threshold and Z from ``--calibration``."""
    cfg_items: dict[str, str] = {}
    filt_items: dict[str, str] = {}
    if args.config:
        for key, value in pipeline.parse_kv(Path(args.config).read_text()).items():
            if key in _FILTER_KEYS:
                filt_items[key] = value
            else:
                cfg_items[key] = value
    cfg = pipeline.config_from_items(cfg_items)
    cfg = replace(cfg, seed=args.seed)
    thr = None
    if getattr(args, "calibration", None):
        thr, z = calibration.threshold_from_text(Path(args.calibration).read_text())
        if z:
            cfg = replace(cfg, z_compensation=z)

    kind = args.filter or filt_items.get("kind", "brickwall")
    cutoff = args.f0 if args.f0 is not None else float(filt_items.get("cutoff_f0", 5000.0))
    order = int(filt_items.get("order", 1))
    gain = float(filt_items.get("per_stage_gain", 1.0))
    return cfg, FilterSpec(kind=kind, cutoff_f0=cutoff, order=order, per_stage_gain=gain), thr


def _load_instance_arg(arg: str) -> list[CpiInstance]:
    path = Path(arg)
    if path.is_file():
        return instances.load_instances(path.read_text())
    return [instances.parse_instance(arg)]


def _provenance(argv: list[str], cfg_hash: str, seed: int, comment: str = "#") -> str:
    cmd = "cospart " + " ".join(argv)
    return (f"{comment} command={cmd}\n"
            f"{comment} config_hash={cfg_hash}\n"
            f"{comment} seed={seed}\n")


def _analog_setup(inst: CpiInstance, oracle: str, cfg: NonidealityConfig,
                  fspec: FilterSpec, thr: Optional[calibration.DecisionThreshold]):
    if oracle == "analog-ideal":
        cfg = NonidealityConfig.ideal(seed=cfg.seed, f_base=cfg.f_base,
                                      oversample=cfg.oversample)
        fspec = FilterSpec(kind="brickwall", cutoff_f0=min(fspec.cutoff_f0, 0.5 * cfg.f_base))
        thr = None
    if thr is None:
        thr = calibration.auto_threshold(inst, fspec)
    return cfg, fspec, thr


def _decide_one(task: tuple[CpiInstance, NonidealityConfig], oracle: str,
                fspec: FilterSpec, thr: Optional[calibration.DecisionThreshold],
                strict: bool, keep_sampled: bool) -> calibration.Decision:
    """One decision; an analogue one keeps its filtered samples only with ``keep_sampled``."""
    inst, cfg = task
    if oracle in ("exact", "exact-dp", "exact-bf"):
        if oracle == "exact-bf":
            yes = exact.decide_bruteforce(inst)
        else:
            yes = exact.solve_exact(inst)
        try:
            dc = float(exact.ideal_dc(inst))
        except exact.InstanceTooLargeError:
            dc = math.nan  # beyond the meet-in-the-middle guard the DC is unknown
        cut = 0.5 ** min(inst.n + 1, 60)
        return calibration.Decision(answer="YES" if yes else "NO", dc_measured=dc,
                                    threshold=calibration.fixed_threshold(cut),
                                    margin=abs(dc - cut))
    cfg, fspec, thr = _analog_setup(inst, oracle, cfg, fspec, thr)
    decision = calibration.decide_analog(inst, cfg, fspec, thr, strict=strict)
    return decision if keep_sampled else replace(decision, sampled=None)


def cmd_decide(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    insts = _load_instance_arg(args.instance)
    if len(insts) > 1 and not args.batch:
        raise ValueError(f"{len(insts)} instances given; pass --batch to decide them all")
    cfg, fspec, thr = _load_config(args)

    # deterministic per-instance sub-seeds keep batch runs reproducible
    tasks = [(inst, replace(cfg, seed=cfg.seed + i) if args.batch else cfg)
             for i, inst in enumerate(insts)]
    write_trace = bool(args.out) and not args.batch and args.oracle in ("analog", "analog-ideal")
    decisions = calibration.parallel_map(
        functools.partial(_decide_one, oracle=args.oracle, fspec=fspec, thr=thr,
                          strict=args.strict, keep_sampled=write_trace),
        tasks, args.jobs)
    records = [decision_record(d, inst, c, fspec)
               for d, (inst, c) in zip(decisions, tasks)]
    last_answer = decisions[-1].answer
    text = "\n".join(records)
    print(text, end="")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        digest = config_digest(cfg, fspec)
        head = _provenance(argv, digest, args.seed)
        (out / "decisions.txt").write_text(head + text)
        written = ["decisions.txt"]
        if write_trace:
            sampled = decisions[0].sampled
            trace_csv = pipeline.volts_csv(sampled.times(), sampled.values)
            (out / "trace.csv").write_text(head + trace_csv)
            (out / "spectrum.csv").write_text(head + dsp.dft(sampled).to_csv(units="Hz"))
            written += ["spectrum.csv", "trace.csv"]
        record = RunRecord(command="cospart " + " ".join(argv), config_hash=digest,
                           seed=args.seed, outputs=written,
                           wall_time=time.monotonic() - t0)
        (out / "decide.record").write_text(record.to_text())
    if args.batch:
        return 0
    return EXIT_YES if last_answer == "YES" else EXIT_NO


def cmd_spectrum(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    inst = _load_instance_arg(args.instance)[0]
    cfg, fspec, _ = _load_config(args)
    digest = config_digest(cfg, fspec)
    head = _provenance(argv, digest, args.seed)

    analytic = exact.analytic_spectrum(inst).to_csv(units="instance")
    outputs = {"spectrum_analytic.csv": head + analytic}
    if args.simulate:
        sim_cfg = NonidealityConfig.ideal(seed=cfg.seed, f_base=cfg.f_base,
                                          oversample=cfg.oversample)
        trace = pipeline.run_cascade(inst, sim_cfg, periods=1)
        sampled = dsp.sample_after_filter(
            trace.final, FilterSpec(kind="none", cutoff_f0=0.5 / trace.final.dt),
            t_start=0.0, duration=trace.final.alignment_period, tau=trace.final.dt)
        measured = dsp.dft(sampled).to_csv(units="Hz")
        outputs["spectrum_measured.csv"] = head + measured

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in outputs.items():
            (out / name).write_text(text)
        record = RunRecord(command="cospart " + " ".join(argv), config_hash=digest,
                           seed=args.seed, outputs=sorted(outputs),
                           wall_time=time.monotonic() - t0)
        (out / "spectrum.record").write_text(record.to_text())
        print("\n".join(str(Path(args.out) / name) for name in sorted(outputs)))
    else:
        for name, text in outputs.items():
            print(f"== {name} ==")
            print(text, end="")
    return 0


def cmd_calibrate(args, argv: list[str]) -> int:
    t0 = time.monotonic()
    train_yes = instances.load_instances(Path(args.yes).read_text())
    train_no = instances.load_instances(Path(args.no).read_text())
    cfg, fspec, _ = _load_config(args)
    for inst in train_yes + train_no:
        pipeline.check_grid(inst, cfg)

    # Z compensation is per stage, so it only applies when every training
    # instance runs the same cascade arity.
    sizes = {inst.n for inst in train_yes + train_no}
    report = None
    cfg_used = cfg
    if len(sizes) == 1:
        report = calibration.measure_stage_offsets(train_no[0], cfg)
        cfg_used = calibration.compensate(cfg, report)
    thr = calibration.bootstrap_threshold(train_yes, train_no, cfg_used, fspec,
                                          jobs=args.jobs)
    text = calibration.threshold_to_text(thr, z_compensation=cfg_used.z_compensation,
                                         offsets=report)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        digest = config_digest(cfg, fspec)
        (out / "calibration.txt").write_text(_provenance(argv, digest, args.seed) + text)
        record = RunRecord(command="cospart " + " ".join(argv), config_hash=digest,
                           seed=args.seed, outputs=["calibration.txt"],
                           wall_time=time.monotonic() - t0)
        (out / "calibrate.record").write_text(record.to_text())
    if not thr.separable:
        print("warning: training bands overlap; calibration is not separable",
              file=sys.stderr)
    return 0


def _make_backend(name: str, cfg: NonidealityConfig, fspec: FilterSpec,
                  thr: Optional[calibration.DecisionThreshold]) -> reductions.OracleBackend:
    if name in ("exact", "exact-dp"):
        return reductions.OracleBackend(kind="exact-dp")
    if name == "exact-bf":
        return reductions.OracleBackend(kind="exact-bruteforce")
    if name == "analog-ideal":
        return reductions.OracleBackend(
            kind="analog-simulated",
            cfg=NonidealityConfig.ideal(seed=cfg.seed, f_base=cfg.f_base,
                                        oversample=cfg.oversample))
    return reductions.OracleBackend(kind="analog-simulated", cfg=cfg,
                                    fspec=None, threshold=thr)


def cmd_sat(args, argv: list[str]) -> int:
    formula = reductions.parse_dimacs(Path(args.dimacs).read_text(), strict=args.strict)
    cfg, fspec, thr = _load_config(args)
    backend = _make_backend(args.backend, cfg, fspec, thr)
    try:
        assignment = reductions.extract_witness(formula, backend)
    except reductions.ReductionOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    text = reductions.format_solution(assignment)
    print(text, end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        head = _provenance(argv, config_digest(cfg, fspec), args.seed, comment="c")
        (out / "solution.txt").write_text(head + text)
    return EXIT_YES if assignment is not None else EXIT_NO


def cmd_netlist(args, argv: list[str]) -> int:
    inst = _load_instance_arg(args.instance)[0]
    cfg, fspec, _ = _load_config(args)
    doc = netlist.emit_netlist(inst, cfg, fspec)
    netlist.validate_netlist(doc)
    digest = config_digest(cfg, fspec)
    text = _provenance(argv, digest, args.seed, comment="*") + doc.text()
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "cascade.cir"
        path.write_text(text)
        print(str(path))
    else:
        print(text, end="")
    return 0


def cmd_gen(args, argv: list[str]) -> int:
    lines = []
    for i in range(args.count):
        inst = instances.random_instance(args.n, max_mag=args.max_mag,
                                         kind=args.kind, seed=args.seed + i)
        lines.append(instances.serialize_instance(inst))
    head = _provenance(argv, config_digest(NonidealityConfig()), args.seed)
    text = head + "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / "instances.txt"
        path.write_text(text)
        print(str(path))
    else:
        print(text, end="")
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--filter", choices=dsp.FILTER_KINDS, default=None)
    p.add_argument("--f0", type=float, default=None, help="filter cutoff in Hz")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", help="output directory")
    p.add_argument("--strict", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cospart",
        description="Simulated analogue oracle for balanced-partition decisions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide one instance (exit 1=YES, 0=NO)")
    p.add_argument("instance", help="inline values like '3 2 5' or an instance file")
    p.add_argument("--oracle", default="exact-dp",
                   choices=["exact", "exact-dp", "exact-bf", "analog", "analog-ideal"])
    p.add_argument("--calibration", help="calibration file from cospart calibrate")
    p.add_argument("--batch", action="store_true", help="decide every instance in a file")
    _add_common(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("spectrum", help="emit analytic (and measured) spectra")
    p.add_argument("instance")
    p.add_argument("--simulate", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("calibrate", help="measure offsets and learn the threshold")
    p.add_argument("--yes", required=True, help="file of known YES instances")
    p.add_argument("--no", required=True, help="file of known NO instances")
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("sat", help="solve a DIMACS CNF file via the reduction")
    p.add_argument("dimacs")
    p.add_argument("--backend", default="exact-dp",
                   choices=["exact", "exact-dp", "exact-bf", "analog", "analog-ideal"])
    p.add_argument("--calibration")
    _add_common(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("netlist", help="emit a SPICE netlist for an instance")
    p.add_argument("instance")
    _add_common(p)
    p.set_defaults(func=cmd_netlist)

    p = sub.add_parser("gen", help="generate labeled random instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-mag", type=int, default=50)
    p.add_argument("--kind", choices=["YES", "NO"], default="YES")
    p.add_argument("--count", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except Exception as exc:  # error contract: anything >= 2 is a failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
