"""Offset measurement, Z-compensation, bootstrap thresholds and the decision.

The decision polarity follows the spectrum: a balanced instance puts a line
at zero frequency, so YES means the measured DC lies ABOVE the threshold.
"""

from __future__ import annotations

import functools
import hashlib
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import dsp
from .dsp import FilterSpec, SampledTrace
from .exact import solve_exact
from .instances import CpiInstance, serialize_instance
from .pipeline import BandwidthError, NonidealityConfig, PipelineTrace, bandwidth_exceeded, \
    config_to_text, parse_kv, run_cascade


class LabelError(ValueError):
    """A training instance's label disagrees with the exact solver."""


class NonSeparableError(RuntimeError):
    """The calibrated bands overlap; no decision threshold exists."""


@dataclass(frozen=True)
class OffsetReport:
    """DC measured at each multiplier output under a given configuration."""

    per_stage_dc: tuple[float, ...]
    instance_used: CpiInstance
    is_no_instance: bool


@dataclass(frozen=True)
class DecisionThreshold:
    """Voltage bands learned from training runs and the cut between them."""

    cut: float
    no_band_max: float
    yes_band_min: float
    training_size: int
    separable: bool = True


@dataclass(frozen=True)
class Decision:
    answer: str  # "YES" | "NO"
    dc_measured: float
    threshold: DecisionThreshold
    margin: float
    # the filtered samples the DC was taken from (analogue decisions only)
    sampled: Optional[SampledTrace] = field(default=None, repr=False, compare=False)


def run_and_measure(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec,
                    burn_in_periods: int = 0, window_periods: int = 1,
                    tau: Optional[float] = None) -> tuple[float, PipelineTrace, SampledTrace]:
    """Full chain: cascade, filter, aligned sampling, DC estimate.

    Defaults sample every grid point of one alignment period, which makes
    the DC estimate exact for periodic signals.
    """
    trace = run_cascade(inst, cfg, periods=burn_in_periods + window_periods)
    t_align = trace.final.alignment_period
    sampled = dsp.sample_after_filter(
        trace.final, spec,
        t_start=burn_in_periods * t_align,
        duration=window_periods * t_align,
        tau=trace.final.dt if tau is None else tau)
    return dsp.dc_component(sampled), trace, sampled


def _measured_dc(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec,
                 burn_in_periods: int, window_periods: int) -> float:
    return run_and_measure(inst, cfg, spec, burn_in_periods, window_periods)[0]


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(x) for x in items]``, over ``jobs`` spawned worker processes.

    ``fn`` must pickle by import path: a module-level function or a
    `functools.partial` of one.  Runs in this process when ``jobs <= 1``
    or there is at most one item.
    """
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    # imported here: the pool machinery would add to every command's start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, items))


def measure_stage_offsets(inst: CpiInstance, cfg: NonidealityConfig) -> OffsetReport:
    """DC at every multiplier output over one aligned period.

    Fine-tuning should use NO instances: on a YES instance part of the
    measured DC is signal, and compensating it away would erase the answer.
    """
    is_no = not solve_exact(inst)
    if not is_no:
        warnings.warn("measuring offsets on a YES instance; the report includes signal DC",
                      stacklevel=2)
    per_stage = tuple(s.pin_dc for s in run_cascade(inst, cfg, periods=1).stages)
    return OffsetReport(per_stage_dc=per_stage, instance_used=inst, is_no_instance=is_no)


def compensate(cfg: NonidealityConfig, report: OffsetReport) -> NonidealityConfig:
    """Wire each Z input against the measured stage DC.

    Adjustments accumulate onto any existing compensation, so re-measuring
    and re-compensating is idempotent up to measurement noise.
    """
    n_stages = len(report.per_stage_dc)
    existing = cfg.z_compensation or (0.0,) * n_stages
    if len(existing) != n_stages:
        raise ValueError(f"arity mismatch: config has {len(existing)} stages, "
                         f"report has {n_stages}")
    z = tuple(zc - dc for zc, dc in zip(existing, report.per_stage_dc))
    return replace(cfg, z_compensation=z)


def perturb_to_no_instance(inst: CpiInstance, sigma: float, delta: float,
                           seed: int = 0) -> tuple[list[float], float]:
    """Gaussian frequency distortion yielding an almost-sure NO instance.

    Returns the perturbed (real-valued) frequencies and the probability
    that the summed error still lands within ``delta`` of zero, i.e.
    P(|N(0, n*sigma^2)| <= delta).
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, sigma, inst.n)
    perturbed = [a + e for a, e in zip(inst.values, eps)]
    p_false_dc = math.erf(delta / (sigma * math.sqrt(2.0 * inst.n)))
    return perturbed, p_false_dc


def bootstrap_threshold(train_yes: Sequence[CpiInstance], train_no: Sequence[CpiInstance],
                        cfg: NonidealityConfig, spec: FilterSpec,
                        burn_in_periods: int = 0, window_periods: int = 1,
                        jobs: int = 1) -> DecisionThreshold:
    """Learn the YES/NO voltage bands from labeled training runs.

    Labels are verified with `solve_exact` first; the runs are spread over
    ``jobs`` processes by `parallel_map`.  The cut is the geometric mean of
    the band edges when both are positive, half the YES band's bottom when
    only that one is, and the midpoint otherwise (overlapping bands, or
    both at or below 0 V).
    """
    if not train_yes or not train_no:
        raise ValueError("both training sets must be non-empty")
    for inst in train_yes:
        if not solve_exact(inst):
            raise LabelError(f"training YES instance {serialize_instance(inst)} is a NO instance")
    for inst in train_no:
        if solve_exact(inst):
            raise LabelError(f"training NO instance {serialize_instance(inst)} is a YES instance")

    dcs = parallel_map(functools.partial(_measured_dc, cfg=cfg, spec=spec,
                                         burn_in_periods=burn_in_periods,
                                         window_periods=window_periods),
                       [*train_yes, *train_no], jobs)
    yes_min = min(dcs[:len(train_yes)])
    no_max = max(dcs[len(train_yes):])
    separable = no_max < yes_min
    if separable and no_max > 0:
        cut = math.sqrt(no_max * yes_min)
    elif separable and yes_min > 0:
        cut = 0.5 * yes_min
    else:
        cut = 0.5 * (no_max + yes_min)
    return DecisionThreshold(cut=cut, no_band_max=no_max, yes_band_min=yes_min,
                             training_size=len(train_yes) + len(train_no),
                             separable=separable)


def fixed_threshold(cut: float) -> DecisionThreshold:
    """A hand-set separable threshold (e.g. for ideal-chain decisions)."""
    return DecisionThreshold(cut=cut, no_band_max=0.0, yes_band_min=2 * cut,
                             training_size=0, separable=True)


def auto_threshold(inst: CpiInstance, spec: FilterSpec) -> DecisionThreshold:
    """Half the smallest possible ideal YES level, 1/2**n, scaled by filter gain."""
    return fixed_threshold(spec.dc_gain * 0.5 ** inst.n / 2.0)


def decide_analog(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec,
                  thr: DecisionThreshold, strict: bool = False,
                  burn_in_periods: int = 0, window_periods: int = 1) -> Decision:
    """Run the full chain and compare the DC estimate against the threshold.

    With ``strict``, an instance above the multiplier bandwidth raises
    `BandwidthError` before anything is simulated.
    """
    if not thr.separable:
        raise NonSeparableError("threshold bands overlap; recalibrate before deciding")
    if strict and bandwidth_exceeded(inst, cfg):
        raise BandwidthError(
            f"sum of frequencies {inst.total * cfg.f_base:.6g} Hz exceeds "
            f"f*={cfg.bandwidth_f_star:.6g} Hz")
    dc, _, sampled = run_and_measure(inst, cfg, spec, burn_in_periods, window_periods)
    answer = "YES" if dc > thr.cut else "NO"
    return Decision(answer=answer, dc_measured=dc, threshold=thr,
                    margin=abs(dc - thr.cut), sampled=sampled)


def config_digest(cfg: NonidealityConfig, spec: Optional[FilterSpec] = None) -> str:
    """Short stable hash of the configuration (and filter) for provenance."""
    text = config_to_text(cfg)
    if spec is not None:
        text += f"kind={spec.kind}\ncutoff_f0={spec.cutoff_f0:.12g}\n" \
                f"order={spec.order}\nper_stage_gain={spec.per_stage_gain:.12g}\n"
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def decision_record(decision: Decision, inst: CpiInstance, cfg: NonidealityConfig,
                    spec: Optional[FilterSpec] = None) -> str:
    """Key=value export of one decision."""
    lines = [
        f"instance={serialize_instance(inst)}",
        f"answer={decision.answer}",
        f"dc_volts={decision.dc_measured:.9g}",
        f"cut_volts={decision.threshold.cut:.9g}",
        f"margin_volts={decision.margin:.9g}",
        f"config_hash={config_digest(cfg, spec)}",
        f"seed={cfg.seed}",
    ]
    return "\n".join(lines) + "\n"


def threshold_to_text(thr: DecisionThreshold,
                      z_compensation: Sequence[float] = (),
                      offsets: Optional[OffsetReport] = None) -> str:
    """Persist a calibration: threshold plus the compensation that produced it."""
    lines = [
        f"cut={thr.cut:.12g}",
        f"no_band_max={thr.no_band_max:.12g}",
        f"yes_band_min={thr.yes_band_min:.12g}",
        f"training_size={thr.training_size}",
        f"separable={int(thr.separable)}",
    ]
    if len(z_compensation):
        lines.append("z_compensation=" + ",".join(f"{z:.12g}" for z in z_compensation))
    if offsets is not None:
        lines.append("per_stage_dc=" + ",".join(f"{v:.12g}" for v in offsets.per_stage_dc))
        lines.append(f"offset_instance={serialize_instance(offsets.instance_used)}")
    return "\n".join(lines) + "\n"


def threshold_from_text(text: str) -> tuple[DecisionThreshold, tuple[float, ...]]:
    """Load a persisted calibration; returns (threshold, z_compensation)."""
    items = parse_kv(text)
    thr = DecisionThreshold(
        cut=float(items["cut"]),
        no_band_max=float(items["no_band_max"]),
        yes_band_min=float(items["yes_band_min"]),
        training_size=int(items["training_size"]),
        separable=bool(int(items["separable"])),
    )
    z = ()
    if items.get("z_compensation"):
        z = tuple(float(p) for p in items["z_compensation"].split(","))
    return thr, z
