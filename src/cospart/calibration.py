"""Offset measurement, Z-compensation, bootstrap thresholds and the decision.

The decision polarity follows the spectrum: a balanced instance puts a line
at zero frequency, so YES means the measured DC lies ABOVE the threshold.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import dsp
from .dsp import FilterSpec, SampledTrace
from .exact import solve_exact
from .instances import CpiInstance, serialize_instance
from .pipeline import NonidealityConfig, PipelineTrace, _text, check_bandwidth, check_grid, \
    config_to_text, fields_to_text, from_items, parse_kv, points_per_period, read_field, \
    run_cascade, stage_noise_rng, store_fields, validate_stage_sequences


class LabelError(ValueError):
    """A training instance's label disagrees with the exact solver."""


class NonSeparableError(RuntimeError):
    """The calibrated bands overlap; no decision threshold exists."""


class ChainMismatchError(ValueError):
    """A calibrated threshold is applied to a chain it was not learned on."""


@dataclass(frozen=True)
class DecisionThreshold:
    """Voltage bands learned from training runs and the cut between them, each
    field stored by `pipeline.store_fields`: a NaN or infinite cut or band edge
    is refused."""

    cut: float
    no_band_max: float
    yes_band_min: float
    training_size: int
    separable: bool = True
    chain: str = ""  # `chain_digest` of the chain the bands were measured on; "" if none

    __post_init__ = store_fields


@dataclass(frozen=True)
class Decision:
    answer: str  # "YES" | "NO"
    dc_measured: float
    cut: float
    # the filtered samples the DC was taken from (analogue decisions on the grid only)
    sampled: Optional[SampledTrace] = field(default=None, repr=False, compare=False)

    @property
    def margin(self) -> float:
        return abs(self.dc_measured - self.cut)


def run_and_measure(inst: CpiInstance, cfg: NonidealityConfig,
                    spec: FilterSpec) -> tuple[float, PipelineTrace, SampledTrace]:
    """Full chain: cascade, filter, aligned sampling, DC estimate.

    Samples every grid point of one alignment period, which makes the DC
    estimate exact for periodic signals.
    """
    trace = run_cascade(inst, cfg)
    sampled = dsp.sample_after_filter(trace.final, spec, t_start=0.0,
                                      duration=trace.final.alignment_period,
                                      tau=trace.final.dt)
    return dsp.dc_component(sampled), trace, sampled


def measure_dc(inst: CpiInstance, cfg: NonidealityConfig,
               spec: FilterSpec) -> tuple[float, Optional[SampledTrace]]:
    """The chain's DC at ``cfg``'s seed, with the filtered samples when the grid ran.

    A grid run's guards come first (`validate_stage_sequences`, `check_grid`).
    Inside the harmonic engine's domain, no frequency errors and no node
    within `harmonic.CLIP_SIGMAS` noise RMS of the rails, the DC is
    `harmonic.fold`'s, plus each stage's noise σ times one standard normal
    from `stage_noise_rng`: the grid's DC in distribution, with no grid and no
    samples.  Outside it the DC and samples are `run_and_measure`'s.
    """
    validate_stage_sequences(cfg, inst.n)
    check_grid(inst, cfg)
    if not cfg.freq_error_sigma:
        from . import harmonic  # imported here: commands that decide no chain skip it
        chain = harmonic.fold(inst, cfg, spec)
        if not chain.clips(cfg.supply_voltage):
            noise = sum(sigma * stage_noise_rng(cfg, s).standard_normal()
                        for s, sigma in enumerate(chain.stage_sigma) if sigma)
            return chain.dc + noise, None
    dc, _, sampled = run_and_measure(inst, cfg, spec)
    return dc, sampled


def _measured_dc(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec) -> float:
    return measure_dc(inst, cfg, spec)[0]


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """``[fn(x) for x in items]``, over up to ``jobs`` threads of this process.

    The threads are capped by the number of items and by the CPUs this
    process may run on.  Runs inline when that leaves fewer than two.
    Every task seeds its own generators, so the results do not depend on
    the thread that ran them.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(jobs, len(items), cpus)
    if workers <= 1:
        return [fn(x) for x in items]
    # imported here: the pool machinery would add to every command's start-up
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def measure_stage_offsets(inst: CpiInstance, cfg: NonidealityConfig) -> tuple[float, ...]:
    """DC at every multiplier output over one aligned period, one per stage.

    Fine-tuning should use NO instances: on a YES instance, which draws a
    warning, part of the measured DC is signal, and compensating it away
    would erase the answer.
    """
    if solve_exact(inst):
        warnings.warn("measuring offsets on a YES instance; the report includes signal DC",
                      stacklevel=2)
    return run_cascade(inst, cfg).pin_dc


def pick_offset_instance(train_no: Sequence[CpiInstance]) -> CpiInstance:
    """The first NO instance none of whose runs of consecutive values balances.

    A balanced run of two or more values carries an earlier stage's offset
    to a later multiplier output at DC, where `compensate` would cancel it a
    second time as that stage's own.

    Raises:
        ValueError: when every instance has such a run; names the first one.
    """
    first = ""
    for inst in train_no:
        runs = (CpiInstance(inst.values[i:j])
                for i in range(inst.n) for j in range(i + 2, inst.n + 1))
        run = next((r for r in runs if solve_exact(r)), None)
        if run is None:
            return inst
        first = first or f": {serialize_instance(inst)} has the balanced run " \
                         f"{serialize_instance(run)}"
    raise ValueError("no NO training instance to measure offsets on" + first)


def compensate(cfg: NonidealityConfig, per_stage_dc: Sequence[float]) -> NonidealityConfig:
    """Wire each Z input against the stage DCs `measure_stage_offsets` measured.

    Adjustments accumulate onto any existing compensation, so re-measuring
    and re-compensating is idempotent up to measurement noise.
    """
    n_stages = len(per_stage_dc)
    existing = cfg.z_compensation or (0.0,) * n_stages
    if len(existing) != n_stages:
        raise ValueError(f"arity mismatch: config has {len(existing)} stages, "
                         f"offsets have {n_stages}")
    z = tuple(zc - dc for zc, dc in zip(existing, per_stage_dc))
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


def residue_floor(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec) -> float:
    """The most DC that float64 rounding alone can leave on a one-period run of ``inst``.

    The final signal is bounded by V = dc_gain · min(supply_voltage,
    Π|A_i| · (mult_scale·amp_gain)^(n−1)), the ideal chain's peak for source
    amplitudes A_i, and its DC is the mean of m = `points_per_period`
    samples.  Rounding the samples and summing them moves that mean by at
    most m·ε·V, with ε = 2.2e-16 the float64 epsilon.  The floor is that
    bound: 7.8e-11 V for a unit-amplitude chain on 352,800 points.
    """
    amps = cfg.source_amplitude
    gain = abs(amps) ** inst.n if isinstance(amps, (int, float)) else math.prod(map(abs, amps))
    peak = min(cfg.supply_voltage, gain * abs(cfg.mult_scale * cfg.amp_gain) ** (inst.n - 1))
    return points_per_period(inst, cfg) * np.finfo(float).eps * abs(spec.dc_gain) * peak


def bootstrap_threshold(train_yes: Sequence[CpiInstance], train_no: Sequence[CpiInstance],
                        cfg: NonidealityConfig, spec: FilterSpec,
                        jobs: int = 1) -> DecisionThreshold:
    """Learn the YES/NO voltage bands from labeled training runs.

    Labels are verified with `solve_exact` first; the runs are spread over
    ``jobs`` threads by `parallel_map`.  An edge at or below the largest
    `residue_floor` of the training runs is float rounding, not a level, and
    counts as at or below 0 V.  The cut is the geometric mean of the band
    edges when both lie above that floor, half the YES band's bottom when
    only that one does and the half clears the NO band's top, and the
    midpoint otherwise (overlapping bands, both within the floor or below it,
    or a NO top within the floor above half the YES bottom).  The threshold
    is stamped with the `chain_digest` of ``cfg`` and ``spec``.
    """
    if not train_yes or not train_no:
        raise ValueError("both training sets must be non-empty")
    for inst in train_yes:
        if not solve_exact(inst):
            raise LabelError(f"training YES instance {serialize_instance(inst)} is a NO instance")
    for inst in train_no:
        if solve_exact(inst):
            raise LabelError(f"training NO instance {serialize_instance(inst)} is a YES instance")

    dcs = parallel_map(lambda inst: _measured_dc(inst, cfg, spec), [*train_yes, *train_no], jobs)
    yes_min = min(dcs[:len(train_yes)])
    no_max = max(dcs[len(train_yes):])
    floor = max(residue_floor(inst, cfg, spec) for inst in [*train_yes, *train_no])
    separable = bool(no_max < yes_min)
    if separable and no_max > floor:
        cut = math.sqrt(no_max * yes_min)
    elif separable and yes_min > floor and 0.5 * yes_min > no_max:
        cut = 0.5 * yes_min
    else:
        cut = 0.5 * (no_max + yes_min)
    return DecisionThreshold(cut=cut, no_band_max=no_max, yes_band_min=yes_min,
                             training_size=len(train_yes) + len(train_no),
                             separable=separable, chain=chain_digest(cfg, spec))


def fixed_threshold(cut: float) -> DecisionThreshold:
    """A hand-set separable threshold (e.g. for ideal-chain decisions)."""
    return DecisionThreshold(cut=cut, no_band_max=0.0, yes_band_min=2 * cut,
                             training_size=0, separable=True)


def auto_threshold(inst: CpiInstance, spec: FilterSpec) -> DecisionThreshold:
    """Half the smallest possible ideal YES level, 1/2**n, scaled by filter gain."""
    return fixed_threshold(spec.dc_gain * 0.5 ** inst.n / 2.0)


def decide_analog(inst: CpiInstance, cfg: NonidealityConfig, spec: FilterSpec,
                  thr: Optional[DecisionThreshold] = None, strict: bool = False) -> Decision:
    """Measure the chain's DC (`measure_dc`) and compare it against the threshold.

    ``thr`` defaults to `auto_threshold`.  A threshold stamped with a chain
    (one from `bootstrap_threshold`) raises `ChainMismatchError` unless
    ``cfg`` and ``spec`` are that chain, whatever the seed.  With
    ``strict``, an instance above the multiplier bandwidth raises
    `BandwidthError`.  Both checks run before anything is simulated.
    """
    thr = thr or auto_threshold(inst, spec)
    if thr.chain and thr.chain != chain_digest(cfg, spec):
        raise ChainMismatchError(
            f"the calibration was learned on chain {thr.chain}, but this chain is "
            f"{chain_digest(cfg, spec)}; recalibrate with this --config and filter")
    if not thr.separable:
        raise NonSeparableError("threshold bands overlap; recalibrate before deciding")
    if strict:
        check_bandwidth(inst, cfg)
    dc, sampled = measure_dc(inst, cfg, spec)
    answer = "YES" if dc > thr.cut else "NO"
    return Decision(answer=answer, dc_measured=dc, cut=thr.cut, sampled=sampled)


# every field of a chain's config but its noise seed
_CHAIN_FIELDS = tuple(f.name for f in fields(NonidealityConfig) if f.name != "seed")


def chain_digest(cfg: NonidealityConfig, spec: FilterSpec) -> str:
    """Short stable hash of a chain: config and filter, Z (and so the arity) included.

    The noise seed is left out; it is reported next to the hash wherever the
    hash is, so one chain has one digest whatever seed it runs with.  Equal
    configs and filters store their values alike and so print alike, which
    makes the digest safe to memoise on the values without the seed: a chain
    is hashed once per process, at however many seeds it runs.
    """
    return _unseeded_digest(spec, *(getattr(cfg, name) for name in _CHAIN_FIELDS))


@functools.lru_cache(maxsize=256)
def _unseeded_digest(spec: FilterSpec, *values) -> str:
    """`chain_digest` of the chain whose config fields but the seed are ``values``."""
    text = config_to_text(NonidealityConfig(**dict(zip(_CHAIN_FIELDS, values)))) + \
        fields_to_text(spec)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def decision_record(decision: Decision, inst: CpiInstance, chain: str, seed: int) -> str:
    """Key=value export of one decision on the chain with `chain_digest` ``chain``."""
    lines = [
        f"instance={serialize_instance(inst)}",
        f"answer={decision.answer}",
        f"dc_volts={decision.dc_measured:.9g}",
        f"cut_volts={decision.cut:.9g}",
        f"margin_volts={decision.margin:.9g}",
        f"config_hash={chain}",
        f"seed={seed}",
    ]
    return "\n".join(lines) + "\n"


def threshold_to_text(thr: DecisionThreshold,
                      z_compensation: Sequence[float] = (),
                      offsets: Sequence[float] = (),
                      offset_instance: Optional[CpiInstance] = None) -> str:
    """Persist a calibration: threshold, Z, and the ``offsets`` measured on ``offset_instance``."""
    text = fields_to_text(thr)
    if len(z_compensation):
        text += f"z_compensation={_text(tuple(z_compensation))}\n"
    if offset_instance is not None:
        text += f"per_stage_dc={_text(tuple(offsets))}\n"
        text += f"offset_instance={serialize_instance(offset_instance)}\n"
    return text


def threshold_from_text(text: str) -> tuple[DecisionThreshold, tuple[float, ...]]:
    """Load a persisted calibration; returns (threshold, z_compensation).

    Raises:
        ValueError: when the text lacks a `DecisionThreshold` field or leaves
            it empty, as a calibration written before thresholds were bound
            to their chain leaves ``chain``, or when a separable calibration's
            cut does not lie between its bands.
    """
    items = parse_kv(text)
    for f in fields(DecisionThreshold):
        if not items.get(f.name):
            raise ValueError(f"calibration has no {f.name}= line; "
                             "recalibrate with cospart calibrate")
    thr = from_items(DecisionThreshold, {f.name: items[f.name] for f in fields(DecisionThreshold)},
                     "calibration")
    if thr.separable and not thr.no_band_max < thr.cut < thr.yes_band_min:
        raise ValueError(f"calibration cut={thr.cut!r} does not lie between no_band_max="
                         f"{thr.no_band_max!r} and yes_band_min={thr.yes_band_min!r}")
    return thr, read_field(NonidealityConfig, "z_compensation",
                           items.get("z_compensation", ""), "calibration")
