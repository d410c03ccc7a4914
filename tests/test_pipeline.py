import bisect
import dataclasses
import math
import sys
import threading
from dataclasses import replace
from typing import Sequence, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cospart import pipeline
from cospart.calibration import DecisionThreshold, run_and_measure
from cospart.dsp import FilterSpec, apply_lowpass, dft, sample_after_filter
from cospart.exact import analytic_spectrum, ideal_dc
from cospart.instances import CpiInstance, parse_instance
from cospart.pipeline import (NonidealityConfig, Signal, amplify, bandwidth_exceeded,
                              fields_to_text, from_items, GridTooLargeError, config_to_text,
                              multiply_stage, next_smooth_length, parse_kv,
                              points_per_period, run_cascade, synthesize_sources)
from conftest import tracemalloc_peak


def _product_reference(inst, cfg, t):
    ref = np.ones_like(t)
    for a in inst.values:
        ref *= np.cos(2 * np.pi * a * cfg.f_base * t)
    return ref


def test_sources_are_pure_cosines(ideal_cfg):
    inst = parse_instance("2 3")
    s1, s2 = synthesize_sources(inst, ideal_cfg)
    t = s1.times()
    assert np.allclose(s1.samples, np.cos(2 * np.pi * 20e3 * t), atol=1e-12)
    assert np.allclose(s2.samples, np.cos(2 * np.pi * 30e3 * t), atol=1e-12)
    assert s1.dt == s2.dt and s1.m == s2.m
    assert s1.alignment_period == pytest.approx(1e-4)


def test_source_amplitude_and_grid(ideal_cfg):
    inst = parse_instance("1")
    src, = synthesize_sources(inst, ideal_cfg)
    assert np.max(src.samples) == pytest.approx(1.0)
    # grid resolves the highest nominal harmonic with >= oversample points
    f_max = inst.total * ideal_cfg.f_base
    assert src.dt <= 1.0 / (ideal_cfg.oversample * f_max) * (1 + 1e-12)


def _is_smooth(m):
    for p in (2, 3, 5, 7):
        while m % p == 0:
            m //= p
    return m == 1


def test_next_smooth_length_properties():
    limit = 2_100_000
    smooth = sorted({2**a * 3**b * 5**c * 7**d
                     for a in range(22) for b in range(14) for c in range(10)
                     for d in range(8)
                     if 2**a * 3**b * 5**c * 7**d <= limit})
    requests = list(range(1, 5000)) + list(range(1_999_000, 2_001_000))
    for n in requests:
        m = next_smooth_length(n)
        assert m == smooth[bisect.bisect_left(smooth, n)], (n, m)
        assert _is_smooth(m) and m >= n
        if _is_smooth(n):
            assert m == n
        if n >= 4:
            assert 11 * m <= 12 * n, (n, m)
    # the CLI's 2,000,000-point limit is itself smooth, so rounding never
    # moves a request across it
    assert next_smooth_length(2_000_000) == 2_000_000


@pytest.mark.parametrize("text, per_period", [("3 6 4", 210), ("5 6 11", 360)])
def test_ideal_chain_exact_on_rounded_grid(text, per_period, ideal_cfg, brickwall):
    # 16 * total has the prime factor 13 or 11, so the grid is rounded up
    inst = parse_instance(text)
    assert points_per_period(inst, ideal_cfg) == per_period
    dc, trace, _ = run_and_measure(inst, ideal_cfg, brickwall)
    final = trace.final
    assert final.m == per_period
    assert dc == pytest.approx(float(ideal_dc(inst)), abs=1e-12)

    sampled = sample_after_filter(final, FilterSpec("none", 0.5 / final.dt),
                                  t_start=0.0, duration=final.alignment_period,
                                  tau=final.dt)
    measured = dft(sampled)
    assert measured.resolution == pytest.approx(ideal_cfg.f_base)
    lines = {round(f / ideal_cfg.f_base): a for f, a in measured.lines.items()
             if a > 1e-9}
    expected = {w: float(a) for w, a in analytic_spectrum(inst).lines.items() if w >= 0}
    assert lines.keys() == expected.keys()
    for w, a in expected.items():
        assert lines[w] == pytest.approx(a, abs=1e-9)


def test_sources_deterministic_and_seed_dependent():
    cfg = NonidealityConfig(freq_error_sigma=0.01, phase_error_sigma=0.1, seed=7)
    a = synthesize_sources(parse_instance("2 3"), cfg)
    b = synthesize_sources(parse_instance("2 3"), cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.samples, y.samples)
    c = synthesize_sources(parse_instance("2 3"), NonidealityConfig(
        freq_error_sigma=0.01, phase_error_sigma=0.1, seed=8))
    assert not np.array_equal(a[0].samples, c[0].samples)


def test_frequency_errors_stay_in_gaussian_band():
    # one percent relative sigma: a 5 sigma outlier in 2000 draws is ~1e-3
    violations = 0
    for seed in range(1000):
        cfg = NonidealityConfig(freq_error_sigma=0.01, seed=seed, bandwidth_model="none")
        rng = np.random.default_rng([seed, 101])
        eps = rng.normal(0.0, 0.01, 2)
        violations += int(np.any(np.abs(eps) > 0.05))
    assert violations == 0


def test_multiply_product_to_sum(ideal_cfg):
    inst = parse_instance("2 3")
    x, y = synthesize_sources(inst, ideal_cfg)
    out = amplify(multiply_stage(x, y, ideal_cfg, stage=0), ideal_cfg)
    t = x.times()
    ref = 0.5 * np.cos(2 * np.pi * 50e3 * t) + 0.5 * np.cos(2 * np.pi * 10e3 * t)
    assert np.max(np.abs(out.samples - ref)) <= 1e-6


def test_multiply_zero_gives_offset(ideal_cfg):
    x, y = synthesize_sources(parse_instance("2 3"), ideal_cfg)
    zero = Signal(dt=y.dt, samples=np.zeros(y.m), alignment_period=y.alignment_period)
    cfg = NonidealityConfig.ideal(mult_output_offset=0.00422)
    out = multiply_stage(x, zero, cfg, stage=0)
    assert np.allclose(out.samples, 0.00422)


def test_multiply_offset_sets_dc():
    cfg = NonidealityConfig.ideal(mult_output_offset=0.00422)
    x, y = synthesize_sources(parse_instance("3 6"), cfg)
    out = multiply_stage(x, y, cfg, stage=0)
    assert float(np.mean(out.samples)) == pytest.approx(0.00422, rel=1e-6)


def test_multiply_grid_mismatch(ideal_cfg):
    x, _ = synthesize_sources(parse_instance("2 3"), ideal_cfg)
    other = synthesize_sources(parse_instance("2 3"), ideal_cfg, periods=2)[0]
    with pytest.raises(ValueError):
        multiply_stage(x, other, ideal_cfg)


def test_amplify_gain_offset_clamp(ideal_cfg):
    base = synthesize_sources(parse_instance("1"), ideal_cfg)[0]
    const = Signal(dt=base.dt, samples=np.full(base.m, 0.1))
    assert np.allclose(amplify(const, ideal_cfg).samples, 1.0)
    sat = Signal(dt=base.dt, samples=np.full(base.m, 2.0))
    assert np.allclose(amplify(sat, ideal_cfg).samples, 10.0)


def test_amplify_undoes_mult_scale(ideal_cfg):
    src = synthesize_sources(parse_instance("1"), ideal_cfg)[0]
    scaled = Signal(dt=src.dt, samples=src.samples / 10.0)
    assert np.max(np.abs(amplify(scaled, ideal_cfg).samples - src.samples)) <= 1e-9


def test_cascade_matches_closed_form(ideal_cfg):
    for text in ("2 3", "2 3 5", "1 2 3 4", "3 2 5 7 1 4"):
        inst = parse_instance(text)
        trace = run_cascade(inst, ideal_cfg)
        ref = _product_reference(inst, ideal_cfg, trace.final.times())
        assert np.max(np.abs(trace.final.samples - ref)) <= 1e-6 * inst.n
        assert len(trace.pin_dc) == inst.n - 1


def test_cascade_no_instance_dc_zero(ideal_cfg):
    trace = run_cascade(parse_instance("3 7"), ideal_cfg)
    assert abs(float(np.mean(trace.final.samples))) < 1e-12


def test_cascade_single_value_passthrough(ideal_cfg):
    trace = run_cascade(parse_instance("5"), ideal_cfg)
    assert trace.pin_dc == ()
    source, = synthesize_sources(parse_instance("5"), ideal_cfg)
    assert np.array_equal(trace.final.samples, source.samples)


def test_cascade_deterministic():
    cfg = NonidealityConfig(noise_sigma=1e-3, freq_error_sigma=1e-3, seed=123)
    a = run_cascade(parse_instance("3 6 4"), cfg)
    b = run_cascade(parse_instance("3 6 4"), cfg)
    assert np.array_equal(a.final.samples, b.final.samples)


def test_error_free_cascade_builds_no_generator(monkeypatch):
    # without noise or source errors every draw would be a zero
    def refuse(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    cfg = NonidealityConfig(mult_output_offset=4e-3, amp_offset=2.5e-4)
    trace = run_cascade(parse_instance("3 6 4"), cfg)
    assert len(trace.pin_dc) == 2


def test_gain_errors_scale_dc_multiplicatively(ideal_cfg):
    inst = parse_instance("1 1")
    base = run_cascade(inst, ideal_cfg)
    scaled_cfg = NonidealityConfig.ideal(source_amplitude=(1.1, 0.9))
    scaled = run_cascade(inst, scaled_cfg)
    ratio = float(np.mean(scaled.final.samples)) / float(np.mean(base.final.samples))
    assert ratio == pytest.approx(1.1 * 0.9, abs=1e-6)


def test_offset_at_last_stage_scales_by_amp_gain():
    c = 4.5e-3
    cfg = NonidealityConfig.ideal(mult_output_offset=(0.0, c))
    trace = run_cascade(parse_instance("3 6 4"), cfg)
    dc = float(np.mean(trace.final.samples))
    assert dc == pytest.approx(cfg.amp_gain * c, abs=1e-6)


def test_saturation_never_exceeds_rails():
    cfg = NonidealityConfig(mult_output_offset=5.0, amp_offset=8.0, noise_sigma=0.5,
                            seed=3)
    inst = parse_instance("2 3 5")
    sources = synthesize_sources(inst, cfg)
    acc = sources[0]
    for k in range(1, inst.n):
        acc = amplify(multiply_stage(acc, sources[k], cfg, stage=k - 1), cfg)
        out = acc.samples
        assert -cfg.supply_voltage <= out.min() <= out.max() <= cfg.supply_voltage
        # the offsets drive every stage output into the positive rail
        assert out.max() == cfg.supply_voltage
        assert np.count_nonzero(np.abs(out) == cfg.supply_voltage) / len(out) > 0.5
    assert np.array_equal(run_cascade(inst, cfg).final.samples, acc.samples)


def test_bandwidth_warning_flag():
    cfg = NonidealityConfig()  # f* = 120 kHz
    assert bandwidth_exceeded(parse_instance("3 6 4"), cfg)  # 130 kHz
    assert not bandwidth_exceeded(parse_instance("3 2 5"), cfg)  # 100 kHz
    assert not bandwidth_exceeded(parse_instance("3 6 4"), NonidealityConfig.ideal())


def test_bandwidth_one_pole_attenuates():
    # a single product component right at f* is damped by 1/sqrt(2)
    cfg = NonidealityConfig(f_base=60_000.0, bandwidth_model="one-pole")
    inst = parse_instance("1 1")  # product harmonic at 2 units = 120 kHz = f*
    trace = run_cascade(inst, cfg)
    spec = np.abs(np.fft.rfft(trace.final.samples)) / trace.final.m
    freqs = np.fft.rfftfreq(trace.final.m, trace.final.dt)
    k = np.argmin(np.abs(freqs - 120e3))
    # time amplitude 0.5 -> 0.25 per rfft side, then the pole's 1/sqrt(2)
    assert spec[k] == pytest.approx(0.25 / math.sqrt(2.0), rel=1e-3)


def test_bandwidth_hard_cuts():
    cfg = NonidealityConfig(f_base=60_000.0, bandwidth_model="hard")
    trace = run_cascade(parse_instance("1 1"), cfg)
    # only the DC term (0.5) survives: the 120 kHz component is above... at f*
    spec = np.abs(np.fft.rfft(trace.final.samples)) / trace.final.m
    freqs = np.fft.rfftfreq(trace.final.m, trace.final.dt)
    assert np.all(spec[freqs > 120e3] < 1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        NonidealityConfig(oversample=2)
    with pytest.raises(ValueError):
        NonidealityConfig(bandwidth_model="butterworth")
    with pytest.raises(ValueError):
        NonidealityConfig(seed=-1)


def test_stage_sequence_arity_checked(ideal_cfg):
    cfg = NonidealityConfig.ideal(mult_output_offset=(1e-3,))
    with pytest.raises(ValueError):
        run_cascade(parse_instance("3 6 4"), cfg)  # needs 2 stages
    cfg = NonidealityConfig.ideal(z_compensation=(1e-3, 1e-3, 1e-3))
    with pytest.raises(ValueError):
        run_cascade(parse_instance("3 6 4"), cfg)


def test_config_text_round_trip():
    cfg = NonidealityConfig(mult_output_offset=(4.5e-3, 4.4e-3), noise_sigma=1e-4,
                            z_compensation=(0.001, -0.002), seed=5, oversample=32)
    assert from_items(NonidealityConfig, parse_kv(config_to_text(cfg))) == cfg


def _twelve_digits(lo, hi):
    # floats that `fields_to_text` writes exactly: 12 significant digits
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False).map(
        lambda x: float(f"{x:.12g}"))


_ANY = _twelve_digits(-1e6, 1e6)
_POSITIVE = _twelve_digits(1e-6, 1e12).filter(lambda x: x > 0)
_SIGMA = _twelve_digits(0, 1)
# a per-stage list needs a comma, so it has two entries or more
_PER_STAGE = st.one_of(_ANY, st.lists(_ANY, min_size=2, max_size=4).map(tuple))

_OBJECTS = {
    NonidealityConfig: st.builds(
        NonidealityConfig, f_base=_POSITIVE, supply_voltage=_POSITIVE,
        source_amplitude=_PER_STAGE, mult_scale=_ANY, mult_output_offset=_PER_STAGE,
        mult_input_offset=_PER_STAGE, z_compensation=st.lists(_ANY, max_size=3).map(tuple),
        amp_gain=_ANY, amp_offset=_ANY,
        bandwidth_f_star=st.one_of(_POSITIVE, st.just(math.inf)),
        bandwidth_model=st.sampled_from(pipeline.BANDWIDTH_MODELS),
        freq_error_sigma=_SIGMA, phase_error_sigma=_SIGMA, noise_sigma=_SIGMA,
        oversample=st.integers(4, 64), seed=st.integers(0, 2**70)),
    FilterSpec: st.builds(FilterSpec, kind=st.sampled_from(("brickwall", "one-pole", "none")),
                          cutoff_f0=_POSITIVE, order=st.integers(1, 8),
                          per_stage_gain=_POSITIVE),
    DecisionThreshold: st.builds(DecisionThreshold, cut=_ANY, no_band_max=_ANY,
                                 yes_band_min=_ANY, training_size=st.integers(0, 10**6),
                                 separable=st.booleans(),
                                 chain=st.text("0123456789abcdef", min_size=1, max_size=12)),
}


@pytest.mark.parametrize("cls", list(_OBJECTS), ids=lambda cls: cls.__name__)
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_one_reader_reads_what_the_one_writer_writes(cls, data):
    obj = data.draw(_OBJECTS[cls])
    names = [f.name for f in dataclasses.fields(cls)]
    assert from_items(cls, parse_kv(fields_to_text(obj, names))) == obj


# a valid object of each class that stores its fields by their declared types
_VALID = {
    NonidealityConfig: {},
    FilterSpec: {"kind": "brickwall", "cutoff_f0": 5e3},
    DecisionThreshold: {"cut": 0.1, "no_band_max": 0.0, "yes_band_min": 0.2, "training_size": 2},
}


def _fields_of(*hints):
    return [(cls, name, hint) for cls in _VALID
            for name, hint in get_type_hints(cls).items() if hint in hints]


def _non_finite_cases():
    for cls, name, hint in _fields_of(float, pipeline.PerStage, Sequence[float]):
        for bad in (math.nan, math.inf, -math.inf):
            if hint != Sequence[float]:  # one value
                yield pytest.param(cls, name, bad, id=f"{cls.__name__}.{name}={bad}")
            if hint != float:  # a sequence with one bad entry
                yield pytest.param(cls, name, (1.0, bad), id=f"{cls.__name__}.{name}=1,{bad}")


@pytest.mark.parametrize("cls, name, value", list(_non_finite_cases()))
def test_every_float_field_refuses_nan_and_infinities(cls, name, value):
    kwargs = {**_VALID[cls], name: value}
    if (name, value) == ("bandwidth_f_star", math.inf):  # the one non-finite value taken
        assert cls(**kwargs).bandwidth_f_star == math.inf
        return
    # a NaN or negative cutoff is not positive, which the filter checks first
    reason = "positive" if name == "cutoff_f0" and not value > 0 else "finite"
    with pytest.raises(ValueError, match=f"^{name} must be {reason}, got "):
        cls(**kwargs)


@pytest.mark.parametrize("cls, name", [
    pytest.param(cls, name, id=f"{cls.__name__}.{name}") for cls, name, _ in _fields_of(int)])
def test_every_int_field_refuses_a_fraction(cls, name):
    with pytest.raises(ValueError, match=fr"^{name} must be an integer, got 2\.5$"):
        cls(**{**_VALID[cls], name: 2.5})


# each field given in another type than the one it is stored in
_LOOSE = {
    NonidealityConfig: dict(f_base=20_000, source_amplitude=[1, 2.0, np.float64(0.5)],
                            mult_output_offset=0, mult_input_offset=np.array([1e-3, 2e-3]),
                            z_compensation=[0, -1e-3], bandwidth_f_star=10**6,
                            noise_sigma=np.float32(0.25), oversample=32.0, seed=np.int64(3)),
    FilterSpec: dict(kind="ideal-brickwall", cutoff_f0=5000, order=2.0,
                     per_stage_gain=np.float64(2)),
    DecisionThreshold: dict(cut=1, no_band_max=np.float64(0.5), yes_band_min=2,
                            training_size=4.0, separable=1, chain="ab"),
}


def _is_stored(hint, value):
    """Whether ``value`` has the type a field declared ``hint`` stores."""
    if hint == pipeline.PerStage and type(value) is float:
        return True
    if hint in (pipeline.PerStage, Sequence[float]):
        return type(value) is tuple and all(type(x) is float for x in value)
    return type(value) is hint


@pytest.mark.parametrize("cls", list(_LOOSE), ids=lambda cls: cls.__name__)
def test_stored_values_rebuild_the_same_object(cls):
    obj = cls(**_LOOSE[cls])
    stored = {f.name: getattr(obj, f.name) for f in dataclasses.fields(cls)}
    hints = get_type_hints(cls)
    assert all(_is_stored(hints[name], value) for name, value in stored.items()), stored
    again = cls(**stored)
    assert again == obj
    assert [type(getattr(again, name)) for name in stored] == [type(v) for v in stored.values()]


def test_parse_kv_rejects_line_without_equals():
    assert parse_kv("# comment\n\n a = 1 \n") == {"a": "1"}
    with pytest.raises(ValueError, match="bad config line"):
        parse_kv("a=1\nno equals sign\n")


def test_run_cascade_refuses_zero_periods(ideal_cfg):
    with pytest.raises(ValueError, match="^periods must be at least 1$"):
        run_cascade(parse_instance("2 3"), ideal_cfg, periods=0)


def test_multiply_stage_reads_an_empty_sequence_as_zero_and_refuses_a_short_one(ideal_cfg):
    x, y = synthesize_sources(parse_instance("2 3"), ideal_cfg)
    no_z = multiply_stage(x, y, ideal_cfg, stage=1)
    assert np.array_equal(multiply_stage(x, y, replace(ideal_cfg, z_compensation=(0.0, 0.0)),
                                         stage=1).samples, no_z.samples)
    for name in ("mult_output_offset", "mult_input_offset", "z_compensation"):
        with pytest.raises(ValueError, match="^per-stage sequence too short for stage 1$"):
            multiply_stage(x, y, replace(ideal_cfg, **{name: (1e-3,)}), stage=1)


def test_run_cascade_refuses_oversized_grid_before_allocating():
    def refuse():
        with pytest.raises(GridTooLargeError, match=r"2000376 grid points per period"):
            run_cascade(parse_instance("2 125001 5"), NonidealityConfig())

    _, peak = tracemalloc_peak(refuse)
    assert peak < 1_000_000  # one 2,000,376-point array would take 16 MB


def test_grid_guard_counts_periods(ideal_cfg):
    inst = parse_instance("3 6 4")
    assert points_per_period(inst, ideal_cfg) == 210

    def refuse():  # 210 points pass alone, but 10,000 periods make 2.1 M
        with pytest.raises(GridTooLargeError, match=r"2100000 grid points over 10000 periods"):
            run_cascade(inst, ideal_cfg, periods=10_000)

    _, peak = tracemalloc_peak(refuse)
    assert peak < 1_000_000


def _total_22044(n):
    # n values, gcd 1, total 22044: 16 * 22044 = 352,704 rounds up to a
    # 352,800-point grid, the largest of the benchmark's analogue decisions
    head = [700 + i for i in range(n - 1)]
    return CpiInstance(tuple(head + [22044 - sum(head)]))


@pytest.mark.parametrize("n", [10, 30])
def test_run_and_measure_memory_independent_of_n(n, brickwall):
    inst = _total_22044(n)
    cfg = NonidealityConfig(mult_output_offset=4e-3, amp_offset=2.5e-4,
                            bandwidth_f_star=1e9, noise_sigma=1e-4, seed=n)
    m = points_per_period(inst, cfg)
    assert m == 352_800
    (dc, trace, sampled), peak = tracemalloc_peak(
        lambda: run_and_measure(inst, cfg, brickwall))
    assert trace.final.m == m and len(trace.pin_dc) == n - 1
    assert peak <= 8 * m * 8  # eight grid arrays of float64, whatever n is


# three chains for n <= 4 values, cut to fit n values by `_fit`
_HAND_FOLD_CONFIGS = {
    "one-pole": NonidealityConfig(mult_output_offset=(4e-3, 5e-3, 6e-3), mult_input_offset=1e-3,
                                  freq_error_sigma=1e-3, phase_error_sigma=0.1, noise_sigma=1e-3,
                                  z_compensation=(-4e-3, -5e-3, -6e-3), seed=4),
    "clipping-hard": NonidealityConfig(mult_output_offset=5.0, amp_offset=8.0, noise_sigma=0.5,
                                       bandwidth_model="hard", seed=3),
    "ideal": NonidealityConfig.ideal(source_amplitude=(1.0, 1.1, 0.9, 1.2)),
}


def _fit(cfg, n):
    """``cfg`` with its per-stage and per-source sequences cut to n values."""
    cut = {name: getattr(cfg, name)[:n - 1]
           for name in ("mult_output_offset", "z_compensation")
           if isinstance(getattr(cfg, name), tuple)}
    if isinstance(cfg.source_amplitude, tuple):
        cut["source_amplitude"] = cfg.source_amplitude[:n]
    return replace(cfg, **cut)


@pytest.mark.parametrize("name", sorted(_HAND_FOLD_CONFIGS))
@pytest.mark.parametrize("text, periods", [("7", 1), ("2 3", 1), ("2 3 5 4", 1), ("2 3 5 4", 2)],
                         ids=["n=1", "n=2", "n=4", "periods=2"])
def test_cascade_edges_match_hand_fold(name, text, periods):
    # n = 1 runs no stage, n = 2 runs one, n = 4 carries the accumulator
    # through three, and two periods double the grid
    inst = parse_instance(text)
    cfg = _fit(_HAND_FOLD_CONFIGS[name], inst.n)
    trace = run_cascade(inst, cfg, periods=periods)
    sources = synthesize_sources(inst, cfg, periods=periods)
    acc = sources[0]
    hand = []
    for k in range(inst.n - 1):
        pin = multiply_stage(acc, sources[k + 1], cfg, stage=k)
        acc = amplify(pin, cfg)
        assert np.max(np.abs(pin.samples)) <= cfg.supply_voltage  # the pin is clamped too
        hand.append(float(np.mean(pin.samples)))
    assert trace.final.m == periods * points_per_period(inst, cfg)
    assert trace.pin_dc == tuple(hand)  # bit-equal
    assert np.array_equal(trace.final.samples, acc.samples)


def test_cascade_runs_on_the_callers_thread(monkeypatch):
    # all four tones and all three stages' noise draws are made on the thread
    # that called `run_cascade`
    threads = []
    maker, noise = pipeline._source_maker, pipeline._stage_noise

    def recorded(f):
        def call(*args):
            threads.append(threading.current_thread())
            return f(*args)
        return call

    monkeypatch.setattr(pipeline, "_source_maker", lambda *args: recorded(maker(*args)))
    monkeypatch.setattr(pipeline, "_stage_noise", recorded(noise))
    run_cascade(parse_instance("2 3 5 4"), _HAND_FOLD_CONFIGS["one-pole"])
    assert len(threads) == 4 + 3 and set(threads) == {threading.current_thread()}


def test_concurrent_cascades_stay_bit_identical():
    # four callers, each running its own cascade, on two cores or fewer,
    # switching threads as often as the interpreter allows
    inst = parse_instance("2 3 5 4")
    cfg = _HAND_FOLD_CONFIGS["one-pole"]
    reference = run_cascade(inst, cfg)
    results = []

    def worker():
        for _ in range(5):
            results.append(run_cascade(inst, cfg))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 20
    for trace in results:
        assert trace.pin_dc == reference.pin_dc
        assert np.array_equal(trace.final.samples, reference.final.samples)


@pytest.mark.parametrize("model", ["one-pole", "hard"])
def test_run_cascade_peak_under_three_grid_arrays(model):
    # at most 2.5, during a stage's product: the accumulator, the stage's noise
    # and the pole's gains, plus the tone's 64 KB of scratch.
    # Both pole models hold float gains, half a grid array.
    inst = _total_22044(10)
    cfg = NonidealityConfig(mult_output_offset=4e-3, amp_offset=2.5e-4,
                            bandwidth_f_star=1e9, bandwidth_model=model,
                            noise_sigma=1e-4, seed=10)
    m = points_per_period(inst, cfg)
    _, peak = tracemalloc_peak(lambda: run_cascade(inst, cfg))
    assert peak <= 3 * m * 8


def test_filter_edges_at_the_cutoff_bin():
    # the 210-point grid of "3 6 4" has bins at 110, 120 and 130 kHz, and
    # 120 kHz is the default f*: the hard pole keeps it, a brickwall there cuts it
    cfg = NonidealityConfig(bandwidth_model="hard", mult_scale=1.0)
    src = synthesize_sources(parse_instance("3 6 4"), cfg)[0]
    freqs = np.fft.rfftfreq(src.m, src.dt)
    assert src.m == 210 and freqs[12] == cfg.bandwidth_f_star == 120_000.0
    t = src.times()  # phases put every line in both parts of its bin
    lines = sum(np.cos(2 * np.pi * f * t + phase)
                for f, phase in ((110e3, 0.3), (120e3, 1.1), (130e3, 2.0)))
    sig = Signal(dt=src.dt, samples=lines, alignment_period=src.alignment_period)

    def amplitudes(x):
        return np.abs(np.fft.rfft(x.samples))[11:14] / (x.m / 2)

    one = Signal(dt=src.dt, samples=np.ones(src.m))
    assert amplitudes(multiply_stage(sig, one, cfg)) == pytest.approx([1, 1, 0], abs=1e-12)
    cut = apply_lowpass(sig, FilterSpec("brickwall", 120e3))
    assert amplitudes(cut) == pytest.approx([1, 0, 0], abs=1e-12)


def test_multiply_stage_pole_adds_only_the_spectrum():
    # the spectrum is one grid array of complex bins; scaling it by the float
    # gains must not cast them to a complex buffer (another 128 KB here)
    cfg = NonidealityConfig(mult_output_offset=4e-3, bandwidth_f_star=1e9)
    x, y = synthesize_sources(parse_instance("740 1259 1"), cfg)[:2]
    assert x.m == 32_000
    pole = pipeline._pole_response(x.m, x.dt, cfg)
    _, peak = tracemalloc_peak(lambda: multiply_stage(x, y, cfg, pole=pole, out=x.samples))
    assert peak <= 1.1 * x.m * 8


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="the reference needs an extended-precision longdouble")
@pytest.mark.parametrize("text, per_period", [("740 1259 1", 32_000),
                                              ("9000 13043 1", 352_800)])
def test_tones_at_least_as_accurate_as_direct_cosines(text, per_period):
    inst = parse_instance(text)
    cfg = NonidealityConfig(freq_error_sigma=1e-3, phase_error_sigma=0.1, seed=5)
    assert points_per_period(inst, cfg) == per_period
    source = pipeline._source_maker(inst, cfg, periods=2)
    two_pi = 8 * np.arctan(np.longdouble(1))
    for i in range(inst.n):
        tone = source(i)
        k = np.arange(tone.m)
        exact = tone.amplitude * np.cos(k * np.longdouble(tone.dt) * (two_pi * np.longdouble(tone.freq))
                                        + np.longdouble(tone.phase))
        # the float64 phase and np.cos that sources were synthesised with before tones
        direct = tone.amplitude * np.cos(k * tone.dt * (2.0 * math.pi * tone.freq) + tone.phase)
        error = np.max(np.abs(tone.signal().samples - exact))
        assert error <= np.max(np.abs(direct - exact))
        assert error <= 1e-13


def test_amplify_writes_over_its_input_bit_for_bit(ideal_cfg):
    cfg = NonidealityConfig(amp_offset=2.5e-4)
    pin = multiply_stage(*synthesize_sources(parse_instance("2 3"), ideal_cfg), cfg)
    fresh = amplify(pin, cfg).samples
    out = amplify(pin, cfg, out=pin.samples)
    assert out.samples is pin.samples
    assert np.array_equal(out.samples, fresh)


def test_config_items_read_int_fields_exactly():
    # an int literal stays exact past float's 53 bits; an integral float is taken as its int
    assert from_items(NonidealityConfig, {"seed": "12345678901234567891"}).seed == \
        12345678901234567891
    assert from_items(NonidealityConfig, {"oversample": "32.0", "seed": "1e3"}) == \
        NonidealityConfig(oversample=32, seed=1000)
    with pytest.raises(ValueError, match="seed must be an integer, got 2.5"):
        from_items(NonidealityConfig, {"seed": "2.5"})


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        from_items(NonidealityConfig, {"not_a_knob": "1"})
