import bisect
import math

import numpy as np
import pytest

from cospart.calibration import run_and_measure
from cospart.dsp import FilterSpec, dft, sample_after_filter
from cospart.exact import analytic_spectrum, ideal_dc
from cospart.instances import CpiInstance, parse_instance
from cospart.pipeline import (NonidealityConfig, Signal, amplify, config_from_items,
                              GridTooLargeError, config_to_text, multiply_stage,
                              next_smooth_length, parse_kv, points_per_period,
                              run_cascade, synthesize_sources)
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
    assert s1.f_max_nominal == 5 * ideal_cfg.f_base
    assert s1.alignment_period == pytest.approx(1e-4)


def test_source_amplitude_and_grid(ideal_cfg):
    src, = synthesize_sources(parse_instance("1"), ideal_cfg)
    assert np.max(src.samples) == pytest.approx(1.0)
    # grid resolves the highest nominal harmonic with >= oversample points
    assert src.dt <= 1.0 / (ideal_cfg.oversample * src.f_max_nominal) * (1 + 1e-12)


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
    zero = Signal(t0=y.t0, dt=y.dt, samples=np.zeros(y.m), f_max_nominal=y.f_max_nominal,
                  alignment_period=y.alignment_period)
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
    const = Signal(t0=0.0, dt=base.dt, samples=np.full(base.m, 0.1),
                   f_max_nominal=base.f_max_nominal)
    assert np.allclose(amplify(const, ideal_cfg).samples, 1.0)
    sat = Signal(t0=0.0, dt=base.dt, samples=np.full(base.m, 2.0),
                 f_max_nominal=base.f_max_nominal)
    assert np.allclose(amplify(sat, ideal_cfg).samples, 10.0)


def test_amplify_undoes_mult_scale(ideal_cfg):
    src = synthesize_sources(parse_instance("1"), ideal_cfg)[0]
    scaled = Signal(t0=0.0, dt=src.dt, samples=src.samples / 10.0,
                    f_max_nominal=src.f_max_nominal)
    assert np.max(np.abs(amplify(scaled, ideal_cfg).samples - src.samples)) <= 1e-9


def test_cascade_matches_closed_form(ideal_cfg):
    for text in ("2 3", "2 3 5", "1 2 3 4", "3 2 5 7 1 4"):
        inst = parse_instance(text)
        trace = run_cascade(inst, ideal_cfg)
        ref = _product_reference(inst, ideal_cfg, trace.final.times())
        assert np.max(np.abs(trace.final.samples - ref)) <= 1e-6 * inst.n
        assert len(trace.stages) == inst.n - 1
        last = trace.stages[-1]
        assert (last.out_min, last.out_max) == (trace.final.samples.min(),
                                                trace.final.samples.max())


def test_cascade_no_instance_dc_zero(ideal_cfg):
    trace = run_cascade(parse_instance("3 7"), ideal_cfg)
    assert abs(float(np.mean(trace.final.samples))) < 1e-12


def test_cascade_single_value_passthrough(ideal_cfg):
    trace = run_cascade(parse_instance("5"), ideal_cfg)
    assert trace.stages == ()
    source, = synthesize_sources(parse_instance("5"), ideal_cfg)
    assert np.array_equal(trace.final.samples, source.samples)


def test_cascade_deterministic():
    cfg = NonidealityConfig(noise_sigma=1e-3, freq_error_sigma=1e-3, seed=123)
    a = run_cascade(parse_instance("3 6 4"), cfg)
    b = run_cascade(parse_instance("3 6 4"), cfg)
    assert np.array_equal(a.final.samples, b.final.samples)


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
    trace = run_cascade(parse_instance("2 3 5"), cfg)
    assert np.max(np.abs(trace.final.samples)) <= cfg.supply_voltage
    for s in trace.stages:
        assert -cfg.supply_voltage <= s.out_min <= s.out_max <= cfg.supply_voltage
        # the offsets drive every stage output into the positive rail
        assert s.out_max == cfg.supply_voltage and s.clip_fraction > 0.5


def test_bandwidth_warning_flag():
    cfg = NonidealityConfig()  # f* = 120 kHz
    assert run_cascade(parse_instance("3 6 4"), cfg).bandwidth_warning  # 130 kHz
    assert not run_cascade(parse_instance("3 2 5"), cfg).bandwidth_warning  # 100 kHz
    assert not run_cascade(parse_instance("3 6 4"), NonidealityConfig.ideal()).bandwidth_warning


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
    assert config_from_items(parse_kv(config_to_text(cfg))) == cfg


def test_parse_kv_rejects_line_without_equals():
    assert parse_kv("# comment\n\n a = 1 \n") == {"a": "1"}
    with pytest.raises(ValueError, match="bad config line"):
        parse_kv("a=1\nno equals sign\n")


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
    assert trace.final.m == m and len(trace.stages) == n - 1
    assert peak <= 8 * m * 8  # eight grid arrays of float64, whatever n is


@pytest.mark.parametrize("cfg", [
    NonidealityConfig(mult_output_offset=(4e-3, 5e-3, 6e-3), mult_input_offset=1e-3,
                      freq_error_sigma=1e-3, phase_error_sigma=0.1, noise_sigma=1e-3,
                      z_compensation=(-4e-3, -5e-3, -6e-3), seed=4),
    NonidealityConfig(mult_output_offset=5.0, amp_offset=8.0, noise_sigma=0.5,
                      bandwidth_model="hard", seed=3),
    NonidealityConfig.ideal(source_amplitude=(1.0, 1.1, 0.9, 1.2)),
], ids=["one-pole", "clipping-hard", "ideal"])
def test_stage_summaries_match_hand_fold(cfg):
    inst = parse_instance("2 3 5 4")
    trace = run_cascade(inst, cfg)
    sources = synthesize_sources(inst, cfg)
    acc = sources[0]
    assert len(trace.stages) == inst.n - 1
    for k, summary in enumerate(trace.stages):
        pin = multiply_stage(acc, sources[k + 1], cfg, stage=k)
        acc = amplify(pin, cfg)
        out = acc.samples
        assert np.max(np.abs(pin.samples)) <= cfg.supply_voltage  # the pin is clamped too
        assert summary.pin_dc == float(np.mean(pin.samples))  # bit-equal
        rail = np.abs(out) == cfg.supply_voltage
        assert summary.clip_fraction == pytest.approx(np.count_nonzero(rail) / len(out))
        assert (summary.out_min, summary.out_max) == (out.min(), out.max())
    assert np.array_equal(trace.final.samples, acc.samples)


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        config_from_items({"not_a_knob": "1"})
