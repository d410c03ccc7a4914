import bisect
import math

import numpy as np
import pytest

from cospart.calibration import run_and_measure
from cospart.dsp import FilterSpec, dft, sample_after_filter
from cospart.exact import analytic_spectrum, ideal_dc
from cospart.instances import parse_instance
from cospart.pipeline import (NonidealityConfig, Signal, amplify, config_from_items,
                              GridTooLargeError, config_to_text, multiply_stage,
                              next_smooth_length, parse_kv, points_per_period,
                              run_cascade, synthesize_sources)


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
        assert len(trace.stage_outputs) == inst.n - 1
        assert len(trace.mult_outputs) == inst.n - 1
        assert trace.final is trace.stage_outputs[-1]


def test_cascade_no_instance_dc_zero(ideal_cfg):
    trace = run_cascade(parse_instance("3 7"), ideal_cfg)
    assert abs(float(np.mean(trace.final.samples))) < 1e-12


def test_cascade_single_value_passthrough(ideal_cfg):
    trace = run_cascade(parse_instance("5"), ideal_cfg)
    assert trace.stage_outputs == []
    assert trace.final.samples is trace.sources[0].samples


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
    for sig in trace.mult_outputs + trace.stage_outputs:
        assert np.max(np.abs(sig.samples)) <= cfg.supply_voltage + 1e-12


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
    import tracemalloc
    inst = parse_instance("2 125001 5")
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLargeError, match=r"2000376 grid points"):
            run_cascade(inst, NonidealityConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # one 2,000,376-point array would take 16 MB


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        config_from_items({"not_a_knob": "1"})


def test_trace_csv_export(ideal_cfg):
    from cospart.pipeline import trace_to_csvs
    trace = run_cascade(parse_instance("3 6 4"), ideal_cfg)
    files = trace_to_csvs(trace)
    assert set(files) == {"source1.csv", "source2.csv", "source3.csv",
                          "mult1.csv", "mult2.csv", "stage1.csv", "stage2.csv"}
    for text in files.values():
        assert text.startswith("time_s,volts\n")
