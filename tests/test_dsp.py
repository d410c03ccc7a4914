import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cospart import exact
from cospart.dsp import (FilterSpec, SampledTrace, apply_lowpass, dc_component,
                         design_compensating_filter, dft, sample_after_filter)
from cospart.instances import parse_instance
from cospart.pipeline import Signal, run_cascade, xy_csv


def _const_plus_ripple():
    # 40 kHz ripple completing 160 whole cycles over the 4 ms window
    t = np.arange(4000) * 1e-6
    samples = 0.25 + 0.1 * np.cos(2 * np.pi * 40e3 * t)
    return Signal(dt=1e-6, samples=samples)


def test_filterspec_aliases_and_validation():
    assert FilterSpec("ideal-brickwall", 5e3).kind == "brickwall"
    assert FilterSpec("one-pole-cascade", 5e3).kind == "one-pole"
    with pytest.raises(ValueError):
        FilterSpec("boxcar", 5e3)
    with pytest.raises(ValueError):
        FilterSpec("brickwall", 0.0)
    with pytest.raises(ValueError):
        FilterSpec("brickwall", 5e3, order=0)


def test_brickwall_leaves_dc_only():
    out = apply_lowpass(_const_plus_ripple(), FilterSpec("brickwall", 5000.0))
    assert np.max(np.abs(out.samples - 0.25)) <= 1e-9


def test_brickwall_on_product_signal(ideal_cfg):
    trace = run_cascade(parse_instance("2 3 5"), ideal_cfg)
    out = apply_lowpass(trace.final, FilterSpec("brickwall", 4 * ideal_cfg.f_base))
    assert np.max(np.abs(out.samples - 0.25)) <= 1e-9


def test_one_pole_dc_gain():
    t = np.arange(1024) * 1e-6
    unit_dc = Signal(dt=1e-6, samples=np.ones_like(t))
    out = apply_lowpass(unit_dc, FilterSpec("one-pole", 5e3, order=3, per_stage_gain=2.0))
    assert np.allclose(out.samples, 8.0)


def test_filter_none_is_identity():
    sig = _const_plus_ripple()
    assert apply_lowpass(sig, FilterSpec("none", 5e3)) is sig


def test_compensating_filter_design():
    spec = design_compensating_filter(3, 5e3)
    assert (spec.kind, spec.order, spec.per_stage_gain) == ("one-pole", 3, 2.0)
    assert spec.dc_gain == 8.0
    assert design_compensating_filter(1, 5e3).dc_gain == 2.0
    assert design_compensating_filter(10, 5e3).dc_gain == 1024.0
    with pytest.raises(ValueError):
        design_compensating_filter(0, 5e3)


def test_window_arithmetic_900_samples(ideal_cfg):
    # 2 us steps from 1.2 ms to 3 ms over the 0.1 ms alignment period
    trace = run_cascade(parse_instance("3 6 4"), ideal_cfg, periods=30)
    spec = FilterSpec("none", cutoff_f0=250e3)  # 1/(2 f0) = 2 us
    out = sample_after_filter(trace.final, spec, t_start=1.2e-3, duration=1.8e-3,
                              tau=2e-6)
    assert out.m == 900
    assert out.tau == pytest.approx(2e-6)
    assert out.snap_distance == pytest.approx(0.0, abs=1e-12)


def test_sampling_constant_signal():
    sig = Signal(dt=1e-6, samples=np.full(1000, 0.3), alignment_period=1e-4)
    out = sample_after_filter(sig, FilterSpec("none", 5e3), t_start=0.0, duration=5e-4)
    assert np.allclose(out.values, 0.3)


def test_sampling_clamps_tau():
    sig = Signal(dt=1e-6, samples=np.zeros(1000), alignment_period=1e-4)
    out = sample_after_filter(sig, FilterSpec("none", 5e3), t_start=0.0,
                              duration=5e-4, tau=1.0)
    assert out.tau == pytest.approx(1.0 / (2 * 5e3))


def test_sampling_snaps_start(ideal_cfg):
    trace = run_cascade(parse_instance("3 6 4"), ideal_cfg, periods=5)
    spec = FilterSpec("brickwall", 5e3)
    out = sample_after_filter(trace.final, spec, t_start=1.3e-4, duration=1e-4)
    assert out.t_start == pytest.approx(1e-4)
    assert out.snap_distance == pytest.approx(0.3e-4)


def test_sampling_needs_full_period(ideal_cfg):
    trace = run_cascade(parse_instance("3 6 4"), ideal_cfg, periods=2)
    with pytest.raises(ValueError):
        sample_after_filter(trace.final, FilterSpec("brickwall", 5e3),
                            t_start=0.0, duration=1e-5)


def test_sampling_respects_grid_extent(ideal_cfg):
    trace = run_cascade(parse_instance("3 6 4"), ideal_cfg, periods=1)
    with pytest.raises(ValueError):
        sample_after_filter(trace.final, FilterSpec("brickwall", 5e3),
                            t_start=0.0, duration=5e-4)


def test_sampling_refuses_a_negative_start_and_a_step_past_the_duration():
    sig = Signal(dt=1e-6, samples=np.zeros(1000))
    with pytest.raises(ValueError, match="t_start must be non-negative"):
        sample_after_filter(sig, FilterSpec("none", 5e3), t_start=-1e-6, duration=5e-4)
    # a 1 kHz cutoff samples every 0.5 ms, longer than the 0.4 ms asked for
    with pytest.raises(ValueError, match="duration too short for the sampling step"):
        sample_after_filter(sig, FilterSpec("brickwall", 1e3), t_start=0.0, duration=4e-4)


def test_dft_refuses_one_sample():
    with pytest.raises(ValueError, match="need at least two samples"):
        dft(SampledTrace(t_start=0.0, tau=1e-5, values=np.full(1, 0.25)))


def test_dft_constant():
    trace = SampledTrace(t_start=0.0, tau=1e-5, values=np.full(64, 0.25))
    spec = dft(trace)
    assert spec.dc == pytest.approx(0.25)
    others = [a for f, a in spec.lines.items() if f > 0]
    assert max(others) <= 1e-12
    assert spec.resolution == pytest.approx(1.0 / (64 * 1e-5))


def test_dft_product_peaks(ideal_cfg):
    trace = run_cascade(parse_instance("2 3"), ideal_cfg)
    final = trace.final
    sampled = sample_after_filter(final, FilterSpec("none", 0.5 / final.dt),
                                  t_start=0.0, duration=final.alignment_period,
                                  tau=final.dt)
    spec = dft(sampled)
    by_unit = {round(f / ideal_cfg.f_base): a for f, a in spec.lines.items()}
    assert by_unit[1] == pytest.approx(0.25, abs=1e-9)
    assert by_unit[5] == pytest.approx(0.25, abs=1e-9)
    quiet = [a for f, a in spec.lines.items()
             if round(f / ideal_cfg.f_base) not in (1, 5)]
    assert max(quiet) <= 1e-9


def test_dft_dc_bin_equals_mean_exactly():
    rng = np.random.default_rng(0)
    trace = SampledTrace(t_start=0.0, tau=2e-6, values=rng.normal(size=901))
    assert dft(trace).dc == dc_component(trace)


def test_filter_dc_transparency_random():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(64, 512))
        sig = Signal(dt=1e-6, samples=rng.normal(size=m))
        kind = rng.choice(["brickwall", "one-pole", "none"])
        spec = FilterSpec(kind, cutoff_f0=float(rng.uniform(1e3, 1e5)),
                          order=int(rng.integers(1, 5)),
                          per_stage_gain=float(rng.choice([1.0, 1.5, 2.0])))
        out = apply_lowpass(sig, spec)
        dc_in = float(np.mean(sig.samples))
        dc_out = float(np.mean(out.samples))
        assert abs(dc_out / spec.dc_gain - dc_in) <= 1e-9 * np.max(np.abs(sig.samples))


def test_dc_invariant_under_halving_tau(ideal_cfg):
    trace = run_cascade(parse_instance("2 3"), ideal_cfg, periods=2)
    final = trace.final
    spec = FilterSpec("none", cutoff_f0=0.25 / final.dt)
    per = final.alignment_period
    a = sample_after_filter(final, spec, 0.0, 2 * per, tau=4 * final.dt)
    b = sample_after_filter(final, spec, 0.0, 2 * per, tau=2 * final.dt)
    assert dc_component(a) == pytest.approx(dc_component(b), abs=1e-9)


def test_commensurate_sampling_reads_grid_points_into_its_own_array(ideal_cfg):
    final = run_cascade(parse_instance("2 3"), ideal_cfg, periods=2).final
    per = final.alignment_period
    out = sample_after_filter(final, FilterSpec("none", cutoff_f0=0.25 / final.dt),
                              t_start=per, duration=per, tau=2 * final.dt)
    i0 = round(per / final.dt)
    assert out.m == i0 // 2
    assert np.array_equal(out.values, final.samples[i0 + 2 * np.arange(out.m)])
    assert not np.shares_memory(out.values, final.samples)


def test_aliasing_shrinks_with_filter_order(ideal_cfg):
    from cospart.exact import ideal_dc
    inst = parse_instance("3 2 5")
    trace = run_cascade(inst, ideal_cfg, periods=8)
    ideal = float(ideal_dc(inst))
    devs = []
    for order in (1, 4):
        spec = FilterSpec("one-pole", cutoff_f0=5e3, order=order)
        out = sample_after_filter(trace.final, spec, t_start=0.0,
                                  duration=8 * trace.final.alignment_period)
        devs.append(abs(dc_component(out) - ideal * spec.dc_gain))
    assert devs[1] < devs[0]


def test_sampled_csv():
    trace = SampledTrace(t_start=0.0, tau=1e-6, values=np.array([0.1, 0.2]))
    lines = xy_csv("time_s,volts", trace.times(), trace.values).strip().splitlines()
    assert lines[0] == "time_s,volts"
    assert len(lines) == 3


_FLOATS = (st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308])
           | st.integers(-2**60, 2**60).map(float))
_FREQS = st.integers(-exact.MAX_SPECTRUM_TOTAL, exact.MAX_SPECTRUM_TOTAL)


@st.composite
def _columns(draw):
    """Equal-length x and y arrays: float64 or int64 x (an analytic spectrum's), float64 y."""
    n = draw(st.integers(0, 40))
    ints = draw(st.booleans())
    xs = draw(st.lists(_FREQS if ints else _FLOATS, min_size=n, max_size=n))
    ys = draw(st.lists(_FLOATS, min_size=n, max_size=n))
    return np.array(xs, dtype=np.int64 if ints else np.float64), np.array(ys)


@example((np.array([0, 1, -2000000, 2000000]), np.array([-0.0, 5e-324, 1e308, -1e308])))
@example((np.array([-0.0, 5e-324, 3.0, 1e308]), np.array([2.0**-20, 0.25, 1e15, 123456789012.0])))
@given(_columns())
def test_xy_csv_rows_are_the_per_row_format(columns):
    # every row as a per-row loop formats it, digits included
    xs, ys = columns
    rows = "".join(f"{float(x):.12g},{float(y):.12g}\n" for x, y in zip(xs, ys))
    assert xy_csv("x,y", xs, ys) == "x,y\n" + rows
