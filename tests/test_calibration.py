import math

import numpy as np
import pytest

from cospart import calibration
from cospart.calibration import (DecisionThreshold, LabelError,
                                 NonSeparableError, auto_threshold, bootstrap_threshold,
                                 compensate, config_digest, decide_analog,
                                 decision_record, fixed_threshold, measure_stage_offsets,
                                 perturb_to_no_instance, run_and_measure,
                                 threshold_from_text, threshold_to_text)
from cospart.dsp import FilterSpec
from cospart.instances import parse_instance, random_instance
from cospart.pipeline import BandwidthError, NonidealityConfig


def _table_cfg(n_stages, seed=42):
    rng = np.random.default_rng(seed)
    return NonidealityConfig(
        mult_output_offset=tuple(rng.normal(4.5e-3, 2e-4, n_stages)),
        mult_input_offset=tuple(rng.normal(5e-3, 5e-4, n_stages)),
    )


def test_measure_offsets_ideal(ideal_cfg):
    report = measure_stage_offsets(parse_instance("3 7"), ideal_cfg)
    assert report.per_stage_dc == pytest.approx((0.0,), abs=1e-12)
    assert report.is_no_instance


def test_measure_offsets_three_stage_values():
    cfg = _table_cfg(3)
    report = measure_stage_offsets(parse_instance("1 9 1 4"), cfg)
    assert len(report.per_stage_dc) == 3
    for dc in report.per_stage_dc:
        assert 3e-3 < dc < 7e-3  # near the configured offset scale


def test_measure_offsets_warns_on_yes_instance(ideal_cfg):
    with pytest.warns(UserWarning):
        report = measure_stage_offsets(parse_instance("3 2 5"), ideal_cfg)
    assert not report.is_no_instance


def test_compensate_drops_no_instance_dc():
    inst = parse_instance("3 6 4")
    cfg = _table_cfg(2)
    spec = FilterSpec("none", 5e3)
    before, _, _ = run_and_measure(inst, cfg, spec)
    corrected = compensate(cfg, measure_stage_offsets(inst, cfg))
    after, _, _ = run_and_measure(inst, corrected, spec)
    assert abs(after) < abs(before)
    assert abs(before) > 5 * abs(after)


def test_compensate_converges_to_fixed_point():
    # round two corrects the second-order cross term left by round one;
    # after that re-measuring changes nothing
    inst = parse_instance("3 6 4")
    cfg = _table_cfg(2)
    once = compensate(cfg, measure_stage_offsets(inst, cfg))
    twice = compensate(once, measure_stage_offsets(inst, once))
    thrice = compensate(twice, measure_stage_offsets(inst, twice))
    assert np.allclose(once.z_compensation, twice.z_compensation, atol=1e-4)
    assert np.allclose(twice.z_compensation, thrice.z_compensation, atol=1e-12)


def test_compensate_noop_on_zero_report(ideal_cfg):
    report = measure_stage_offsets(parse_instance("3 7"), ideal_cfg)
    assert compensate(ideal_cfg, report).z_compensation == pytest.approx((0.0,))


def test_compensate_arity_mismatch():
    cfg = NonidealityConfig(z_compensation=(0.0, 0.0, 0.0))
    report = measure_stage_offsets(parse_instance("3 6 4"), NonidealityConfig.ideal())
    with pytest.raises(ValueError):
        compensate(cfg, report)


def test_perturb_probability_closed_form():
    inst = parse_instance("2 3 5")
    perturbed, p = perturb_to_no_instance(inst, sigma=1.0, delta=1.0, seed=0)
    assert len(perturbed) == 3
    assert p == pytest.approx(math.erf(1.0 / math.sqrt(6.0)))


def test_perturb_single_sigma_equals_delta():
    _, p = perturb_to_no_instance(parse_instance("5"), sigma=1.0, delta=1.0)
    assert p == pytest.approx(0.6827, abs=1e-4)


def test_perturb_large_sigma_vanishes():
    _, p = perturb_to_no_instance(parse_instance("2 3"), sigma=1e6, delta=1.0)
    assert p < 1e-6


def test_perturb_monte_carlo():
    inst = parse_instance("2 3 5")
    sigma, delta, trials = 1.0, 1.0, 2000
    hits = 0
    p = None
    for seed in range(trials):
        perturbed, p = perturb_to_no_instance(inst, sigma, delta, seed=seed)
        err = sum(perturbed) - inst.total
        hits += int(abs(err) <= delta)
    se = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * se


def test_bootstrap_ideal_bands(ideal_cfg, brickwall):
    thr = bootstrap_threshold([parse_instance("3 2 5"), parse_instance("1 1")],
                              [parse_instance("3 6 4"), parse_instance("2 3")],
                              ideal_cfg, brickwall)
    assert thr.separable
    assert thr.no_band_max == pytest.approx(0.0, abs=1e-9)
    assert thr.yes_band_min == pytest.approx(0.25, abs=1e-6)
    assert 0 < thr.cut < thr.yes_band_min
    assert thr.training_size == 4


def test_bootstrap_cut_between_bands_below_zero(brickwall):
    # a -1 V amplifier offset puts both bands below 0 V: (-1.0, -0.9975)
    cfg = NonidealityConfig.ideal(amp_offset=-1.0, amp_gain=1.0)
    thr = bootstrap_threshold([parse_instance("3 2 5")], [parse_instance("3 6 4")],
                              cfg, brickwall)
    assert thr.separable
    assert thr.yes_band_min < 0
    assert thr.no_band_max < thr.cut < thr.yes_band_min


def test_bootstrap_table_like_bands():
    cfg = _table_cfg(2)
    spec = FilterSpec("none", 5e3)
    corrected = compensate(cfg, measure_stage_offsets(parse_instance("3 6 4"), cfg))
    thr = bootstrap_threshold([parse_instance("3 7 4")], [parse_instance("3 6 4")],
                              corrected, spec)
    assert thr.separable
    assert thr.yes_band_min > 3 * abs(thr.no_band_max)
    assert thr.no_band_max < thr.cut < thr.yes_band_min


def test_bootstrap_rejects_bad_labels(ideal_cfg, brickwall):
    with pytest.raises(LabelError):
        bootstrap_threshold([parse_instance("3 6 4")], [parse_instance("2 3")],
                            ideal_cfg, brickwall)
    with pytest.raises(LabelError):
        bootstrap_threshold([parse_instance("3 2 5")], [parse_instance("1 1")],
                            ideal_cfg, brickwall)


def test_bootstrap_nonseparable_flagged(brickwall):
    # strong frequency errors destroy the YES DC, collapsing both bands to ~0
    cfg = NonidealityConfig(freq_error_sigma=0.05, bandwidth_model="none", seed=1)
    thr = bootstrap_threshold([parse_instance("3 2 5")], [parse_instance("3 6 4")],
                              cfg, brickwall)
    if not thr.separable:
        with pytest.raises(NonSeparableError):
            decide_analog(parse_instance("3 2 5"), cfg, brickwall, thr)
    else:
        # seeds can land either way; the flagged path must at least be consistent
        assert thr.no_band_max < thr.yes_band_min


def test_threshold_gain_invariance(ideal_cfg, brickwall):
    yes, no = [parse_instance("3 2 5")], [parse_instance("3 6 4")]
    base = bootstrap_threshold(yes, no, ideal_cfg, brickwall)
    r = 1.5
    scaled_cfg = NonidealityConfig.ideal(source_amplitude=r)
    scaled = bootstrap_threshold(yes, no, scaled_cfg, brickwall)
    assert scaled.yes_band_min == pytest.approx(base.yes_band_min * r**3, rel=1e-9)
    for inst in yes + no:
        a = decide_analog(inst, ideal_cfg, brickwall, base).answer
        b = decide_analog(inst, scaled_cfg, brickwall, scaled).answer
        assert a == b


def test_decide_examples(ideal_cfg, brickwall):
    d = decide_analog(parse_instance("3 2 5"), ideal_cfg, brickwall, fixed_threshold(0.01))
    assert d.answer == "YES"
    assert d.dc_measured == pytest.approx(0.25, abs=1e-9)
    assert d.margin == pytest.approx(0.24, abs=1e-9)

    d = decide_analog(parse_instance("3 6 4"), ideal_cfg, brickwall, fixed_threshold(0.01))
    assert d.answer == "NO"
    assert abs(d.dc_measured) < 1e-9


def test_decide_strict_bandwidth(monkeypatch):
    cfg = NonidealityConfig()  # finite f* = 120 kHz
    spec = FilterSpec("brickwall", 5e3)
    thr = fixed_threshold(0.01)
    decide_analog(parse_instance("3 6 4"), cfg, spec, thr)  # warning tolerated

    def refuse(*args, **kwargs):
        raise AssertionError("strict mode simulated the chain")

    # the warning depends only on the instance and f*, so nothing is simulated
    monkeypatch.setattr(calibration, "run_cascade", refuse)
    with pytest.raises(BandwidthError, match="exceeds f"):
        decide_analog(parse_instance("3 6 4"), cfg, spec, thr, strict=True)


def test_decide_requires_separable(ideal_cfg, brickwall):
    thr = DecisionThreshold(cut=0.1, no_band_max=0.2, yes_band_min=0.05,
                            training_size=2, separable=False)
    with pytest.raises(NonSeparableError):
        decide_analog(parse_instance("3 2 5"), ideal_cfg, brickwall, thr)


def test_end_to_end_soundness_sample(ideal_cfg, brickwall):
    from cospart.exact import decide_dp
    for seed in range(25):
        kind = "YES" if seed % 2 else "NO"
        inst = random_instance(n=3 + seed % 5, max_mag=20, kind=kind, seed=seed)
        d = decide_analog(inst, ideal_cfg, brickwall, auto_threshold(inst, brickwall))
        assert (d.answer == "YES") == decide_dp(inst)


def test_decision_record_fields(ideal_cfg, brickwall):
    inst = parse_instance("3 2 5")
    d = decide_analog(inst, ideal_cfg, brickwall, fixed_threshold(0.01))
    record = decision_record(d, inst, ideal_cfg, brickwall)
    items = dict(line.split("=", 1) for line in record.strip().splitlines())
    assert items["instance"] == "3 2 5"
    assert items["answer"] == "YES"
    assert float(items["dc_volts"]) == pytest.approx(0.25)
    assert items["config_hash"] == config_digest(ideal_cfg, brickwall)
    assert items["seed"] == "0"


def test_threshold_round_trip():
    thr = DecisionThreshold(cut=0.12, no_band_max=0.07, yes_band_min=0.2,
                            training_size=4, separable=True)
    text = threshold_to_text(thr, z_compensation=(-0.004, -0.0041))
    loaded, z = threshold_from_text(text)
    assert loaded == thr
    assert z == pytest.approx((-0.004, -0.0041))
