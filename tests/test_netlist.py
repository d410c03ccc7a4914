import re

import numpy as np
import pytest

from cospart.dsp import FilterSpec, dc_component, sample_after_filter
from cospart.exact import ideal_dc
from cospart.instances import parse_instance
from cospart.netlist import emit_netlist, parse_trace_csv, validate_netlist
from cospart.pipeline import NonidealityConfig, run_cascade


def test_emit_three_source_cascade():
    doc = emit_netlist(parse_instance("3 6 4"), NonidealityConfig(),
                       FilterSpec("one-pole", 5e3))
    text = doc.text()
    assert "V1 src1 0 SINE(0 1 30000 0 0 90)" in text
    assert "V2 src2 0 SINE(0 1 60000 0 0 90)" in text
    assert "V3 src3 0 SINE(0 1 40000 0 0 90)" in text
    assert sum(1 for c in doc.cards if c.startswith("BM")) == 2
    assert doc.node_map == {1: "s1", 2: "s2"}
    # the reference transient window: burn-in 1.2 ms, stop 3 ms
    maxstep, start, stop = doc.tran
    assert start == pytest.approx(1.2e-3)
    assert stop == pytest.approx(3.0e-3)
    assert maxstep <= 2e-6
    assert any(c.startswith(".four 10000") for c in doc.cards)


def test_emit_minimal_pair():
    doc = emit_netlist(parse_instance("1 1"), NonidealityConfig.ideal(),
                       FilterSpec("none", 5e3))
    assert sum(1 for c in doc.cards if c.startswith("BM")) == 1
    assert sum(1 for c in doc.cards if c.startswith("V") and "SINE" in c) == 2


def test_emit_rejects_single_source():
    with pytest.raises(ValueError):
        emit_netlist(parse_instance("7"), NonidealityConfig(), FilterSpec("none", 5e3))


def test_emit_per_source_amplitudes():
    cfg = NonidealityConfig(source_amplitude=(1.0, 0.5))
    doc = emit_netlist(parse_instance("1 1"), cfg, FilterSpec("none", 5e3))
    assert "V1 src1 0 SINE(0 1 10000 0 0 90)" in doc.cards
    assert "V2 src2 0 SINE(0 0.5 10000 0 0 90)" in doc.cards


def test_emit_z_compensation_sources():
    cfg = NonidealityConfig(z_compensation=(-0.00422, -0.00431))
    doc = emit_netlist(parse_instance("3 6 4"), cfg, FilterSpec("none", 5e3))
    assert "VZ1 z1 0 DC -0.00422" in doc.cards
    assert "VZ2 z2 0 DC -0.00431" in doc.cards


def test_emit_bandwidth_warning_comment():
    doc = emit_netlist(parse_instance("3 6 4"), NonidealityConfig(),
                       FilterSpec("none", 5e3))
    assert any("WARNING" in c and "bandwidth" in c for c in doc.cards)
    quiet = emit_netlist(parse_instance("3 2 5"), NonidealityConfig(),
                         FilterSpec("none", 5e3))
    assert not any("WARNING" in c for c in quiet.cards)


def test_emit_deterministic():
    a = emit_netlist(parse_instance("3 2 5"), NonidealityConfig(), FilterSpec("one-pole", 5e3))
    b = emit_netlist(parse_instance("3 2 5"), NonidealityConfig(), FilterSpec("one-pole", 5e3))
    assert a.text() == b.text()


@pytest.mark.parametrize("kind,order", [("none", 1), ("one-pole", 1), ("one-pole", 3),
                                        ("brickwall", 2)])
def test_emitted_netlists_validate(kind, order):
    doc = emit_netlist(parse_instance("3 6 4"), NonidealityConfig(),
                       FilterSpec(kind, 5e3, order=order, per_stage_gain=2.0))
    validate_netlist(doc)


def _without(prefix):
    return lambda cards: [c for c in cards if not c.startswith(prefix)]


def _replacing(prefix, card):
    return lambda cards: [card if c.startswith(prefix) else c for c in cards]


def _inserting(card):
    return lambda cards: cards[:7] + [card] + cards[7:]


@pytest.mark.parametrize("edit, message", [
    pytest.param(_without(".tran"), "netlist must contain exactly one .tran directive",
                 id="missing_tran"),
    pytest.param(_replacing(".tran", ".tran 0 0.003 0.0012"),
                 "malformed .tran card: '.tran 0 0.003 0.0012'", id="malformed_tran"),
    pytest.param(_replacing(".tran", ".tran 0 0.001 0.0012 1e-07"),
                 "inconsistent .tran window", id="inconsistent_window"),
    pytest.param(_without(".four"), "netlist must contain a .four directive", id="missing_four"),
    pytest.param(_without(".end"), "netlist must end with .end", id="missing_end"),
    pytest.param(_inserting(""), "empty card", id="empty_card"),
    pytest.param(_inserting("Q1 a b c"), "unknown element card: 'Q1 a b c'", id="bad_card"),
    pytest.param(_inserting("R1 a"), "element card too short: 'R1 a'", id="short_card"),
    pytest.param(_without("BM2"),
                 "stage output node s1 must feed exactly one downstream element, found 0",
                 id="dangling_stage"),
])
def test_validator_refuses(edit, message):
    doc = emit_netlist(parse_instance("3 6 4"), NonidealityConfig(), FilterSpec("none", 5e3))
    doc.cards = edit(doc.cards)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        validate_netlist(doc)


def test_parse_trace_uniform():
    rows = "\n".join(f"{i * 2e-6:.9g},{0.5:.3g}" for i in range(900))
    trace = parse_trace_csv("time,volts\n" + rows)
    assert trace.m == 900
    assert trace.tau == pytest.approx(2e-6)
    assert not trace.resampled
    assert dc_component(trace) == pytest.approx(0.5)


def test_parse_trace_constant_whitespace_delimited():
    text = "\n".join(f"{i * 1e-6:.9g} 0.125" for i in range(10))
    trace = parse_trace_csv(text)
    assert dc_component(trace) == pytest.approx(0.125)


def test_parse_trace_variable_step_resampled():
    rng = np.random.default_rng(0)
    t = np.cumsum(rng.uniform(0.5e-6, 1.5e-6, 400))
    v = 0.2 + 0.05 * np.sin(2 * np.pi * 1e4 * t)
    text = "\n".join(f"{ti:.12g},{vi:.12g}" for ti, vi in zip(t, v))
    trace = parse_trace_csv(text)
    assert trace.resampled
    # independent reference: trapezoid-rule mean over the non-uniform record
    trapz = float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(t)) / (t[-1] - t[0]))
    assert dc_component(trace) == pytest.approx(trapz, rel=1e-3)


def test_parse_trace_errors():
    with pytest.raises(ValueError):
        parse_trace_csv("0,1\n")
    with pytest.raises(ValueError):
        parse_trace_csv("0,1\n0,2\n")
    with pytest.raises(ValueError):
        parse_trace_csv("0,1\n1e-6,2\nbad,row\n")


@pytest.mark.parametrize("text,expected", [("3 2 5", 0.25), ("3 6 4", 0.0)])
def test_round_trip_tran_window_matches_pipeline(text, expected):
    # sample our own ideal pipeline over the netlist's declared .tran window
    inst = parse_instance(text)
    cfg = NonidealityConfig.ideal()
    spec = FilterSpec("brickwall", 5e3)
    doc = emit_netlist(inst, cfg, spec)
    _, start, stop = doc.tran
    t_align = 1e-4
    periods = round(stop / t_align)
    burn_in = round(start / t_align)
    final = run_cascade(inst, cfg, periods=periods).final
    dc = dc_component(sample_after_filter(final, spec, t_start=burn_in * final.alignment_period,
                                          duration=(periods - burn_in) * final.alignment_period,
                                          tau=final.dt))
    ideal = float(ideal_dc(inst)) * spec.dc_gain
    assert dc == pytest.approx(ideal, abs=max(0.05 * abs(ideal), 1e-3))


def test_parse_trace_reads_a_decide_trace(tmp_path, capsys):
    # the trace `decide --out` writes on the grid route: provenance comments, a header
    from cospart.cli import main
    (tmp_path / "freq.cfg").write_text("mult_output_offset=4e-3\nfreq_error_sigma=1e-6\n")
    code = main(["decide", "--oracle", "analog", "--config", str(tmp_path / "freq.cfg"),
                 "--out", str(tmp_path / "out"), "3 2 5"])
    capsys.readouterr()
    assert code == 1
    text = (tmp_path / "out" / "trace.csv").read_text()
    lines = text.splitlines()
    assert [l.startswith("#") for l in lines[:4]] == [True, True, True, False]
    assert lines[3] == "time_s,volts"
    rows = np.array([[float(x) for x in l.split(",")] for l in lines[4:]])
    trace = parse_trace_csv(text)
    assert not trace.resampled
    assert trace.m == len(rows)
    assert trace.t_start == rows[0, 0]
    assert trace.tau == pytest.approx(rows[1, 0] - rows[0, 0], rel=1e-9)
    assert np.array_equal(trace.values, rows[:, 1])
