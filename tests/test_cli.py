import re
import time

import pytest

from cospart import exact
from cospart.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_exact_yes(capsys):
    code, out, _ = _run(capsys, "decide", "--oracle", "exact", "3 2 5")
    assert code == 1
    assert "answer=YES" in out
    assert "dc_volts=0.25" in out


def test_decide_exact_no(capsys):
    code, out, _ = _run(capsys, "decide", "--oracle", "exact-dp", "3 6 4")
    assert code == 0
    assert "answer=NO" in out


def test_decide_analog_ideal(capsys):
    code, out, _ = _run(capsys, "decide", "--oracle", "analog-ideal", "3 6 4")
    assert code == 0
    items = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert abs(float(items["dc_volts"])) < 1e-9

    code, out, _ = _run(capsys, "decide", "--oracle", "analog-ideal", "3 2 5")
    assert code == 1
    items = dict(line.split("=", 1) for line in out.strip().splitlines())
    assert float(items["dc_volts"]) == pytest.approx(0.25, abs=1e-6)


def test_decide_exact_dc_beyond_dp_cutoff(capsys):
    # n = 26: C(26, 13) / 2**26, not a stand-in for the answer
    code, out, _ = _run(capsys, "decide", "--oracle", "exact", " ".join(["1"] * 26))
    assert code == 1
    assert "dc_volts=0.154981017\n" in out
    # n = 32: C(32, 16) / 2**32, counted by meet-in-the-middle
    code, out, _ = _run(capsys, "decide", "--oracle", "exact", " ".join(["1"] * 32))
    assert code == 1
    assert "dc_volts=0.139949934\n" in out
    # n = 45 is past ideal_dc's meet-in-the-middle guard: the DC is not invented
    code, out, _ = _run(capsys, "decide", "--oracle", "exact", " ".join(["2"] + ["1"] * 44))
    assert code == 1
    assert "answer=YES" in out
    assert "dc_volts=nan\n" in out and "margin_volts=nan\n" in out


def test_decide_exact_refuses_dp_past_its_work_bound(capsys):
    # 2,000 values whose 99,452,031 reachability cells fit the budget: their
    # 2,000 shifts would take seconds, and the refusal comes before the first one
    values = " ".join(["99452"] * 1999 + ["99512"])
    start = time.perf_counter()
    code, out, err = _run(capsys, "decide", "--oracle", "exact", values)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "2000 shifts of 99452031 reachability cells" in err
    assert "exceed the budget of 100000000" in err


def test_decide_rejects_malformed_calibration(tmp_path, capsys):
    cal = tmp_path / "cal.txt"
    cal.write_text("cut=0.1\nno_band_max=0\nyes_band_min=0.2\ntraining_size=2\n"
                   "separable=1\nnot a key value line\n")
    code, _, err = _run(capsys, "decide", "--oracle", "exact", "--calibration", str(cal),
                        "3 2 5")
    assert code == 2
    assert "bad config line" in err


def test_malformed_values_name_their_key(tmp_path, capsys):
    (tmp_path / "c.cfg").write_text("noise_sigma=abc\n")
    code, out, err = _run(capsys, "decide", "--oracle", "analog", "--config",
                          str(tmp_path / "c.cfg"), "3 2 5")
    assert (code, out) == (2, "")
    assert err == "error: config key noise_sigma: could not convert string to float: 'abc'\n"
    (tmp_path / "cal.txt").write_text("".join(f"{line}\n" for line in _CALIBRATION_LINES)
                                      .replace("cut=0.1", "cut=abc"))
    code, out, err = _run(capsys, "decide", "--oracle", "analog", "--calibration",
                          str(tmp_path / "cal.txt"), "3 2 5")
    assert (code, out) == (2, "")
    assert err == "error: calibration key cut: could not convert string to float: 'abc'\n"


def test_config_file_may_not_set_the_seed(tmp_path, capsys):
    # --seed is the one way to set it: the file's seed=5 would be overridden by seed 0
    (tmp_path / "c.cfg").write_text("seed=5\n")
    code, out, err = _run(capsys, "decide", "--oracle", "analog", "--config",
                          str(tmp_path / "c.cfg"), "3 2 5")
    assert (code, out) == (2, "")
    assert "seed=" in err and "--seed" in err


def test_decide_errors_on_garbage(capsys):
    code, _, err = _run(capsys, "decide", "--oracle", "exact", "3 x 5")
    assert code >= 2
    assert "error" in err


@pytest.mark.parametrize("oracle", ["exact", "exact-dp"])
def test_exact_oracles_answer_odd_totals_past_the_guard(tmp_path, oracle, capsys):
    # n = 45 is past the meet-in-the-middle guard and the total past the DP
    # budget, but an odd total has no balanced split: the DC is exactly 0
    f = tmp_path / "odd.txt"
    f.write_text(" ".join(["1000000007"] * 44 + ["1"]) + "\n")
    code, out, err = _run(capsys, "decide", "--oracle", oracle, str(f))
    assert (code, err) == (0, "")
    assert "answer=NO\n" in out and "dc_volts=0\n" in out
    # the enumeration route keeps its own guard
    code, _, err = _run(capsys, "decide", "--oracle", "exact-bf", str(f))
    assert code == 2 and "n<=30 enumeration guard" in err


@pytest.mark.parametrize("values", ["3 2 5", "3 6 4", "3 2 6", "10 90 10 40", "7 7 7 8 9 25",
                                    "1 1 1 1 1 1 1 1 1 1 1 1", "5 9 14 20 26 33 40 41 58 60 62"])
def test_exact_bf_prints_the_dc_of_its_own_enumeration(monkeypatch, values, capsys):
    # the same record as the counting kernel's, with that kernel out of reach: the
    # enumeration's DC comes from its own scan, so a kernel bug cannot hide in both
    want = _run(capsys, "decide", "--oracle", "exact", values)
    def refuse(*args, **kwargs):
        raise AssertionError("exact-bf reached the meet-in-the-middle kernel")
    monkeypatch.setattr(exact, "_subset_sums", refuse)
    assert _run(capsys, "decide", "--oracle", "exact-bf", values) == want


def test_long_inline_instance_is_not_a_file_name(capsys):
    # 30 ten-digit values, 329 characters: longer than a file name may be
    values = " ".join(str(1000000007 + i) for i in range(15))
    code, out, err = _run(capsys, "decide", "--oracle", "exact", values + " " + values)
    assert (code, err) == (1, "")
    assert "answer=YES\n" in out


def test_decide_single_instance_file(tmp_path, capsys):
    f = tmp_path / "one.txt"
    f.write_text("# a single instance\n3 2 5\n")
    code, out, _ = _run(capsys, "decide", "--oracle", "exact", str(f))
    assert code == 1
    assert "answer=YES" in out


def test_decide_batch_file(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_text("# two instances\n3 2 5\n3 6 4\n")
    code, out, _ = _run(capsys, "decide", "--batch", str(f))
    assert code == 0
    assert out.count("answer=") == 2
    # without --batch a multi-instance file is an error
    code, _, _ = _run(capsys, "decide", str(f))
    assert code >= 2


def test_decide_writes_reproducible_outputs(tmp_path, capsys):
    # identical command + seed must reproduce byte-identical data files
    out = tmp_path / "a"
    argv = ["decide", "--oracle", "analog-ideal", "--seed", "3",
            "--out", str(out), "3 2 5"]
    _run(capsys, *argv)
    first = (out / "decisions.txt").read_text()
    _run(capsys, *argv)
    assert (out / "decisions.txt").read_text() == first
    assert "config_hash=" in (out / "decide.record").read_text()


def test_decide_out_emits_trace_and_spectrum(tmp_path, capsys):
    code, _, _ = _run(capsys, "decide", "--oracle", "analog-ideal",
                      "--out", str(tmp_path), "3 2 5")
    assert code == 1
    trace = (tmp_path / "trace.csv").read_text()
    assert "time_s,volts" in trace and "# command=" in trace
    spectrum = (tmp_path / "spectrum.csv").read_text()
    assert "frequency,amplitude" in spectrum


def test_decide_out_runs_the_chain_once(tmp_path, capsys, monkeypatch):
    from cospart import calibration
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return run_cascade(*args, **kwargs)

    run_cascade = calibration.run_cascade
    monkeypatch.setattr(calibration, "run_cascade", counted)
    # inside the harmonic domain the grid runs for the traces alone; outside it
    # (frequency errors), trace.csv and spectrum.csv come from the decision's samples
    for name, config in (("in", ""), ("out", "freq_error_sigma=1e-6\n")):
        calls.clear()
        (tmp_path / f"{name}.cfg").write_text(config)
        code, _, _ = _run(capsys, "decide", "--oracle", "analog", "--config",
                          str(tmp_path / f"{name}.cfg"), "--out", str(tmp_path / name), "3 2 5")
        assert code == 1
        assert len(calls) == 1
        assert (tmp_path / name / "trace.csv").is_file()
        assert (tmp_path / name / "spectrum.csv").is_file()


def test_decide_record_does_not_depend_on_out(tmp_path, capsys):
    # a noisy chain inside the harmonic domain: its DC takes one normal per stage, not the grid
    (tmp_path / "chain.cfg").write_text("mult_output_offset=4e-3\nnoise_sigma=1e-3\n")
    argv = ["decide", "--oracle", "analog", "--config", str(tmp_path / "chain.cfg"),
            "--seed", "3", "3 2 5"]
    code, plain, _ = _run(capsys, *argv)
    assert code == 1
    assert _run(capsys, *argv, "--out", str(tmp_path / "out")) == (1, plain, "")
    assert (tmp_path / "out" / "decisions.txt").read_text().endswith(plain)


def test_decide_filter_cutoff_above_the_grid_nyquist(tmp_path, capsys):
    # the grid's Nyquist frequency here is 8e5 Hz; the sampling step stays at the grid's own
    for f0 in ("7e5", "8.5e5", "1e7"):
        code, out, err = _run(capsys, "decide", "--oracle", "analog", "--f0", f0,
                              "--out", str(tmp_path / f0), "3 2 5")
        assert (code, err) == (1, "")
        assert "dc_volts=0.230769231\n" in out
        assert (tmp_path / f0 / "trace.csv").is_file()
    # frequency errors keep the training runs on the grid
    code, out, err = _calibrate(capsys, tmp_path, ["3 2 5"], ["2 3 4"],
                                "cutoff_f0=1e7\nfreq_error_sigma=1e-6\n")
    assert (code, err) == (0, "")
    assert "separable=1\n" in out


def test_decide_batch_jobs_match(tmp_path, capsys):
    f = tmp_path / "batch.txt"
    f.write_text("3 2 5\n3 6 4\n1 1\n2 3\n")
    code, seq_out, _ = _run(capsys, "decide", "--batch", "--oracle", "analog-ideal", str(f))
    assert code == 0
    code, par_out, _ = _run(capsys, "decide", "--batch", "--oracle", "analog-ideal",
                            "--jobs", "2", str(f))
    assert code == 0
    assert seq_out == par_out


def test_spectrum_analytic(tmp_path, capsys):
    code, out, _ = _run(capsys, "spectrum", "--out", str(tmp_path), "2 3 5")
    assert code == 0
    text = (tmp_path / "spectrum_analytic.csv").read_text()
    freqs = [float(r.split(",")[0]) for r in text.splitlines()
             if r and not r.startswith("#") and not r.startswith("freq")]
    assert freqs == [-10, -6, -4, 0, 4, 6, 10]
    assert "# units=instance" in text
    assert "# command=" in text


def test_spectrum_single_value(capsys):
    code, out, _ = _run(capsys, "spectrum", "1")
    assert code == 0
    assert "-1," in out and "1," in out


def test_spectrum_simulated_peaks(tmp_path, capsys):
    code, _, _ = _run(capsys, "spectrum", "--simulate", "--out", str(tmp_path), "2 3")
    assert code == 0
    text = (tmp_path / "spectrum_measured.csv").read_text()
    peaks = []
    for row in text.splitlines():
        if row.startswith("#") or row.startswith("freq") or not row:
            continue
        f, a = map(float, row.split(","))
        if a > 0.1:
            peaks.append(round(f / 1e4))
    assert peaks == [1, 5]


def test_calibrate_then_decide(tmp_path, capsys):
    yes_file = tmp_path / "yes.txt"
    no_file = tmp_path / "no.txt"
    yes_file.write_text("3 7 4\n")
    no_file.write_text("3 6 4\n")
    cfg_file = tmp_path / "table.cfg"
    cfg_file.write_text(
        "mult_output_offset=4.5e-3,4.4e-3\n"
        "mult_input_offset=5e-3,5.1e-3\n"
        "kind=none\n"
        "cutoff_f0=5000\n")
    code, out, _ = _run(capsys, "calibrate", "--yes", str(yes_file), "--no", str(no_file),
                        "--config", str(cfg_file), "--out", str(tmp_path))
    assert code == 0
    assert "separable=1" in out
    cal = tmp_path / "calibration.txt"
    assert cal.is_file()

    code, out, _ = _run(capsys, "decide", "--oracle", "analog",
                        "--config", str(cfg_file), "--calibration", str(cal), "3 7 4")
    assert code == 1
    code, out, _ = _run(capsys, "decide", "--oracle", "analog",
                        "--config", str(cfg_file), "--calibration", str(cal), "3 6 4")
    assert code == 0


def test_calibrate_jobs_match(tmp_path, capsys):
    yes_file = tmp_path / "yes.txt"
    no_file = tmp_path / "no.txt"
    yes_file.write_text("3 2 5\n1 4 5\n")
    no_file.write_text("3 6 4\n2 3 4\n")
    code, seq_out, _ = _run(capsys, "calibrate", "--yes", str(yes_file),
                            "--no", str(no_file))
    assert code == 0
    code, par_out, _ = _run(capsys, "calibrate", "--yes", str(yes_file),
                            "--no", str(no_file), "--jobs", "2")
    assert code == 0
    assert seq_out == par_out


def test_jobs_run_on_threads_of_this_process(tmp_path):
    # a fresh interpreter, so that no earlier test has imported multiprocessing;
    # two CPUs pinned, so that a one-CPU runner still starts the pool
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cospart
    (tmp_path / "yes.txt").write_text("3 2 5\n1 4 5\n")
    (tmp_path / "no.txt").write_text("3 6 4\n2 3 4\n")
    code = ("import os, sys, threading\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from cospart import calibration, cli\n"
            "seen, checks = set(), []\n"
            "measure = calibration.measure_dc\n"
            "def recorded(*args):\n"
            "    seen.add((os.getpid(), threading.current_thread() is threading.main_thread()))\n"
            "    return measure(*args)\n"
            "calibration.measure_dc = recorded\n"
            "for argv in (['decide', '--batch', '--oracle', 'analog', '--jobs', '2', 'no.txt'],\n"
            "             ['calibrate', '--yes', 'yes.txt', '--no', 'no.txt', '--jobs', '2']):\n"
            "    assert cli.main(argv) == 0\n"
            "    checks.append(seen == {(os.getpid(), False)})\n"
            "    seen.clear()\n"
            "print(*checks, 'multiprocessing' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cospart.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.splitlines()[-1] == "True True False"


def test_calibrate_overlapping_bands(tmp_path, capsys):
    # noise_sigma=2 spreads the measured DCs until the YES and NO bands overlap
    code, out, err = _calibrate(capsys, tmp_path, ["1 1", "2 2", "3 3"],
                                ["1 2", "2 3", "1 3"], "noise_sigma=2\n")
    assert code == 0
    assert "separable=0\n" in out
    assert err == "warning: training bands overlap; calibration is not separable\n"
    code, out, err = _run(capsys, "decide", "--oracle", "analog",
                          "--config", str(tmp_path / "chain.cfg"),
                          "--calibration", str(tmp_path / "cal" / "calibration.txt"), "1 1")
    assert code == 2 and out == ""
    assert err == "error: threshold bands overlap; recalibrate before deciding\n"


def test_calibrate_large_magnitudes_small_grid(tmp_path, capsys):
    # labels beyond the reachability budget; the grids need 64-144 points
    (tmp_path / "yes.txt").write_text("100000000 300000000 200000000\n"
                                      "100000000 100000000 200000000\n")
    (tmp_path / "no.txt").write_text("200000000 300000000 400000000\n"
                                     "100000000 300000000 500000000\n")
    code, out, _ = _run(capsys, "calibrate", "--yes", str(tmp_path / "yes.txt"),
                        "--no", str(tmp_path / "no.txt"))
    assert code == 0
    assert "cut=" in out


@pytest.mark.parametrize("yes, no", [("62500 62501 1", "2 125001 5"),
                                     ("3 2 5", "2 125001 5")])
def test_calibrate_refuses_oversized_grid(tmp_path, capsys, yes, no):
    # every training instance is guarded before any simulation runs
    (tmp_path / "yes.txt").write_text(yes + "\n")
    (tmp_path / "no.txt").write_text(no + "\n")
    code, out, err = _run(capsys, "calibrate", "--yes", str(tmp_path / "yes.txt"),
                          "--no", str(tmp_path / "no.txt"),
                          "--out", str(tmp_path / "cal"))
    assert code == 2
    assert out == ""
    assert "grid points per period (limit 2000000)" in err
    assert not (tmp_path / "cal").exists()


def test_sat_unit_clause(tmp_path, capsys):
    f = tmp_path / "unit.cnf"
    f.write_text("p cnf 1 1\n1 0\n")
    code, out, _ = _run(capsys, "sat", str(f))
    assert code == 1
    assert "s SATISFIABLE" in out
    assert "v 1 0" in out


def test_sat_contradiction(tmp_path, capsys):
    f = tmp_path / "contra.cnf"
    f.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = _run(capsys, "sat", str(f))
    assert code == 0
    assert "s UNSATISFIABLE" in out


def test_sat_model_verified(tmp_path, capsys):
    from cospart.reductions import evaluate, parse_dimacs
    text = "p cnf 6 6\n1 -2 3 0\n-1 4 0\n2 5 -6 0\n-3 -4 0\n4 5 6 0\n-5 1 0\n"
    f = tmp_path / "rand.cnf"
    f.write_text(text)
    code, out, _ = _run(capsys, "sat", str(f), "--backend", "exact-dp")
    assert code == 1
    model_line = [l for l in out.splitlines() if l.startswith("v ")][0]
    lits = [int(x) for x in model_line[2:].split() if x != "0"]
    values = [l > 0 for l in sorted(lits, key=abs)]
    assert evaluate(parse_dimacs(text), values)


@pytest.mark.parametrize("strict", [(), ("--strict",)], ids=["plain", "strict"])
def test_sat_satlib_trailer_ends_the_clauses(tmp_path, capsys, strict):
    # SATLIB files end with a '%' line and a '0' line, which is not an empty clause
    import warnings
    from cospart.reductions import evaluate, parse_dimacs
    text = "p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n"
    (tmp_path / "sat.cnf").write_text(text)
    (tmp_path / "unsat.cnf").write_text("p cnf 1 2\n1 0\n-1 0\n%\n0\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a miscounted header would exit 2
        code, out, err = _run(capsys, "sat", str(tmp_path / "sat.cnf"), *strict)
        assert (code, err) == (1, "")
        lits = [int(x) for x in out.splitlines()[-1][2:].split() if x != "0"]
        assert evaluate(parse_dimacs(text), [l > 0 for l in sorted(lits, key=abs)])
        code, out, err = _run(capsys, "sat", str(tmp_path / "unsat.cnf"), *strict)
        assert (code, out, err) == (0, "s UNSATISFIABLE\n", "")


def test_sat_reports_the_bit_budget(tmp_path, capsys):
    # a ring of 23 clauses over 23 variables reduces to an instance summing past 2**62
    clauses = "".join(f"{i} {i % 23 + 1} {-((i + 1) % 23 + 1)} 0\n" for i in range(1, 24))
    (tmp_path / "ring.cnf").write_text("p cnf 23 23\n" + clauses)
    code, out, err = _run(capsys, "sat", str(tmp_path / "ring.cnf"))
    assert code == 2 and out == ""
    assert err == "error: reduction needs 65-bit integers (budget is 62 bits)\n"


def test_netlist_command(tmp_path, capsys):
    code, out, _ = _run(capsys, "netlist", "--out", str(tmp_path), "3 6 4")
    assert code == 0
    text = (tmp_path / "cascade.cir").read_text()
    assert text.startswith("* command=cospart netlist")
    assert ".tran" in text


def test_netlist_prints_the_cards_it_writes(tmp_path, capsys):
    code, printed, _ = _run(capsys, "netlist", "3 6 4")
    assert code == 0
    _run(capsys, "netlist", "--out", str(tmp_path), "3 6 4")
    head, rest = (tmp_path / "cascade.cir").read_text().split("\n", 1)
    # the same header and cards; only the command line names other flags
    assert head == f"* command=cospart netlist --out {tmp_path} 3 6 4"
    assert printed == "* command=cospart netlist 3 6 4\n" + rest
    assert rest.startswith("* config_hash=") and "\n* seed=0\n" in rest


def test_gen_command(tmp_path, capsys):
    from cospart.exact import decide_dp
    from cospart.instances import load_instances
    code, out, _ = _run(capsys, "gen", "--n", "4", "--kind", "NO", "--count", "3",
                        "--seed", "9", "--out", str(tmp_path))
    assert code == 0
    insts = load_instances((tmp_path / "instances.txt").read_text())
    assert len(insts) == 3
    assert all(not decide_dp(i) for i in insts)


def test_gen_large_magnitudes(capsys):
    from cospart.exact import solve_exact
    from cospart.instances import load_instances
    code, out, _ = _run(capsys, "gen", "--n", "3", "--max-mag", "300000000", "--kind", "NO")
    assert code == 0
    insts = load_instances(out)
    assert len(insts) == 1 and not solve_exact(insts[0])


def test_decide_strict_escalates(capsys):
    # default config has f* = 120 kHz; 3+6+4 = 13 units = 130 kHz
    code, _, err = _run(capsys, "decide", "--oracle", "analog", "--strict", "3 6 4")
    assert code >= 2
    assert "exceeds" in err


def test_calibrate_warns_on_bandwidth(tmp_path, capsys, monkeypatch):
    from cospart import calibration, pipeline
    # tones near 1e12 Hz against the default 120 kHz multiplier pole
    (tmp_path / "yes.txt").write_text("100000000 300000000 200000000\n"
                                      "100000000 100000000 200000000\n")
    (tmp_path / "no.txt").write_text("200000000 300000000 400000000\n"
                                     "100000000 300000000 500000000\n")
    argv = ["calibrate", "--yes", str(tmp_path / "yes.txt"), "--no", str(tmp_path / "no.txt")]
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path / "cal"))
    assert code == 0
    assert ("warning: training instance 100000000 300000000 200000000: "
            "sum of frequencies 6e+12 Hz exceeds f*=120000 Hz\n") in err
    assert err.count("warning: training instance") == 4
    assert out.endswith("bandwidth_warnings=4\n")
    assert "\nbandwidth_warnings=4\n" in (tmp_path / "cal" / "calibration.txt").read_text()

    def never(*args, **kwargs):
        raise AssertionError("strict calibration simulated an out-of-band instance")

    monkeypatch.setattr(calibration, "run_cascade", never)
    monkeypatch.setattr(pipeline, "run_cascade", never)
    code, out, err = _run(capsys, *argv, "--strict", "--out", str(tmp_path / "strict"))
    assert code == 2
    assert out == ""
    assert err == "error: sum of frequencies 6e+12 Hz exceeds f*=120000 Hz\n"
    assert not (tmp_path / "strict").exists()


def test_calibrate_in_band_writes_no_bandwidth_line(tmp_path, capsys):
    (tmp_path / "yes.txt").write_text("3 2 5\n")
    (tmp_path / "no.txt").write_text("2 3 4\n")
    code, out, err = _run(capsys, "calibrate", "--yes", str(tmp_path / "yes.txt"),
                          "--no", str(tmp_path / "no.txt"), "--strict")
    assert code == 0
    assert "bandwidth" not in out and "warning" not in err


@pytest.mark.parametrize("debug", [None, "1"])
def test_debug_prints_traceback(capsys, monkeypatch, debug):
    if debug is None:
        monkeypatch.delenv("COSPART_DEBUG", raising=False)
    else:
        monkeypatch.setenv("COSPART_DEBUG", debug)
    code, _, err = _run(capsys, "decide", "--oracle", "exact", "garbage")
    assert code == 2
    assert ("Traceback (most recent call last):" in err) == (debug == "1")
    assert err.splitlines()[-1].startswith("error: ")


def _outputs(capsys, tmp_path, argv):
    """Exit code, stdout, stderr and every file under ``tmp_path`` after one call."""
    code, out, err = _run(capsys, *argv)
    files = {str(p.relative_to(tmp_path)): p.read_text()
             for p in sorted(tmp_path.rglob("*")) if p.is_file() and p.suffix != ".record"}
    return code, out, err, files


def test_calls_share_one_parser_and_stay_independent(tmp_path, capsys):
    from cospart import cli
    cal = tmp_path / "cal.txt"
    cal.write_text("cut=0.1\nno_band_max=0\nyes_band_min=0.2\ntraining_size=2\nseparable=1\n"
                   "chain=0123456789ab\n")
    batch = tmp_path / "batch.txt"
    batch.write_text("3 2 5\n3 6 4\n")
    out_dir = str(tmp_path / "o")
    sequence = [
        ["decide", "--oracle", "analog-ideal", "--strict", "--seed", "5", "--out", out_dir,
         "3 2 5"],
        ["decide", "3 2 5"],
        ["decide", "--batch", "--oracle", "exact-bf", str(batch)],
        ["decide", str(batch)],
        ["decide", "--oracle", "exact", "--calibration", str(cal), "--out", out_dir, "3 6 4"],
        ["decide", "--oracle", "analog-ideal", "3 6 4"],
        ["decide", "--oracle", "analog", "--strict", "3 6 4"],
        ["decide", "--oracle", "analog", "3 2 5"],
        ["gen", "--n", "3", "--seed", "7"],
        ["decide", "--seed", "2", "3 2 5"],
    ]
    shared = [_outputs(capsys, tmp_path, argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        assert vars(cli.build_parser.__wrapped__().parse_args(argv)) == \
            vars(cli.build_parser().parse_args(argv))
        fresh.append(_outputs(capsys, tmp_path, argv))
    assert shared == fresh
    assert shared[6][0] == 2 and shared[7][0] == 1  # --strict did not carry over


def test_main_builds_the_parser_once(capsys, monkeypatch):
    import argparse
    from cospart import cli
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    _run(capsys, "decide", "--oracle", "exact", "3 2 5")
    assert len(built) == 7  # the root parser and six subcommands
    built.clear()
    _run(capsys, "decide", "--oracle", "exact-dp", "3 6 4")
    _run(capsys, "gen", "--n", "3")
    _run(capsys, "spectrum", "2 3 5")
    assert built == []
    # dispatch reaches the command function as it is when the call runs
    monkeypatch.setattr(cli, "cmd_gen", lambda args, argv: 7)
    assert cli.main(["gen", "--n", "3"]) == 7


def test_import_builds_no_parser():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cospart
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
            "import cospart.cli, sys\n"
            "print(len(built), cospart.cli.build_parser.cache_info().currsize)\n"
            "# loaded only by --jobs and COSPART_DEBUG\n"
            "print(*(m in sys.modules for m in "
            "('concurrent.futures', 'multiprocessing', 'traceback')))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cospart.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.split() == ["0", "0", "False", "False", "False"]


def test_exact_decision_counts_once(capsys, monkeypatch):
    from cospart import exact
    calls = []
    for name in ("decide_meet_in_middle", "decide_dp", "solve_exact"):
        def counted(*args, _name=name, _fn=getattr(exact, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(exact, name, counted)
    # 24 values: the counted DC gives the answer; no solver runs
    code, out, _ = _run(capsys, "decide", "--oracle", "exact", " ".join(["1"] * 24))
    assert code == 1 and "answer=YES" in out
    assert calls == []
    code, out, _ = _run(capsys, "decide", "--oracle", "exact-dp", " ".join(["1"] * 23))
    assert code == 0 and "answer=NO" in out and "dc_volts=0\n" in out
    assert calls == []
    # 45 values with an even total are past the counting guard: one solve_exact
    # call, and no DC
    code, out, _ = _run(capsys, "decide", "--oracle", "exact", " ".join(["100"] + ["1"] * 44))
    assert code == 0 and "answer=NO" in out and "dc_volts=nan\n" in out
    assert calls.count("solve_exact") == 1


def _calibrate(capsys, tmp_path, yes, no, config=None):
    """Calibrate on the given instance lines; returns calibrate's exit, stdout, stderr."""
    (tmp_path / "yes.txt").write_text("".join(v + "\n" for v in yes))
    (tmp_path / "no.txt").write_text("".join(v + "\n" for v in no))
    argv = ["calibrate", "--yes", str(tmp_path / "yes.txt"), "--no", str(tmp_path / "no.txt"),
            "--out", str(tmp_path / "cal")]
    if config is not None:
        (tmp_path / "chain.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "chain.cfg")]
    return _run(capsys, *argv)


# A compensating one-pole filter with DC gain 4 and an amplifier offset
_GAIN_CHAIN = "amp_offset=0.05\nkind=one-pole\norder=2\nper_stage_gain=2\n"


def test_sat_decides_on_the_calibrated_chain(tmp_path, capsys):
    code, out, _ = _calibrate(capsys, tmp_path, ["1 1", "2 2"], ["1 2", "1 3"], _GAIN_CHAIN)
    assert code == 0 and "cut=0.663324958071\n" in out
    chain = ["--config", str(tmp_path / "chain.cfg"),
             "--calibration", str(tmp_path / "cal" / "calibration.txt")]
    code, out, _ = _run(capsys, "decide", "--oracle", "analog", *chain, "1 1")
    assert code == 1 and "dc_volts=2.2\n" in out
    # the empty formula reduces to that same `1 1`, decided on the same chain
    (tmp_path / "empty.cnf").write_text("p cnf 1 0\n")
    code, out, _ = _run(capsys, "sat", "--backend", "analog", *chain, str(tmp_path / "empty.cnf"))
    assert (code, out) == (1, "s SATISFIABLE\nv 1 0\n")
    # the noise seed and batch sub-seeds are not part of the chain
    code, _, _ = _run(capsys, "decide", "--oracle", "analog", *chain, "--seed", "5", "1 1")
    assert code == 1
    (tmp_path / "batch.txt").write_text("1 1\n1 2\n")
    code, out, _ = _run(capsys, "decide", "--oracle", "analog", *chain, "--batch",
                        str(tmp_path / "batch.txt"))
    assert code == 0 and "answer=YES" in out and "answer=NO" in out


def test_calibration_refuses_another_chain(tmp_path, capsys):
    from cospart.calibration import chain_digest, threshold_from_text
    from cospart.dsp import FilterSpec
    from cospart.pipeline import NonidealityConfig
    code, _, _ = _calibrate(capsys, tmp_path, ["1 1", "2 2"], ["1 2", "1 3"], _GAIN_CHAIN)
    assert code == 0
    cal = tmp_path / "cal" / "calibration.txt"
    thr, z = threshold_from_text(cal.read_text())
    default_chain = chain_digest(NonidealityConfig(z_compensation=z),
                                 FilterSpec(kind="brickwall", cutoff_f0=5000.0))
    code, out, err = _run(capsys, "decide", "--oracle", "analog", "--calibration", str(cal),
                          "1 1")
    assert (code, out) == (2, "")
    assert err == (f"error: the calibration was learned on chain {thr.chain}, but this chain "
                   f"is {default_chain}; recalibrate with this --config and filter\n")
    # the ideal chain takes the calibration too, and refuses it the same way
    code, out, err = _run(capsys, "decide", "--oracle", "analog-ideal", "--config",
                          str(tmp_path / "chain.cfg"), "--calibration", str(cal), "1 1")
    assert (code, out) == (2, "")
    assert f"learned on chain {thr.chain}, but this chain is " in err


def test_sat_squeeze_refuses_a_calibration(tmp_path, capsys):
    code, _, _ = _calibrate(capsys, tmp_path, ["1 1"], ["1 2"])
    assert code == 0
    # its reduction sums above the default 120 kHz bandwidth, so every call is squeezed
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    code, out, err = _run(capsys, "sat", "--backend", "analog", "--calibration",
                          str(tmp_path / "cal" / "calibration.txt"), str(tmp_path / "f.cnf"))
    assert code == 2 and out == ""
    assert "the calibration was learned on chain" in err


_CALIBRATION_LINES = ("cut=0.1", "no_band_max=0", "yes_band_min=0.2", "training_size=2",
                      "separable=1", "chain=0123456789abcdef")


@pytest.mark.parametrize("key", [line.partition("=")[0] for line in _CALIBRATION_LINES])
def test_calibration_without_chain_line_is_refused(tmp_path, capsys, key):
    cal = tmp_path / "cal.txt"
    cal.write_text("".join(f"{line}\n" for line in _CALIBRATION_LINES
                           if not line.startswith(f"{key}=")))
    code, _, err = _run(capsys, "decide", "--oracle", "analog", "--calibration", str(cal),
                        "3 2 5")
    assert code == 2
    assert err == f"error: calibration has no {key}= line; recalibrate with cospart calibrate\n"


def test_calibration_with_empty_chain_is_refused(tmp_path, capsys):
    cal = tmp_path / "cal.txt"
    cal.write_text("cut=0.1\nno_band_max=0\nyes_band_min=0.2\ntraining_size=2\nseparable=1\n"
                   "chain=\n")
    (tmp_path / "c.cfg").write_text(_GAIN_CHAIN)
    # `1 2` reads 0.2 V on this chain: an unbound 0.1 V cut would answer the NO instance YES
    code, out, err = _run(capsys, "decide", "--oracle", "analog", "--config",
                          str(tmp_path / "c.cfg"), "--calibration", str(cal), "1 2")
    assert (code, out) == (2, "")
    assert err == "error: calibration has no chain= line; recalibrate with cospart calibrate\n"


_ORDER_2_RECORD = ("instance=3 2 5\nanswer=YES\ndc_volts=0.923076923\ncut_volts=0.25\n"
                   "margin_volts=0.673076923\nconfig_hash=d029622e7880\nseed=0\n")


@pytest.mark.parametrize("flag, text, expected", [
    ("--config", "cutoff_f0=abc\n",
     (2, "", "error: config key cutoff_f0: could not convert string to float: 'abc'\n")),
    ("--config", "order=x\n",
     (2, "", "error: config key order: could not convert string to float: 'x'\n")),
    ("--config", "kind=one-pole\norder=2.0\nper_stage_gain=2\n", (1, _ORDER_2_RECORD, "")),
    ("--config", "kind=one-pole\norder=2\nper_stage_gain=2\n", (1, _ORDER_2_RECORD, "")),
    ("--config", "per_stage_gain=nan\n", (2, "", "error: per_stage_gain must be finite, got nan\n")),
    ("--config", "per_stage_gain=0\n",
     (2, "", "error: per_stage_gain must be positive, got 0.0\n")),
    ("--config", "per_stage_gain=-1\n",
     (2, "", "error: per_stage_gain must be positive, got -1.0\n")),
    ("--config", "cutoff_f0=inf\n", (2, "", "error: cutoff_f0 must be finite, got inf\n")),
    ("--config", "noise_sigma=1e-3\nnoise_sigma=0\n",
     (2, "", "error: key noise_sigma is given twice\n")),
    ("--config", "mult_output_offset=1e-3,,2e-3\n",
     (2, "", "error: config key mult_output_offset: could not convert string to float: ''\n")),
    ("--config", "mult_output_offset=1e-3,2e-3,\n",
     (2, "", "error: config key mult_output_offset: could not convert string to float: ''\n")),
    ("--calibration", "\n".join(_CALIBRATION_LINES) + "\ncut=0.2\n",
     (2, "", "error: key cut is given twice\n")),
    ("--calibration", "\n".join(_CALIBRATION_LINES) + "\nz_compensation=1e-3,,2e-3\n",
     (2, "", "error: calibration key z_compensation: could not convert string to float: ''\n")),
    ("--calibration", "\n".join(_CALIBRATION_LINES).replace("training_size=2", "training_size=x"),
     (2, "", "error: calibration key training_size: could not convert string to float: 'x'\n")),
    ("--calibration", "\n".join(_CALIBRATION_LINES).replace("training_size=2", "training_size=2.5"),
     (2, "", "error: training_size must be an integer, got 2.5\n")),
    # a NaN cut would answer every instance NO, and exit 0
    ("--calibration", "\n".join(_CALIBRATION_LINES).replace("cut=0.1", "cut=nan"),
     (2, "", "error: cut must be finite, got nan\n")),
    ("--calibration", "\n".join(_CALIBRATION_LINES).replace("cut=0.1", "cut=inf"),
     (2, "", "error: cut must be finite, got inf\n")),
    ("--calibration", "\n".join(_CALIBRATION_LINES).replace("yes_band_min=0.2", "yes_band_min=nan"),
     (2, "", "error: yes_band_min must be finite, got nan\n")),
    # a separable cut outside its bands would answer the NO band YES, or the YES band NO
    ("--calibration", "\n".join(_CALIBRATION_LINES).replace("cut=0.1", "cut=-1"),
     (2, "", "error: calibration cut=-1.0 does not lie between no_band_max=0.0 and "
             "yes_band_min=0.2\n")),
    ("--calibration", "\n".join(_CALIBRATION_LINES).replace("no_band_max=0", "no_band_max=5"),
     (2, "", "error: calibration cut=0.1 does not lie between no_band_max=5.0 and "
             "yes_band_min=0.2\n")),
], ids=["cutoff_f0=abc", "order=x", "order=2.0", "order=2", "per_stage_gain=nan",
        "per_stage_gain=0", "per_stage_gain=-1", "cutoff_f0=inf",
        "key twice", "empty entry", "trailing comma", "calibration key twice",
        "calibration empty entry", "training_size=x", "training_size=2.5", "cut=nan", "cut=inf",
        "yes_band_min=nan", "cut=-1", "no_band_max=5"])
def test_values_are_read_by_their_field_type(tmp_path, capsys, flag, text, expected):
    # config, filter and calibration text go through one reader: a value that does not
    # parse, a key given twice or an empty list entry exits 2 naming the key
    (tmp_path / "f.txt").write_text(text)
    assert _run(capsys, "decide", "--oracle", "analog", flag, str(tmp_path / "f.txt"),
                "3 2 5") == expected


@pytest.mark.parametrize("argv, message", [
    (["decide", "--jobs", "0", "3 2 5"], "argument --jobs: must be at least 1, got 0"),
    (["decide", "--jobs", "-3", "3 2 5"], "argument --jobs: must be at least 1, got -3"),
    (["calibrate", "--yes", "y", "--no", "n", "--jobs", "0"],
     "argument --jobs: must be at least 1, got 0"),
    (["gen", "--n", "3", "--count", "-2"], "argument --count: must be at least 1, got -2"),
    (["gen", "--n", "3", "--count", "0"], "argument --count: must be at least 1, got 0"),
    (["decide", "--jobs", "x", "3 2 5"], "argument --jobs: invalid int value: 'x'"),
], ids=["jobs=0", "jobs=-3", "calibrate-jobs=0", "count=-2", "count=0", "jobs=x"])
def test_job_and_instance_counts_below_one_are_refused(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("config, message", [
    ("source_amplitude=1,1\n", "source_amplitude sequence must have 3 entries"),
    ("mult_output_offset=0.001,0.002,0.003\n", "mult_output_offset sequence must have 2 entries"),
], ids=["source_amplitude", "mult_output_offset"])
def test_netlist_refuses_what_decide_refuses(tmp_path, capsys, config, message):
    (tmp_path / "c.cfg").write_text(config)
    for command in (["netlist"], ["decide", "--oracle", "analog"]):
        code, out, err = _run(capsys, *command, "--config", str(tmp_path / "c.cfg"), "3 2 5")
        assert (code, out, err) == (2, "", f"error: {message}\n")


def _choices(command, dest):
    import argparse
    from cospart import cli
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_oracle_and_backend_take_one_name_set():
    from cospart.reductions import ORACLES
    assert tuple(_choices("decide", "oracle")) == ORACLES
    assert tuple(_choices("sat", "backend")) == ORACLES


@pytest.mark.parametrize("retired", ["exact-bruteforce", "analog-simulated"])
def test_oracle_refuses_retired_names(retired):
    from cospart.reductions import ORACLES, OracleBackend
    with pytest.raises(ValueError) as err:
        OracleBackend(retired)
    assert retired in str(err.value)
    assert all(name in str(err.value) for name in ORACLES)


@pytest.mark.parametrize("name", ["exact", "exact-dp", "exact-bf", "analog", "analog-ideal"])
@pytest.mark.parametrize("text", ["3 2 5", "3 6 4"])
def test_library_decision_matches_decide(tmp_path, capsys, name, text):
    from cospart.calibration import decision_record
    from cospart.instances import parse_instance
    from cospart.pipeline import NonidealityConfig
    from cospart.reductions import OracleBackend
    oracle = OracleBackend(name)
    inst = parse_instance(text)
    decision = oracle.decision(inst)
    code, out, _ = _run(capsys, "decide", "--oracle", name, text)
    assert code == (1 if decision.answer == "YES" else 0)
    assert decision.answer == ("YES" if text == "3 2 5" else "NO")
    assert oracle.calls == 0
    assert out == decision_record(decision, inst, oracle.digest, 0)
    if name.startswith("analog"):
        # a config that leaves the filter open: both take the brickwall at 0.5·f_base
        (tmp_path / "c.cfg").write_text("f_base=1000\n")
        oracle = OracleBackend(name, NonidealityConfig(f_base=1000))
        code, out, _ = _run(capsys, "decide", "--oracle", name,
                            "--config", str(tmp_path / "c.cfg"), text)
        assert out == decision_record(oracle.decision(inst), inst, oracle.digest, 0)
        assert oracle.fspec.cutoff_f0 == 500.0


def test_calibrate_refuses_mixed_sizes(tmp_path, capsys, monkeypatch):
    from cospart import calibration, pipeline

    def never(*args, **kwargs):
        raise AssertionError("calibrate simulated mixed-size training sets")

    monkeypatch.setattr(calibration, "run_cascade", never)
    monkeypatch.setattr(pipeline, "run_cascade", never)
    code, out, err = _calibrate(capsys, tmp_path, ["3 2 5"], ["3 6 4", "1 2"])
    assert code == 2 and out == ""
    assert err == ("error: training instances have [2, 3] values; Z compensation is "
                   "per stage, so calibrate one size at a time\n")
    assert not (tmp_path / "cal").exists()


# a NO instance with balanced runs of consecutive values: 185 - 206 - 188 - 176 + 225 + 160 = 0
_UNSAFE_NO = "47 204 164 6 185 206 188 176 225 160"


def test_calibrate_measures_offsets_on_a_safe_instance(tmp_path, capsys):
    yes = ["1 1 2 2 3 3 4 4 5 5", "2 1 1 3 5 4 6 6 7 9"]
    code, out, _ = _calibrate(capsys, tmp_path, yes,
                              [_UNSAFE_NO, "1 2 4 8 16 32 64 128 256 1024"],
                              "bandwidth_f_star=1e9\n")
    assert code == 0
    assert "offset_instance=1 2 4 8 16 32 64 128 256 1024\n" in out

    (tmp_path / "unsafe").mkdir()
    code, out, err = _calibrate(capsys, tmp_path / "unsafe", yes, [_UNSAFE_NO],
                                "bandwidth_f_star=1e9\n")
    assert code == 2 and out == ""
    assert err == (f"error: no NO training instance to measure offsets on: {_UNSAFE_NO} "
                   "has the balanced run 6 185 206 188 176 225 160\n")


_BASE_ARGV = {"gen": ["gen", "--n", "3"], "sat": ["sat", "f.cnf"],
              "spectrum": ["spectrum", "3 2 5"], "netlist": ["netlist", "3 2 5"]}


@pytest.mark.parametrize("command, flag", [
    *[("gen", flag) for flag in ("--config=x.cfg", "--filter=one-pole", "--f0=1", "--jobs=2",
                                 "--strict")],
    *[(command, "--jobs=2") for command in ("sat", "spectrum", "netlist")],
    *[(command, "--strict") for command in ("spectrum", "netlist")],
])
def test_commands_refuse_flags_they_do_not_read(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(_BASE_ARGV[command] + [flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}\n" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["decide", "--batch"], ["spectrum"], ["netlist"]])
def test_empty_instance_file_is_refused(tmp_path, capsys, command):
    empty = tmp_path / "none.txt"
    empty.write_text("# no instances, only comments\n")
    code, out, err = _run(capsys, *command, str(empty))
    assert (code, out) == (2, "")
    assert err == f"error: no instance in {empty}\n"


def _hashes(text):
    """Every ``config_hash=`` value in ``text``, in order."""
    return re.findall(r"config_hash=(\S+)", text)


def test_calibration_header_names_its_chain(tmp_path, capsys):
    code, out, _ = _calibrate(capsys, tmp_path, ["1 1", "2 2"], ["1 2", "1 3"], _GAIN_CHAIN)
    assert code == 0
    chain = re.search(r"^chain=(\S+)$", out, re.M).group(1)
    assert _hashes((tmp_path / "cal" / "calibration.txt").read_text()) == [chain]
    assert _hashes((tmp_path / "cal" / "calibrate.record").read_text()) == [chain]


def test_calibrated_decisions_name_the_calibrated_chain(tmp_path, capsys):
    code, out, _ = _calibrate(capsys, tmp_path, ["1 1", "2 2"], ["1 2", "1 3"], _GAIN_CHAIN)
    assert code == 0
    chain = re.search(r"^chain=(\S+)$", out, re.M).group(1)
    (tmp_path / "batch.txt").write_text("1 1\n1 2\n")
    argv = ["decide", "--oracle", "analog", "--config", str(tmp_path / "chain.cfg"),
            "--calibration", str(tmp_path / "cal" / "calibration.txt"), "--seed", "5"]
    for name, extra in [("one", ["1 1"]), ("batch", ["--batch", str(tmp_path / "batch.txt")])]:
        code, out, _ = _run(capsys, *argv, "--out", str(tmp_path / name), *extra)
        assert code == (1 if name == "one" else 0)
        lines = out.count("answer=")
        assert _hashes(out) == [chain] * lines
        # the header, then one line per decision
        assert _hashes((tmp_path / name / "decisions.txt").read_text()) == [chain] * (lines + 1)
        assert _hashes((tmp_path / name / "decide.record").read_text()) == [chain]


def test_ideal_chain_hash_ignores_the_config(tmp_path, capsys):
    cfg = tmp_path / "chain.cfg"
    cfg.write_text(_GAIN_CHAIN)
    seen = set()
    for config in ([], ["--config", str(cfg)]):
        _, out, _ = _run(capsys, "decide", "--oracle", "analog-ideal", *config, "1 1")
        seen.update(_hashes(out))
        _, out, _ = _run(capsys, "spectrum", "--simulate", *config, "1 1")
        seen.update(_hashes(out))
    assert len(seen) == 1
    _, out, _ = _run(capsys, "decide", "--oracle", "analog", "--config", str(cfg), "1 1")
    assert _hashes(out) and seen.isdisjoint(_hashes(out))


@pytest.mark.parametrize("argv", [
    ["decide", "--oracle", "analog-ideal", "3 2 5"],
    ["decide", "--batch", "{batch}"],
    ["spectrum", "--simulate", "2 3"],
    ["calibrate", "--yes", "{yes}", "--no", "{no}"],
    ["sat", "{cnf}"],
    ["netlist", "3 6 4"],
    ["gen", "--n", "3", "--seed", "4"],
], ids=["decide", "decide-batch", "spectrum", "calibrate", "sat", "netlist", "gen"])
def test_every_out_run_records_what_it_wrote(tmp_path, capsys, argv):
    inputs = {"batch": "3 2 5\n3 6 4\n", "yes": "1 1\n2 2\n", "no": "1 2\n1 3\n",
              "cnf": "p cnf 2 1\n1 -2 0\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(**{name: tmp_path / name for name in inputs}) for a in argv]
    out = tmp_path / "out"
    code, _, _ = _run(capsys, *argv, "--out", str(out))
    assert code in (0, 1)
    record = dict(line.split("=", 1)
                  for line in (out / f"{argv[0]}.record").read_text().splitlines())
    written = sorted(p.name for p in out.iterdir() if p.suffix != ".record")
    assert record["outputs"].split(",") == written
    assert record["command"] == "cospart " + " ".join(argv + ["--out", str(out)])
    for name in written:
        assert _hashes((out / name).read_text())[0] == record["config_hash"]


def test_calibrated_batch_hashes_its_chain_once(tmp_path, capsys, monkeypatch):
    from cospart import calibration
    from cospart.pipeline import NonidealityConfig
    from cospart.reductions import OracleBackend
    calls = []
    real = calibration.config_to_text
    monkeypatch.setattr(calibration, "config_to_text", lambda cfg: calls.append(cfg) or real(cfg))
    # an amplifier offset no other test uses, so no digest of this chain is memoised yet
    (tmp_path / "chain.cfg").write_text("amp_offset=1.23456789e-4\n")
    chain = OracleBackend("analog", NonidealityConfig(amp_offset=1.23456789e-4)).digest
    (tmp_path / "cal.txt").write_text("cut=0.03\nno_band_max=1e-3\nyes_band_min=0.06\n"
                                      f"training_size=2\nseparable=1\nchain={chain}\n")
    (tmp_path / "batch.txt").write_text("3 2 5\n3 6 4\n" * 10)
    code, out, _ = _run(capsys, "decide", "--oracle", "analog", "--config",
                        str(tmp_path / "chain.cfg"), "--calibration", str(tmp_path / "cal.txt"),
                        "--batch", str(tmp_path / "batch.txt"))
    # twenty sub-seeds, one chain: the digest above is the only one computed
    assert code == 0 and _hashes(out) == [chain] * 20
    assert out.count("answer=YES") == out.count("answer=NO") == 10
    assert len(calls) == 1


def test_config_file_reads_an_integral_float_as_its_int(tmp_path, capsys):
    outs = []
    for oversample in ("16", "16.0"):
        (tmp_path / "chain.cfg").write_text(f"oversample={oversample}\namp_offset=1e-3\n")
        code, out, err = _run(capsys, "decide", "--oracle", "analog", "--config",
                              str(tmp_path / "chain.cfg"), "3 2 5")
        assert (code, err) == (1, "")
        outs.append(out)
    assert outs[0] == outs[1]
    (tmp_path / "chain.cfg").write_text("oversample=16.5\n")
    code, out, err = _run(capsys, "decide", "--oracle", "analog", "--config",
                          str(tmp_path / "chain.cfg"), "3 2 5")
    assert (code, out) == (2, "")
    assert err == "error: oversample must be an integer, got 16.5\n"
