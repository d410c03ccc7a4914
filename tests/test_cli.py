import pytest

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


def test_decide_rejects_malformed_calibration(tmp_path, capsys):
    cal = tmp_path / "cal.txt"
    cal.write_text("cut=0.1\nno_band_max=0\nyes_band_min=0.2\ntraining_size=2\n"
                   "separable=1\nnot a key value line\n")
    code, _, err = _run(capsys, "decide", "--oracle", "exact", "--calibration", str(cal),
                        "3 2 5")
    assert code == 2
    assert "bad config line" in err


def test_decide_errors_on_garbage(capsys):
    code, _, err = _run(capsys, "decide", "--oracle", "exact", "3 x 5")
    assert code >= 2
    assert "error" in err


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
    code, _, _ = _run(capsys, "decide", "--oracle", "analog",
                      "--out", str(tmp_path), "3 2 5")
    assert code == 1
    assert len(calls) == 1  # trace.csv and spectrum.csv come from the decision's samples
    assert (tmp_path / "trace.csv").is_file() and (tmp_path / "spectrum.csv").is_file()


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


def test_netlist_command(tmp_path, capsys):
    code, out, _ = _run(capsys, "netlist", "--out", str(tmp_path), "3 6 4")
    assert code == 0
    text = (tmp_path / "cascade.cir").read_text()
    assert text.startswith("* command=cospart netlist")
    assert ".tran" in text


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
