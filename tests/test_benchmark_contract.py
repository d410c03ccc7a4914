"""The benchmark under ``perfbench/`` drives cospart by name.

Its tracer patches functions and one method named by strings, and its
workloads type command lines.  These tests fail when a rename or a flag
change in cospart would break a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import cospart.cli
from cospart import reductions
from cospart.instances import parse_instance

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """Import ``perfbench/<name>.py`` by path, registered for the length of the test."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_traced_name(monkeypatch):
    tracer = _load(monkeypatch, "tracer").Tracer()
    decide = reductions.OracleBackend.decide
    try:
        tracer.install()
        assert reductions.OracleBackend(kind="exact-dp").decide(parse_instance("3 2 5"))
    finally:
        tracer.uninstall()
    assert reductions.OracleBackend.decide is decide
    assert {"reductions.oracle_call", "exact.solve_exact"} <= {s.name for s in tracer.spans}


def _oracle_calls(monkeypatch, argv):
    """Exit code of ``cospart argv`` under the tracer, and its ``reductions.oracle_call`` spans."""
    tracer = _load(monkeypatch, "tracer").Tracer()
    try:
        tracer.install()
        code = cospart.cli.main(argv)
    finally:
        tracer.uninstall()
    return code, sum(s.name == "reductions.oracle_call" for s in tracer.spans)


@pytest.mark.parametrize("name", reductions.ORACLES)
def test_an_oracle_call_is_a_sat_call(monkeypatch, capsys, tmp_path, name):
    # `decide` opens none, so `analog-calibrated` and `exact-reference` read 0 per op;
    # `exact-bf`'s decision runs no traced name at all, so the `sat` run below is what
    # shows that the tracer bound `OracleBackend.decide`
    assert _oracle_calls(monkeypatch, ["decide", "--oracle", name, "3 2 5"]) == (1, 0)
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 0\n")
    code, calls = _oracle_calls(monkeypatch, ["sat", "--backend", name, str(cnf)])
    assert code == 1 and 1 <= calls <= 3  # at most 1 + num_vars


def test_each_stage_is_one_multiply_stage_span_in_run_cascade(monkeypatch, capsys, tmp_path):
    # the tracer's span stack is not thread-safe: `run_cascade` runs on the
    # caller's thread and opens one span per stage
    tracer = _load(monkeypatch, "tracer").Tracer()
    # frequency errors take the chain off its harmonics, so the decision runs the grid
    (tmp_path / "chain.cfg").write_text("freq_error_sigma=1e-6\n")
    try:
        tracer.install()
        assert cospart.cli.main(["decide", "--oracle", "analog", "--config",
                                 str(tmp_path / "chain.cfg"), "1 2 3 4 5 6 7 8 9 10"]) == 0
    finally:
        tracer.uninstall()
    cascades = [i for i, s in enumerate(tracer.spans) if s.name == "pipeline.run_cascade"]
    stages = [s for s in tracer.spans if s.name == "pipeline.multiply_stage"]
    assert len(cascades) == 1 and len(stages) == 9
    assert all(s.parent == cascades[0] for s in stages)
    assert not any(s.name == "pipeline.synthesize_sources" for s in tracer.spans)


def test_workload_command_lines_parse(monkeypatch, tmp_path):
    _load(monkeypatch, "reference")
    workloads = _load(monkeypatch, "workloads")
    parser = cospart.cli.build_parser()
    for name, cls in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        workload = cls(2, tmp_path / name, round_size=4)
        argvs = [op.argv for op in workload.ops]
        if workload.setup_argv is not None:
            argvs.append(workload.setup_argv)
        for argv in argvs:
            assert parser.parse_args(list(argv)).command == argv[0]
