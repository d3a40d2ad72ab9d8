"""End-to-end exercises of the command-line surface.

Everything runs through main() in-process.  The reports are JSON on
stdout unless --out or --format text says otherwise; bytes must not
depend on the worker count, and every exit code has a driver here.
"""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import bmcubic.cli as cli_module
from bmcubic.azumaya import (
    ChartDisagreement,
    NoEvaluableChart,
    cassels_guy_class,
)
from bmcubic.chartio import (
    chart_payload,
    class_for,
    class_from_payload,
    dump_charts,
    load_charts,
)
from bmcubic.cli import main


REPORTS = Path(__file__).parent / "data" / "reports"


def golden(name):
    """The stored report of a run: bytes of a fixed input never change
    unless a change to the program says why."""
    return (REPORTS / f"{name}.json").read_bytes()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_doc(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


# -------------------------------------------------------------------- happy paths

def test_h1_flagship_document(capsys):
    code, doc = run_doc(capsys, "h1", "-c", "5,9,10,12")
    assert code == 0
    assert doc["tool"] == "bmcubic" and doc["schema"] == 1
    assert doc["command"] == "h1"
    assert doc["timing"] is None
    result = doc["result"]
    assert result["h1_picard"] == result["h1_table"] == "Z/3"
    assert result["agreement"] == "AGREE"


def test_h1_text_format(capsys):
    code, out, _ = run(capsys, "h1", "-c", "1,1,1,2", "--format", "text")
    assert code == 0
    assert "Z/3 + Z/3" in out and "AGREE" in out


def test_lines_document(capsys):
    code, doc = run_doc(capsys, "lines", "-c", "5,9,10,12")
    assert code == 0
    result = doc["result"]
    assert result["lines"] == 27 and result["meets_per_line"] == 10
    assert len(result["labels"]) == 27 and "P1(0,0)" in result["labels"]
    assert result["galois"] == {"order": 27, "orbits": 3,
                                "orbit_sizes": [9, 9, 9]}
    assert all(sum(row) == 10 for row in result["incidence"])


def test_lines_without_coefficients(capsys):
    code, doc = run_doc(capsys, "lines")
    assert code == 0
    assert doc["result"]["galois"] is None


def test_scan_small_box(capsys):
    code, doc = run_doc(capsys, "scan", "--range", "1..2")
    assert code == 0
    result = doc["result"]
    assert result["tuples"] == 16 and result["agree"] == 16
    assert result["disagreements"] == []
    assert sum(result["histogram"].values()) == 16


def test_local_builtin_charts(capsys):
    code, doc = run_doc(capsys, "local", "-c", "5,9,10,12", "--place", "2")
    assert code == 0
    result = doc["result"]
    assert result["charts"] == "builtin"
    (row,) = result["places"]
    assert row["solvable"] and row["stable"]
    assert row["attained"] == ["0"]
    assert row["point_classes"] == 3145728 and row["precision"] == 5


def test_local_split_shortcut(capsys):
    code, doc = run_doc(capsys, "local", "-c", "5,9,10,12", "--place", "5")
    assert code == 0
    (row,) = doc["result"]["places"]
    assert row["attained"] == ["0"] and row["precision"] == 0


def test_local_trivial_h1_reports_solvability(capsys):
    code, doc = run_doc(capsys, "local", "-c", "1,1,1,1", "--place", "3")
    assert code == 0
    result = doc["result"]
    assert result["h1"] == "0" and result["charts"] == "unavailable"
    (row,) = result["places"]
    assert row["solvable"] and row["attained"] is None


def test_obstruct_trivial_h1(capsys):
    code, doc = run_doc(capsys, "obstruct", "-c", "1,1,1,1")
    assert code == 0
    result = doc["result"]
    assert result["verdict"] == "H1_TRIVIAL"
    assert result["sumset"] == ["0"]


def test_obstruct_not_locally_solvable(capsys):
    code, doc = run_doc(capsys, "obstruct", "-c", "1,2,7,14")
    assert code == 0
    result = doc["result"]
    assert result["verdict"] == "NOT_LOCALLY_SOLVABLE"
    assert result["sumset"] == []
    assert any(not row["solvable"] for row in result["places"])


def test_verify_paper_quick(capsys):
    code, doc = run_doc(capsys, "verify-paper", "--quick")
    assert code == 0
    result = doc["result"]
    assert result["failed"] == 0 and result["passed"] == len(result["checks"])
    names = [row["name"] for row in result["checks"]]
    assert "norm-sqrt-minus-3" in names and "calibration-theta" in names
    # the full-enumeration checks only run without --quick
    assert "six-residues" not in names and "hasse-verdict" not in names


def test_verify_paper_text_lines(capsys):
    code, out, _ = run(capsys, "verify-paper", "--quick", "--format", "text")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("0 failed")


def test_out_writes_the_report_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "h1", "-c", "5,9,10,12", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["agreement"] == "AGREE"


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
    assert main(["h1", "--help"]) == 0


GOLDEN_RUNS = {
    "h1-5-9-10-12": ["h1", "-c", "5,9,10,12"],
    "h1-1-1-1-2": ["h1", "-c", "1,1,1,2"],
    "lines-5-9-10-12": ["lines", "-c", "5,9,10,12"],
    "scan-1-6": ["scan", "--range", "1..6"],
    "verify-paper-quick": ["verify-paper", "--quick"],
    "obstruct-5-9-10-12": ["obstruct", "-c", "5,9,10,12"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_reports_match_the_goldens(capsys, name):
    code, out, _ = run(capsys, *GOLDEN_RUNS[name])
    assert code == 0
    assert out.encode() == golden(name)


# --------------------------------------------------------------------- exit codes

def test_invalid_inputs_exit_1(capsys):
    assert run(capsys, "h1", "-c", "0,1,1,1")[0] == 1
    assert run(capsys, "h1", "-c", "1,2,3")[0] == 1
    assert run(capsys, "h1", "-c", "a,b,c,d")[0] == 1
    assert run(capsys, "local", "-c", "1,1,1,1", "--place", "4")[0] == 1
    assert run(capsys, "scan", "--range", "6..1")[0] == 1
    assert run(capsys, "local", "-c", "1,1,1,1", "--place", "3", "--precision", "0") \
        == (1, "", "bm: error: --precision must be at least 1\n")
    for argv in (["scan", "--range", "1..1"], ["local", "-c", "1,1,1,2", "--place", "7"],
                 ["obstruct", "-c", "1,1,1,2"], ["verify-paper", "--quick"]):
        code, out, err = run(capsys, *argv, "--jobs", "0")
        assert code == 1 and out == ""
        assert err == "bm: error: --jobs must be at least 1\n"
    assert run(capsys, "local", "-c", "1,1,1,2", "--place", "7",
               "--jobs", "-2")[0] == 1
    assert main([]) == 1
    capsys.readouterr()


def test_precision_cap_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("BM_PRECISION_CAP", "3")
    code, out, err = run(capsys, "local", "-c", "5,9,10,12", "--place", "3")
    assert code == 2 and out == ""
    assert "inconclusive" in err
    code, out, err = run(capsys, "obstruct", "-c", "5,9,10,12")
    assert code == 2


def test_capped_but_complete_run_reports_partial(capsys, monkeypatch):
    # one full rung fits under the cap at the place over 2, so the report
    # is emitted with stable=false and the exit still says inconclusive
    monkeypatch.setenv("BM_PRECISION_CAP", "3")
    code, out, err = run(capsys, "local", "-c", "5,9,10,12", "--place", "2")
    assert code == 2
    (row,) = json.loads(out)["result"]["places"]
    assert row["stable"] is False and row["attained"] == ["0"]


def test_bad_precision_cap_exit_1(capsys, monkeypatch):
    monkeypatch.setenv("BM_PRECISION_CAP", "many")
    assert run(capsys, "h1", "-c", "1,1,1,1")[0] == 1
    monkeypatch.setenv("BM_PRECISION_CAP", "0")
    assert run(capsys, "h1", "-c", "1,1,1,1")[0] == 1


def test_missing_charts_exit_3(capsys):
    code, doc = run_doc(capsys, "obstruct", "-c", "2,3,5,7")
    assert code == 3
    result = doc["result"]
    assert result["h1"] == "Z/3" and result["verdict"] is None
    assert "chart file" in result["note"]
    code, doc = run_doc(capsys, "local", "-c", "2,3,5,7", "--place", "3")
    assert code == 3
    assert doc["result"]["places"][0]["attained"] is None


def test_large_inert_prime_answers_within_a_memory_limit():
    # solvability at the place over 29 is a rule on the coefficients; a
    # residue table there would have 29^6 entries per array, gigabytes
    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "bmcubic", "obstruct", "-c", "1,1,1,29"],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=limit_address_space)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["result"]["h1"] != "0"


# ------------------------------------------------------------------- determinism

def test_reports_ignore_worker_count(tmp_path, capsys):
    outs = []
    for jobs in ("1", "2"):
        target = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run(capsys, "local", "-c", "5,9,10,12", "--place", "2",
                         "--jobs", jobs, "--out", str(target))
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1] == golden("local-5-9-10-12-place-2")


def test_reports_over_3_ignore_worker_count(tmp_path, capsys):
    # the whole ladder over 3, up to pi^9, in Hensel balls split by workers
    outs = []
    for jobs in ("1", "2"):
        target = tmp_path / f"jobs{jobs}.json"
        code, _, _ = run(capsys, "local", "-c", "5,9,10,12", "--place", "3",
                         "--jobs", jobs, "--out", str(target))
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1] == golden("local-5-9-10-12-place-3")
    place = json.loads(outs[0])["result"]["places"][0]
    assert place["point_classes"] == 3 ** 20 and place["precision"] == 9


def test_scan_reports_ignore_worker_count(tmp_path, capsys):
    outs = []
    for jobs in ("1", "2"):
        target = tmp_path / f"scan{jobs}.json"
        code, _, _ = run(capsys, "scan", "--range", "1..2", "--jobs", jobs,
                         "--out", str(target))
        assert code == 0
        outs.append(target.read_bytes())
    assert outs[0] == outs[1] == golden("scan-1-2")


def test_timing_flag_adds_the_only_nondeterminism(capsys):
    code, doc = run_doc(capsys, "h1", "-c", "1,1,1,1", "--timing")
    assert code == 0
    assert isinstance(doc["timing"]["seconds"], float)


# -------------------------------------------------------------------- chart files

def test_chart_file_round_trip(tmp_path):
    cls = cassels_guy_class()
    path = tmp_path / "charts.json"
    dump_charts(cls, path)
    assert load_charts(path) == cls
    assert class_from_payload(chart_payload(cls)) == cls
    assert class_for((5, 9, 10, 12)) == cls
    assert class_for((2, 3, 5, 7), path) == cls


def test_chart_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ValueError):
        load_charts(bad)
    bad.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(ValueError):
        load_charts(bad)
    payload = chart_payload(cassels_guy_class())
    payload["charts"][0]["numerator"][0]["monomial"] = [1, 1, 1, 1]
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_charts(bad)
    payload = chart_payload(cassels_guy_class())
    payload["theta"] = ["0", "0"]
    bad.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_charts(bad)


def test_shipped_sample_chart_file_matches_builtin():
    sample = Path(__file__).parent / "data" / "cassels_guy_charts.json"
    assert load_charts(sample) == cassels_guy_class()


def test_cli_accepts_a_chart_file(tmp_path, capsys):
    path = tmp_path / "charts.json"
    dump_charts(cassels_guy_class(), path)
    code, doc = run_doc(capsys, "local", "-c", "5,9,10,12", "--place", "2",
                        "--charts", str(path))
    assert code == 0
    assert doc["result"]["charts"] == "file"
    assert doc["result"]["places"][0]["attained"] == ["0"]


def _mutated_charts(tmp_path, mutate):
    payload = chart_payload(cassels_guy_class())
    mutate(payload)
    path = tmp_path / "charts.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_disagreeing_chart_file_exits_1_with_one_line(tmp_path, capsys):
    # with theta = 7 the flagship's numerators represent no class; the
    # first disagreeing ball of the walk over 3 names the point
    path = _mutated_charts(
        tmp_path, lambda doc: doc.__setitem__("theta", ["7", "0"]))
    assert run(capsys, "obstruct", "-c", "5,9,10,12", "--charts", path) == (
        1, "", "bm: error: charts disagree at ((1, 0), (0, 0), (1, 0), (1, 1)) "
               "(place(3,ramified,pi=1 + 2*zeta))\n")


@pytest.mark.parametrize("error", [ChartDisagreement, NoEvaluableChart])
def test_chart_errors_are_input_errors_only_from_chart_files(
        tmp_path, capsys, monkeypatch, error):
    message = "point ((1, 0), (0, 0), (0, 0), (2, 0)) at place(2,inert,pi=2)"

    def fail(*args, **kwargs):
        raise error(message)

    monkeypatch.setattr(cli_module, "obstruction_verdict", fail)
    path = tmp_path / "charts.json"
    dump_charts(cassels_guy_class(), path)
    assert run(capsys, "obstruct", "-c", "5,9,10,12", "--charts", str(path)) \
        == (1, "", f"bm: error: {message}\n")
    # the built-in class failing so is a bug, not an input error
    with pytest.raises(error):
        main(["obstruct", "-c", "5,9,10,12"])


def _set_chart_field(chart, field, value):
    def mutate(doc):
        doc["charts"][chart][field] = value
    return mutate


def _set_numerator_field(field, value):
    def mutate(doc):
        doc["charts"][2]["numerator"][0][field] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_set_chart_field(0, "denominator", "0"),
     "chart 0: denominator: expected an integer 0-3, got '0'"),
    (_set_chart_field(0, "denominator", True),
     "chart 0: denominator: expected an integer 0-3, got True"),
    (_set_chart_field(1, "constant", [1.5, "0"]),
     "chart 1: constant: expected a pair of rational strings, got [1.5, '0']"),
    (_set_numerator_field("coefficient", [3, "0"]),
     "chart 2: numerator term 0 coefficient: expected a pair of rational "
     "strings, got [3, '0']"),
    (_set_numerator_field("monomial", ["0", 0, 0, 3]),
     "chart 2: numerator term 0 monomial: expected an integer 0-3, got '0'"),
])
def test_chart_file_json_types_are_exact(tmp_path, capsys, mutate, message):
    path = _mutated_charts(tmp_path, mutate)
    assert run(capsys, "obstruct", "-c", "5,9,10,12", "--charts", path) \
        == (1, "", f"bm: error: {message}\n")
