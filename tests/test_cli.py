import json

import pytest

from shukla.cli import JobSpec, main, parse, parse_poly, run
from shukla.errors import ParseError


def test_parse_basic_job():
    job = parse("ring Z\nvars x\nrel x^2\nnmax 4\n")
    assert repr(job.ring) == "Z"
    assert job.variables == ("x",)
    assert job.relations == ({(2,): 1},)
    assert job.n_max == 4
    assert not job.warnings


def test_parse_constant_relation_job():
    job = parse("ring Z\nrel 5\nnmax 8\n")
    assert job.variables == ()
    assert job.relations == ({(): 5},)
    assert job.n_max == 8


def test_parse_two_variable_job():
    job = parse("ring Q\nvars x y\nrel x^2\nrel y^2\nnmax 3\n")
    assert repr(job.ring) == "Q"
    assert job.relations == ({(2, 0): 1}, {(0, 2): 1})


def test_parse_ring_variants_and_comments():
    job = parse("# comment\nring Z/4\nvars x\nrel x^2 - 2\n")
    assert repr(job.ring) == "Z/4"
    assert job.relations == ({(2,): 1, (0,): -2},)
    pres = job.presentation()
    assert pres.relations == ({(2,): 1, (0,): 2},)  # -2 normalized mod 4


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse("ring Z\nvars x\nrel x^2 + %\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse("vars x\nrel x^2\n")  # missing ring
    with pytest.raises(ParseError):
        parse("ring Z\nvars x\nrel y^2\n")  # unknown variable
    with pytest.raises(ParseError):
        parse("ring Z/1\n")


def test_parse_poly_forms():
    assert parse_poly("x^2 - 2", ["x"], 1) == {(2,): 1, (0,): -2}
    assert parse_poly("2x y^2 + 3", ["x", "y"], 1) == {(1, 2): 2, (0, 0): 3}
    assert parse_poly("x*x - x", ["x"], 1) == {(2,): 1, (1,): -1}


def test_non_quasi_monic_warning():
    job = parse("ring Z\nvars x\nrel 2x^2\n")
    assert any("NonQuasiMonic" in w for w in job.warnings)


def test_run_hh_example():
    job = parse("ring Z\nvars x\nrel x^2\nnmax 2\n")
    report, ok = run(job, "hh")
    assert ok
    assert report["hh"]["0"] == {"free_rank": 2, "torsion": []}
    assert report["hh"]["1"] == {"free_rank": 1, "torsion": [2]}
    assert report["hh"]["2"] == {"free_rank": 1, "torsion": []}


def test_run_compare_rational_dual_numbers():
    job = parse("ring Q\nvars x\nrel x^2\nnmax 3\n")
    report, ok = run(job, "compare")
    assert ok and report["all_agree"]
    assert set(report["hh"]) == {"gamma_forms", "crystalline", "oracle"}


def test_run_witness_exit_semantics():
    job = parse("ring Z/2\n")
    report, ok = run(job, "witness24 p=2")
    assert ok
    assert report["witness"] == {"cycle": True, "boundary": False,
                                 "delta_beta_is_minus_p_gamma": True}
    job_q = parse("ring Q\n")
    report, ok = run(job_q, "witness24 p=2")
    assert ok and report["p_is_unit"]
    assert report["witness"]["boundary"] is True


def test_run_unknown_command():
    job = parse("ring Z\nvars x\nrel x^2\n")
    report, ok = run(job, "frobnicate")
    assert not ok and report["error"]["type"] == "UnknownCommand"


def test_cli_deterministic_output(tmp_path, capsys):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\nnmax 2\n", encoding="utf-8")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["--input", str(src), "--cmd", "hh", "--json", str(out1)]) == 0
    assert main(["--input", str(src), "--cmd", "hh", "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_layers_and_oracle(tmp_path):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\nnmax 2\n", encoding="utf-8")
    out = tmp_path / "layers.json"
    assert main(["--input", str(src), "--cmd", "layers", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["hh"]["layers"]["1,1"] == {"free_rank": 1, "torsion": [2]}
    assert main(["--input", str(src), "--cmd", "oracle", "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["validated"] is True
    assert data["hh"]["1"] == {"free_rank": 1, "torsion": [2]}


def test_cli_compare_exit_code(tmp_path):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\nnmax 3\n", encoding="utf-8")
    assert main(["--input", str(src), "--cmd", "compare", "--json",
                 str(tmp_path / "c.json")]) == 0


def test_cli_parse_error_exit(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("ring Z\nfrob x\n", encoding="utf-8")
    assert main(["--input", str(src), "--cmd", "hh",
                 "--json", str(tmp_path / "e.json")]) == 2


def test_cli_nmax_override(tmp_path):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\n", encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["--input", str(src), "--cmd", "hh", "--nmax", "1",
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data["hh"]) == {"0", "1"}


@pytest.mark.parametrize("text, detail", [
    ("ring Z\nrel 0\n", "line 2"),
    ("ring Z\nvars x\nrel x - x\n", "line 3"),
    ("ring Z/4\nrel 4\n", "line 2"),
    ("ring Z\nring Q\n", "line 2"),
    ("ring Z\nvars x\nrel x^2\npolybound -3\n", "line 4"),
    ("ring Z\nvars x\nvars y\nrel y^2\n", "line 3"),
    ("ring Z\nvars x\nrel x^2\nnmax 2\nnmax 1\n", "line 5"),
    ("ring Z\nvars x\nrel x^2\npolybound 4\npolybound 6\n", "line 5"),
])
def test_cli_rejects_bad_input(tmp_path, text, detail):
    src = tmp_path / "bad.txt"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "e.json"
    assert main(["--input", str(src), "--cmd", "hh", "--json", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ParseError"
    assert detail in error["detail"]


def test_run_hh_large_prime_torsion():
    p = 1000000000000000003
    report, ok = run(parse(f"ring Z\nrel {p}\nnmax 1\n"), "hh")
    assert ok
    assert report["hh"]["0"]["torsion"] == [p]


@pytest.mark.parametrize("ring", ["Z", "Z/4"])
def test_cli_hc_matches_layers_totals(ring):
    job = parse(f"ring {ring}\nvars x\nrel x^2\nnmax 3\n")
    hc, ok = run(job, "hc")
    layers, ok_layers = run(job, "layers")
    assert ok and ok_layers
    assert hc["hc"] == layers["hc"]["total"]
