import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shukla.cli import JobSpec, main, parse, parse_poly, run
from shukla.errors import ParseError


def test_parse_basic_job():
    job = parse("ring Z\nvars x\nrel x^2\nnmax 4\n")
    assert repr(job.presentation.ring) == "Z"
    assert job.presentation.variables == ("x",)
    assert job.presentation.relations == ({(2,): 1},)
    assert job.n_max == 4
    assert not job.warnings


def test_parse_constant_relation_job():
    job = parse("ring Z\nrel 5\nnmax 8\n")
    assert job.presentation.variables == ()
    assert job.presentation.relations == ({(): 5},)
    assert job.n_max == 8


def test_parse_two_variable_job():
    job = parse("ring Q\nvars x y\nrel x^2\nrel y^2\nnmax 3\n")
    assert repr(job.presentation.ring) == "Q"
    assert job.presentation.relations == ({(2, 0): 1}, {(0, 2): 1})


def test_parse_ring_variants_and_comments():
    job = parse("# comment\nring Z/4\nvars x\nrel x^2 - 2\n")
    assert repr(job.presentation.ring) == "Z/4"
    assert job.presentation.relations == ({(2,): 1, (0,): 2},)  # -2 normalized mod 4


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
    # consecutive signs compose
    assert parse_poly("x^2 - -3", ["x"], 1) == {(2,): 1, (0,): 3}
    assert parse_poly("-x + -2 - +1", ["x"], 1) == {(1,): -1, (0,): -3}


@pytest.mark.parametrize("rel", ["x^2 +", "x^2 - -", "-"])
def test_trailing_sign_is_a_parse_error(tmp_path, rel):
    with pytest.raises(ParseError, match="dangling sign"):
        parse_poly(rel, ["x"], 1)
    src = tmp_path / "job.txt"
    src.write_text(f"ring Z\nvars x\nrel {rel}\n", encoding="utf-8")
    out = tmp_path / "e.json"
    assert main(["--input", str(src), "--cmd", "hh", "--json", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ParseError"
    assert "dangling sign" in error["detail"]


@pytest.mark.parametrize("rel", ["x^2 * -3", "x^2*", "*x^2", "2 * * x"])
def test_star_without_factors_is_a_parse_error(rel):
    with pytest.raises(ParseError, match="factor on each side"):
        parse_poly(rel, ["x"], 1)


def test_non_quasi_monic_warning():
    job = parse("ring Z\nvars x\nrel 2x^2\n")
    assert any("NonQuasiMonic" in w for w in job.warnings)


def test_zero_algebra_runs_every_pipeline_without_warning():
    # 2x + 1 is a unit of Z/4[x], so A = 0 and the oracle and crystalline
    # pipelines run; the same relation over Z/6 leaves a nonzero A
    job = parse("ring Z/4\nvars x\nrel 2*x+1\nnmax 2\n")
    assert not job.warnings
    report, ok = run(job, "compare")
    assert ok and "warnings" not in report
    assert sorted(report["hh"]) == ["crystalline", "gamma_forms", "oracle"]
    job = parse("ring Z/6\nvars x\nrel 2*x+1\nnmax 2\n")
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


# witness24 for p = 2..12 in one child process; the witness builds one
# block on the start of the model of k, so its cost grows only with p
WITNESS_SCAN = """\
import json
from shukla.cli import parse, run
for ring in ("Z", "Z/4", "Z/6", "Q"):
    for p in range(2, 13):
        report, ok = run(parse(f"ring {ring}\\n"), f"witness24 p={p}")
        print(json.dumps([ring, p, report["p_is_unit"], ok]), flush=True)
"""


def test_witness_p_scan_ends_with_the_unit_verdicts():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", WITNESS_SCAN],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(ring, p) for ring, p, _, _ in rows] == [
        (ring, p) for ring in ("Z", "Z/4", "Z/6", "Q") for p in range(2, 13)]
    for ring, p, unit, ok in rows:
        assert unit == parse(f"ring {ring}\n").presentation.ring.is_unit(p), (ring, p)
        assert ok, (ring, p)


@pytest.mark.parametrize("command, window", [
    ("hh", "nmax 100000000000000000000\n"),
    ("hh", "nmax 2\npolybound 99999999\n"),
    ("oracle", "nmax 100000000000000000000\n"),
])
def test_huge_window_is_a_typed_error(command, window):
    # the hh inputs once ran without end in the slice enumeration; a
    # child process turns a regression into a timeout
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-m", "shukla.cli", "--cmd", command],
                          input="ring Z\nvars x\nrel x^2\n" + window,
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["type"] == "WindowTooLarge"


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


def test_readme_hh_example_runs_from_stdin(monkeypatch, capsys):
    """The README's `printf ... | shukla --cmd hh` example, run as written:
    HH_0 = Z^2, HH_1 = Z + C2 and HH_2 = Z of Z[x]/(x^2), each group
    shown in the README's output."""
    import re
    from pathlib import Path
    path = Path(__file__).resolve().parents[1] / "README.md"
    readme = path.read_text(encoding="utf-8")
    example = re.search(r"^\$ printf '([^']*)' \| shukla (--cmd hh)\n(.*?)^```",
                        readme, re.M | re.S)
    assert example, "README.md has no printf ... | shukla --cmd hh example"
    text, shown = example.group(1).replace("\\n", "\n"), example.group(3)
    assert text == "ring Z\nvars x\nrel x^2\nnmax 2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(example.group(2).split()) == 0
    hh = json.loads(capsys.readouterr().out)["hh"]
    assert hh == {"0": {"free_rank": 2, "torsion": []},
                  "1": {"free_rank": 1, "torsion": [2]},
                  "2": {"free_rank": 1, "torsion": []}}
    for n, group in hh.items():
        assert f'"{n}": {json.dumps(group)}' in shown


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


def test_cli_compare_single_pipeline_fails(tmp_path):
    # xy is no pure power: only the forms pipeline runs, and one
    # pipeline agreeing with itself is no verdict
    src = tmp_path / "job.txt"
    src.write_text("ring Q\nvars x y\nrel x^2\nrel x*y\nrel y^2\nnmax 1\n",
                   encoding="utf-8")
    out = tmp_path / "c.json"
    assert main(["--input", str(src), "--cmd", "compare", "--json", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["pipelines"] == 1 and "all_agree" not in data
    assert "agree" not in data
    assert list(data["hh"]) == ["gamma_forms"]


def test_cli_compare_crystalline_layer_sums_compare_full_groups(tmp_path, monkeypatch):
    # forms HC_3 of Z[x]/(x^3 - x) is C2^2; a crystalline total of C4 has
    # the same free rank and torsion order and still disagrees
    import shukla.cli
    from shukla.linalg import HomologyGroup
    real = shukla.cli.hc_layers_small

    def c4_in_degree_3(pres, n_max):
        groups = real(pres, n_max)
        assert groups.total[3] == HomologyGroup.from_factors(0, [2, 2])
        groups.total[3] = HomologyGroup.from_factors(0, [4])
        return groups

    monkeypatch.setattr(shukla.cli, "hc_layers_small", c4_in_degree_3)
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^3-x\nnmax 3\n", encoding="utf-8")
    out = tmp_path / "c.json"
    assert main(["--input", str(src), "--cmd", "compare", "--json", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["all_agree"] is False
    assert data["agree"]["hc_crystalline_layer_sums"] == {
        "0": True, "1": True, "2": True, "3": False}
    assert all(data["agree"]["hc"].values())


def test_cli_parse_error_exit(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("ring Z\nfrob x\n", encoding="utf-8")
    assert main(["--input", str(src), "--cmd", "hh",
                 "--json", str(tmp_path / "e.json")]) == 2


@pytest.mark.parametrize("name, data", [
    ("missing.txt", None),
    ("binary.txt", b"ring Z\nvars x\nrel x^2\xff\n"),
], ids=["missing", "not_utf8"])
def test_cli_unreadable_input_is_a_parse_error(tmp_path, name, data):
    src = tmp_path / name
    if data is not None:
        src.write_bytes(data)
    out = tmp_path / "e.json"
    assert main(["--input", str(src), "--cmd", "hh", "--json", str(out)]) == 2
    assert json.loads(out.read_text())["error"]["type"] == "ParseError"


@pytest.mark.parametrize("out", ["missing_dir/out.json", "."],
                         ids=["missing_dir", "directory"])
def test_cli_unwritable_report_path_is_a_parse_error(tmp_path, capsys, out):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\nnmax 2\n", encoding="utf-8")
    assert main(["--input", str(src), "--cmd", "hh",
                 "--json", str(tmp_path / out)]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParseError"


def test_cli_report_may_replace_its_own_input(tmp_path):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\nnmax 2\n", encoding="utf-8")
    assert main(["--input", str(src), "--cmd", "hh", "--json", str(src)]) == 0
    assert set(json.loads(src.read_text())["hh"]) == {"0", "1", "2"}


def test_cli_nmax_override(tmp_path):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\n", encoding="utf-8")
    out = tmp_path / "o.json"
    assert main(["--input", str(src), "--cmd", "hh", "--nmax", "1",
                 "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data["hh"]) == {"0", "1"}



def test_cli_rejects_negative_nmax_override(tmp_path):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\nvars x\nrel x^2\n", encoding="utf-8")
    out = tmp_path / "e.json"
    assert main(["--input", str(src), "--cmd", "hh", "--nmax", "-1",
                 "--json", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ParseError"
    assert "nmax" in error["detail"]


@pytest.mark.parametrize("cmd, detail", [
    ("witness24 p=abc", "'p=abc'"),
    ("witness24 p=1", "p >= 2"),
    ("witness24 q=7", "'q=7'"),
    ("witness24 p=3 p=5", "second 'p=5'"),
])
def test_cli_witness_rejects_bad_p(tmp_path, cmd, detail):
    src = tmp_path / "job.txt"
    src.write_text("ring Z\n", encoding="utf-8")
    out = tmp_path / "e.json"
    assert main(["--input", str(src), "--cmd", cmd, "--json", str(out)]) != 0
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ParseError"
    assert detail in error["detail"]

@pytest.mark.parametrize("text, detail", [
    ("ring Z\nrel 0\n", "line 2"),
    ("ring Z\nvars x\nrel x - x\n", "line 3"),
    ("ring Z/4\nrel 4\n", "line 2"),
    ("ring Z\nring Q\n", "line 2"),
    ("ring Z\nvars x\nrel x^2\npolybound -3\n", "line 4"),
    ("ring Z\nvars x\nvars y\nrel y^2\n", "line 3"),
    ("ring Z\nvars x\nrel x^2\nnmax 2\nnmax 1\n", "line 5"),
    ("ring Z\nvars x\nrel x^2\npolybound 4\npolybound 6\n", "line 5"),
    ("ring Z\nvars x\nrel x^2\npolybound 0\nnmax 2\n", "line 4"),
    ("ring Z\nvars x y\npolybound 2\nrel x^2\nrel x*y^2 - y\n", "line 3"),
    # a superscript digit passes str.isdigit but is no integer literal
    ("ring Z\nvars x\nrel x^\u00b2\n", "unexpected character"),
])
def test_cli_rejects_bad_input(tmp_path, text, detail):
    src = tmp_path / "bad.txt"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "e.json"
    assert main(["--input", str(src), "--cmd", "hh", "--json", str(out)]) == 2
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ParseError"
    assert detail in error["detail"]


@pytest.mark.parametrize("variables", ["x dx", "dx x", "dx ddx", "x dx _dx"])
@pytest.mark.parametrize("command", ["hh", "hc", "layers", "compare"])
def test_variable_named_like_a_d_generator(variables, command):
    # a d-generator whose name a variable already has is renamed, so the
    # groups are those of the same presentation in plain variable names
    def job(names):
        rels = "".join(f"rel {v}^2\n" for v in names)
        return f"ring Z\nvars {' '.join(names)}\n{rels}nmax 2\n"
    names = variables.split()
    report, ok = run(parse(job(names)), command)
    plain, plain_ok = run(parse(job("xyz"[:len(names)])), command)
    assert ok and plain_ok
    assert report.pop("vars") == names
    plain.pop("vars")
    assert report == plain


def test_run_hh_large_prime_torsion():
    p = 1000000000000000003
    report, ok = run(parse(f"ring Z\nrel {p}\nnmax 1\n"), "hh")
    assert ok
    assert report["hh"]["0"]["torsion"] == [p]


@pytest.mark.parametrize("ring", ["Z", "Z/4", "Q"])
def test_cli_hc_matches_layers_totals(ring):
    job = parse(f"ring {ring}\nvars x\nrel x^2\nnmax 3\n")
    hc, ok = run(job, "hc")
    layers, ok_layers = run(job, "layers")
    assert ok and ok_layers
    assert hc["hc"] == layers["hc"]["total"]
    if ring == "Q":
        for mode in ("hh", "hc"):
            for key, g in layers[mode]["layers"].items():
                assert g["torsion"] == [], (mode, key)


def test_cli_selftest_passes_for_two_seeds(monkeypatch, capsys):
    contraction_cases = set()
    for seed in ("0", "1"):
        monkeypatch.setattr("sys.stdin", io.StringIO("ring Z\n"))
        assert main(["--cmd", "selftest", "--seed", seed]) == 0
        results = json.loads(capsys.readouterr().out)["selftest"]
        assert results["snf"] == {"cases": 100, "failures": 0}
        assert results["contraction"]["failures"] == 0
        assert results["validate_fixture"] == {"bar": True, "gamma_forms": True}
        contraction_cases.add(results["contraction"]["cases"])
    assert len(contraction_cases) == 2


@pytest.fixture
def checks(monkeypatch):
    """The legs [(first, second), ...] of every composite_is_zero call, in
    call order; the list keeps the blocks alive, so their ids stay
    distinct."""
    import shukla.linalg as linalg
    import shukla.mixed as mixed
    seen = []
    check = linalg.composite_is_zero

    def spy(legs, ring):
        seen.append(list(legs))
        return check(legs, ring)
    monkeypatch.setattr(linalg, "composite_is_zero", spy)
    monkeypatch.setattr(mixed, "composite_is_zero", spy)
    return seen


def test_oracle_multiplies_only_inside_validate(checks):
    from shukla.baroracle import cyclic_mixed, from_presentation
    from shukla.mixed import validate
    job = parse("ring Z\nvars x\nrel x^3\nnmax 3\n")
    assert validate(cyclic_mixed(from_presentation(job.presentation), job.n_max))
    in_validate = len(checks)
    assert in_validate
    report, ok = run(job, "oracle")
    assert ok and report["validated"] is True
    assert len(checks) == 2 * in_validate


def test_compare_forms_column_forms_each_b_pair_once(checks, monkeypatch):
    from collections import Counter
    import shukla.cli as cli
    import shukla.mixed as mixed
    built, totalized = [], []

    def spy(module, name, out):
        original = getattr(module, name)

        def wrapper(*args):
            out.append(original(*args))
            return out[-1]
        monkeypatch.setattr(module, name, wrapper)
    spy(cli, "_forms_complex", built)
    spy(mixed, "_cyclic_matrix", totalized)
    job = parse("ring Z\nvars x\nrel x^3\nnmax 3\n")
    report, ok = run(job, "compare")
    assert ok and report["all_agree"] is True
    # no check reads a totalized boundary, in the forms or the oracle column
    assert totalized
    totalized = {id(m) for m in totalized}
    assert not any(id(m) in totalized for legs in checks for leg in legs for m in leg)
    (G,) = built
    b = G.complex.b
    blocks = {id(m) for m in b.values()}
    formed = Counter((id(second), id(first)) for legs in checks for first, second in legs
                     if id(first) in blocks and id(second) in blocks)
    # b^2 through degree nmax + 1, which HH and HC both need
    assert formed == Counter({(id(b[t, u]), id(b[s, t])): 1
                              for (s, t) in b for (t2, u) in b
                              if t2 == t and s[0] <= job.n_max + 1})


def test_forms_sweeps_multiply_blocks_only(checks):
    """hh_assemble and cyclic_total check each pair of blocks at most
    once and never read a totalized boundary."""
    from shukla.gammaforms import build_gamma_forms, hh_assemble
    from shukla.mixed import cyclic_total
    from shukla.models import koszul_model
    job = parse("ring Z\nvars x y\nrel x^2\nrel y^2\nnmax 3\n")
    G = build_gamma_forms(koszul_model(job.presentation), job.n_max)
    hh_assemble(G, job.n_max)
    cyclic_total(G.complex, job.n_max)
    blocks = {id(m) for table in (G.complex.b, G.complex.B) for m in table.values()}
    pairs = [(id(first), id(second)) for legs in checks for first, second in legs]
    assert pairs and all(first in blocks and second in blocks for first, second in pairs)
    assert len(set(pairs)) == len(pairs)


# A presentation that is quasi-monic with a rule for every variable runs
# hh, the HH column of compare and the HH half of layers on each factor
# and combines them by the Kunneth formula, layer by layer for layers;
# these pin that split to the joint forms complex.
SPLIT_CASES = {
    "Z_x2_y2": "ring Z\nvars x y\nrel x^2\nrel y^2\nnmax 4\n",
    "Q_x3mx_y2": "ring Q\nvars x y\nrel x^3-x\nrel y^2\nnmax 3\n",
    "Z4_x2_y2": "ring Z/4\nvars x y\nrel x^2\nrel y^2\nnmax 3\n",
    "Z6_x2m2_y3m3y": "ring Z/6\nvars x y\nrel x^2-2\nrel y^3-3*y\nnmax 3\n",
    "Z9_3_x3mx_y2": "ring Z/9\nvars x y\nrel 3\nrel x^3-x\nrel y^2\nnmax 3\n",
    "Z_2_x2_y2": "ring Z\nvars x y\nrel 2\nrel x^2\nrel y^2\nnmax 3\n",
    "Z6_2_x2_y2": "ring Z/6\nvars x y\nrel 2\nrel x^2\nrel y^2\nnmax 3\n",
}


@pytest.mark.parametrize("name", sorted(SPLIT_CASES))
def test_hh_split_equals_the_joint_forms_complex(name):
    # over Z, C2 in HH_1 of each of x^2 and y^2 (and of rel 2 in its even
    # degrees) gives nonzero Tor terms one degree up, in the layers too;
    # the HH half of layers is read through _hh_layers, since the HC half
    # of Z6_x2m2_y3m3y does not end in the test's time
    from shukla.cli import _forms_complex, _groups_json, _hh_layers, _layers_in_ring, _lifted
    from shukla.gammaforms import hh_assemble, hh_layers
    job = parse(SPLIT_CASES[name])
    n = job.n_max
    built, in_ring = _lifted(job.presentation)
    assert len(built.factors()) > 1
    G = _forms_complex(job, built)
    joint = in_ring(hh_assemble(G, n))
    report, ok = run(job, "hh")
    assert ok and report["hh"] == _groups_json(joint)
    report, ok = run(job, "compare")
    assert report["hh"]["gamma_forms"] == _groups_json(joint)
    want = _layers_in_ring(hh_layers(G, n).chains(), n, in_ring).to_json()
    assert _hh_layers(job, built, in_ring, G).to_json() == want


@pytest.fixture
def forms_builds(monkeypatch):
    """The presentations' variables of every build_gamma_forms call made
    through the CLI, in call order."""
    import shukla.cli as cli
    seen = []
    build = cli.build_gamma_forms

    def spy(model, n_max, poly_bound=None):
        seen.append(tuple(g.name for g in model.algebra.generators if g.hdeg == 0))
        return build(model, n_max, poly_bound)
    monkeypatch.setattr(cli, "build_gamma_forms", spy)
    return seen


def test_hh_builds_one_forms_complex_per_factor(forms_builds):
    # x^2 and y^2 differ only in their variable, so y^2 reuses x^2's
    report, ok = run(parse("ring Z\nvars x y\nrel 4\nrel x^2\nrel y^2\nnmax 2\n"), "hh")
    assert ok and forms_builds == [(), ("x",)]


@pytest.mark.parametrize("command", ["hh", "layers"])
@pytest.mark.parametrize("variables, relations, builds", [
    ("x y z", ("x^2", "y^2", "z^2"), [("x",)]),
    ("x y", ("x^2", "y^3"), [("x",), ("y",)]),
    ("x y", ("4", "x^2", "y^2"), [(), ("x",)]),
])
def test_each_distinct_factor_is_built_once(forms_builds, command, variables,
                                            relations, builds):
    # layers builds the joint forms complex first, for its HC half
    text = f"ring Z\nvars {variables}\n" + "".join(f"rel {r}\n" for r in relations)
    report, ok = run(parse(text + "nmax 2\n"), command)
    joint = [tuple(variables.split())] if command == "layers" else []
    assert ok and forms_builds == joint + builds


@pytest.mark.parametrize("text", [
    "ring Z\nvars x y\nrel x^2-y\nrel y^2\nnmax 2\n",     # one factor
    "ring Z\nvars x y z\nrel x^2\nrel y^2\nnmax 2\n",     # z has no rule
    "ring Z\nvars x y\nrel x^2\nrel 2*y^2\nnmax 2\n",     # not quasi-monic
])
def test_hh_keeps_the_joint_path(forms_builds, text):
    report, ok = run(parse(text), "hh")
    assert ok and len(forms_builds) == 1


def test_explicit_polybound_keeps_the_joint_window(forms_builds):
    # both windows are artifacts here (the default bound gives HH_3 =
    # Z^3 + C2^11), so a report pinned by its bound must not move
    text = "ring Z\nvars x y\nrel x^3-x\nrel y^2\npolybound 6\nnmax 3\n"
    report, ok = run(parse(text), "hh")
    assert ok and len(forms_builds) == 1
    assert report["hh"] == {
        "0": {"free_rank": 6, "torsion": []},
        "1": {"free_rank": 3, "torsion": [2] * 7},
        "2": {"free_rank": 3, "torsion": [2] * 4},
        "3": {"free_rank": 9, "torsion": [2] * 4},
    }
