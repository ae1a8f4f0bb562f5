"""Z/m homology by the lift to Z.

A quasi-monic Z/m presentation lifts to Z with its coefficients in
[0, m).  Its Koszul forms complex and its normalized bar complex are
then free complexes over Z that reduce mod m to the complexes built over
Z/m, so the universal coefficient theorem gives the Z/m groups from the
Z ones.  `hh`, `hc`, `layers`, `oracle` and the forms and oracle
columns of `compare` take that path (each Hodge layer is the homology of
one block of the forms complex).  A presentation with no lift is built
over Z/m, and the integer sweep runs on the lifted mod-m cone of its
complexes (`linalg._mod_cone`); the crystalline pipeline, whose modules
are presented, stays on the presented-module path.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shukla import crystalline, linalg
from shukla.baroracle import cyclic_mixed, from_presentation
from shukla.cli import JobSpec, parse, run
from shukla.crystalline import hc_layers_small, hodge_hh
from shukla.gammaforms import build_gamma_forms, hh_assemble
from shukla.linalg import GroundRing, universal_coefficients
from shukla.mixed import cyclic_total, hochschild_total
from shukla.models import Presentation, koszul_model

SRC = Path(__file__).resolve().parents[1] / "src"
MODULI = (4, 6, 8, 9, 12)


def _draw(rng, k):
    """A quasi-monic presentation over Z/m, m = MODULI[k % 5], with a
    constant relation in [2, m) for odd k.  Every relation x_i^e + lower
    has lower terms of total degree below e; one variable has e in
    {2, 3}, two variables e = 2."""
    m = MODULI[k % len(MODULI)]
    nv = rng.choice([1, 2])
    rels = []
    for i in range(nv):
        e = rng.choice([2, 3]) if nv == 1 else 2
        rel = {tuple(e if j == i else 0 for j in range(nv)): 1}
        for _ in range(rng.randint(0, 2)):
            mono = tuple(rng.randint(0, 1) for _ in range(nv))
            if sum(mono) < e:
                rel[mono] = rng.randrange(m)
        rels.append(rel)
    if k % 2:
        rels.insert(rng.randint(0, nv), {(0,) * nv: rng.randint(2, m - 1)})
    return Presentation.make(GroundRing.Zmod(m), "xy"[:nv], rels)


# nmax 2 with one variable and 1 with two keeps the direct builds over
# Z/m, the reference here, within the test budget: their forms and bar
# complexes grow fast with the window
DRAWS = [_draw(random.Random(0), k) for k in range(20)]


def _nmax(pres):
    return 2 if len(pres.variables) == 1 else 1


def _reduced(table, ring):
    """A block table mod m, as {key: entries}, zero blocks dropped."""
    out = {}
    for key, mat in table.items():
        entries = {pos: ring.normalize(v) for pos, v in mat.entries.items()}
        entries = {pos: v for pos, v in entries.items() if v}
        if entries:
            out[key] = (mat.rows, mat.cols, entries)
    return out


def _assert_same_blocks(lifted, direct, ring):
    assert lifted.slices == direct.slices
    for name in ("b", "B"):
        assert (_reduced(getattr(lifted, name), ring)
                == _reduced(getattr(direct, name), ring)), name


def test_draws_cover_every_modulus_with_and_without_constants():
    for m in MODULI:
        mine = [p for p in DRAWS if p.ring.modulus == m]
        assert any(p.consts for p in mine) and any(not p.consts for p in mine)
    assert any(len(p.variables) == 2 for p in DRAWS)
    assert all(p.integral() is not None for p in DRAWS)


@pytest.mark.parametrize("k", range(len(DRAWS)))
def test_lifted_blocks_reduce_to_the_zmod_blocks(k):
    pres = DRAWS[k]
    lift, n = pres.integral(), _nmax(pres)
    assert lift.ring == GroundRing.Z()
    assert lift.relations == pres.relations
    _assert_same_blocks(build_gamma_forms(koszul_model(lift), n).complex,
                        build_gamma_forms(koszul_model(pres), n).complex, pres.ring)
    if not pres.consts:
        _assert_same_blocks(cyclic_mixed(from_presentation(lift), n),
                            cyclic_mixed(from_presentation(pres), n), pres.ring)


@pytest.mark.parametrize("k", range(len(DRAWS)))
def test_lifted_groups_equal_the_presented_groups(k):
    pres = DRAWS[k]
    ring, n = pres.ring, _nmax(pres)
    lifted = build_gamma_forms(koszul_model(pres.integral()), n)
    direct = build_gamma_forms(koszul_model(pres), n)
    assert (universal_coefficients(hh_assemble(lifted, n), ring)
            == hh_assemble(direct, n))
    assert (universal_coefficients(cyclic_total(lifted.complex, n), ring)
            == cyclic_total(direct.complex, n))
    if not pres.consts:
        lifted = cyclic_mixed(from_presentation(pres.integral()), n)
        direct = cyclic_mixed(from_presentation(pres), n)
        for total in (hochschild_total, cyclic_total):
            assert (universal_coefficients(total(lifted, n), ring)
                    == total(direct, n))


@pytest.mark.parametrize("k", [0, 1, 4, 5])
def test_commands_report_the_presented_groups(k):
    pres = DRAWS[k]
    n = _nmax(pres)
    G = build_gamma_forms(koszul_model(pres), n)
    want = {"hh": hh_assemble(G, n), "hc": cyclic_total(G.complex, n)}
    if not pres.consts:
        cplx = cyclic_mixed(from_presentation(pres), n)
        want["oracle"] = hochschild_total(cplx, n)
    for command, groups in want.items():
        report, ok = run(JobSpec(pres, n), command)
        assert ok
        field = "hh" if command == "oracle" else command
        assert report[field] == {str(i): g.to_json() for i, g in enumerate(groups)}


# Regular Z/m inputs brought in reach by the lift of a quasi-monic Z/m
# presentation to Z (`Presentation.integral`): before it, the forms `hh`
# of the first two ran for more than 60 s
ITEM8 = {
    "Z6_x3mxy_y2m3_n2": "ring Z/6\nvars x y\nrel x^3-x*y\nrel y^2-3\nnmax 2\n",
    "Z4_x3p3_y2p3xm2_n2": "ring Z/4\nvars x y\nrel x^3+3\nrel y^2+3*x-2\nnmax 2\n",
    "Z9_x3_y2m3y_n2": "ring Z/9\nvars x y\nrel x^3\nrel y^2-3*y\nnmax 2\n",
    "Z8_x3m2x_n4": "ring Z/8\nvars x\nrel x^3-2*x\nnmax 4\n",
}


def _cli(text, command):
    """The report of one CLI run in a child process, which a regression
    to a hanging path fails by its timeout."""
    proc = subprocess.run(
        [sys.executable, "-m", "shukla.cli", "--cmd", command],
        input=text, capture_output=True, text=True, timeout=20,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    return proc.returncode, json.loads(proc.stdout)


@pytest.mark.parametrize("name", sorted(ITEM8))
def test_item8_inputs_compare_three_pipelines(name):
    code, report = _cli(ITEM8[name], "compare")
    assert code == 0
    assert sorted(report["hh"]) == ["crystalline", "gamma_forms", "oracle"]
    assert report["all_agree"] is True


def test_z6_hh_by_universal_coefficients():
    # over Z, H_1 = C6^2 + C12^4 and H_2 = C3, so over Z/6
    # H_1 = C6^6 and H_2 = C3 + Tor(H_1, Z/6) = C3 + C6^6
    code, report = _cli(ITEM8["Z6_x3mxy_y2m3_n2"], "hh")
    assert code == 0
    assert report["hh"]["1"] == {"free_rank": 0, "torsion": [6] * 6}
    assert report["hh"]["2"] == {"free_rank": 0, "torsion": [3] + [6] * 6}


# regular Z/m inputs whose `layers` ran past 30 s on the presented path,
# where each Hodge layer was a graded piece of a filtration over Z/m
LIFTED_LAYERS = {
    "Z6_x3mxy_y2m3_n2": ITEM8["Z6_x3mxy_y2m3_n2"],
    "Z9_x3_y2m3y_n3": "ring Z/9\nvars x y\nrel x^3\nrel y^2-3*y\nnmax 3\n",
    "Z8_x3m2x_n4": ITEM8["Z8_x3m2x_n4"],
}


@pytest.mark.parametrize("name", sorted(LIFTED_LAYERS))
def test_lifted_layers_match_the_crystalline_layers(name):
    text = LIFTED_LAYERS[name]
    code, report = _cli(text, "layers")
    assert code == 0
    job = parse(text)
    assert report["hh"] == hodge_hh(job.presentation, job.n_max).to_json()
    assert report["hc"] == hc_layers_small(job.presentation, job.n_max).to_json()


def _count_presented(monkeypatch):
    """The names of the presented-module and mod-m cone calls, in order."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    presented = counted("homology_from_presentation", linalg.homology_from_presentation)
    # crystalline binds the name at import, so it is counted there too
    monkeypatch.setattr(linalg, "homology_from_presentation", presented)
    monkeypatch.setattr(crystalline, "homology_from_presentation", presented)
    monkeypatch.setattr(linalg, "_mod_cone", counted("_mod_cone", linalg._mod_cone))
    return calls


@pytest.mark.parametrize("text, command", [
    # the corpus jobs hc_Z9_x2p3y_y2_n3 and oracle_Z4_x2_y2_n4
    ("ring Z/9\nvars x y\nrel x^2+3*y\nrel y^2\nnmax 3\n", "hc"),
    ("ring Z/4\nvars x y\nrel x^2\nrel y^2\nnmax 4\n", "oracle"),
    # each Hodge layer is the homology of one block of the forms complex
    ("ring Z/4\nvars x y\nrel x^2\nrel y^2\nnmax 2\n", "layers"),
])
def test_lifted_commands_take_no_presented_path(monkeypatch, text, command):
    calls = _count_presented(monkeypatch)
    _, ok = run(parse(text), command)
    assert ok
    assert calls == []


@pytest.mark.parametrize("text, command", [
    # liftable, but the crystalline column of `compare` is built over Z/4
    ("ring Z/4\nvars x y\nrel x^2\nrel y^2\nnmax 2\n", "compare"),
])
def test_unliftable_jobs_stay_presented(monkeypatch, text, command):
    calls = _count_presented(monkeypatch)
    run(parse(text), command)
    assert "homology_from_presentation" in calls


@pytest.mark.parametrize("text", [
    # not quasi-monic: x^2 is the leading term of both relations
    "ring Z/8\nvars x\nrel x^2-x\nrel x^2+2*x\nnmax 2\n",
    # 1 is a constant over Z/6 but a unit relation over Z
    "ring Z/6\nvars x\nrel 1\nrel x^2\nnmax 2\n",
], ids=["Z8_x2mx_x2p2x_n2", "Z6_1_x2_n2"])
def test_unliftable_jobs_take_the_cone(monkeypatch, text):
    calls = _count_presented(monkeypatch)
    _, ok = run(parse(text), "hh")
    assert ok
    assert calls and set(calls) == {"_mod_cone"}


# `hh` and `hc` on this non-regular input were killed at 30 s on the
# presented-module path, whose lattice coefficients grew without bound.
# Its groups are not pinned: the input is not regular, so the forms
# complex does not compute its Shukla homology (ROADMAP item 4).
@pytest.mark.parametrize("command", ["hh", "hc"])
def test_unliftable_z8_window_finishes(command):
    code, report = _cli("ring Z/8\nvars x\nrel x^2-x\nrel x^2+2*x\nnmax 3\n", command)
    assert code == 0
    assert sorted(report[command]) == ["0", "1", "2", "3"]


def test_integral_lift_scope():
    Z4, Z6 = GroundRing.Zmod(4), GroundRing.Zmod(6)
    lift = Presentation.make(Z4, ["x"], [{(2,): 1, (0,): -2}]).integral()
    assert lift.ring == GroundRing.Z()
    assert lift.relations == ({(2,): 1, (0,): 2},)
    assert lift.rules == {0: (0, 2, {(0,): -2})}
    # a constant in [2, m) stays a constant
    assert Presentation.make(Z6, ["x"], [{(): 4}, {(2,): 1}]).integral().consts == ((0, 4),)
    for pres in (
        Presentation.make(GroundRing.Z(), ["x"], [{(2,): 1}]),
        Presentation.make(GroundRing.Q(), ["x"], [{(2,): 1}]),
        Presentation.make(Z6, ["x"], [{(): 1}, {(2,): 1}]),
        Presentation.make(Z6, ["x"], [{(2,): 2}]),
        Presentation.make(Z6, ["x", "y"], [{(1, 1): 1}]),
    ):
        assert pres.integral() is None



# A constant relation that is a unit of k makes A = 0.  Before the CLI
# built these from the zero algebra's presentation, `layers` on the first
# and `hh`, `layers` and `compare` on the second ran past 15 s on the
# presented path and printed nothing.
UNIT_CONSTANT = {
    "Z8_3_n1": "ring Z/8\nvars x y\nrel x^2+4*x\nrel y^2+7*x+6*y\nrel 3\nnmax 1\n",
    "Z9_1_n3": "ring Z/9\nvars x y\nrel x^3+7\nrel y^3-4*x\nrel 1\nnmax 3\n",
    "Q_2_n2": "ring Q\nvars x\nrel x^2\nrel 2\nnmax 2\n",
}


def _groups(node):
    """Every group ({free_rank, torsion}) in a report field."""
    if isinstance(node, dict):
        if "free_rank" in node:
            return [node]
        return [g for v in node.values() for g in _groups(v)]
    return []


@pytest.mark.parametrize("name, command", [
    ("Z8_3_n1", "hh"), ("Z8_3_n1", "layers"),
    ("Z9_1_n3", "hh"), ("Z9_1_n3", "layers"), ("Z9_1_n3", "compare"),
    ("Q_2_n2", "layers"),
])
def test_unit_constant_relation_gives_zero_groups(name, command):
    text = UNIT_CONSTANT[name]
    code, report = _cli(text, command)
    assert code == 0
    # the report echoes the job's variables, not the zero algebra's
    assert report["vars"] == list(parse(text).presentation.variables)
    groups = _groups(report["hh"]) + _groups(report["hc"] if command != "hh" else {})
    assert groups and all(g == {"free_rank": 0, "torsion": []} for g in groups)
    if command == "compare":
        assert sorted(report["hh"]) == ["crystalline", "gamma_forms", "oracle"]
        assert report["all_agree"] is True


# A relation that is a unit of k[x] makes A = 0 as well: 2x + 1 over Z/4,
# since (2x + 1)(1 - 2x) = 1, and 4x^2 + 2x + 3 over Z/8, whose constant
# is a unit and whose other coefficients are nilpotent.  Before, `hh`
# exited 0 with HH_0 = C4 and C8^2, and `oracle` exited 1 with
# NotQuasiMonic.
POLYNOMIAL_UNIT = {
    "Z4_2xp1_n2": "ring Z/4\nvars x\nrel 2*x+1\nnmax 2\n",
    "Z8_4x2p2xp3_n2": "ring Z/8\nvars x\nrel 4*x^2+2*x+3\nnmax 2\n",
}


@pytest.mark.parametrize("command", ["hh", "hc", "layers", "oracle", "compare"])
@pytest.mark.parametrize("name", sorted(POLYNOMIAL_UNIT))
def test_polynomial_unit_relation_gives_zero_groups(name, command):
    code, report = _cli(POLYNOMIAL_UNIT[name], command)
    assert code == 0
    groups = _groups(report.get("hh", {})) + _groups(report.get("hc", {}))
    assert groups and all(g == {"free_rank": 0, "torsion": []} for g in groups)
    if command == "oracle":
        assert report["validated"] is True
    if command == "compare":
        assert sorted(report["hh"]) == ["crystalline", "gamma_forms", "oracle"]
        assert report["all_agree"] is True


@pytest.mark.parametrize("ring, relation, zero", [
    (GroundRing.Zmod(4), {(1,): 2, (0,): 1}, True),
    (GroundRing.Zmod(8), {(2,): 4, (1,): 2, (0,): 3}, True),
    (GroundRing.Zmod(12), {(1,): 6, (0,): 5}, True),
    (GroundRing.Zmod(9), {(3,): 3, (0,): -1}, True),
    (GroundRing.Z(), {(0,): -1}, True),
    (GroundRing.Q(), {(0,): Fraction(1, 2)}, True),
    # 2 is not nilpotent mod 6 or mod 12: 2x + 1 is no unit there
    (GroundRing.Zmod(6), {(1,): 2, (0,): 1}, False),
    (GroundRing.Zmod(12), {(1,): 2, (0,): 1}, False),
    (GroundRing.Zmod(4), {(1,): 1, (0,): 1}, False),
    (GroundRing.Zmod(4), {(1,): 2}, False),
    (GroundRing.Z(), {(1,): 2, (0,): 1}, False),
    (GroundRing.Q(), {(1,): 1, (0,): 1}, False),
])
def test_zero_algebra_is_a_unit_relation_of_the_polynomial_ring(ring, relation, zero):
    pres = Presentation.make(ring, ["x"], [{(2,): 1}, relation])
    assert pres.is_zero_algebra is zero


# A = 0 is free of rank 0 on every ring, so the oracle runs on it and
# `compare` has a second pipeline over Z and Q too.  Before, `oracle`
# exited 1 with NotQuasiMonic on all three rings, and `compare` over Z
# and Q reported "pipelines": 1 and exited 1.
@pytest.mark.parametrize("ring", ["Z/9", "Z", "Q"])
@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_zero_algebra_oracle_and_compare(ring, command):
    text = f"ring {ring}\nvars x\nrel x^2\nrel 1\nnmax 2\n"
    code, report = _cli(text, command)
    assert code == 0
    groups = _groups(report["hh"]) + _groups(report["hc"])
    assert groups and all(g == {"free_rank": 0, "torsion": []} for g in groups)
    if command == "oracle":
        assert report["validated"] is True
        assert sorted(report["hh"]) == ["0", "1", "2"]
    else:
        assert "oracle" in report["hh"] and len(report["hh"]) >= 2
        assert report["all_agree"] is True
