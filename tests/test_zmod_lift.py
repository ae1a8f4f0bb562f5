"""Z/m homology by the lift to Z.

Every Z/m presentation is built over Z from the same relations, with
their coefficients in [0, m) (`cli._lifted`); there is no unliftable
input.  Its Koszul forms complex, quasi-monic or not, and the normalized
bar complex of a quasi-monic one are free complexes over Z that reduce
mod m to the complexes built over Z/m, so the universal coefficient
theorem gives the Z/m groups from the Z ones.  `hh`, `hc`, `layers`,
`oracle` and the forms and oracle columns of `compare` take that path
(each Hodge layer is the homology of one block of the forms complex).
The lifted mod-m cone (`linalg._mod_cone`) serves Z/m chains handed to
`linalg` directly; the crystalline pipeline, whose modules are
presented, stays on the presented-module path.
"""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shukla import crystalline, linalg, mixed
from shukla.baroracle import cyclic_mixed, from_presentation
from shukla.cli import JobSpec, _layers_in_ring, _lifted, parse, run
from shukla.crystalline import hc_layers_small, hodge_hh
from shukla.gammaforms import build_gamma_forms, hc_assemble, hh_assemble, hh_layers
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


def _draw_not_quasi_monic(rng, k):
    """A presentation over Z/m, m = MODULI[k % 5], that is not
    quasi-monic, by k % 3: a pure power c*x^e whose coefficient c is no
    unit of Z/m, the mixed leading term x*y, or two relations with pure
    powers of x.  Lower terms have total degree below the leading one."""
    m = MODULI[k % len(MODULI)]
    if k % 3 == 0:
        c = rng.choice([c for c in range(2, m) if math.gcd(c, m) > 1])
        leads = [((rng.choice([2, 3]),), c)]
    elif k % 3 == 1:
        leads = [((1, 1), 1)]
    else:
        leads = [((2,), 1), ((rng.choice([2, 3]),), 1)]
    nv = len(leads[0][0])
    rels = []
    for lead, c in leads:
        rel = {lead: c}
        for _ in range(rng.randint(1, 2)):
            mono = tuple(rng.randint(0, sum(lead) - 1) for _ in range(nv))
            if sum(mono) < sum(lead):
                rel[mono] = rng.randrange(m)
        rels.append(rel)
    return Presentation.make(GroundRing.Zmod(m), "xy"[:nv], rels)


# nmax 2 with one variable and 1 with two keeps the direct builds over
# Z/m, the reference here, within the test budget: their forms and bar
# complexes grow fast with the window.  The quasi-monic draws come
# first, so they keep their indices.
DRAWS = [_draw(random.Random(0), k) for k in range(20)]
_RNG = random.Random(1)
NOT_QUASI_MONIC = [_draw_not_quasi_monic(_RNG, k) for k in range(15)]


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
    # the lift keeps the rules and constants of a quasi-monic draw
    for pres in DRAWS:
        lift = _lifted(pres)[0]
        assert lift.rules.keys() == pres.rules.keys() and lift.consts == pres.consts
    for m in MODULI:
        assert {k % 3 for k, p in enumerate(NOT_QUASI_MONIC) if p.ring.modulus == m} == {0, 1, 2}
    for pres in NOT_QUASI_MONIC:
        assert not pres.is_quasi_monic and not _lifted(pres)[0].is_quasi_monic


@pytest.mark.parametrize("k", range(len(DRAWS) + len(NOT_QUASI_MONIC)))
def test_lifted_blocks_reduce_to_the_zmod_blocks(k):
    pres = (DRAWS + NOT_QUASI_MONIC)[k]
    lift, n = _lifted(pres)[0], _nmax(pres)
    assert lift.ring == GroundRing.Z()
    assert lift.relations == pres.relations
    _assert_same_blocks(build_gamma_forms(koszul_model(lift), n).complex,
                        build_gamma_forms(koszul_model(pres), n).complex, pres.ring)
    if pres.is_quasi_monic and not pres.consts:
        _assert_same_blocks(cyclic_mixed(from_presentation(lift), n),
                            cyclic_mixed(from_presentation(pres), n), pres.ring)


@pytest.mark.parametrize("k", range(len(DRAWS) + len(NOT_QUASI_MONIC)))
def test_lifted_groups_equal_the_presented_groups(k):
    pres = (DRAWS + NOT_QUASI_MONIC)[k]
    ring, n = pres.ring, _nmax(pres)
    lifted = build_gamma_forms(koszul_model(_lifted(pres)[0]), n)
    direct = build_gamma_forms(koszul_model(pres), n)
    assert (universal_coefficients(hh_assemble(lifted, n), ring)
            == hh_assemble(direct, n))
    assert (universal_coefficients(cyclic_total(lifted.complex, n), ring)
            == cyclic_total(direct.complex, n))
    if pres.is_quasi_monic and not pres.consts:
        lifted = cyclic_mixed(from_presentation(_lifted(pres)[0]), n)
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


# Regular Z/m inputs brought in reach by building them over Z: on the
# presented Z/m path the forms `hh` of the first two ran for more than
# 60 s
REGULAR_LIFTED = {
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


@pytest.mark.parametrize("name", sorted(REGULAR_LIFTED))
def test_regular_lifted_inputs_compare_three_pipelines(name):
    code, report = _cli(REGULAR_LIFTED[name], "compare")
    assert code == 0
    assert sorted(report["hh"]) == ["crystalline", "gamma_forms", "oracle"]
    assert report["all_agree"] is True


def test_z6_hh_by_universal_coefficients():
    # over Z, H_1 = C6^2 + C12^4 and H_2 = C3, so over Z/6
    # H_1 = C6^6 and H_2 = C3 + Tor(H_1, Z/6) = C3 + C6^6
    code, report = _cli(REGULAR_LIFTED["Z6_x3mxy_y2m3_n2"], "hh")
    assert code == 0
    assert report["hh"]["1"] == {"free_rank": 0, "torsion": [6] * 6}
    assert report["hh"]["2"] == {"free_rank": 0, "torsion": [3] + [6] * 6}


# regular Z/m inputs whose `layers` ran past 30 s on the presented path,
# where each Hodge layer was a graded piece of a filtration over Z/m
LIFTED_LAYERS = {
    "Z6_x3mxy_y2m3_n2": REGULAR_LIFTED["Z6_x3mxy_y2m3_n2"],
    "Z9_x3_y2m3y_n3": "ring Z/9\nvars x y\nrel x^3\nrel y^2-3*y\nnmax 3\n",
    "Z8_x3m2x_n4": REGULAR_LIFTED["Z8_x3m2x_n4"],
}


@pytest.mark.parametrize("name", sorted(LIFTED_LAYERS))
def test_lifted_layers_match_the_crystalline_layers(name):
    text = LIFTED_LAYERS[name]
    code, report = _cli(text, "layers")
    assert code == 0
    job = parse(text)
    assert report["hh"] == hodge_hh(job.presentation, job.n_max).to_json()
    assert report["hc"] == hc_layers_small(job.presentation, job.n_max).to_json()


LAYER_GOLDENS = json.loads((Path(__file__).resolve().parent
                           / "layer_goldens.json").read_text())


@pytest.mark.parametrize("name", sorted(n for n in LAYER_GOLDENS
                                        if n.startswith(("Z4_", "Z6_", "Z9_"))))
def test_layer_sums_over_the_ring_are_the_totals_over_the_ring(name):
    # `layers` maps each weight's chain to Z/m and sums the layers; the
    # forms complex and its cyclic totalization are the direct sums of
    # their weight blocks, so that is the map of the totals over Z
    job = parse(LAYER_GOLDENS[name]["text"])
    built, in_ring = _lifted(job.presentation)
    n = job.n_max
    G = build_gamma_forms(koszul_model(built), n, job.poly_bound)
    for groups in (hh_layers(G, n), hc_assemble(G, n)):
        want = in_ring([groups.total[k] for k in range(n + 1)])
        assert _layers_in_ring(groups.chains(), n, in_ring).total == dict(enumerate(want))


def _count_presented(monkeypatch):
    """The names of the presented-module, mod-m cone and Z/m graded-piece
    calls, in order."""
    calls = []

    def counted(name, real):
        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return call

    presented = counted("homology_from_presentation", linalg.homology_from_presentation)
    # crystalline binds the name at import, so it is counted there too;
    # mixed binds it as well, and its Z/m calls are counted below
    monkeypatch.setattr(linalg, "homology_from_presentation", presented)
    monkeypatch.setattr(crystalline, "homology_from_presentation", presented)
    monkeypatch.setattr(linalg, "_mod_cone", counted("_mod_cone", linalg._mod_cone))
    # over Z/m each Hodge block carries the relations of its target rows
    pieces = mixed._column_graded_pieces

    def graded_pieces(d_in, d_out, cols_mid, ring):
        if ring.kind == "Zmod":
            calls.append("_column_graded_pieces")
        return pieces(d_in, d_out, cols_mid, ring)

    monkeypatch.setattr(mixed, "_column_graded_pieces", graded_pieces)
    return calls


# not quasi-monic: x^2 is the leading term of both relations
Z8_TWO_SQUARES = "ring Z/8\nvars x\nrel x^2-x\nrel x^2+2*x\nnmax 2\n"
# A = 0: 1 is a constant over Z/6 and a unit relation over Z
Z6_UNIT = "ring Z/6\nvars x\nrel 1\nrel x^2\nnmax 2\n"


@pytest.mark.parametrize("text, command", [
    # the corpus jobs hc_Z9_x2p3y_y2_n3 and oracle_Z4_x2_y2_n4
    ("ring Z/9\nvars x y\nrel x^2+3*y\nrel y^2\nnmax 3\n", "hc"),
    ("ring Z/4\nvars x y\nrel x^2\nrel y^2\nnmax 4\n", "oracle"),
    # each Hodge layer is the homology of one block of the forms complex
    ("ring Z/4\nvars x y\nrel x^2\nrel y^2\nnmax 2\n", "layers"),
    (Z8_TWO_SQUARES, "hh"), (Z8_TWO_SQUARES, "layers"),
    (Z6_UNIT, "hh"), (Z6_UNIT, "layers"),
])
def test_lifted_commands_take_no_presented_path(monkeypatch, text, command):
    calls = _count_presented(monkeypatch)
    _, ok = run(parse(text), command)
    assert ok
    assert calls == []


def test_compare_crystalline_column_stays_presented(monkeypatch):
    # the forms and oracle columns are built over Z, the crystalline
    # column of `compare` over Z/4
    calls = _count_presented(monkeypatch)
    run(parse("ring Z/4\nvars x y\nrel x^2\nrel y^2\nnmax 2\n"), "compare")
    assert "homology_from_presentation" in calls


# `hh` and `hc` on the Z/8 input were killed at 30 s on the presented-module
# path, whose lattice coefficients grew without bound.  In the presented
# Hodge blocks over Z/m, `layers` was killed at 30 s on the Z/8 input and
# at 60 s on the Z/4 one, and took 12.6 s on the Z/12 one.  The groups are not pinned: the
# inputs are not regular, so the forms complex does not compute their
# Shukla homology (ROADMAP item 4).
NON_REGULAR = {
    "Z8_x2mx_x2p2x_n3": "ring Z/8\nvars x\nrel x^2-x\nrel x^2+2*x\nnmax 3\n",
    "Z4_x2ym1_xm1_n3": "ring Z/4\nvars x y\nrel x^2*y-1\nrel x-1\nnmax 3\n",
    "Z12_x2ym1_xm1_n2": "ring Z/12\nvars x y\nrel x^2*y-1\nrel x-1\nnmax 2\n",
}


@pytest.mark.parametrize("command", ["hh", "hc", "layers"])
@pytest.mark.parametrize("name", sorted(NON_REGULAR))
def test_non_regular_zmod_window_finishes(name, command):
    text = NON_REGULAR[name]
    code, report = _cli(text, command)
    assert code == 0
    degrees = [str(n) for n in range(parse(text).n_max + 1)]
    if command == "layers":
        assert all(sorted(report[key]["total"]) == degrees for key in ("hh", "hc"))
    else:
        assert sorted(report[command]) == degrees


def test_lifted_scope():
    Z, Z4, Z6 = GroundRing.Z(), GroundRing.Zmod(4), GroundRing.Zmod(6)
    # Z and Q presentations are built as they are
    for ring in (Z, GroundRing.Q()):
        pres = Presentation.make(ring, ["x"], [{(2,): 1}])
        built, in_ring = _lifted(pres)
        assert built is pres
        groups = hh_assemble(build_gamma_forms(koszul_model(pres), 1), 1)
        assert in_ring(groups) is groups
    lift = _lifted(Presentation.make(Z4, ["x"], [{(2,): 1, (0,): -2}]))[0]
    assert lift.ring == Z
    assert lift.relations == ({(2,): 1, (0,): 2},)
    assert lift.rules == {0: (0, 2, {(0,): -2})}
    # quasi-monic, not quasi-monic, and A = 0: the same relations over Z,
    # quasi-monic exactly when the Z/m presentation is
    for pres in (
        Presentation.make(Z6, ["x"], [{(2,): 5, (1,): -1}]),
        Presentation.make(Z6, ["x"], [{(2,): 2, (0,): -1}]),
        Presentation.make(Z6, ["x", "y"], [{(1, 1): -1, (0, 1): 1}]),
        Presentation.make(Z6, ["x"], [{(2,): 1, (1,): -1}, {(2,): 1, (1,): 2}]),
        Presentation.make(Z6, ["x"], [{(0,): 1}, {(2,): 1}]),
    ):
        lift = _lifted(pres)[0]
        assert lift.ring == Z and lift.relations == pres.relations
        assert all(0 <= c < 6 for rel in lift.relations for c in rel.values())
        if pres.is_zero_algebra:
            assert lift.is_zero_algebra
        else:
            assert lift.is_quasi_monic == pres.is_quasi_monic
    # a constant in [2, m) stays a constant
    assert _lifted(Presentation.make(Z6, ["x"], [{(0,): 4}, {(2,): 1}]))[0].consts == ((0, 4),)


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
