"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line with its runtime (run pytest with -s to see
them) and asserts the criterion's stated time budget.
"""

import random
import time
from math import comb

from shukla.baroracle import cyclic_mixed, from_presentation
from shukla.cli import parse, run
from shukla.crystalline import hc_layers_small, hodge_hh
from shukla.dpalgebra import (
    DIVIDED_POWER, EXTERIOR, POLYNOMIAL, Element, GammaDerivation, Generator,
    GradedAlgebra, contraction_complex, derive, homotopy_h,
)
from shukla.gammaforms import (
    build_gamma_forms, hc_assemble, hh_assemble, hh_layers, witness_nondegeneracy,
)
from shukla.linalg import GroundRing, HomologyGroup, SparseMatrix, det, snf
from shukla.mixed import validate
from shukla.models import Presentation, koszul_model

Z = GroundRing.Z()
Q = GroundRing.Q()
Z4 = GroundRing.Zmod(4)

FLAT_FIXTURES = [
    ("Z[x]/(x^2)", Z, ["x"], [{(2,): 1}]),
    ("Z[x]/(x^3)", Z, ["x"], [{(3,): 1}]),
    ("Z[x,y]/(x^2,y^2)", Z, ["x", "y"], [{(2, 0): 1}, {(0, 2): 1}]),
    ("Q[x]/(x^2)", Q, ["x"], [{(2,): 1}]),
    ("Z/4[x]/(x^2-2)", Z4, ["x"], [{(2,): 1, (0,): -2}]),
]

Z_FIXTURES = [f for f in FLAT_FIXTURES if f[1] == Z]


def _report(num, name, t0, budget):
    dt = time.monotonic() - t0
    print(f"ACCEPTANCE {num:2d} PASS ({dt:6.2f}s / budget {budget}s): {name}")
    assert dt < budget


def _random_algebra(rng):
    gens = [
        Generator("x", 0, POLYNOMIAL, poly_weight=1),
        Generator("u", 2, POLYNOMIAL),
        Generator("y", 1, EXTERIOR),
        Generator("z", 3, EXTERIOR),
        Generator("g", 2, DIVIDED_POWER, weight=1),
        Generator("h", 4, DIVIDED_POWER, weight=1),
    ]
    rng.shuffle(gens)
    return GradedAlgebra(Z, gens)


def _random_monomial(alg, rng):
    letters = []
    for g in alg.generators:
        cap = 1 if g.kind == EXTERIOR else 3
        e = rng.randint(0, cap) if rng.random() < 0.5 else 0
        if e:
            letters.append((g.name, e))
    return alg.monomial(letters)


def _random_element(alg, rng, terms=2):
    e = Element(alg)
    for _ in range(terms):
        e._add_term(_random_monomial(alg, rng), rng.randint(-4, 4))
    return e


def test_criterion_01_algebra_laws():
    t0 = time.monotonic()
    rng = random.Random(101)
    checked = 0
    while checked < 1000:
        alg = _random_algebra(rng)
        deriv = GammaDerivation(alg, -1, {
            g.name: _random_element(alg, rng, terms=1)
            for g in alg.generators})
        homogeneous = {}
        for g in alg.generators:
            # a derivation needs homogeneous values one degree below
            val = Element(alg)
            for m, c in deriv.values[g.name].terms.items():
                if alg.mono_hdeg(m) == g.hdeg - 1:
                    val._add_term(m, c)
            homogeneous[g.name] = val
        deriv = GammaDerivation(alg, -1, homogeneous)
        for _ in range(10):
            a = _random_element(alg, rng)
            b = _random_element(alg, rng)
            # graded commutativity with the Koszul sign, monomial-wise
            for m1, c1 in a.terms.items():
                for m2, c2 in b.terms.items():
                    e1 = alg.element({m1: c1})
                    e2 = alg.element({m2: c2})
                    sign = -1 if (alg.mono_hdeg(m1) % 2 and alg.mono_hdeg(m2) % 2) else 1
                    assert e1 * e2 == (e2 * e1).scale(sign)
            # exterior squares vanish
            for g in alg.generators:
                if g.kind == EXTERIOR:
                    ge = alg.gen_element(g.name)
                    assert (ge * ge).is_zero()
            # divided-power binomial rule
            gname = next(g.name for g in alg.generators
                         if g.kind == DIVIDED_POWER)
            p = rng.randint(1, 7)
            q = rng.randint(1, 8 - p)
            gp = alg.element({((gname, p),): 1})
            gq = alg.element({((gname, q),): 1})
            assert gp * gq == alg.element({((gname, p + q),): comb(p + q, p)})
            # Leibniz rule for the random derivation
            pa = next(iter(a.terms), None)
            par = alg.mono_hdeg(pa) % 2 if pa is not None else 0
            a_h = alg.element({m: c for m, c in a.terms.items()
                               if alg.mono_hdeg(m) % 2 == par})
            lhs = derive(deriv, a_h * b)
            rhs = derive(deriv, a_h) * b + (a_h * derive(deriv, b)).scale(
                -1 if par else 1)
            assert lhs == rhs
            checked += 4
    _report(1, f"algebra laws, {checked} checks", t0, 10)


def test_criterion_02_mixed_complex_identities():
    t0 = time.monotonic()
    count = 0
    for name, ring, vs, rels in FLAT_FIXTURES:
        P = Presentation.make(ring, vs, rels)
        G = build_gamma_forms(koszul_model(P), 4)
        assert validate(G.complex), f"gamma-forms of {name}"
        count += 1
    for name, ring, vs, rels in FLAT_FIXTURES:
        if ring == Q:
            continue  # four bar fixtures
        P = Presentation.make(ring, vs, rels)
        A = from_presentation(P)
        assert validate(cyclic_mixed(A, 4)), f"bar complex of {name}"
        count += 1
    assert count == 9
    _report(2, "b^2, B^2, bB + Bb on 5 forms + 4 bar complexes", t0, 30)


def test_criterion_03_contraction_homotopy():
    t0 = time.monotonic()
    rng = random.Random(303)
    checked = 0
    while checked < 100:
        nv = rng.randint(0, 3)
        nw = rng.randint(1, 3)
        data = contraction_complex(
            Z, [(f"v{i}", rng.randint(1, 3)) for i in range(nv)],
            [(f"w{i}", rng.randint(1, 3)) for i in range(nw)])
        alg = data.algebra
        D = data.boundary
        w_indices = {alg.index[w] for w in data.w_names}
        for _ in range(5):
            letters = []
            for g in alg.generators:
                cap = 1 if g.kind == EXTERIOR else 2
                e = rng.randint(0, cap)
                if e:
                    letters.append((g.name, e))
            if not any(alg.index[n] in w_indices
                       or n in data.dw_of.values() for n, _ in letters):
                letters.append((rng.choice(data.w_names), 1))
            e = alg.element({alg.monomial(letters): rng.randint(-3, 3)})
            if e.is_zero():
                continue
            assert homotopy_h(data, derive(D, e)) + derive(D, homotopy_h(data, e)) == e
            assert homotopy_h(data, homotopy_h(data, e)).is_zero()
            r = min(sum(m[i] for i in w_indices) for m in e.terms)
            for m in homotopy_h(data, e).terms:
                assert sum(m[i] for i in w_indices) >= max(r - 1, 0)
            checked += 1
    _report(3, f"contraction homotopy identities, {checked} elements", t0, 10)


def test_criterion_04_flat_oracle_equivalence():
    t0 = time.monotonic()
    for name, ring, vs, rels in FLAT_FIXTURES:
        P = Presentation.make(ring, vs, rels)
        A = from_presentation(P)
        cplx = cyclic_mixed(A, 4)
        from shukla.mixed import cyclic_total, hochschild_total
        hh_o = hochschild_total(cplx, 4)
        hc_o = cyclic_total(cplx, 3)
        G = build_gamma_forms(koszul_model(P), 4)
        hh_f = hh_assemble(G, 4)
        fc = hc_assemble(G, 3)
        for n in range(5):
            assert hh_f[n] == hh_o[n], (name, "HH", n)
        for n in range(4):
            assert fc.total[n] == hc_o[n], (name, "HC", n)
    _report(4, "forms = oracle on 5 flat fixtures (HH<=4, HC<=3)", t0, 120)


def test_criterion_05_hodge_level_complexes():
    t0 = time.monotonic()
    for name, ring, vs, rels in Z_FIXTURES:
        P = Presentation.make(ring, vs, rels)
        H = hodge_hh(P, 4)
        G = build_gamma_forms(koszul_model(P), 4)
        FL = hh_layers(G, 4)
        for n in range(5):
            assert H.total[n] == FL.total[n], (name, n)
        for k in set(H.layers) | set(FL.layers):
            assert H.layer(*k) == FL.layer(*k), (name, k)
    _report(5, "level complexes match forms homology and layers", t0, 60)


def test_criterion_06_cyclic_layer_sums():
    t0 = time.monotonic()
    for name, ring, vs, rels in Z_FIXTURES:
        if name not in ("Z[x]/(x^2)", "Z[x,y]/(x^2,y^2)"):
            continue
        P = Presentation.make(ring, vs, rels)
        HC = hc_layers_small(P, 3)
        G = build_gamma_forms(koszul_model(P), 3)
        fc = hc_assemble(G, 3)
        for n in range(4):
            assert HC.total[n].free_rank == fc.total[n].free_rank, (name, n)
            assert HC.total[n].torsion_order == fc.total[n].torsion_order, (name, n)
    _report(6, "truncated-complex layer sums match cyclic totals", t0, 60)


def test_criterion_07_shukla_fixture():
    t0 = time.monotonic()
    for p in (2, 3, 5):
        P = Presentation.make(Z, [], [{(): p}])
        G = build_gamma_forms(koszul_model(P), 9)
        hh = hh_assemble(G, 9)
        H = hodge_hh(P, 9)
        for q in range(5):
            assert hh[2 * q] == HomologyGroup.from_factors(0, [p]), (p, q)
            if 2 * q + 1 <= 9:
                assert hh[2 * q + 1].is_trivial(), (p, q)
        for n in range(10):
            assert H.total[n] == hh[n], (p, n)
    _report(7, "ground ring mod p: C_p in even degrees, both pipelines", t0, 10)


def test_criterion_08_nondegeneracy_witness():
    t0 = time.monotonic()
    for ring in (Z, GroundRing.Zmod(2)):
        w = witness_nondegeneracy(ring, 2)
        assert w.cycle and not w.boundary and w.beta_identity, repr(ring)
    wq = witness_nondegeneracy(Q, 2)
    assert wq.boundary, "over Q the preimage must exist"
    # the CLI exit code asserts all four
    for text, cmd in (("ring Z\n", "witness24 p=2"),
                      ("ring Z/2\n", "witness24 p=2"),
                      ("ring Q\n", "witness24 p=2")):
        _, ok = run(parse(text), cmd)
        assert ok, text
    _report(8, "witness facts over Z, Z/2 and the rational control", t0, 60)


def test_criterion_09_model_independence():
    t0 = time.monotonic()
    jobs = [
        ("ring Z\nvars x y\nrel x^2\nrel y^2\nnmax 3\n", None),
        ("ring Z\nvars y x\nrel x^2\nrel y^2\nnmax 3\n", None),
        ("ring Z\nvars x y\nrel y^2\nrel x^2\nnmax 3\n", None),
    ]
    reports = []
    for text, _ in jobs:
        job = parse(text)
        rep_hh, ok1 = run(job, "hh")
        rep_hc, ok2 = run(job, "hc")
        assert ok1 and ok2
        reports.append((rep_hh["hh"], rep_hc["hc"]))
    for other in reports[1:]:
        assert other == reports[0]
    _report(9, "permuting generators and relations changes nothing", t0, 60)


def test_criterion_10_snf_suite():
    t0 = time.monotonic()
    rng = random.Random(1010)
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        M = SparseMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], Z)
        U, S, V = snf(M)
        assert (U * M) * V == S
        assert abs(det(U.to_rows())) == 1
        assert abs(det(V.to_rows())) == 1
        diag = [S[i, i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and b >= 0
            if b:
                assert a and b % a == 0
    _report(10, "S = UMV, unimodularity and divisibility on 500 matrices", t0, 10)
