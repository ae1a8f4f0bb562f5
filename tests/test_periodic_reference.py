"""`hh`, and the HH half of `layers`, against reference values that do
not come from the engine.

For A = k[x]/(f), f monic of degree a, A has a 2-periodic resolution over
A (x) A, and A (x)_{A(x)A} of it is A <-0- A <-f'- A <-0- A <-f'- ...
(Buenos Aires Cyclic Homology Group, *Hochschild and cyclic homology of
hypersurfaces*, Adv. Math. 95 (1992)).  So HH_0 = A, HH_odd = A/f'A and
HH_even = Ann_A(f'), all read off the Smith form of the a x a matrix of
multiplication by f' on 1, x, ..., x^(a-1).  A constant relation c over
Z has Shukla homology Z/c in every even degree and 0 in the odd ones.
A product of such factors takes the Kunneth formula, and Z/m the
universal coefficient theorem, both written here over lists of cyclic
orders (0 for Z), apart from the engine's.  The Smith form comes from
`dense_snf`, not the sparse kernel that `hh` runs on.
"""

import random
from math import gcd

import pytest

from shukla.cli import parse, run
from shukla.linalg import HomologyGroup, dense_snf

RINGS = ("Z", "Q", "Z/4", "Z/6", "Z/8", "Z/9")


def _derivative_matrix(f):
    """Multiplication by f' on 1, x, ..., x^(a-1) in Z[x]/(f), f given by
    its coefficients from the constant up, monic of degree a."""
    a = len(f) - 1
    cols = []
    for j in range(a):
        poly = [0] * j + [k * f[k] for k in range(1, a + 1)]
        for top in range(len(poly) - 1, a - 1, -1):
            c = poly[top]
            for k in range(a + 1):
                poly[top - a + k] -= c * f[k]
        cols.append(poly[:a] + [0] * (a - len(poly)))
    return [[col[i] for col in cols] for i in range(a)]


def _one_variable(f, n_max):
    """H_0..H_n_max over Z of the periodic complex of Z[x]/(f), each a
    list of cyclic orders."""
    a = len(f) - 1
    _, s, _ = dense_snf(_derivative_matrix(f))
    diag = [s[i][i] for i in range(a)]
    odd = [d for d in diag if d != 1]
    even = [0] * diag.count(0)
    return [[0] * a] + [odd if n % 2 else even for n in range(1, n_max + 1)]


def _constant(c, n_max):
    return [[] if n % 2 else [c] for n in range(n_max + 1)]


def _kunneth(G, H):
    out = [[] for _ in G]
    for i, g in enumerate(G):
        for j, h in enumerate(H):
            for a in g:
                for b in h:
                    if i + j < len(out):
                        out[i + j].append(gcd(a, b))
                    if i + j + 1 < len(out) and a and b:
                        out[i + j + 1].append(gcd(a, b))
    return out


def _in_ring(groups, ring):
    """The orders over Z as groups over the ring, in the JSON of a report."""
    if ring.startswith("Z/"):
        m = int(ring[2:])
        groups = [[gcd(c, m) for c in h] + [gcd(c, m) for c in below if c]
                  for h, below in zip(groups, [[]] + groups)]
        out = [HomologyGroup.from_factors(0, h) for h in groups]
    elif ring == "Q":
        out = [HomologyGroup(h.count(0), ()) for h in groups]
    else:
        out = [HomologyGroup.from_factors(h.count(0), [c for c in h if c])
               for h in groups]
    return {str(n): g.to_json() for n, g in enumerate(out)}


def _poly_text(f, var):
    terms = [f"{c}*{var}^{k}" if k else str(c) for k, c in enumerate(f) if c]
    return " + ".join(reversed(terms))


def _hh_report(ring, factors, n_max, command="hh"):
    """The `hh` part of the report of the command on the product of the
    factors: a list of int coefficients (a one-variable f) or an int (a
    constant relation)."""
    names = [f"x{i}" for i, f in enumerate(factors) if isinstance(f, list)]
    lines = [f"ring {ring}", "vars " + " ".join(names)]
    var = iter(names)
    for f in factors:
        lines.append(f"rel {_poly_text(f, next(var)) if isinstance(f, list) else f}")
    report, ok = run(parse("\n".join(lines + [f"nmax {n_max}"]) + "\n"), command)
    assert ok
    return report["hh"]


def _reference(ring, factors, n_max):
    groups = None
    for f in factors:
        h = _one_variable(f, n_max) if isinstance(f, list) else _constant(f, n_max)
        groups = h if groups is None else _kunneth(groups, h)
    return _in_ring(groups, ring)


def _monic(rng):
    return [rng.randint(-3, 3) for _ in range(rng.randint(2, 4))] + [1]


def test_derivative_matrix_of_x3_minus_x():
    # f' = 3x^2 - 1 and x^3 = x: 1 -> 3x^2 - 1, x -> 2x, x^2 -> 2x^2
    assert _derivative_matrix([0, -1, 0, 1]) == [[-1, 0, 0], [0, 2, 0], [3, 0, 2]]


def test_reference_of_x_squared_over_z():
    # Z[x]/(x^a): HH_odd = Z^(a-1) + C_a, HH_even = Z^(a-1)
    assert _reference("Z", [[0, 0, 1]], 2) == {
        "0": {"free_rank": 2, "torsion": []},
        "1": {"free_rank": 1, "torsion": [2]},
        "2": {"free_rank": 1, "torsion": []}}


@pytest.mark.parametrize("ring", RINGS)
def test_hh_of_one_variable_matches_the_periodic_resolution(ring):
    rng = random.Random(f"one {ring}")
    fixed = [[0, 0, 1], [0, 0, 0, 1], [0, -2, 0, 0, 1], [0, -1, 0, 1], [3, 3, 1]]
    for f in fixed + [_monic(rng) for _ in range(3)]:
        assert _hh_report(ring, [f], 12) == _reference(ring, [f], 12), f


CONSTANTS = {"Z": (2, 3, 4), "Q": (), "Z/4": (2,), "Z/6": (2, 3), "Z/8": (2, 4),
             "Z/9": (3,)}


@pytest.mark.parametrize("ring", RINGS)
def test_hh_of_products_matches_the_kunneth_reference(ring):
    # over Q every constant is a unit and A = 0, so products there have
    # no constant factor
    rng = random.Random(f"product {ring}")
    for k in range(4):
        factors = [_monic(rng) for _ in range(rng.randint(1, 2))]
        if CONSTANTS[ring] and k % 2 == 0:
            factors.insert(rng.randint(0, len(factors)), rng.choice(CONSTANTS[ring]))
        if len(factors) == 1:
            factors.append(_monic(rng))
        n_max = rng.randint(3, 6)
        assert (_hh_report(ring, factors, n_max)
                == _reference(ring, factors, n_max)), factors


# products whose factors' HH_odd carry torsion, so the Tor terms of the
# layered Kunneth step land one degree up; at nmax 3, as the HC half of
# layers on a constant factor times x^4 - 2x takes over a minute at nmax 4
LAYER_PRODUCTS = {
    "Z": ([[0, 0, 1], [0, -1, 0, 1]], [[0, 0, 1], 2, [0, 0, 0, 1]],
          [3, [0, -2, 0, 0, 1]], [[3, 3, 1], [0, 0, 1]]),
    "Z/4": ([[0, 0, 1], [0, 0, 1]], [2, [0, -1, 0, 1]], [[0, 0, 0, 1], [1, 0, 1]]),
    "Z/9": ([3, [0, -1, 0, 1], [0, 0, 1]], [[0, 0, 1], [0, 0, 0, 1]],
            [[0, -2, 0, 0, 1], 3]),
}


@pytest.mark.parametrize("ring", sorted(LAYER_PRODUCTS))
def test_layers_hh_sums_match_the_kunneth_reference(ring):
    # the HH half of layers combines the factors' layers weight by weight;
    # the sums of its layers in each degree are the HH of the product
    for factors in LAYER_PRODUCTS[ring]:
        hh = _hh_report(ring, factors, 3, "layers")
        sums = {str(n): HomologyGroup(0, ()).direct_sum(*(
                    HomologyGroup.from_factors(g["free_rank"], g["torsion"])
                    for key, g in hh["layers"].items() if key.startswith(f"{n},"))).to_json()
                for n in range(4)}
        assert sums == _reference(ring, factors, 3) == hh["total"], factors
