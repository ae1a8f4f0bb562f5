"""Batch front end: parse a presentation, run a pipeline, emit JSON.

Input grammar (one statement per line, # starts a comment):

    ring Z            # or Z/4, Q
    vars x y
    rel x^2 - 2
    rel y^3
    nmax 4
    polybound 12      # optional; default chosen from the relations

Commands: hh, hc, layers, oracle, compare, witness24 p=<int>, selftest.
Output is deterministic JSON; the exit code is 0 iff every requested
check passed.
"""

import argparse
import contextlib
import json
import random
import re
import sys
from dataclasses import dataclass, field, replace

from .baroracle import cyclic_mixed, from_presentation
from .crystalline import hc_layers_small, hodge_hh
from .errors import EngineError, ParseError, TooManyVariables
from .gammaforms import (
    build_gamma_forms, hc_assemble, hh_assemble, hh_layers, witness_nondegeneracy,
)
from .linalg import GroundRing, universal_coefficients
from .mixed import FilteredGroups, cyclic_total, hochschild_total, validate
from .models import Presentation, koszul_model


@dataclass
class JobSpec:
    presentation: Presentation
    n_max: int = 3
    poly_bound: object = None
    warnings: list = field(default_factory=list)
    seed: int = 0


def _tokenize_poly(text, line_no):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        elif c in "+-^*":
            tokens.append((c, c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", line_no, i + 1)
    return tokens


def parse_poly(text, variables, line_no):
    """A signed sum of integer-coefficient monomials in the variables."""
    tokens = _tokenize_poly(text, line_no)
    if not tokens:
        raise ParseError("empty relation", line_no)
    var_index = {v: i for i, v in enumerate(variables)}
    nv = len(variables)
    poly = {}
    pos = 0

    def term_done(exps, coeff):
        e = tuple(exps)
        poly[e] = poly.get(e, 0) + coeff
        if poly[e] == 0:
            del poly[e]

    sign = 1
    while pos < len(tokens):
        kind, val, col = tokens[pos]
        if kind in "+-":
            # consecutive signs compose: x - -3 is x + 3
            if kind == "-":
                sign = -sign
            pos += 1
            if pos == len(tokens):
                raise ParseError("dangling sign", line_no, col + 1)
            continue
        coeff = sign
        exps = [0] * nv
        saw_factor = False
        while pos < len(tokens) and tokens[pos][0] not in "+-":
            kind, val, col = tokens[pos]
            if kind == "*":
                pos += 1
                # x^2 * -3 is not x^2 - 3
                if (not saw_factor or pos == len(tokens)
                        or tokens[pos][0] not in ("int", "name")):
                    raise ParseError("'*' needs a factor on each side", line_no, col + 1)
                continue
            if kind == "int":
                coeff *= val
                saw_factor = True
                pos += 1
            elif kind == "name":
                if val not in var_index:
                    raise ParseError(f"unknown variable {val!r}", line_no, col + 1)
                exp = 1
                pos += 1
                if pos < len(tokens) and tokens[pos][0] == "^":
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "int":
                        raise ParseError("exponent must be an integer",
                                         line_no, col + 1)
                    exp = tokens[pos][1]
                    pos += 1
                exps[var_index[val]] += exp
                saw_factor = True
            else:
                raise ParseError(f"unexpected token {val!r}", line_no, col + 1)
        if not saw_factor:
            raise ParseError("dangling sign", line_no, col + 1)
        term_done(exps, coeff)
        sign = 1
    return poly


def parse(text):
    """Parse job text into a JobSpec; raises ParseError with location."""
    ring = None
    variables = []
    rel_lines = []
    n_max = 3
    poly_bound = None
    bound_line = None
    seen = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head in ("ring", "vars", "nmax", "polybound"):
            if head in seen:
                raise ParseError(f"second {head!r} statement", line_no, 1)
            seen.add(head)
        if head == "ring":
            if rest == "Z":
                ring = GroundRing.Z()
            elif rest == "Q":
                ring = GroundRing.Q()
            elif rest.startswith("Z/"):
                try:
                    m = int(rest[2:])
                except ValueError:
                    raise ParseError(f"bad modulus {rest[2:]!r}", line_no)
                if m < 2:
                    raise ParseError("modulus must be >= 2", line_no)
                ring = GroundRing.Zmod(m)
            else:
                raise ParseError(f"unknown ring {rest!r}", line_no)
        elif head == "vars":
            variables = rest.split()
            if len(set(variables)) != len(variables):
                raise ParseError("duplicate variable name", line_no)
        elif head == "rel":
            rel_lines.append((line_no, rest))
        elif head == "nmax":
            try:
                n_max = int(rest)
            except ValueError:
                raise ParseError(f"bad nmax {rest!r}", line_no)
            if n_max < 0:
                raise ParseError("nmax must be >= 0", line_no)
        elif head == "polybound":
            try:
                poly_bound = int(rest)
            except ValueError:
                raise ParseError(f"bad polybound {rest!r}", line_no)
            if poly_bound < 0:
                raise ParseError("polybound must be >= 0", line_no)
            bound_line = line_no
        else:
            raise ParseError(f"unknown statement {head!r}", line_no, 1)
    if ring is None:
        raise ParseError("missing 'ring' statement")
    relations = tuple(parse_poly(rest, variables, ln) for ln, rest in rel_lines)
    for (ln, _), rel in zip(rel_lines, relations):
        if all(ring.is_zero(ring.normalize(c)) for c in rel.values()):
            raise ParseError(f"relation is zero over {ring!r}", ln)
    pres = Presentation.make(ring, variables, relations)
    job = JobSpec(pres, n_max, poly_bound)
    # the Koszul generator of a relation has its total degree as weight;
    # below it the generator lies in no slice and the relation is lost
    top = max((sum(e) for rel in pres.relations for e in rel), default=0)
    if poly_bound is not None and poly_bound < top:
        raise ParseError(f"polybound {poly_bound} is below the relation "
                         f"degree {top}", bound_line)
    # A = 0 runs every pipeline (run builds it from _zero_if_unit)
    if not pres.is_quasi_monic and not pres.is_zero_algebra:
        job.warnings.append(
            "NonQuasiMonicWarning: some relation lacks a unit pure-power "
            "leading term; oracle and crystalline pipelines are unavailable")
    return job


def _groups_json(groups):
    return {str(n): g.to_json() for n, g in enumerate(groups)}


def _forms_complex(job, pres):
    return build_gamma_forms(koszul_model(pres), job.n_max, job.poly_bound)


def _lifted(pres):
    """The presentation to build from, and the map taking its groups
    H_0..H_N to the groups over pres.ring.

    Every Z/m presentation is built over Z from its stored relations,
    whose coefficients lie in [0, m): none lacks a lift.  Its Koszul
    forms complex and its bar complex are free over Z and reduce mod m to
    those built over Z/m, quasi-monic or not, so the universal
    coefficient theorem reads the Z/m groups off the Z ones.  A stored
    Z/m relation with a unit leading coefficient is scaled to 1, so the
    lift is quasi-monic exactly when pres is.  Z and Q presentations are
    built as they are.
    """
    if pres.ring.kind != "Zmod":
        return pres, lambda groups: groups
    lift = Presentation.make(GroundRing.Z(), pres.variables, pres.relations)
    return lift, lambda groups: universal_coefficients(groups, pres.ring)


def _layers_in_ring(groups, n_max, in_ring):
    """The groups computed over the lift, mapped to the ring: each
    weight's layers are H_0..H_n_max of one block of the forms complex,
    so in_ring maps them as a chain, and the totals stay the sums of the
    layers, since H, (x) and Tor are additive."""
    layers = {}
    for p in {p for (_, p) in groups.layers}:
        chain = in_ring([groups.layer(n, p) for n in range(n_max + 1)])
        layers.update(((n, p), h) for n, h in enumerate(chain))
    return FilteredGroups.of_layers(layers, n_max)


def _zero_if_unit(pres):
    """pres, or the presentation of A = 0 (no variables and the one
    relation 1) when some relation of pres is a unit of k[x].

    Then 1 = 0 in A and every group is 0, which the forms complex of the
    small presentation shows at once.  Over Z/m it is replaced before
    the lift: the lift of a unit such as 2x + 1 over Z/4 is no unit over
    Z, while the lift of the relation 1 is a zero algebra there too.
    """
    if pres.is_zero_algebra:
        return Presentation.make(pres.ring, (), ({(): 1},))
    return pres


def run(job, command):
    """Execute one command; returns (report dict, ok flag).

    The report echoes the job as given; the pipelines are built from
    _zero_if_unit of its presentation, lifted once by _lifted."""
    report = {
        "command": command,
        "ring": repr(job.presentation.ring),
        "vars": list(job.presentation.variables),
        "nmax": job.n_max,
    }
    if job.warnings:
        report["warnings"] = list(job.warnings)
    job = replace(job, presentation=_zero_if_unit(job.presentation))
    try:
        built, in_ring = _lifted(job.presentation)
        n = job.n_max
        if command in ("hh", "hc", "layers"):
            G = _forms_complex(job, built)
            if command == "hh":
                report["hh"] = _groups_json(in_ring(hh_assemble(G, n)))
            elif command == "hc":
                report["hc"] = _groups_json(in_ring(cyclic_total(G.complex, n)))
            else:
                for key, groups in (("hh", hh_layers(G, n)), ("hc", hc_assemble(G, n))):
                    report[key] = _layers_in_ring(groups, n, in_ring).to_json()
            return report, True
        if command == "oracle":
            cplx = cyclic_mixed(from_presentation(built), n)
            ok = bool(validate(cplx))
            report["validated"] = ok
            report["hh"] = _groups_json(in_ring(hochschild_total(cplx, n)))
            report["hc"] = _groups_json(in_ring(cyclic_total(cplx, n)))
            return report, ok
        if command == "compare":
            return _run_compare(job, built, in_ring, report)
        if command.split()[:1] == ["witness24"]:
            return _run_witness(job, command, report)
        if command == "selftest":
            return _run_selftest(job, report)
    except EngineError as exc:
        report["error"] = {"type": type(exc).__name__, "detail": str(exc)}
        return report, False
    report["error"] = {"type": "UnknownCommand", "detail": command}
    return report, False


def _agree_table(columns):
    """Per-degree agreement across the available pipelines."""
    table = {}
    all_ok = True
    degrees = sorted({n for col in columns.values() for n in col})
    for n in degrees:
        values = [col[n] for col in columns.values() if n in col]
        ok = all(v == values[0] for v in values)
        table[str(n)] = ok
        all_ok = all_ok and ok
    return table, all_ok


def _run_compare(job, built, in_ring, report):
    # built, in_ring = _lifted(pres) serve the forms and oracle columns;
    # the crystalline column stays on pres, a check the lift does not share
    pres = job.presentation
    G = _forms_complex(job, built)
    n = job.n_max
    hh_cols = {"gamma_forms": dict(enumerate(in_ring(hh_assemble(G, n))))}
    hc_cols = {"gamma_forms": dict(enumerate(in_ring(cyclic_total(G.complex, n))))}
    crys_hc = None
    if pres.is_quasi_monic:
        crys = hodge_hh(pres, n)
        hh_cols["crystalline"] = {k: crys.total[k] for k in sorted(crys.total)}
        try:
            crys_hc = hc_layers_small(pres, n).total
        except TooManyVariables:
            pass
    if pres.is_zero_algebra or (pres.is_quasi_monic and not pres.consts):
        # A is finite free over k, the zero algebra included
        cplx = cyclic_mixed(from_presentation(built), n)
        hh_cols["oracle"] = dict(enumerate(in_ring(hochschild_total(cplx, n))))
        hc_cols["oracle"] = dict(enumerate(in_ring(cyclic_total(cplx, n))))
    report["hh"] = {name: {str(k): g.to_json() for k, g in col.items()}
                    for name, col in hh_cols.items()}
    report["hc"] = {name: {str(k): g.to_json() for k, g in col.items()}
                    for name, col in hc_cols.items()}
    if len(hh_cols) < 2:
        # one pipeline agrees with itself, which checks nothing
        report["pipelines"] = len(hh_cols)
        return report, False
    hh_table, hh_ok = _agree_table(hh_cols)
    hc_table, hc_ok = _agree_table(hc_cols)
    report["agree"] = {"hh": hh_table, "hc": hc_table}
    ok = hh_ok and hc_ok
    if crys_hc is not None:
        # the crystalline HC totals are the direct sums of its layers
        sum_table, sum_ok = _agree_table({"gamma_forms": hc_cols["gamma_forms"],
                                          "crystalline": crys_hc})
        report["agree"]["hc_crystalline_layer_sums"] = sum_table
        ok = ok and sum_ok
    report["all_agree"] = ok
    return report, ok


def _run_witness(job, command, report):
    p = None
    for part in command.split()[1:]:
        m = re.fullmatch(r"p=([0-9]+)", part)
        if m is None:
            raise ParseError(f"bad witness parameter {part!r}")
        if p is not None:
            raise ParseError(f"witness24 takes one p=, got a second {part!r}")
        p = int(m.group(1))
    if p is None:
        p = 2
    if p < 2:
        raise ParseError(f"witness24 needs p >= 2, got {p}")
    ring = job.presentation.ring
    unit = ring.is_unit(ring.normalize(p))
    w = witness_nondegeneracy(ring, p)
    report["witness"] = w.to_json()
    report["p"] = p
    report["p_is_unit"] = unit
    if unit:
        # negative control: the class must bound once p is invertible
        ok = w.cycle and w.boundary and w.beta_identity
    else:
        ok = w.cycle and not w.boundary and w.beta_identity
    return report, ok


def _run_selftest(job, report):
    rng = random.Random(job.seed)
    results = {}
    ok = True

    from .linalg import SparseMatrix, det, snf
    fails = 0
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        M = SparseMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)],
            GroundRing.Z())
        U, S, V = snf(M)
        if (U * M) * V != S or abs(det(U.to_rows())) != 1 or abs(det(V.to_rows())) != 1:
            fails += 1
    results["snf"] = {"cases": 100, "failures": fails}
    ok = ok and fails == 0

    from .dpalgebra import contraction_complex, derive, homotopy_h
    data = contraction_complex(GroundRing.Z(), [("v", 2)], [("w0", 1), ("w1", 2)])
    alg = data.algebra
    fails = 0
    cases = 0
    for _ in range(50):
        letters = []
        for g in alg.generators:
            cap = 1 if g.kind == "ext" else 2
            e = rng.randint(0, cap)
            if e:
                letters.append((g.name, e))
        if not any(name in data.w_names or name in data.dw_of.values()
                   for name, _ in letters):
            continue
        e = alg.element({alg.monomial(letters): rng.randint(-3, 3)})
        if e.is_zero():
            continue
        cases += 1
        D = data.boundary
        lhs = homotopy_h(data, derive(D, e)) + derive(D, homotopy_h(data, e))
        if lhs != e or not homotopy_h(data, homotopy_h(data, e)).is_zero():
            fails += 1
    results["contraction"] = {"cases": cases, "failures": fails}
    ok = ok and fails == 0

    pres = Presentation.make(GroundRing.Z(), ["x"], [{(2,): 1}])
    G = build_gamma_forms(koszul_model(pres), 3)
    v1 = validate(G.complex)
    A = from_presentation(pres)
    v2 = validate(cyclic_mixed(A, 3))
    results["validate_fixture"] = {"gamma_forms": bool(v1), "bar": bool(v2)}
    ok = ok and bool(v1) and bool(v2)
    report["selftest"] = results
    return report, ok


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="shukla",
        description="Exact Hochschild/cyclic homology of finitely "
                    "presented commutative algebras.")
    ap.add_argument("--input", help="job file (defaults to stdin)")
    ap.add_argument("--cmd", required=True,
                    help="hh | hc | layers | oracle | compare | "
                         "witness24 p=<int> | selftest")
    ap.add_argument("--nmax", type=int, help="override nmax")
    ap.add_argument("--json", dest="json_out", help="write the report here")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for selftest randomization")
    args = ap.parse_args(argv)
    with contextlib.ExitStack() as stack:
        out = sys.stdout
        try:
            # opened before the job runs, so a bad report path costs no
            # work; append mode keeps the file until the report replaces it
            if args.json_out:
                out = stack.enter_context(open(args.json_out, "a", encoding="utf-8"))
            if args.input:
                with open(args.input, encoding="utf-8") as fh:
                    text = fh.read()
            else:
                text = sys.stdin.read()
            job = parse(text)
            if args.nmax is not None:
                if args.nmax < 0:
                    raise ParseError("--nmax must be >= 0")
                job.n_max = args.nmax
        except (ParseError, OSError, UnicodeDecodeError) as exc:
            # unreadable input has no meaning either
            payload = {"error": {"type": "ParseError", "detail": str(exc)}}
            _emit(payload, out)
            return 2
        job.seed = args.seed
        report, ok = run(job, args.cmd)
        _emit(report, out)
        return 0 if ok else 1


def _emit(payload, out):
    """Write the report to out; a report file loses its old contents."""
    if out is not sys.stdout:
        out.truncate(0)
    out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
