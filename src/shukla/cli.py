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
import json
import random
import sys
from dataclasses import dataclass, field

from .baroracle import cyclic_mixed, from_presentation
from .crystalline import Envelope, hc_layers_small, hodge_hh
from .errors import EngineError, NotQuasiMonic, ParseError, TooManyVariables, UnitP
from .gammaforms import (
    build_gamma_forms, hc_assemble, hh_assemble, hh_layers, witness_nondegeneracy,
)
from .linalg import GroundRing
from .mixed import cyclic_total, hochschild_total, validate
from .models import Presentation, koszul_model, trivial_model


@dataclass
class JobSpec:
    ring: GroundRing
    variables: tuple
    relations: tuple
    n_max: int = 3
    poly_bound: object = None
    warnings: list = field(default_factory=list)

    def presentation(self):
        return Presentation.make(self.ring, self.variables, self.relations)


def _tokenize_poly(text, line_no):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
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
            sign = 1 if kind == "+" else -1
            pos += 1
            continue
        coeff = sign
        exps = [0] * nv
        saw_factor = False
        while pos < len(tokens) and tokens[pos][0] not in "+-":
            kind, val, col = tokens[pos]
            if kind == "*":
                pos += 1
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
        else:
            raise ParseError(f"unknown statement {head!r}", line_no, 1)
    if ring is None:
        raise ParseError("missing 'ring' statement")
    relations = tuple(parse_poly(rest, variables, ln) for ln, rest in rel_lines)
    for (ln, _), rel in zip(rel_lines, relations):
        if all(ring.is_zero(ring.normalize(c)) for c in rel.values()):
            raise ParseError(f"relation is zero over {ring!r}", ln)
    job = JobSpec(ring, tuple(variables), relations, n_max, poly_bound)
    pres = job.presentation()
    if not pres.is_quasi_monic:
        job.warnings.append(
            "NonQuasiMonicWarning: some relation lacks a unit pure-power "
            "leading term; oracle and crystalline pipelines are unavailable")
    return job


def _groups_json(groups):
    return {str(n): g.to_json() for n, g in enumerate(groups)}


def _ring_name(ring):
    return repr(ring)


def _forms_complex(job):
    pres = job.presentation()
    if pres.variables or pres.relations:
        model = koszul_model(pres)
    else:
        model = trivial_model(job.ring)
    return pres, build_gamma_forms(model, job.n_max, job.poly_bound)


def run(job, command):
    """Execute one command; returns (report dict, ok flag)."""
    report = {
        "command": command,
        "ring": _ring_name(job.ring),
        "vars": list(job.variables),
        "nmax": job.n_max,
    }
    if job.warnings:
        report["warnings"] = list(job.warnings)
    try:
        if command == "hh":
            _, G = _forms_complex(job)
            report["hh"] = _groups_json(hh_assemble(G, job.n_max))
            return report, True
        if command == "hc":
            _, G = _forms_complex(job)
            report["hc"] = _groups_json(cyclic_total(G.complex, job.n_max))
            return report, True
        if command == "layers":
            _, G = _forms_complex(job)
            report["hh"] = hh_layers(G, job.n_max).to_json()
            report["hc"] = hc_assemble(G, job.n_max).to_json()
            return report, True
        if command == "oracle":
            pres = job.presentation()
            A = from_presentation(pres)
            cplx = cyclic_mixed(A, job.n_max)
            ok = bool(validate(cplx))
            report["validated"] = ok
            report["hh"] = _groups_json(hochschild_total(cplx, job.n_max))
            report["hc"] = _groups_json(cyclic_total(cplx, job.n_max))
            return report, ok
        if command == "compare":
            return _run_compare(job, report)
        if command.startswith("witness24"):
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


def _run_compare(job, report):
    pres, G = _forms_complex(job)
    n = job.n_max
    hh_cols = {"gamma_forms": dict(enumerate(hh_assemble(G, n)))}
    hc_cols = {"gamma_forms": dict(enumerate(cyclic_total(G.complex, n)))}
    hc_weak = {}
    if pres.is_quasi_monic:
        env = Envelope.make(pres)
        crys = hodge_hh(env, n)
        hh_cols["crystalline"] = {k: crys.total[k] for k in sorted(crys.total)}
        try:
            crys_hc = hc_layers_small(env, n)
            hc_weak["crystalline"] = {k: crys_hc.total[k]
                                      for k in sorted(crys_hc.total)}
        except TooManyVariables:
            pass
        if not pres.const_relations:
            A = from_presentation(pres)
            cplx = cyclic_mixed(A, n)
            hh_cols["oracle"] = dict(enumerate(hochschild_total(cplx, n)))
            hc_cols["oracle"] = dict(enumerate(cyclic_total(cplx, n)))
    hh_table, hh_ok = _agree_table(hh_cols)
    hc_table, hc_ok = _agree_table(hc_cols)
    weak_ok = True
    weak_table = {}
    if hc_weak:
        base = hc_cols["gamma_forms"]
        for k in sorted(base):
            g1 = base[k]
            g2 = hc_weak["crystalline"].get(k)
            ok = (g2 is not None and g1.free_rank == g2.free_rank
                  and g1.torsion_order == g2.torsion_order)
            weak_table[str(k)] = ok
            weak_ok = weak_ok and ok
    report["hh"] = {name: {str(k): g.to_json() for k, g in col.items()}
                    for name, col in hh_cols.items()}
    report["hc"] = {name: {str(k): g.to_json() for k, g in col.items()}
                    for name, col in hc_cols.items()}
    report["agree"] = {"hh": hh_table, "hc": hc_table}
    if weak_table:
        report["agree"]["hc_crystalline_layer_sums"] = weak_table
    ok = hh_ok and hc_ok and weak_ok
    report["all_agree"] = ok
    return report, ok


def _run_witness(job, command, report):
    parts = command.split()
    p = 2
    for part in parts[1:]:
        if part.startswith("p="):
            p = int(part[2:])
    ring = job.ring
    try:
        w = witness_nondegeneracy(ring, p)
        unit = False
    except UnitP:
        w = witness_nondegeneracy(ring, p, allow_unit=True)
        unit = True
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
    seed = getattr(job, "seed", 0)
    rng = random.Random(seed)
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
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        job = parse(text)
    except ParseError as exc:
        payload = {"error": {"type": "ParseError", "detail": str(exc)}}
        _emit(payload, args.json_out)
        return 2
    if args.nmax is not None:
        job.n_max = args.nmax
    job.seed = args.seed
    report, ok = run(job, args.cmd)
    _emit(report, args.json_out)
    return 0 if ok else 1


def _emit(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    sys.exit(main())
