"""Write tests/layer_goldens.json from the current source tree.

    python3 tests/make_layer_goldens.py

Runs the `layers` command once on each fixture below and stores the job
text with the `hh` and `hc` fields of its report.  It also runs `compare`
on each fixture that is flat over its ring and stores the `hh`, `hc`,
`agree` and `all_agree` fields; a constant relation over Z/m leaves A
not flat, and there the pipelines disagree by design.  Refuses to write
if any job fails.  test_layer_goldens.py checks the source tree against
the file; the fixtures cover the rings the benchmark corpus leaves out of
its one `layers` job (over Z), each in well under a second.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "layer_goldens.json"

# name -> (ring, variables, relations, nmax)
FIXTURES = {
    "Z4_x2_n4": ("Z/4", "x", ("x^2",), 4),
    "Z4_x2_y2_n2": ("Z/4", "x y", ("x^2", "y^2"), 2),
    "Z6_x3mx_n3": ("Z/6", "x", ("x^3-x",), 3),
    "Z6_2_x2_n4": ("Z/6", "x", ("2", "x^2"), 4),
    "Z8_x2p2x_n3": ("Z/8", "x", ("x^2+2*x",), 3),
    "Z8_4_x2_n3": ("Z/8", "x", ("4", "x^2"), 3),
    "Z9_x2_n4": ("Z/9", "x", ("x^2",), 4),
    "Z9_x2p3y_y2_n2": ("Z/9", "x y", ("x^2+3*y", "y^2"), 2),
    "Q_x2_n5": ("Q", "x", ("x^2",), 5),
    "Q_x3mx_n3": ("Q", "x", ("x^3-x",), 3),
    "Q_x2_y2_n2": ("Q", "x y", ("x^2", "y^2"), 2),
    # a Fraction or a non-1 unit enters the normalized relations
    "Q_2x2m1_n4": ("Q", "x", ("2*x^2-1",), 4),
    "Q_3x2my_2y2_n2": ("Q", "x y", ("3*x^2-y", "2*y^2"), 2),
    "Z6_5x2p3_n3": ("Z/6", "x", ("5*x^2+3",), 3),
    # regular inputs whose layers, as graded pieces of a filtration over
    # Z/m, took more than 30 s; as block homology over Z they take < 1 s
    "Z6_x3mxy_y2m3_n2": ("Z/6", "x y", ("x^3-x*y", "y^2-3"), 2),
    "Z9_x3_y2m3y_n3": ("Z/9", "x y", ("x^3", "y^2-3*y"), 3),
    "Z8_x3m2x_n4": ("Z/8", "x", ("x^3-2*x",), 4),
}


def job_text(ring, variables, relations, nmax):
    lines = [f"ring {ring}", f"vars {variables}"]
    lines += [f"rel {r}" for r in relations]
    lines.append(f"nmax {nmax}")
    return "\n".join(lines) + "\n"


def is_flat(ring, relations):
    """False for a constant relation over Z/m, the one non-flat case here."""
    return not (ring.startswith("Z/") and any(r.isdigit() for r in relations))


def checked_run(name, text, command, fields):
    from shukla.cli import parse, run
    report, ok = run(parse(text), command)
    if not ok:
        sys.exit(f"{name} {command}: ok=False: {report}")
    return {f: report[f] for f in fields}


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    goldens = {}
    for name, (ring, variables, relations, nmax) in FIXTURES.items():
        text = job_text(ring, variables, relations, nmax)
        goldens[name] = {"text": text,
                         **checked_run(name, text, "layers", ("hh", "hc"))}
        if is_flat(ring, relations):
            goldens[name]["compare"] = checked_run(
                name, text, "compare", ("hh", "hc", "agree", "all_agree"))
        print(name, "ok", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
