"""Write tests/layer_goldens.json from the current source tree.

    python3 tests/make_layer_goldens.py

Runs the `layers` command once on each fixture below and stores the job
text with the `hh` and `hc` fields of its report.  Refuses to write if
any job fails.  test_layer_goldens.py checks the source tree against the
file; the fixtures cover the rings the benchmark corpus leaves out of its
one `layers` job (over Z), each in well under a second.
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
}


def job_text(ring, variables, relations, nmax):
    lines = [f"ring {ring}", f"vars {variables}"]
    lines += [f"rel {r}" for r in relations]
    lines.append(f"nmax {nmax}")
    return "\n".join(lines) + "\n"


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    from shukla.cli import parse, run
    goldens = {}
    for name, fixture in FIXTURES.items():
        text = job_text(*fixture)
        report, ok = run(parse(text), "layers")
        if not ok:
            sys.exit(f"{name}: ok=False: {report}")
        goldens[name] = {"text": text, "hh": report["hh"], "hc": report["hc"]}
        print(name, "ok", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
