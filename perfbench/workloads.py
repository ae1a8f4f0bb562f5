"""Job lists of the benchmark workloads and the seeded permutation of them.

A job is one CLI request: a command and a presentation.  The seed
permutes the order of the jobs in a pass; seed 0 is the identity.

The presentation stays as written.  The order of the vars lines selects
the monomial order and the order of the rel lines the generators of the
model, and both set a job's cost (the Z/9 job below takes ~8x longer with
y before x; hh_Z_4_x2_y2_n4 takes 1.2-2.4 s and hh_Z_x2_y2_z2_n3 2.0-3.0 s
over the orders of their rel lines), so a seed that permuted them would
set the workload's time by itself.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Job:
    name: str
    command: str
    ring: str
    variables: tuple
    relations: tuple
    nmax: int

    def text(self):
        lines = [f"ring {self.ring}"]
        if self.variables:
            lines.append("vars " + " ".join(self.variables))
        lines += [f"rel {r}" for r in self.relations]
        lines.append(f"nmax {self.nmax}")
        return "\n".join(lines) + "\n"


# Each workload puts most of its time in a different layer; README.md
# gives the measured shares and the layer each one is meant to expose.
WORKLOADS = {
    # Forms-complex construction (dpalgebra slices and derivation
    # matrices) dominates; no filtered elimination runs.
    "hh_build": (
        Job("hh_Z_x2_y2_n5", "hh", "Z", ("x", "y"), ("x^2", "y^2"), 5),
        Job("hh_Q_x2_y2_n5", "hh", "Q", ("x", "y"), ("x^2", "y^2"), 5),
        Job("hh_Z_x2_y2_z2_n3", "hh", "Z", ("x", "y", "z"),
            ("x^2", "y^2", "z^2"), 3),
        Job("hh_Z_cusp_n5", "hh", "Z", ("x", "y"), ("x^2-y^3",), 5),
        Job("hh_Z_4_x2_y2_n4", "hh", "Z", ("x", "y"), ("4", "x^2", "y^2"), 4),
    ),
    # Hodge-filtration elimination (mixed._column_graded_pieces ->
    # linalg.subquotient / kernel_basis) dominates; the Z/9 job takes the
    # Z/m presented-module path of homology_at.
    "hc_hodge": (
        Job("layers_Z_x2_y2_n4", "layers", "Z", ("x", "y"), ("x^2", "y^2"), 4),
        Job("hc_Z9_x2p3y_y2_n3", "hc", "Z/9", ("x", "y"), ("x^2+3*y", "y^2"), 3),
        Job("hc_Z_cusp_n4", "hc", "Z", ("x", "y"), ("x^2-y^3",), 4),
        Job("hc_Z_2_x2_n6", "hc", "Z", ("x",), ("2", "x^2"), 6),
    ),
    # Sparse integer elimination of bar-complex boundaries dominates; all
    # three pipelines and the crystalline layer run on every pass.
    "bar_oracle": (
        Job("oracle_Z_x2_y3_n3", "oracle", "Z", ("x", "y"), ("x^2", "y^3"), 3),
        Job("oracle_Z_x4m2x_n5", "oracle", "Z", ("x",), ("x^4-2*x",), 5),
        Job("oracle_Z4_x2_y2_n4", "oracle", "Z/4", ("x", "y"), ("x^2", "y^2"), 4),
        Job("compare_Z4_x2m2_n5", "compare", "Z/4", ("x",), ("x^2-2",), 5),
        Job("compare_Z_3_n9", "compare", "Z", (), ("3",), 9),
        Job("witness24_p3", "witness24 p=3", "Z", (), (), 3),
    ),
}

# One tiny job per workload, for the smoke check.
SMOKE = {
    "hh_build": (Job("smoke_hh_Z_x2_n3", "hh", "Z", ("x",), ("x^2",), 3),),
    "hc_hodge": (Job("smoke_layers_Z_x2_n2", "layers", "Z", ("x",), ("x^2",), 2),),
    "bar_oracle": (Job("smoke_compare_Z_x2_n3", "compare", "Z", ("x",), ("x^2",), 3),),
}


def permuted(jobs, seed):
    """The jobs in seed order."""
    out = list(jobs)
    if seed != 0:
        random.Random(seed).shuffle(out)
    return out
