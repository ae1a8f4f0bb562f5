"""Checks of the benchmark itself: smoke run, seeds, tracer bindings.

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

from tracer import SPANS, Tracer, metric_specs
from workloads import SMOKE, WORKLOADS, permuted

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def test_smoke_checks_names_units_and_goldens():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"smoke": "ok"}


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == set(metric_specs()) | {("trace_overhead", "ratio", "lower")}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(SMOKE)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_seed_zero_is_identity_and_other_seeds_permute():
    jobs = WORKLOADS["hh_build"]
    assert permuted(jobs, 0) == list(jobs)
    assert permuted(jobs, 7) == permuted(jobs, 7)
    shuffled = permuted(jobs, 7)
    assert sorted(j.name for j in shuffled) == sorted(j.name for j in jobs)
    by_name = {j.name: j for j in jobs}
    for job in shuffled:
        assert job == by_name[job.name]  # presentations stay as written


def test_tracer_patches_every_binding_and_restores_them():
    import shukla
    from shukla import cli, gammaforms, linalg, mixed
    before = (cli.build_gamma_forms, mixed.homology_at, gammaforms.derivation_matrix,
              shukla.homology_at, linalg.homology_at)
    tracer = Tracer()
    tracer.install()
    try:
        for f in (cli.build_gamma_forms, mixed.homology_at, mixed.subquotient,
                  gammaforms.derivation_matrix, shukla.homology_at, linalg.homology_at):
            assert hasattr(f, "__wrapped__")
        job = SMOKE["hc_hodge"][0]
        cli.run(cli.parse(job.text()), job.command)
    finally:
        tracer.uninstall()
    after = (cli.build_gamma_forms, mixed.homology_at, gammaforms.derivation_matrix,
             shukla.homology_at, linalg.homology_at)
    assert after == before
    metrics = tracer.metrics()
    assert metrics["mixed._column_graded_pieces.calls"] > 0
    assert metrics["linalg.subquotient.calls"] > 0
    for s in SPANS:
        assert metrics[f"{s}.self_s"] <= metrics[f"{s}.incl_s"] + 1e-9
