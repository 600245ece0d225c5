"""The benchmark's own checks; run from the root of a checkout with

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs at its minimum number of passes (``--seconds 0``):
traced twice with the development seed, which must give byte-identical
counts and a span on every boundary the workload is meant to exercise, and
once untraced with a seed that was not used while the benchmark was
written, which must give no failed verdict.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEV_SEED = 1
UNSEEN_SEED = 8675309

# Boundaries each workload exercises, as span names ("module.function").
# A wrapper that misses one binding of a function (say script.blow_up while
# varieties.blow_up is wrapped) leaves its span count at zero here.
EXERCISED = {
    "lemmas-all": [
        "script.parse_script", "script.eval_expr", "script.verify_identity",
        "script.verify_numerical", "varieties.blow_up", "varieties.generic_context",
        "varieties.enumerate_basis", "varieties.ChowPresentation.coordinates",
        "numeric.rational_in_rowspan", "numeric.modp_in_rowspan",
        "rings.RingContext.__init__", "rings.RingContext.gen", "rings.RingContext.from_table",
        "rings.GradedClass.__mul__", "rings.evaluate", "characteristic.chern_total",
        "report.emit_report",
    ],
    "towers": [
        "varieties.projective_space", "varieties.product", "varieties.projective_bundle",
        "varieties.blow_up", "varieties.ChowPresentation.with_coefficients",
        "varieties.ChowPresentation.coordinates", "varieties.ChowPresentation.degree",
        "numeric.pairing_report", "numeric.integer_determinant", "numeric.gamma_quotient",
        "numeric.kernel_is_ideal", "numeric.modp_rank", "numeric.modp_kernel",
        "numeric.modp_rref", "rings.RingContext.__init__", "rings.GradedClass.__mul__",
    ],
    "operations": [
        "characteristic.steenrod_total", "characteristic.reduced_power",
        "characteristic.steenrod_embedded", "characteristic.embedded_power",
        "characteristic.chern_class", "characteristic.d_class",
        "milnor.make_ring", "milnor.MilnorElement.__mul__", "milnor.q_apply",
        "milnor.comult_check", "milnor.q_homology_dimensions", "numeric.modp_rank",
        "varieties.generic_context", "varieties.enumerate_basis",
        "varieties.ChowPresentation.with_coefficients", "rings.GradedClass.__mul__",
    ],
}


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_metric_names_match_benchmark_json():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import run as bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(EXERCISED)


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_traced_counts_are_deterministic_and_cover_boundaries(workload):
    counts_file = ROOT / ".perfbench_out" / f"{workload}-seed{DEV_SEED}.counts.json"
    docs = []
    for _ in range(2):
        res = result(run(workload, DEV_SEED, 1))
        assert res["correct"] and res["failed"] == 0
        docs.append(counts_file.read_bytes())
    assert docs[0] == docs[1]
    spans = json.loads(docs[0])["spans"]
    missing = [name for name in EXERCISED[workload] if not spans.get(name)]
    assert not missing, f"no spans on {missing}"


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_unseen_seed_has_no_failed_verdict(workload):
    res = result(run(workload, UNSEEN_SEED, 0))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_exits_without_result_outside_a_checkout():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("towers", DEV_SEED, 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
