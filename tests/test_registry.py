import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowcalc
from chowcalc import registry
from chowcalc.cli import main
from chowcalc.report import emit_report
from chowcalc.script import parse_script

EXPECTED_IDS = [
    "A15-L2",
    "A18-L3",
    "A18-L5",
    "A18-L6",
    "A20-L1",
    "A20-L2",
    "A23-L1",
    "A23-L1-SL1",
    "A23-L1-SL2",
    "A23-L2-SL1",
    "A23-L2-SL4",
    "A23-L2-SL5",
    "A23-L3",
    "A23-L4",
]


def test_registry_is_complete():
    assert [rec.id for rec in registry.all_records()] == EXPECTED_IDS


def test_unknown_id_raises():
    with pytest.raises(KeyError):
        registry.get("A99-L9")


@pytest.mark.parametrize("record_id", EXPECTED_IDS)
def test_script_parses(record_id):
    parse_script(registry.get(record_id).script)


@pytest.mark.parametrize("record_id", EXPECTED_IDS)
def test_scenario_passes(record_id):
    rep = registry.run(record_id)
    assert rep.ok, emit_report(rep, "human").decode()
    assert rep.counts["passed"] >= 1


def test_expansion_matrix_reported():
    rep = registry.run("A23-L1-SL2")
    assert rep.values["matrix"] == "((20 -2) (5 1))"


def test_every_sourced_assertion_names_its_record():
    for rec in registry.all_records():
        rep = registry.run(rec.id)
        tags = {r.tag for r in rep.results if r.tag.startswith("lemma:")}
        assert f"lemma:{rec.id}" in tags


def test_run_all_merges():
    rep = registry.run_all()
    assert rep.ok
    assert rep.counts["passed"] >= 60


def test_lemmas_all_json_is_pinned(capsysbinary):
    # the bytes of `chowcalc lemmas --all --format json --seed 0`, pinned so
    # that a change meant to keep the output must keep it byte for byte
    pinned = Path(__file__).parent / "data" / "lemmas_all_seed0.json"
    assert main(["lemmas", "--all", "--format", "json", "--seed", "0"]) == 0
    assert capsysbinary.readouterr().out == pinned.read_bytes()


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_python_m_chowcalc_matches_pin(hash_seed):
    # ideal spans are kept under keys of frozensets, whose iteration order
    # follows the hash seed; the emitted bytes must not
    src = str(Path(chowcalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "chowcalc", "lemmas", "--all", "--format", "json", "--seed", "0"],
        capture_output=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode()
    pinned = Path(__file__).parent / "data" / "lemmas_all_seed0.json"
    assert run.stdout == pinned.read_bytes()
