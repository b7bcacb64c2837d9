"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -s`."""

import dataclasses
import json
import time
from pathlib import Path

import pytest

from trusttoken.errors import MatrixTamperError
from trusttoken.policy_engine import AccessAttribute, Actor, evaluate, modify_matrix
from trusttoken.puf_model import PufParams, evaluate_population, new_chip, reliability
from trusttoken.scenario_cli import bundled_config, cmd_run
from policy_helpers import StaticCredentialStore
from test_policy_engine import enumerate_models, enumerate_requests, literal_rules_verdict

CAMPAIGN_SEED = 2024


def ok(number, text):
    print(f"PASS criterion {number}: {text}")


@pytest.fixture(scope="module")
def campaign():
    start = time.perf_counter()
    metrics = evaluate_population(20, 16, CAMPAIGN_SEED, PufParams())
    return metrics, time.perf_counter() - start


def test_criterion_1_uniqueness(campaign):
    metrics, elapsed = campaign
    assert 45.0 <= metrics.uniqueness_pct <= 55.0
    assert elapsed < 5.0
    ok(1, f"uniqueness {metrics.uniqueness_pct:.2f}% in [45, 55], campaign {elapsed:.2f}s < 5s")


def test_criterion_2_randomness(campaign):
    metrics, _ = campaign
    assert 42.0 <= metrics.randomness_pct <= 58.0
    ok(2, f"randomness {metrics.randomness_pct:.2f}% in [42, 58]")


def test_criterion_3_reliability():
    params = PufParams()
    chip = new_chip(7, params)
    noiseless = reliability(chip, 2, 10, params)
    assert noiseless == 100.0
    noisy_params = dataclasses.replace(params, noise_sigma=params.process_variation_sigma / 20)
    noisy = reliability(chip, 2, 100, noisy_params)
    assert noisy >= 99.0
    ok(3, f"reliability noiseless {noiseless:.1f}% == 100, noisy {noisy:.2f}% >= 99")


def test_criterion_4_hamming_band(campaign):
    metrics, _ = campaign
    frac = metrics.fraction_in_band()
    assert frac >= 0.95
    ok(4, f"{100 * frac:.1f}% of pairwise distances in the 40-60% band (>= 95%)")


def test_criterion_5_scenario1(tmp_path):
    out = tmp_path / "s1"
    rc = cmd_run(str(bundled_config("scenario1.cfg")), out_path=str(out))
    assert rc == 0
    summary = json.loads((out / "report.json").read_text())
    assert summary["verdict"] == "BLOCKED"
    assert summary["denies"] == 1  # exactly the one scripted attack
    log = (out / "events.log").read_text()
    deny_lines = [l for l in log.splitlines() if "\tdeny\t" in l]
    assert len(deny_lines) == 1
    assert '"source": "app3"' in deny_lines[0] and '"target": "rsa"' in deny_lines[0]
    ok(5, "scenario1 BLOCKED, app3->rsa denied, exactly 1 denial")


def test_criterion_6_matrix_tamper_rejected(tmp_path):
    model = next(
        m for m in enumerate_models(max_users=2, max_procs=2, max_objects=2, samples_per_shape=1)
        if len(m.users) == 2 and len(m.objects) == 2 and len(m.processes) == 4
    ).sealed()
    entries = {o: (f"id{o}", f"tok{o}") for o in model.objects}
    store = StaticCredentialStore(entries)

    def sweep():
        return [
            evaluate(model, req, store) for req in enumerate_requests(model, entries)
        ]

    before = sweep()
    victim = model.processes[0]
    for actor in (Actor.USER, Actor.INTEGRATOR):  # integrator is locked out post-seal
        with pytest.raises(MatrixTamperError):
            modify_matrix(model, actor, victim.owner, victim, model.objects[0],
                          AccessAttribute.READ | AccessAttribute.WRITE | AccessAttribute.EXECUTE)
    assert sweep() == before

    out = tmp_path / "s2"
    rc = cmd_run(str(bundled_config("scenario2.cfg")), out_path=str(out))
    assert rc == 0
    assert json.loads((out / "report.json").read_text())["verdict"] == "BLOCKED"
    ok(6, "unauthorized matrix mutation rejected; decision sweep unchanged; scenario2 BLOCKED")


def test_criterion_7_scenario3_contrast(tmp_path):
    timings = {}
    for mode, expected_rc, expected_verdict in (
        ("trusttoken", 0, "BLOCKED"),
        ("trustzone-baseline", 2, "BREACHED"),
    ):
        out = tmp_path / f"s3-{mode}"
        start = time.perf_counter()
        rc = cmd_run(str(bundled_config("scenario3.cfg")), mode_override=mode, out_path=str(out))
        timings[mode] = time.perf_counter() - start
        assert rc == expected_rc
        assert json.loads((out / "report.json").read_text())["verdict"] == expected_verdict
        assert timings[mode] < 1.0
    ok(7, f"scenario3 trusttoken BLOCKED / baseline BREACHED, runs {timings} < 1s")


def test_criterion_8_oracle_equivalence():
    checked = 0
    for model in enumerate_models(max_users=3, max_procs=2, max_objects=3, samples_per_shape=2):
        entries = {o: (f"id{o}", f"tok{o}") for o in model.objects}
        store = StaticCredentialStore(entries)
        for req in enumerate_requests(model, entries):
            got = "yes" if evaluate(model, req, store) is None else "no"
            expected = literal_rules_verdict(model, req, store)
            assert got == expected, req
            checked += 1
    ok(8, f"evaluate matches the literal rules oracle on {checked} enumerated requests")


def test_criterion_9_determinism(tmp_path):
    cfg = str(bundled_config("scenario1.cfg"))
    for name in ("a", "b"):
        assert cmd_run(cfg, out_path=str(tmp_path / name)) == 0
    for artifact in ("report.json", "events.log"):
        assert (tmp_path / "a" / artifact).read_bytes() == (tmp_path / "b" / artifact).read_bytes()
    ok(9, "identical seeds give byte-identical report.json and events.log")


def test_criterion_10_hardware_tables_documented_only():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert "LUT" in readme and "not reproduc" in readme.lower()
    ok(10, "hardware utilization/power tables documented as not reproducible in software")
