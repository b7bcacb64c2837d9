"""Smoke test of the benchmark itself, at tiny batch sizes.

Run: python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--scale", "0.002"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    assert any(line.startswith("fail_frac = ") for line in lines)


def _package_attributes() -> dict:
    import trusttoken.scenario_cli  # noqa: F401

    snapshot = {}
    for name, mod in sys.modules.items():
        if name == "trusttoken" or name.startswith("trusttoken."):
            for key, value in vars(mod).items():
                snapshot[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snapshot[(name, key, attr)] = member
    return snapshot


def test_tracer_restores_every_attribute():
    before = _package_attributes()
    tracer = Tracer(layers.PACKAGE)
    try:
        assert layers.install(tracer) == []
        from trusttoken import scenario_cli, soc_sim, token_authority

        assert soc_sim.authorize is not before[("trusttoken.soc_sim", "authorize")]
        assert token_authority.authorize is soc_sim.authorize
        cfg = workloads.txn_stream_config(3, 0.002)
        sim = soc_sim.build(scenario_cli.parse_topology(cfg["topology"]), 1)
        soc_sim.run(sim, scenario_cli.parse_script(cfg["script"]), cfg["max_cycles"])
    finally:
        tracer.restore()
    after = _package_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.summary()["token_authority.authorize"]["calls"] > 0


@pytest.mark.parametrize("make", [workloads.txn_stream_config, workloads.cli_sweep_config])
def test_generator_is_deterministic(make):
    assert json.dumps(make(5, 0.01)) == json.dumps(make(5, 0.01))
    assert json.dumps(make(5, 0.01)) != json.dumps(make(6, 0.01))
    assert workloads.cli_sweep_seeds(5) == workloads.cli_sweep_seeds(5)
    assert workloads.puf_campaign_args(5) == workloads.puf_campaign_args(5)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "txn-stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
