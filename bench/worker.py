"""One batch of one workload, in a fresh process started by run.py.

Usage: python3 bench/worker.py --workload NAME --seed N --scale X --trace 0|1 --out DIR

Imports the package from ``src/`` of the checkout this file sits in,
generates the batch's inputs from the seed, runs it, checks the outputs
against the oracle, and prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUTPUT_FILES = ("events.log", "report.json", "metrics.json", "hamming.csv")

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.name in OUTPUT_FILES
    }


def compare_report(path: Path, expected: dict, where: str, errors: list) -> int:
    """Check report.json against the oracle; returns transactions decided."""
    got = json.loads(path.read_text())
    for key, value in expected.items():
        if got.get(key) != value:
            errors.append(f"{where}: {key} is {got.get(key)!r}, expected {value!r}")
    return got["grants"] + got["denies"]


def txn_stream(pkg, seed, scale, out, traced, errors):
    sc, soc_sim = pkg.scenario_cli, pkg.soc_sim
    cfg = workloads.txn_stream_config(seed, scale)
    t0 = time.perf_counter()
    topology = sc.parse_topology(cfg["topology"])
    script = sc.parse_script(cfg["script"])
    sim = soc_sim.build(topology, cfg["seed"], mode=cfg["mode"])
    setup = time.perf_counter() - t0
    log = soc_sim.run(sim, script, cfg["max_cycles"])
    summary = soc_sim.report(log)
    (out / "report.json").write_text(summary.to_json())
    (out / "events.log").write_text(log.to_text())
    wall = time.perf_counter() - t0
    ops = compare_report(out / "report.json", workloads.expected_outcome(cfg, cfg["mode"]),
                         "txn-stream", errors)
    return wall, [setup], ops


def cli_sweep(pkg, seed, scale, out, traced, errors):
    import yaml

    sc, soc_sim = pkg.scenario_cli, pkg.soc_sim
    cfg = workloads.cli_sweep_config(seed, scale)
    cfg_path = out / "sweep.cfg"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    wall, setups, ops = 0.0, [], 0
    for mode in workloads.MODES:
        expected = workloads.expected_outcome(cfg, mode)
        for i, sim_seed in enumerate(workloads.cli_sweep_seeds(seed)):
            run_out = out / f"{mode}-{sim_seed}"
            argv = ["run", "--config", str(cfg_path), "--mode", mode,
                    "--seed", str(sim_seed), "--out", str(run_out)]
            t0 = time.perf_counter()
            rc = sc.main(argv)
            wall += time.perf_counter() - t0
            want_rc = 2 if expected["verdict"] == "BREACHED" else 0
            if rc != want_rc:
                errors.append(f"cli-sweep {mode}/{sim_seed}: exit {rc}, expected {want_rc}")
                continue
            ops += compare_report(run_out / "report.json", expected,
                                  f"cli-sweep {mode}/{sim_seed}", errors)
            if traced or i > 0:
                continue
            # Set-up on the same inputs, once per mode, timed beside the run
            # and not part of wall.
            t0 = time.perf_counter()
            config = sc.load_config(cfg_path)
            params = sc.parse_puf_params(config.get("puf"))
            topology = sc.parse_topology(config["topology"])
            sc.parse_script(config["script"])
            soc_sim.build(topology, sim_seed, mode=mode, params=params)
            setups.append(time.perf_counter() - t0)
    return wall, setups, ops


def puf_campaign(pkg, seed, scale, out, traced, errors):
    chips, challenges, campaign_seed = workloads.puf_campaign_args(seed, scale)
    argv = ["puf-eval", "--chips", str(chips), "--challenges", str(challenges),
            "--seed", str(campaign_seed), "--out", str(out)]
    t0 = time.perf_counter()
    rc = pkg.scenario_cli.main(argv)
    wall = time.perf_counter() - t0
    if rc != 0:
        errors.append(f"puf-campaign: exit {rc}, expected 0")
        return wall, [], 0
    m = json.loads((out / "metrics.json").read_text())
    if not 45.0 <= m["uniqueness_pct"] <= 55.0:
        errors.append(f"puf-campaign: uniqueness {m['uniqueness_pct']:.3f}% outside 45-55%")
    if m["fraction_in_40_60_band"] < 0.95:
        errors.append(f"puf-campaign: {m['fraction_in_40_60_band']:.4f} of distances in 40-60%")
    with (out / "hamming.csv").open() as fh:
        rows = sum(1 for _ in fh) - 1
    want = challenges * chips * (chips - 1) // 2
    if rows != want:
        errors.append(f"puf-campaign: hamming.csv has {rows} rows, expected {want}")
    return wall, [], rows


WORKLOADS = {"txn-stream": txn_stream, "cli-sweep": cli_sweep, "puf-campaign": puf_campaign}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy
    import yaml

    import trusttoken.scenario_cli
    import_s = time.perf_counter() - t0
    pkg = sys.modules["trusttoken"]
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        print(f"error: trusttoken imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    out = Path(args.out)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    errors: list[str] = []
    result: dict = {"env": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
        "nproc": os.cpu_count(),
    }}
    tracer = Tracer(layers.PACKAGE) if args.trace else None
    if tracer is not None:
        result["missing_targets"] = layers.install(tracer)
    try:
        wall, setups, ops = WORKLOADS[args.workload](
            pkg, args.seed, args.scale, out, bool(tracer), errors)
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        result["layers"] = layers.metrics(tracer)
        tracer.write(out / "spans.tsv")
    if args.workload == "puf-campaign":
        # puf-eval has no set-up phase of its own; its set-up is the import.
        setups = [import_s]
    result.update(
        ok=not errors,
        errors=errors,
        wall_s=wall,
        setup_s=setups,
        ops=ops,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        digests=digests(out),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
