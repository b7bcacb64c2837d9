"""trusttoken benchmark: one command, one workload per invocation.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs batches of the workload one at a time, each in a fresh process
(worker.py), until S seconds have passed; checks every batch's outputs;
prints the metrics by name with their units; and prints as the last
stdout line one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced batches and
reports its per-layer metrics, plus the tracing overhead.  Exits 2 without
a result when the package source is not in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
PACKAGE_SRC = ROOT / "src" / "trusttoken"
OUT = ROOT / ".bench_out"
WORKLOADS = ("txn-stream", "cli-sweep", "puf-campaign")
DEFAULT_SEED = 1
BUDGET_S = 170  # every run must end within 180 s


def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def commit_stamp() -> str:
    """Git commit when the checkout has one, plus a digest of the package
    source, which identifies the code either way."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE_SRC.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(str(path.relative_to(PACKAGE_SRC)).encode() + b"\0" + path.read_bytes())
    head = ROOT / ".git" / "HEAD"
    rev = "none"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        rev = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    return f"git {rev[:12]}, src sha256 {h.hexdigest()[:16]}"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_batch(workload, seed, scale, traced, index, deadline) -> dict:
    out = OUT / workload / f"batch{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", str(scale), "--trace", str(int(traced)),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": ["batch timed out"], "traced": traced}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"ok": False, "errors": [f"worker exit {proc.returncode}: {tail}"],
                "traced": traced}
    result["traced"] = traced
    return result


def check_digests(batches, expected_digests) -> None:
    """Every batch must write the same bytes, and the bytes recorded for
    this seed at the seed commit when there is a record."""
    reference = expected_digests
    for b in batches:
        if "digests" not in b:
            continue
        if reference is None:
            reference = b["digests"]
        elif b["digests"] != reference:
            b["ok"] = False
            changed = sorted(k for k in set(reference) | set(b["digests"])
                             if reference.get(k) != b["digests"].get(k))
            b["errors"].append(f"output digests differ: {', '.join(changed)}")


def end_to_end(plain) -> dict:
    walls = [b["wall_s"] for b in plain]
    return {
        "wall_s": median(walls),
        "setup_s": median([s for b in plain for s in b["setup_s"]]),
        "txn_per_s": median([b["ops"] / b["wall_s"] for b in plain]),
        "peak_rss_mb": median([b["peak_rss_mb"] for b in plain]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="batch size factor; below 1 only for the smoke test")
    args = parser.parse_args(argv)

    if not (PACKAGE_SRC / "__init__.py").is_file():
        print(f"error: package source not found at {PACKAGE_SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    recorded = json.loads((BENCH / "expected.json").read_text())
    record = recorded.get(str(args.seed), {}).get(args.workload) if args.scale == 1 else None

    started = time.monotonic()
    deadline = started + BUDGET_S
    # Compiles the package's bytecode and warms the file cache; not measured.
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                    "import trusttoken.scenario_cli"], cwd=ROOT, capture_output=True,
                   timeout=BUDGET_S)
    t_end = time.monotonic() + seconds
    batches = []
    while True:
        traced = bool(args.trace) and len(batches) % 2 == 1
        batches.append(run_batch(args.workload, args.seed, args.scale, traced,
                                 len(batches), deadline))
        if time.monotonic() >= deadline or batches[-1]["errors"] == ["batch timed out"]:
            break
        if time.monotonic() >= t_end and (not args.trace or len(batches) % 2 == 0):
            break
    check_digests(batches, record["digests"] if record else None)

    plain = [b for b in batches if not b["traced"] and "wall_s" in b]
    traced_runs = [b for b in batches if b["traced"] and "layers" in b]
    failed = sum(not b["ok"] for b in batches)
    if not plain or (args.trace and not traced_runs):
        for err in (e for b in batches for e in b["errors"]):
            print(f"FAIL batch: {err}", file=sys.stderr)
        print("error: no batch completed", file=sys.stderr)
        return 1

    e2e = end_to_end(plain)
    if args.trace:
        values = {k: median([b["layers"][k] for b in traced_runs])
                  for k in traced_runs[0]["layers"]}
        values["trace.overhead_s"] = median([b["wall_s"] for b in traced_runs]) - e2e["wall_s"]
        missing = sorted({t for b in traced_runs for t in b.get("missing_targets", [])})
        if missing:
            print(f"warning: traced targets not found: {', '.join(missing)}", file=sys.stderr)
    else:
        values = e2e
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1

    env = dict(plain[0]["env"], cpu=cpu_model(), commit=commit_stamp())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"batches {len(batches)} ({len(plain)} untraced)  "
          f"measured {time.monotonic() - started:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for b in batches:
        for err in b["errors"]:
            print(f"FAIL batch: {err}")
    print(f"fail_frac = {failed / len(batches):.4f} ratio ({failed} of {len(batches)} batches)")
    samples = {"wall_s": [b["wall_s"] for b in plain],
               "setup_s": [s for b in plain for s in b["setup_s"]]}
    for name, value in values.items():
        line = f"{name} = {value:.6g} {units[name]}"
        if name in samples:
            lo, hi = quartiles(samples[name])
            line += f"  (median of {len(samples[name])}, q1 {lo:.6g}, q3 {hi:.6g})"
        print(line)

    (OUT / args.workload).mkdir(parents=True, exist_ok=True)
    (OUT / args.workload / f"result-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "seed": args.seed, "metrics": values, "batches": batches}, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(batches),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
