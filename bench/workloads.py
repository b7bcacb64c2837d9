"""Seeded input generators and the expected-outcome oracle.

Every generator returns a scenario config as a plain dict, in the same
shape as the YAML files the ``trusttoken run`` CLI reads.  The oracle
``expected_outcome`` replays a config's script against a small model of
the documented security semantics and returns the grant/deny counts,
denial reasons and verdict the simulator must report.  It imports nothing
from the package, so the expectations are not derived from the code they
check.

Semantics the oracle encodes (README, PAPER.md, ROADMAP North star §3):

* trusttoken mode: an app reaches its own mapped IP; any other access to a
  HIGH target is denied for a token mismatch (the wrapper stamps its own
  IP's token).  A LOW target passes everything through.  A flipped-bit
  forgery is always a token mismatch.  The attacker holds only the
  boot-time (epoch 0) credentials: a replay of them is accepted in epoch 0
  and then reaches the matrix (granted only for the IP's own app), and is
  a token mismatch after any reprovision.  An integrity downgrade with the
  stolen boot token is granted in epoch 0 (documented limit); with no
  token, or after a reprovision, it is denied.  Reprovisioning re-binds
  every IP at its declared integrity level.  Matrix tampering by a user is
  always rejected.
* trustzone-baseline mode: no tokens.  A LOW (or downgraded) target, or
  any target once the interconnect check is tampered off, passes
  everything; otherwise only an app's own mapped IP is reachable (matrix
  deny).  Downgrades and the interconnect tamper always succeed and
  survive reprovisioning.
"""

from __future__ import annotations

import random

STUBS = ("AES", "DES", "TRNG", "RSA")
ATTACK_KINDS = (
    "forge_token",
    "cross_ip_access",
    "tamper_interconnect_signal",
    "tamper_integrity_level",
    "replay_stale_token",
)
ACCESS_STRINGS = ("r", "w", "e", "rw", "re", "we", "rwe")
MODES = ("trusttoken", "trustzone-baseline")

TOKEN_MISMATCH = "token_mismatch"
MATRIX_DENY = "matrix_deny"


def scenario1_topology() -> dict:
    """The bundled scenario1 topology: 2 CPUs, 5 apps, 4 HIGH IPs."""
    return {
        "cpus": [
            {"name": "cpu0", "apps": ["app1", "app2"]},
            {"name": "cpu1", "apps": ["app3", "app4", "app5"]},
        ],
        "ips": [
            {"stub": stub, "object": stub.lower(), "integrity": "HIGH"} for stub in STUBS
        ],
        "app_map": {"app1": "aes", "app2": "des", "app3": "trng", "app4": "rsa", "app5": "aes"},
    }


def wide_topology(rng: random.Random, n_cpus: int, apps_per_cpu: int, n_ips: int) -> dict:
    """n_cpus x apps_per_cpu apps over n_ips IPs, a quarter of them LOW;
    apps map to IPs by a seeded permutation (wrapping when apps > IPs)."""
    objects = [f"ip{i:03d}" for i in range(n_ips)]
    low = set(rng.sample(range(n_ips), n_ips // 4))
    ips = [
        {"stub": STUBS[i % len(STUBS)], "object": obj, "integrity": "LOW" if i in low else "HIGH"}
        for i, obj in enumerate(objects)
    ]
    apps = [f"c{c}a{a}" for c in range(n_cpus) for a in range(apps_per_cpu)]
    order = rng.sample(objects, n_ips)
    cpus = [
        {"name": f"cpu{c}", "apps": apps[c * apps_per_cpu:(c + 1) * apps_per_cpu]}
        for c in range(n_cpus)
    ]
    app_map = {app: order[i % n_ips] for i, app in enumerate(apps)}
    return {"cpus": cpus, "ips": ips, "app_map": app_map}


def _payload(rng: random.Random, size: int) -> str:
    return rng.getrandbits(8 * size).to_bytes(size, "big").hex()


def _access(rng, topology, cycle, own_frac, payload_bytes) -> dict:
    app_map = topology["app_map"]
    app = rng.choice(sorted(app_map))
    objects = [ip["object"] for ip in topology["ips"]]
    own = app_map[app]
    if rng.random() < own_frac or len(objects) == 1:
        target = own
    else:
        target = rng.choice([o for o in objects if o != own])
    return {
        "cycle": cycle,
        "type": "access",
        "app": app,
        "target": target,
        "access": rng.choice(ACCESS_STRINGS),
        "payload": _payload(rng, payload_bytes),
    }


def _attack(rng, topology, cycle, kind, documented_limit) -> dict:
    """One attack entry.  documented_limit picks the variant that breaches
    by design (stolen-token downgrade, own-IP replay)."""
    app_map = topology["app_map"]
    apps = sorted(app_map)
    objects = [ip["object"] for ip in topology["ips"]]
    app = rng.choice(apps)
    entry = {"cycle": cycle, "type": "attack", "kind": kind}
    if kind == "forge_token":
        entry.update(app=app, target=rng.choice(objects), flip_bit=rng.randrange(256))
    elif kind == "cross_ip_access":
        others = [o for o in objects if o != app_map[app]] or objects
        entry.update(app=app, target=rng.choice(others), access=rng.choice(ACCESS_STRINGS))
    elif kind == "tamper_interconnect_signal":
        entry.update(app=app, target=rng.choice(objects))
    elif kind == "tamper_integrity_level":
        token = "stolen" if documented_limit or rng.random() < 0.5 else "none"
        entry.update(target=rng.choice(objects), new_level="LOW", token=token)
    else:  # replay_stale_token
        own = documented_limit or rng.random() < 0.5
        entry.update(app=app, target=app_map[app] if own else rng.choice(objects))
    return entry


def make_script(rng, topology, n_accesses, own_frac, payload_bytes,
                attack_every, reprovision_every) -> list[dict]:
    """Accesses at cycles 1..n_accesses; a reprovision before the access of
    every reprovision_every-th cycle; an attack after the access of every
    attack_every-th cycle.

    The first four attacks are the other kinds in their breaching variant,
    so each documented limit shows in epoch 0 when attack_every * 4 <
    reprovision_every.  The interconnect tamper comes last: in baseline
    mode it switches every later check off, and the matrix path should
    carry the load until then.
    """
    others = [k for k in ATTACK_KINDS if k != "tamper_interconnect_signal"]
    first = others[:]
    rng.shuffle(first)
    last_slot = n_accesses // attack_every
    script = []
    for cycle in range(1, n_accesses + 1):
        if cycle % reprovision_every == 0:
            script.append({"cycle": cycle, "type": "reprovision"})
        script.append(_access(rng, topology, cycle, own_frac, payload_bytes))
        if cycle % attack_every == 0:
            slot = cycle // attack_every
            if slot == last_slot:
                kind, limit = "tamper_interconnect_signal", False
            elif slot <= len(first):
                kind, limit = first[slot - 1], True
            else:
                kind, limit = rng.choice(others), False
            script.append(_attack(rng, topology, cycle, kind, limit))
    return script


def txn_stream_config(seed: int, scale: float = 1.0) -> dict:
    """50k intents on scenario1's topology, ~90% own-IP, 16-byte payloads,
    an attack every 1000 cycles and a reprovision every 10k cycles."""
    rng = random.Random(f"txn-stream/{seed}")
    topology = scenario1_topology()
    n = max(20, int(50_000 * scale))
    script = make_script(rng, topology, n, own_frac=0.9, payload_bytes=16,
                         attack_every=max(2, n // 50), reprovision_every=max(15, n // 5))
    return {"mode": "trusttoken", "seed": rng.randrange(2**32), "max_cycles": n + 10,
            "topology": topology, "script": script}


def cli_sweep_config(seed: int, scale: float = 1.0) -> dict:
    """8 CPUs x 8 apps over 64 IPs (16 LOW), 300 accesses with an attack
    every 8 and a reprovision every 50."""
    rng = random.Random(f"cli-sweep/{seed}")
    n_ips = max(4, int(64 * scale))
    side = max(1, int(8 * scale ** 0.5))
    topology = wide_topology(rng, side, side, n_ips)
    n = max(20, int(300 * scale))
    script = make_script(rng, topology, n, own_frac=0.8, payload_bytes=16,
                         attack_every=max(2, n // 36), reprovision_every=max(15, n // 6))
    return {"mode": "trusttoken", "seed": rng.randrange(2**32), "max_cycles": n + 10,
            "topology": topology, "script": script}


def cli_sweep_seeds(seed: int) -> list[int]:
    """PUF/chip seeds each cli-sweep batch passes to ``run --seed``."""
    rng = random.Random(f"cli-sweep-seeds/{seed}")
    return [rng.randrange(2**32) for _ in range(3)]


def puf_campaign_args(seed: int, scale: float = 1.0) -> tuple[int, int, int]:
    """(chips, challenges, campaign seed) for one puf-eval call."""
    rng = random.Random(f"puf-campaign/{seed}")
    return max(4, int(100 * scale)), max(2, int(16 * scale)), rng.randrange(2**32)


def expected_outcome(config: dict, mode: str) -> dict:
    """Counts the report must show for this config in this mode."""
    topology = config["topology"]
    app_map = topology["app_map"]
    declared_low = {ip["object"] for ip in topology["ips"] if ip.get("integrity") == "LOW"}
    max_cycles = config["max_cycles"]
    token_mode = mode == "trusttoken"

    low = set(declared_low)
    check_enabled = True
    epoch = 0
    grants = denies = fired = blocked = t_granted = t_denied = 0
    reasons: dict[str, int] = {}

    def decide(app, target, replay=False, forged=False) -> bool:
        nonlocal grants, denies
        own = app_map[app] == target
        if token_mode:
            if target in low:
                ok, reason = True, None
            elif forged:
                ok, reason = False, TOKEN_MISMATCH
            elif replay:
                if epoch > 0:
                    ok, reason = False, TOKEN_MISMATCH
                else:
                    ok, reason = own, None if own else MATRIX_DENY
            else:
                ok, reason = own, None if own else TOKEN_MISMATCH
        else:
            ok = not check_enabled or target in low or own
            reason = None if ok else MATRIX_DENY
        if ok:
            grants += 1
        else:
            denies += 1
            reasons[reason] = reasons.get(reason, 0) + 1
        return ok

    entries = sorted(
        (e for e in config["script"] if e["cycle"] < max_cycles), key=lambda e: e["cycle"]
    )
    for e in entries:
        kind = e["type"]
        if kind == "access":
            decide(e["app"], e["target"])
        elif kind == "reprovision":
            epoch += 1
            if token_mode:
                low = set(declared_low)
        else:
            fired += 1
            attack = e["kind"]
            if attack == "cross_ip_access":
                stopped = not decide(e["app"], e["target"])
            elif attack == "forge_token":
                stopped = not decide(e["app"], e["target"], forged=True)
            elif attack == "replay_stale_token":
                stopped = not decide(e["app"], e["target"], replay=True)
            elif attack == "tamper_integrity_level":
                granted = not token_mode or (e.get("token") == "stolen" and epoch == 0)
                if granted:
                    t_granted += 1
                    low.add(e["target"])
                else:
                    t_denied += 1
                    reasons[TOKEN_MISMATCH] = reasons.get(TOKEN_MISMATCH, 0) + 1
                stopped = not granted
            else:  # tamper_interconnect_signal
                stopped = token_mode
                if not token_mode:
                    check_enabled = False
            blocked += stopped
    if fired == 0:
        verdict = "NONE"
    elif blocked == fired:
        verdict = "BLOCKED"
    else:
        verdict = "BREACHED"
    return {
        "grants": grants,
        "denies": denies,
        "denials_by_reason": dict(sorted(reasons.items())),
        "transitions": {"granted": t_granted, "denied": t_denied},
        "attacks": {"fired": fired, "blocked": blocked},
        "verdict": verdict,
    }
