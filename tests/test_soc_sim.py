import importlib.util
import json
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import log_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from log_oracle import records
from policy_helpers import integrity_of

from trusttoken import soc_sim, token_authority
from trusttoken.errors import ConfigurationError, SimulationFault, TrustTokenError
from trusttoken.policy_engine import AccessAttribute, IntegrityLevel, ProcessId
from trusttoken.scenario_cli import (
    bundled_config,
    load_config,
    parse_puf_params,
    parse_script,
    parse_topology,
)
from trusttoken.soc_sim import (
    MODE_BASELINE,
    MODE_TRUSTTOKEN,
    MODES,
    AttackInjection,
    AttackKind,
    CpuSpec,
    EventLog,
    IpSpec,
    ReprovisionEvent,
    Topology,
    TransactionIntent,
    build,
    report,
    run,
)
from trusttoken.token_authority import AuthorizationOutcome
from trusttoken.trust_wrapper import WrappedTransaction

R = AccessAttribute.READ
RWE = AccessAttribute.READ | AccessAttribute.WRITE | AccessAttribute.EXECUTE


def paper_topology(integrity=IntegrityLevel.HIGH):
    return Topology(
        cpus=(
            CpuSpec("cpu0", ("app1", "app2")),
            CpuSpec("cpu1", ("app3", "app4", "app5")),
        ),
        wrapped_ips=(
            IpSpec("AES", "aes", integrity),
            IpSpec("DES", "des", integrity),
            IpSpec("TRNG", "trng", integrity),
            IpSpec("RSA", "rsa", integrity),
        ),
        app_to_ip={"app1": "aes", "app2": "des", "app3": "trng", "app4": "rsa", "app5": "aes"},
    )


def one_ip_topology(cpu="cpu0", app="app1", obj="aes"):
    return Topology(cpus=(CpuSpec(cpu, (app,)),), wrapped_ips=(IpSpec("AES", obj),),
                    app_to_ip={app: obj})


# one_ip_topology's name arguments and what Topology.validate calls them
NAMED = [("cpu", "CPU"), ("app", "application"), ("obj", "object")]


def benign_script():
    return [
        TransactionIntent(1, "app1", "aes", RWE, b"\x01"),
        TransactionIntent(2, "app2", "des", R, b"\x02"),
        TransactionIntent(3, "app3", "trng", R, b"\x03"),
        TransactionIntent(4, "app4", "rsa", RWE, b"\x04"),
        TransactionIntent(5, "app5", "aes", R, b"\x05"),
    ]


def cross_attack(cycle=20):
    return AttackInjection(
        AttackKind.CROSS_IP_ACCESS, cycle, {"app": "app3", "target": "rsa", "attribute": R}
    )


def awprot_tamper(cycle):
    """An in-flight protection-signal rewrite (the classic CAD tool attack
    on AXI AWPROT/ARPROT): an unauthenticated integrity-level transition
    under token semantics, a direct signal rewrite in baseline mode."""
    return AttackInjection(
        AttackKind.TAMPER_INTEGRITY_LEVEL, cycle,
        {"target": "rsa", "new_level": "LOW", "token": "none", "signal": "AWPROT"},
    )


def kinds(log):
    return [r.kind for r in records(log)]


class TestBuild:
    def test_paper_topology_builds(self):
        sim = build(paper_topology(), 11)
        assert len(sim.apps) == 5
        assert len(sim.objects) == 4

    def test_dangling_map_rejected(self):
        topo = Topology(
            cpus=(CpuSpec("cpu0", ("app1",)),),
            wrapped_ips=(IpSpec("AES", "aes"),),
            app_to_ip={"app1": "missing"},
        )
        with pytest.raises(ConfigurationError):
            build(topo, 1)

    def test_unmapped_app_rejected(self):
        topo = Topology(
            cpus=(CpuSpec("cpu0", ("app1", "app2")),),
            wrapped_ips=(IpSpec("AES", "aes"),),
            app_to_ip={"app1": "aes"},
        )
        with pytest.raises(ConfigurationError):
            build(topo, 1)

    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            build(Topology(cpus=(), wrapped_ips=(), app_to_ip={}), 1)

    @pytest.mark.parametrize(
        "cpus, ips",
        [
            ((CpuSpec("cpu0", ("app1",)),), (IpSpec("AES", "aes"), IpSpec("DES", "aes"))),
            ((CpuSpec("cpu0", ("app1",)), CpuSpec("cpu1", ("app1",))), (IpSpec("AES", "aes"),)),
        ],
        ids=["object", "app"],
    )
    def test_duplicate_name_rejected(self, cpus, ips):
        # the only guard against wrapping one object twice
        topo = Topology(cpus=cpus, wrapped_ips=ips, app_to_ip={"app1": "aes"})
        with pytest.raises(ConfigurationError, match="duplicate"):
            build(topo, 1)

    @pytest.mark.parametrize("name", ["a\tpp\nX", "a\rpp", "app\n"])
    @pytest.mark.parametrize("where, what", NAMED)
    def test_name_that_would_split_a_log_line_rejected(self, where, what, name):
        # the actor column is written unescaped, so a tab or line break in
        # a name would split its events.log line
        with pytest.raises(ConfigurationError, match=f"^{what} name .* contains a tab, CR or LF$"):
            build(one_ip_topology(**{where: name}), 1)

    @pytest.mark.parametrize("where, what", NAMED)
    def test_name_that_is_not_a_str_rejected(self, where, what):
        with pytest.raises(ConfigurationError, match=f"^{what} name must be a str, got 7$"):
            build(one_ip_topology(**{where: 7}), 1)

    def test_token_collision_is_logged(self, colliding_draws):
        sim = build(paper_topology(), 3)
        assert records(sim.log) == [
            (0, "controller", "fault", {"event": "token_collision", "object": 1})
        ]

    def test_token_collision_goes_through_append(self, colliding_draws, monkeypatch):
        # the benchmark's trace counts collisions through a hook on EventLog.append
        seen = []
        append = EventLog.append

        def spy(log, cycle, actor, kind, **detail):
            seen.append((kind, detail.get("event")))
            append(log, cycle, actor, kind, **detail)

        monkeypatch.setattr(EventLog, "append", spy)
        build(paper_topology(), 3)
        assert seen == [("fault", "token_collision")]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            build(paper_topology(), 1, mode="enclave")

    @pytest.mark.parametrize("seed", [-1, 7.9, True, "7"])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            build(paper_topology(), seed)


class TestBaselineHasNoController:
    @pytest.mark.parametrize("mode", MODES)
    def test_only_trusttoken_builds_a_chip_and_provisions(self, mode):
        script = [ReprovisionEvent(5), TransactionIntent(6, "app1", "aes", R), ReprovisionEvent(9)]
        with mock.patch.object(soc_sim, "new_chip", wraps=soc_sim.new_chip) as new_chip, \
                mock.patch.object(soc_sim, "provision", wraps=soc_sim.provision) as provision, \
                mock.patch.object(token_authority, "noiseless_responses",
                                  wraps=token_authority.noiseless_responses) as responses:
            sim = build(paper_topology(), 3, mode=mode)
            log = run(sim, script, 100)
        calls = (new_chip.call_count, provision.call_count, responses.call_count)
        assert calls == ((1, 3, 3) if mode == MODE_TRUSTTOKEN else (0, 0, 0))
        assert [r for r in records(log) if r.kind == "reprovision"] == [
            (5, "controller", "reprovision", {"epoch": 1}),
            (9, "controller", "reprovision", {"epoch": 2}),
        ]
        assert sim.epoch == 2

    def test_baseline_sideband_is_tied_off_and_forged_from(self):
        sim = build(paper_topology(), 3, mode=MODE_BASELINE)
        assert sim.chip is None and sim.table is None
        assert [(w.ar_token, w.ar_id) for w in sim.wrappers] == [(0, obj) for obj in range(4)]
        sent = []
        authorize = sim._authorize
        sim._authorize = lambda txn: sent.append((txn.ar_token, txn.ar_id)) or authorize(txn)
        attack = AttackInjection(AttackKind.FORGE_TOKEN, 10,
                                 {"app": "app4", "target": "rsa", "flip_bit": 255})
        summary = report(run(sim, [attack], 100))
        assert sent == [(1, 3)]
        assert summary.verdict == "BREACHED"  # baseline reads no token


class TestRun:
    def test_benign_script_all_grants(self):
        log = run(build(paper_topology(), 3), benign_script(), 100)
        summary = report(log)
        assert summary.grants == 5 and summary.denies == 0
        assert summary.verdict == "NONE"

    def test_conservation(self):
        log = run(build(paper_topology(), 3), benign_script() + [cross_attack()], 100)
        ks = kinds(log)
        assert ks.count("issue") == ks.count("grant") + ks.count("deny")

    def test_cycle_monotonic(self):
        log = run(build(paper_topology(), 3), benign_script() + [cross_attack()], 100)
        cycles = [r.cycle for r in records(log)]
        assert cycles == sorted(cycles)

    def test_determinism_byte_identical(self):
        script = benign_script() + [cross_attack()]
        log1 = run(build(paper_topology(), 3), script, 100)
        log2 = run(build(paper_topology(), 3), script, 100)
        assert log1.to_text() == log2.to_text()
        assert report(log1).to_json() == report(log2).to_json()

    def test_malformed_intent_becomes_deny(self):
        log = run(build(paper_topology(), 3), [TransactionIntent(1, "ghost", "aes", R)], 100)
        summary = report(log)
        assert summary.denies == 1
        assert dict(summary.denials_by_reason) == {"malformed": 1}

    def test_unknown_name_is_one_malformed_deny_at_cost_1(self):
        script = [TransactionIntent(10, "ghost", "aes", R, b"x"),
                  TransactionIntent(11, "app1", "ghost", R, b"x")]
        log = run(build(paper_topology(), 3), script, 100)
        assert [(r.cycle, r.actor, r.kind, r.detail) for r in records(log)] == [
            (cycle, actor, kind, detail)
            for cycle, app, target in [(10, "ghost", "aes"), (11, "app1", "ghost")]
            for actor, kind, detail in [
                (app, "issue", {"target": target}),
                ("controller", "deny",
                 {"cost": 1, "reason": "malformed", "source": app, "target": target}),
            ]
        ]
        written = json.loads(report(log).to_json())  # the text of report.json
        assert written["cycle_cost_histogram"] == {"1": 2}
        assert written["denials_by_reason"] == {"malformed": 2}

    def test_text_cache_holds_only_topology_names(self):
        topology = paper_topology()
        script = [TransactionIntent(i, "app1", f"ghost{i}", R) for i in range(10_000)]
        script += [TransactionIntent(10_000 + i, app, target, R, b"\x01")
                   for i, (app, target) in enumerate(
                       [(app, target) for app in APPS for target in OBJECTS] + [("ghost", "aes")])]
        sim = build(topology, 3)
        log = run(sim, script, 20_000)
        assert {key[:2] for key in log._accesses} == {(a, t) for a in APPS for t in OBJECTS}
        assert len(log._accesses) <= len(APPS) * len(OBJECTS) * 2  # a grant and one deny reason
        summary = report(log)
        assert dict(summary.denials_by_reason)["malformed"] == 10_001
        assert summary == log_oracle.report(log)

    @pytest.mark.parametrize("mode, granted", [(MODE_TRUSTTOKEN, False), (MODE_BASELINE, True)])
    def test_reprovision_resets_integrity_levels_only_in_trusttoken_mode(self, mode, granted):
        # a trusttoken reprovision binds every IP at its boot level again;
        # baseline's cleared protection signal survives it
        script = [
            AttackInjection(AttackKind.TAMPER_INTEGRITY_LEVEL, 10,
                            {"target": "rsa", "new_level": "LOW", "token": "stolen"}),
            ReprovisionEvent(20),
            cross_attack(30),
        ]
        summary = report(run(build(paper_topology(), 3, mode=mode), script, 100))
        assert summary.transitions_granted == 1
        assert (summary.grants, summary.denies) == ((1, 0) if granted else (0, 1))

    def test_response_visible_after_cycle_cost(self):
        log = run(build(paper_topology(), 3), [TransactionIntent(10, "app1", "aes", R, b"z")], 100)
        responses = [r for r in records(log) if r.kind == "response"]
        assert len(responses) == 1
        assert responses[0].cycle == 12  # issue at 10 + cost 2

    def test_log_rejects_cycle_regression(self):
        log = EventLog()
        log.append(5, "x", "issue")
        with pytest.raises(SimulationFault):
            log.append(4, "x", "issue")

    def test_second_run_is_refused(self):
        sim = build(paper_topology(), 3)
        script = benign_script() + [awprot_tamper(50)]
        text = run(sim, script, 100).to_text()
        with pytest.raises(TrustTokenError, match="already run"):
            run(sim, script, 100)
        assert sim.log.to_text() == text


class TestScenario1:
    def test_cross_ip_access_blocked(self):
        log = run(build(paper_topology(), 3), benign_script() + [cross_attack()], 100)
        summary = report(log)
        assert summary.verdict == "BLOCKED"
        assert summary.denies == 1
        assert dict(summary.denials_by_reason) == {"token_mismatch": 1}


class TestScenario2:
    def test_matrix_tamper_blocked_and_ineffective(self):
        sim = build(paper_topology(), 3)
        script = [
            AttackInjection(AttackKind.TAMPER_INTERCONNECT_SIGNAL, 10, {"app": "app3", "target": "rsa"}),
            cross_attack(20),
        ]
        summary = report(run(sim, script, 100))
        assert summary.verdict == "BLOCKED"
        assert summary.attacks_blocked == 2

    def test_baseline_breached(self):
        sim = build(paper_topology(), 3, mode=MODE_BASELINE)
        script = [
            AttackInjection(AttackKind.TAMPER_INTERCONNECT_SIGNAL, 10, {"app": "app3", "target": "rsa"}),
            cross_attack(20),
        ]
        summary = report(run(sim, script, 100))
        assert summary.verdict == "BREACHED"
        assert summary.grants >= 1  # the illegal probe went through


class TestScenario3:
    def tamper(self, cycle=50, token="none"):
        return AttackInjection(
            AttackKind.TAMPER_INTEGRITY_LEVEL, cycle,
            {"target": "rsa", "new_level": "LOW", "token": token},
        )

    def test_unauthenticated_downgrade_blocked(self):
        log = run(build(paper_topology(), 3), [self.tamper(), cross_attack(60)], 100)
        summary = report(log)
        assert summary.verdict == "BLOCKED"
        assert summary.transitions_denied == 1

    def test_stolen_token_downgrade_documented_boundary(self):
        # with the real token the transition is granted and isolation is off
        log = run(build(paper_topology(), 3), [self.tamper(token="stolen"), cross_attack(60)], 100)
        summary = report(log)
        assert summary.transitions_granted == 1
        assert summary.verdict == "BREACHED"
        assert summary.grants == 1  # the follow-up illegal access passes

    def test_baseline_breached(self):
        sim = build(paper_topology(), 3, mode=MODE_BASELINE)
        summary = report(run(sim, [self.tamper(), cross_attack(60)], 100))
        assert summary.verdict == "BREACHED"


class TestAwprotInjection:
    def test_trusttoken_blocks(self):
        sim = build(paper_topology(), 3)
        summary = report(run(sim, [awprot_tamper(50)], 100))
        assert summary.verdict == "BLOCKED"

    def test_baseline_bypassed(self):
        sim = build(paper_topology(), 3, mode=MODE_BASELINE)
        summary = report(run(sim, [awprot_tamper(50), cross_attack(60)], 100))
        assert summary.verdict == "BREACHED"

    def test_beyond_max_cycles_no_effect(self):
        sim = build(paper_topology(), 3)
        log = run(sim, [awprot_tamper(500)], 100)
        assert len(log) == 0


class TestForgeAndReplay:
    def test_forged_token_blocked(self):
        attack = AttackInjection(
            AttackKind.FORGE_TOKEN, 10, {"app": "app4", "target": "rsa", "flip_bit": 7}
        )
        summary = report(run(build(paper_topology(), 3), [attack], 100))
        assert summary.verdict == "BLOCKED"
        assert dict(summary.denials_by_reason) == {"token_mismatch": 1}

    def test_forged_token_flips_one_bit_counted_from_the_most_significant(self):
        def string_flip(token, i):
            """The flip on the token's 256-character '0'/'1' string, bit 0 first."""
            chars = list(format(token, "0256b"))
            chars[i] = "0" if chars[i] == "1" else "1"
            return int("".join(chars), 2)

        sim = build(paper_topology(), 3)
        boot_id, boot_token = sim._attack_surface["rsa"]
        sent = []
        authorize = sim._authorize
        sim._authorize = lambda txn: sent.append((txn.ar_id, txn.ar_token)) or authorize(txn)
        bits = (0, 5, 255)
        run(sim, [AttackInjection(AttackKind.FORGE_TOKEN, 10 + bit,
                                  {"app": "app4", "target": "rsa", "flip_bit": bit})
                  for bit in bits], 300)
        assert sent == [
            (boot_id, string_flip(boot_token, bit)) for bit in bits]

    def test_replay_same_epoch_succeeds(self):
        # without re-provisioning the stolen credential is still valid
        attack = AttackInjection(AttackKind.REPLAY_STALE_TOKEN, 10, {"app": "app4", "target": "rsa"})
        summary = report(run(build(paper_topology(), 3), [attack], 100))
        assert summary.verdict == "BREACHED"

    def test_replay_after_reprovision_blocked(self):
        script = [
            ReprovisionEvent(5),
            AttackInjection(AttackKind.REPLAY_STALE_TOKEN, 10, {"app": "app4", "target": "rsa"}),
        ]
        summary = report(run(build(paper_topology(), 3), script, 100))
        assert summary.verdict == "BLOCKED"

    def test_reprovision_keeps_benign_traffic_working(self):
        script = [ReprovisionEvent(5)] + [
            TransactionIntent(10 + i, app, tgt, R)
            for i, (app, tgt) in enumerate([("app1", "aes"), ("app4", "rsa")])
        ]
        summary = report(run(build(paper_topology(), 3), script, 100))
        assert summary.grants == 2 and summary.denies == 0


# the params each attack kind reads, and a valid value for each param any kind reads
_READS = {
    AttackKind.FORGE_TOKEN: {"app", "target", "attribute", "flip_bit"},
    AttackKind.REPLAY_STALE_TOKEN: {"app", "target", "attribute"},
    AttackKind.CROSS_IP_ACCESS: {"app", "target", "attribute", "payload"},
    AttackKind.TAMPER_INTEGRITY_LEVEL: {"target", "new_level", "token", "signal"},
    AttackKind.TAMPER_INTERCONNECT_SIGNAL: {"app", "target"},
}
_VALID_PARAM = {"app": "app4", "target": "rsa", "attribute": R, "payload": b"\x00\xff",
                "flip_bit": 3, "new_level": "LOW", "token": "stolen", "signal": "AWPROT"}


class TestAttackChecks:
    @pytest.mark.parametrize(
        "kind, params",
        [
            (AttackKind.FORGE_TOKEN, {"app": "ghost", "target": "rsa"}),
            (AttackKind.REPLAY_STALE_TOKEN, {"app": "app4", "target": "ghost"}),
            (AttackKind.FORGE_TOKEN, {"app": "app4"}),
            (AttackKind.TAMPER_INTEGRITY_LEVEL, {"target": "ghost"}),
            (AttackKind.TAMPER_INTEGRITY_LEVEL, {"target": "rsa", "new_level": "MID"}),
            (AttackKind.TAMPER_INTERCONNECT_SIGNAL, {"target": "ghost"}),
            (AttackKind.CROSS_IP_ACCESS, {"app": "app3", "target": "rsa", "attribute": "r"}),
            (AttackKind.CROSS_IP_ACCESS, {"app": "app3"}),
            # keys the attack_fired record cannot take, which no kind reads
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "attack": "x"}),
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "actor": "x"}),
            (AttackKind.REPLAY_STALE_TOKEN, {"app": "app4", "target": "rsa", "cycle": 3}),
            (AttackKind.CROSS_IP_ACCESS, {"app": "app3", "target": "rsa", "kind": "x"}),
            (AttackKind.TAMPER_INTEGRITY_LEVEL, {"target": "rsa", 1: "x"}),
            # bits a 256-bit token does not have
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "flip_bit": -1}),
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "flip_bit": 256}),
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "flip_bit": float("inf")}),
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "flip_bit": 1.9}),
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "flip_bit": True}),
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "flip_bit": "1"}),
            # payloads that are not bytes
            (AttackKind.CROSS_IP_ACCESS, {"app": "app3", "target": "rsa", "payload": "abc"}),
            (AttackKind.CROSS_IP_ACCESS, {"app": "app3", "target": "rsa", "payload": 5}),
            # a forge reads its attribute, so it is type-checked; an integrity
            # tamper takes no payload at all
            (AttackKind.FORGE_TOKEN, {"app": "app4", "target": "rsa", "attribute": "r"}),
            (AttackKind.TAMPER_INTEGRITY_LEVEL, {"target": "rsa", "payload": "abc"}),
            # a token typo must not run as an unauthenticated downgrade
            (AttackKind.TAMPER_INTEGRITY_LEVEL, {"target": "rsa", "token": "stolne"}),
            (AttackKind.TAMPER_INTEGRITY_LEVEL, {"target": "rsa", "token": "Stolen"}),
            (AttackKind.TAMPER_INTEGRITY_LEVEL, {"target": "rsa", "token": None}),
        ],
    )
    def test_rejected_before_the_run(self, kind, params):
        sim = build(paper_topology(), 3)
        # the bad attack lies beyond max_cycles and is still rejected
        with pytest.raises(ConfigurationError):
            run(sim, benign_script() + [AttackInjection(kind, 200, params)], 100)
        assert len(sim.log) == 0

    @pytest.mark.parametrize(
        "kind, key",
        [(kind, key) for kind in AttackKind for key in sorted(_VALID_PARAM)
         if key not in _READS[kind]],
        ids=lambda value: getattr(value, "value", value),
    )
    def test_param_its_kind_does_not_read_rejected(self, kind, key):
        # a valid value that the kind would drop: a replay's payload is never sent
        params = {k: _VALID_PARAM[k] for k in ("app", "target") if k in _READS[kind]}
        params[key] = _VALID_PARAM[key]
        sim = build(paper_topology(), 3)
        with pytest.raises(ConfigurationError,
                           match=f"^script entry 5: {kind.value} attack does not take '{key}'$"):
            run(sim, benign_script() + [AttackInjection(kind, 10, params)], 100)
        assert len(sim.log) == 0

    @pytest.mark.parametrize("value", range(8))
    def test_attack_fired_writes_an_attribute_as_its_int(self, value, monkeypatch):
        # Python 3.10's str() of an IntFlag member; 3.11 gives the int
        monkeypatch.setattr(AccessAttribute, "__str__",
                            lambda self: f"AccessAttribute.{self.name}")
        attack = AttackInjection(AttackKind.FORGE_TOKEN, 10,
                                 {"app": "app4", "target": "rsa", "attribute": AccessAttribute(value)})
        text = run(build(paper_topology(), 3), [attack], 100).to_text()
        assert text.startswith(
            '10\tattacker\tattack_fired\t{"app": "app4", "attack": "forge_token", '
            f'"attribute": "{value}", "target": "rsa"}}\n'
        )

    @pytest.mark.parametrize(
        "entry, message",
        [
            (TransactionIntent(10, "app1", "aes", AccessAttribute.NONE), "an access needs"),
            (AttackInjection(AttackKind.CROSS_IP_ACCESS, 10,
                             {"app": "app3", "target": "rsa", "attribute": AccessAttribute.NONE}),
             "an access needs"),
            (TransactionIntent(10, "app1", "aes", R, "abc"), "access payload must be bytes"),
            (TransactionIntent(10, "app1", "aes", R, 5), "access payload must be bytes"),
            (TransactionIntent(10, "app1", "aes", "r"), "access attribute must be"),
            (TransactionIntent(-5, "app1", "aes", R), "cycle must be >= 0, got -5"),
            (TransactionIntent(2.5, "app1", "aes", R), "cycle must be >= 0, got 2.5"),
            (ReprovisionEvent(-1), "cycle must be >= 0, got -1"),
            (TransactionIntent(True, "app1", "aes", R), "cycle must be >= 0, got True"),
            ({"cycle": 1}, "not a script entry"),
            (None, "not a script entry"),
            # a plain tuple equals the intent with the same fields, but is not one
            ((10, "app1", "aes", R, b""), "not a script entry"),
            # names the issue record would write unescaped as its actor
            (TransactionIntent(10, "a\tpp\nX", "aes", R),
             "access app 'a\\\\tpp\\\\nX' contains a tab, CR or LF"),
            (TransactionIntent(10, "gh\rost", "aes", R), "access app .* contains a tab, CR or LF"),
            (AttackInjection(AttackKind.CROSS_IP_ACCESS, 10, {"app": "gh\nost", "target": "rsa"}),
             "cross_ip_access attack app .* contains a tab, CR or LF"),
            (TransactionIntent(10, 5, "aes", R), "access app must be a str, got 5"),
            (TransactionIntent(10, "app1", 5, R), "access target must be a str, got 5"),
            # unhashable names and attributes, and an int equal to READ that hashes as it does
            (TransactionIntent(10, ["app1"], "aes", R), r"access app must be a str, got \['app1'\]$"),
            (TransactionIntent(10, "app1", ["aes"], R), r"access target must be a str, got \['aes'\]$"),
            (TransactionIntent(10, "app1", "aes", [R]),
             r"access attribute must be an AccessAttribute, got \[<AccessAttribute.READ: 4>\]$"),
            (TransactionIntent(10, "app1", "aes", 4), "access attribute must be an AccessAttribute, got 4$"),
        ],
    )
    def test_bad_entry_rejected_before_the_run(self, entry, message):
        # the pre-pass checks each (app, target, attribute) once: the bad
        # entry follows 1,000 good ones that share app1's names and attribute
        good = [TransactionIntent(10, "app1", "aes", R, b"\x01")] * 1000
        sim = build(paper_topology(), 3)
        with pytest.raises(ConfigurationError, match=f"^script entry 1005: {message}"):
            run(sim, benign_script() + good + [entry], 100)
        assert len(sim.log) == 0

    @pytest.mark.parametrize(
        "record",
        [
            TransactionIntent(10, "app1", "aes", R),
            WrappedTransaction(ProcessId(0, 0), 0, R, b"", 1, 0, 1),
            AuthorizationOutcome(True, 2, serial=1),
        ],
        ids=["intent", "transaction", "outcome"],
    )
    def test_records_are_read_only(self, record):
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)

    @pytest.mark.parametrize("max_cycles", [-1, 2.5, True, "100"])
    def test_bad_max_cycles_rejected_before_the_run(self, max_cycles):
        sim = build(paper_topology(), 3)
        with pytest.raises(ConfigurationError, match="max_cycles must be an integer >= 0"):
            run(sim, benign_script(), max_cycles)
        assert len(sim.log) == 0

    def test_interconnect_tamper_needs_an_app_when_cpu0_runs_none(self):
        topology = Topology(
            cpus=(CpuSpec("cpu0", ()), CpuSpec("cpu1", ("app1",))),
            wrapped_ips=(IpSpec("AES", "aes"),),
            app_to_ip={"app1": "aes"},
        )
        attack = AttackInjection(AttackKind.TAMPER_INTERCONNECT_SIGNAL, 5)
        with pytest.raises(ConfigurationError):
            run(build(topology, 3), [attack], 100)

    @pytest.mark.parametrize("kind", [AttackKind.FORGE_TOKEN, AttackKind.REPLAY_STALE_TOKEN],
                             ids=lambda kind: kind.value)
    @pytest.mark.parametrize("mode", MODES)
    def test_replay_without_access_bits_is_denied_malformed(self, mode, kind):
        # only a script access and a cross-IP attack need an access bit; a
        # trusttoken forge fails the credentials stage before the empty one
        attack = AttackInjection(kind, 10,
                                 {"app": "app4", "target": "rsa", "attribute": AccessAttribute.NONE})
        sim = build(paper_topology(), 3, mode=mode)
        summary = report(run(sim, [attack], 100))
        forged = mode != MODE_BASELINE and kind is AttackKind.FORGE_TOKEN
        assert dict(summary.denials_by_reason) == {"token_mismatch" if forged else "malformed": 1}
        assert summary.verdict == "BLOCKED"
        assert [wrapper.stub_invocations for wrapper in sim.wrappers] == [0, 0, 0, 0]

    def test_cross_ip_access_to_unknown_names_is_denied(self):
        attack = AttackInjection(AttackKind.CROSS_IP_ACCESS, 10, {"app": "ghost", "target": "rsa"})
        summary = report(run(build(paper_topology(), 3), [attack], 100))
        assert summary.verdict == "BLOCKED"
        assert dict(summary.denials_by_reason) == {"malformed": 1}


class _Cycle(int):
    pass


class _Name(str):
    pass


class _Payload(bytes):
    pass


def _intent(cycles, apps, targets, attributes, payloads):
    return st.builds(TransactionIntent, st.sampled_from(cycles), st.sampled_from(apps),
                     st.sampled_from(targets), st.sampled_from(attributes),
                     st.sampled_from(payloads))


# good field values, with subclasses of int, str and bytes, and bad ones
_good_intent = _intent([0, 3, 9, _Cycle(4)], ["app1", "app4", "ghost", _Name("app1")],
                       ["aes", "rsa", "ghost", _Name("rsa")], [R, RWE],
                       [b"", b"\x01", _Payload(b"\x02")])
_any_intent = _intent([0, 3, _Cycle(4), -1, True, 2.5, "3"],
                      ["app1", "ghost", _Name("app1"), "a\tb", "a\nb", 5, ["app1"]],
                      ["aes", "ghost", 5, None, ["aes"]], [R, RWE, AccessAttribute.NONE, "r", 4, [R]],
                      [b"", _Payload(b"\x02"), "ab", 5, bytearray(b"x")])


def _first_bad_entry(script):
    """The error the pre-pass raises, found by checking every entry in
    full; None when every entry passes."""
    for i, entry in enumerate(script):
        try:
            if not soc_sim._is_count(entry.cycle):
                raise ConfigurationError(f"cycle must be >= 0, got {entry.cycle!r}")
            soc_sim._check_access(entry.app, entry.target, entry.attribute, entry.payload, "access")
        except ConfigurationError as exc:
            return f"script entry {i}: {exc}"
    return None


class TestPrePass:
    @given(script=st.tuples(st.lists(_good_intent, max_size=30), st.lists(_any_intent, max_size=4))
           .map(lambda parts: parts[0] + parts[1]))
    @settings(deadline=None)  # max_examples from the profile: 100 by default
    def test_memoized_prepass_matches_per_entry_checks(self, script):
        sim = build(paper_topology(), 3)
        expected = _first_bad_entry(script)
        if expected is None:
            log = run(sim, script, 10)
            assert report(log) == log_oracle.report(log)
            assert report(log).grants + report(log).denies == len(script)
        else:
            with pytest.raises(ConfigurationError) as caught:
                run(sim, script, 10)
            assert str(caught.value) == expected
            assert len(sim.log) == 0


class TestIsolationSoundness:
    def test_grants_only_for_own_mapped_ip(self):
        # all wrappers HIGH: every grant must be app -> its own mapped IP
        topo = paper_topology()
        script = benign_script() + [
            cross_attack(20),
            AttackInjection(AttackKind.FORGE_TOKEN, 30, {"app": "app3", "target": "rsa"}),
        ]
        log = run(build(topo, 3), script, 100)
        for rec in records(log):
            if rec.kind == "grant":
                assert topo.app_to_ip[rec.detail["source"]] == rec.detail["target"]


class TestLowIntegrity:
    def test_low_wrapper_bypasses_checks(self):
        topo = Topology(
            cpus=(CpuSpec("cpu0", ("app1", "app2")),),
            wrapped_ips=(IpSpec("AES", "aes", IntegrityLevel.LOW), IpSpec("DES", "des")),
            app_to_ip={"app1": "aes", "app2": "des"},
        )
        # app2 (mapped to des) reads aes: denied at HIGH, granted at LOW
        log = run(build(topo, 3), [TransactionIntent(1, "app2", "aes", R)], 100)
        summary = report(log)
        assert summary.grants == 1
        assert dict(summary.cycle_cost_histogram) == {1: 1}


class TestReport:
    def test_empty_log_all_zero(self):
        summary = report(EventLog())
        assert summary.grants == summary.denies == summary.attacks_fired == 0
        assert summary.verdict == "NONE"

    def test_cost_histogram(self):
        log = run(build(paper_topology(), 3), benign_script(), 100)
        assert dict(report(log).cycle_cost_histogram) == {2: 5}


# Text with the characters JSON must escape: quotes, backslashes, control
# characters and non-ASCII, in keys as well as values.
_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\n\té\u2028€😀'), st.characters()))

# names the event log can write as an actor
_actor = _text.filter(lambda name: not any(c in name for c in "\t\r\n"))


def _line(cycle, actor, kind, detail):
    return f"{cycle}\t{actor}\t{kind}\t" + json.dumps(detail, sort_keys=True) + "\n"


def _write(log, cycle, kind, fields, sent):
    """Call the writer of a drawn record at cycle, and return the lines it
    must write and the cycle of the last one.  An access is (source,
    target, cost, reason, cache); responses are a run of (step, pick, hex
    bytes), each at the cycle before it plus its step.  sent maps (app,
    IP) to the entry ``access`` last returned for it, and a response is to
    its pick-th pair, modulo their number; with none, no response is
    written."""
    if kind == "access":
        source, target, cost, reason, cache = fields
        entry = log.access(cycle, source, target, cost, reason, cache=cache)
        if not any(c in target for c in "\t\r\n"):  # a name the log can write as an actor
            sent[source, target] = entry
        decision = {"cost": cost, "source": source, "target": target}
        if reason is not None:
            decision["reason"] = reason
        return cycle, [_line(cycle, source, "issue", {"target": target}),
                       _line(cycle, "controller", "grant" if reason is None else "deny", decision)]
    due, lines = [], []
    pairs = list(sent)
    for step, pick, hex_bytes in fields if pairs else ():
        to, ip = pairs[pick % len(pairs)]
        cycle += step
        due.append((cycle, sent[to, ip], hex_bytes))
        lines.append(_line(cycle, ip, "response", {"bytes": hex_bytes, "to": to}))
    log.responses(due)
    return cycle, lines


def _records(pools):
    """Writer records whose names come from small drawn pools, so that
    keys repeat and most records are written from cached text."""
    actor, text = st.sampled_from(pools[0]), st.sampled_from(pools[1])
    access = st.tuples(st.just("access"), st.tuples(  # an IP name that can head a response
        actor, st.one_of(actor, text), st.integers(), st.one_of(st.none(), text), st.booleans()))
    responses = st.tuples(st.just("responses"), st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 8), st.binary().map(bytes.hex)), min_size=1))
    return st.lists(st.tuples(st.integers(0, 3), st.one_of(access, responses)))


class TestEventLine:
    @given(
        detail=st.dictionaries(
            _text.filter(lambda k: k not in ("cycle", "actor", "kind")),
            st.one_of(_text, st.integers(), st.booleans(), st.none(), st.floats()),
        ),
    )
    @settings(max_examples=100)
    def test_line_is_json_dumps_of_the_detail(self, detail):
        log = EventLog()
        log.append(7, "app1", "issue", **detail)
        assert log.to_text() == "7\tapp1\tissue\t" + json.dumps(dict(detail), sort_keys=True) + "\n"

    @given(records=st.tuples(st.lists(_actor, min_size=1, max_size=3),
                             st.lists(_text, min_size=1, max_size=3)).flatmap(_records))
    @settings(deadline=None)  # max_examples from the profile: 100 by default
    def test_fixed_writers_match_json_dumps(self, records):
        # each record's first cycle is the last one's plus the drawn step
        log = EventLog()
        lines, sent = [], {}
        cycle = 0
        for step, (kind, fields) in records:
            cycle, written = _write(log, cycle + step, kind, fields, sent)
            lines += written
        assert log.to_text() == "".join(lines)
        assert len(log) == len(lines)
        assert report(log) == log_oracle.report(log)

    def test_log_is_the_same_across_chunk_boundaries(self):
        records = [
            ("access", ("app1", "aes", 2, None, True)),
            ("access", ("app2", "des", 2, None, True)),
            ("access", ("app3", "rsa", 1, "matrix_deny", True)),
            ("access", ("ghost", "aes", 1, "malformed", False)),
            ("responses", [(0, 0, "00ff")]),  # to app1 from aes, the first access
            ("responses", [(0, 1, ""), (1, 0, "01")]),
            ("transition", ("controller", {"target": "rsa", "to": "LOW", "status": "denied",
                                           "reason": "unauthenticated"})),
        ]
        log = EventLog()
        lines, sent = [], {}
        cycle = 0
        for i in range(5000):  # more than two chunks' worth of lines
            kind, fields = records[i % len(records)]
            cycle = max(cycle, i // 3)
            if kind == "transition":
                log.append(cycle, fields[0], kind, **fields[1])
                lines.append(_line(cycle, fields[0], kind, fields[1]))
            else:
                cycle, written = _write(log, cycle, kind, fields, sent)
                lines += written
        assert len(lines) > 2 * soc_sim._CHUNK
        text = log.to_text()
        assert text == "".join(lines)
        assert len(log) == len(lines)
        assert log.to_text() == text
        assert report(log) == log_oracle.report(log)
        # a write after to_text still appends, and the cycles still may not decrease
        entry = log.access(cycle, "app2", "des", 2)
        assert log.to_text() == text + "".join(_write(EventLog(), cycle, *records[1], {})[1])
        assert len(log) == len(lines) + 2
        with pytest.raises(SimulationFault):
            log.access(cycle - 1, "app2", "des", 2)
        with pytest.raises(SimulationFault):
            log.responses([(cycle - 1, entry, "")])
        with pytest.raises(SimulationFault):  # a run out of cycle order
            log.responses([(cycle + 1, entry, ""), (cycle, entry, "")])

    def test_cycle_regression_right_after_a_chunk_is_joined_raises(self):
        log = EventLog()
        for _ in range(soc_sim._CHUNK // 2):  # exactly one chunk: no line is left unjoined
            entry = log.access(5, "app1", "aes", 2)
        assert log._tail == []
        with pytest.raises(SimulationFault):
            log.access(4, "app1", "aes", 2)
        with pytest.raises(SimulationFault):
            log.responses([(4, entry, "")])
        assert len(log) == soc_sim._CHUNK

    def test_log_holds_its_text_about_once(self):
        # one str per line would hold each ~36-byte line beside a 49-byte header
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = EventLog()
            for cycle in range(25_000):
                entry = log.access(cycle, "app1", "aes", 2)
                log.responses([(cycle, entry, "")])
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1.5 * len(log.to_text())


def _run_config(name, mode):
    config = load_config(bundled_config(name))
    sim = build(parse_topology(config["topology"]), config.get("seed", 0), mode=mode,
                params=parse_puf_params(config.get("puf")))
    return run(sim, parse_script(config["script"]), config.get("max_cycles", 10_000))


APPS = ("app1", "app2", "app3", "app4", "app5")
OBJECTS = ("aes", "des", "trng", "rsa")
_app = st.sampled_from(APPS)
_target = st.sampled_from(OBJECTS)
_attribute = st.sampled_from([R, AccessAttribute.WRITE, RWE])
# spaced so that several entries share a cycle and deferred responses pile up
_cycle = st.integers(0, 10).map(lambda c: 3 * c)
# forge and replay may send an empty attribute; a script access may not
_token_attribute = st.sampled_from([R, AccessAttribute.WRITE, RWE, AccessAttribute.NONE])
_attack_params = {
    AttackKind.FORGE_TOKEN: st.fixed_dictionaries({
        "app": _app, "target": _target, "attribute": _token_attribute,
        "flip_bit": st.integers(0, 255),
    }),
    AttackKind.REPLAY_STALE_TOKEN: st.fixed_dictionaries(
        {"app": _app, "target": _target, "attribute": _token_attribute}),
    AttackKind.CROSS_IP_ACCESS: st.fixed_dictionaries({
        "app": st.sampled_from(APPS + ("ghost",)),
        "target": st.sampled_from(OBJECTS + ("ghost",)),
        "attribute": _attribute,
    }),
    AttackKind.TAMPER_INTEGRITY_LEVEL: st.fixed_dictionaries({
        "target": _target,
        "new_level": st.sampled_from(["LOW", "HIGH"]),
        "token": st.sampled_from(["none", "stolen"]),
    }),
    AttackKind.TAMPER_INTERCONNECT_SIGNAL: st.fixed_dictionaries({"app": _app, "target": _target}),
}
# half of the accesses go to the app's own IP, so that many are granted
_route = st.one_of(
    st.sampled_from(sorted(paper_topology().app_to_ip.items())),
    st.tuples(st.sampled_from(APPS + ("ghost",)), st.sampled_from(OBJECTS + ("ghost",))),
)
_access = st.builds(lambda cycle, route, attribute, payload:
                    TransactionIntent(cycle, *route, attribute, payload),
                    _cycle, _route, _attribute, st.binary(max_size=4))
_other = st.one_of(
    st.builds(ReprovisionEvent, _cycle),
    *(st.builds(AttackInjection, st.just(kind), _cycle, params)
      for kind, params in _attack_params.items()),
)
_entry = st.booleans().flatmap(lambda access: _access if access else _other)  # half accesses
_levels = st.lists(st.sampled_from(IntegrityLevel), min_size=4, max_size=4)


def leveled_topology(levels):
    """The paper topology with the i-th wrapped IP at levels[i]."""
    topology = paper_topology()
    return Topology(
        cpus=topology.cpus,
        wrapped_ips=tuple(IpSpec(ip.stub, ip.object, level)
                          for ip, level in zip(topology.wrapped_ips, levels)),
        app_to_ip=topology.app_to_ip,
    )


class TestLiveCounters:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("name", ["scenario1.cfg", "scenario2.cfg", "scenario3.cfg", "smoke.cfg"])
    def test_bundled_scenarios_match_the_scanning_report(self, name, mode):
        log = _run_config(name, mode)
        assert report(log) == log_oracle.report(log)

    @given(
        script=st.lists(_entry, min_size=8, max_size=40),
        mode=st.sampled_from(MODES),
        levels=_levels,
        seed=st.integers(0, 2**16),
    )
    @settings(deadline=None)  # max_examples from the profile: 100 by default
    def test_random_scripts_match_the_scanning_report(self, script, mode, levels, seed):
        # every outcome either mode decides or a transition returns costs 1 or 2 cycles
        outcomes = []

        def recorded(decide):
            def call(*args):
                outcomes.append(decide(*args))
                return outcomes[-1]
            return call

        sim = build(leveled_topology(levels), seed, mode=mode)
        authorize = recorded(sim._authorize)

        def checked(txn):
            # an empty attribute is granted only by a pass-through: a LOW
            # target in trusttoken mode, a set bypass flag in baseline mode
            passes = (integrity_of(sim.table, txn.target) is IntegrityLevel.LOW
                      if mode != MODE_BASELINE else
                      not sim._baseline_check_enabled or not sim._baseline_secure[txn.target])
            outcome = authorize(txn)
            assert not outcome.granted or txn.kind or passes, txn
            return outcome

        sim._authorize = checked
        with mock.patch.object(soc_sim, "request_integrity_transition",
                               recorded(soc_sim.request_integrity_transition)):
            log = run(sim, script, 25)
        assert all(outcome.cycle_cost in (1, 2) for outcome in outcomes)
        assert report(log) == log_oracle.report(log)
        cycles = [r.cycle for r in records(log)]
        assert cycles == sorted(cycles)


# The params each attack may leave out, of those its kind reads, at the
# defaults the README gives: a read, no payload, bit 0, a LOW level; an
# interconnect tamper's app and target default to the paper topology's
# first CPU's first app and first IP.
_OPTIONAL = {
    AttackKind.FORGE_TOKEN: {"attribute": R, "flip_bit": 0},
    AttackKind.REPLAY_STALE_TOKEN: {"attribute": R},
    AttackKind.CROSS_IP_ACCESS: {"attribute": R, "payload": b""},
    AttackKind.TAMPER_INTEGRITY_LEVEL: {"new_level": "LOW"},
    AttackKind.TAMPER_INTERCONNECT_SIGNAL: {"app": "app1", "target": "aes"},
}


class TestAttackDefaults:
    @given(
        script=st.lists(_entry, max_size=10),
        # one attack of each kind, each with every param given
        attacks=st.tuples(*(st.builds(AttackInjection, st.just(kind), _cycle, params)
                            for kind, params in _attack_params.items())),
        mode=st.sampled_from(MODES),
        levels=_levels,
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(deadline=None)  # max_examples from the profile: 100 by default
    def test_an_omitted_param_runs_as_its_default(self, script, attacks, mode, levels, seed,
                                                  data):
        # each attack leaves a drawn set of its optional params out in one
        # script and gives them at their defaults in the other
        omitted, written = [], []
        for entry in script + list(attacks):
            if isinstance(entry, AttackInjection):
                defaults = _OPTIONAL[entry.kind]
                keys = data.draw(st.sets(st.sampled_from(sorted(defaults))), label=entry.kind.value)
                params = {k: v for k, v in entry.params.items() if k not in keys}
                omitted.append(AttackInjection(entry.kind, entry.cycle, params))
                entry = AttackInjection(entry.kind, entry.cycle,
                                        {**params, **{k: defaults[k] for k in keys}})
            else:
                omitted.append(entry)
            written.append(entry)
        assert self.trace(omitted, mode, levels, seed) == self.trace(written, mode, levels, seed)

    @staticmethod
    def trace(script, mode, levels, seed):
        """The run's events.log lines but its attack_fired ones, which
        record the params as given, and the calls it makes to decide a
        transaction, a transition or a matrix write, with the values an
        attack param sets (access kind, sideband, payload, level, row)."""
        calls = []

        def recorded(decide, skip):
            def call(*args):
                calls.append(args[skip:])  # without the table or model, which differ per run
                return decide(*args)
            return call

        sim = build(leveled_topology(levels), seed, mode=mode)
        sim._authorize = recorded(sim._authorize, 0)
        with (mock.patch.object(soc_sim, "request_integrity_transition",
                                recorded(soc_sim.request_integrity_transition, 1)),
              mock.patch.object(soc_sim, "modify_matrix", recorded(soc_sim.modify_matrix, 1))):
            text = run(sim, script, 25).to_text()
        return [line for line in text.splitlines() if line.split("\t")[2] != "attack_fired"], calls


# The benchmark's input generators and expected-outcome oracle, loaded from
# bench/workloads.py as they are; the oracle imports nothing from the package.
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)
# the attacks that make a bus access, each an intent of its own
_ACCESS_ATTACKS = ("cross_ip_access", "forge_token", "replay_stale_token")


class TestRandomTopologies:
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 16)),
        n_accesses=st.integers(1, 40),
        own_frac=st.floats(0.0, 1.0),
        payload_bytes=st.integers(0, 4),
        attack_every=st.integers(1, 12),
        reprovision_every=st.integers(1, 30),
        cut=st.integers(0, 45),
        seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)),
    )
    @settings(deadline=None)  # max_examples from the profile: 100 by default
    def test_random_topologies_match_the_oracle(self, shape, n_accesses, own_frac, payload_bytes,
                                                attack_every, reprovision_every, cut, seeds):
        # wide_topology and make_script draw the config; each mode's report
        # must equal the oracle's outcome, with one issue and one grant or
        # deny line per intent and a stub run per grant
        rng = random.Random(seeds[0])
        topology = workloads.wide_topology(rng, *shape)
        script = workloads.make_script(rng, topology, n_accesses, own_frac, payload_bytes,
                                       attack_every, reprovision_every)
        config = {"seed": seeds[1], "max_cycles": cut, "topology": topology, "script": script}
        intents = sum(e["cycle"] < cut and (e["type"] == "access" or e.get("kind") in _ACCESS_ATTACKS)
                      for e in script)
        for mode in MODES:
            sim = build(parse_topology(topology), seeds[1], mode=mode)
            log = run(sim, parse_script(script), cut)
            summary = report(log).to_dict()
            expected = workloads.expected_outcome(config, mode)
            assert {key: summary[key] for key in expected} == expected, mode
            lines = records(log)
            issues = [i for i, r in enumerate(lines) if r.kind == "issue"]
            assert len(issues) == intents
            assert sum(r.kind in ("grant", "deny") for r in lines) == intents
            for i in issues:  # each issue line is followed by its decision line
                assert lines[i + 1].kind in ("grant", "deny")
                assert lines[i + 1].detail["source"] == lines[i].actor
            assert sum(w.stub_invocations for w in sim.wrappers) == summary["grants"]
