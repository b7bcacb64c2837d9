import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import trusttoken
from trusttoken import puf_model, scenario_cli, token_authority
from trusttoken.puf_model import PufParams, evaluate_population, new_chip, noiseless_responses
from trusttoken.scenario_cli import bundled_config, main


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_scenario1_blocked(self, tmp_path):
        out = tmp_path / "s1"
        rc = run_cli("run", "--config", str(bundled_config("scenario1.cfg")), "--out", str(out))
        assert rc == 0
        summary = json.loads((out / "report.json").read_text())
        assert summary["verdict"] == "BLOCKED"
        assert (out / "events.log").read_text().strip()

    def test_scenario3_baseline_breached(self, tmp_path):
        rc = run_cli(
            "run",
            "--config", str(bundled_config("scenario3.cfg")),
            "--mode", "trustzone-baseline",
            "--out", str(tmp_path / "s3"),
        )
        assert rc == 2
        summary = json.loads((tmp_path / "s3" / "report.json").read_text())
        assert summary["verdict"] == "BREACHED"

    def test_missing_config(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)) == 1

    def test_parse_error_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mode: trusttoken\ntopology: [unclosed\n")
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path)) == 1
        assert "bad.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content, where",
        [(b"seed: 1\nscript: [1, 2\n", ":3: "), (b"seed: 1\x01\n", ": "), (b"seed: \xff\n", ": ")],
        ids=["unclosed-flow-sequence", "control-character", "not-utf-8"],
    )
    def test_unreadable_config_is_one_line_naming_the_path(self, tmp_path, capsys, content, where):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(content)
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}{where}") and err.count("\n") == 1
        assert "<unicode string>" not in err

    def test_semantic_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text(
            "mode: trusttoken\nseed: 1\n"
            "topology:\n  cpus: [{name: c, apps: [a]}]\n  ips: [{stub: AES, object: o}]\n"
            "  app_map: {a: missing}\nscript: []\n"
        )
        assert run_cli("run", "--config", str(bad), "--out", str(tmp_path)) == 1

    def test_unknown_mode_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "mode.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text().replace("mode: trusttoken", "mode: bogus"))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            "error: unknown mode 'bogus', expected one of ('trusttoken', 'trustzone-baseline')\n"
        )

    def test_negative_seed_in_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text().replace("seed: 7", "seed: -3"))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith("error: seed")

    def test_negative_seed_override_exits_1(self, tmp_path, capsys):
        cfg = str(bundled_config("smoke.cfg"))
        assert run_cli("run", "--config", cfg, "--seed", "-1", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: seed")

    def test_non_integer_max_cycles_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cycles.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text().replace("max_cycles: 100", "max_cycles: abc"))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith("error: max_cycles")

    def test_flip_bit_out_of_range_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "flip.cfg"
        cfg.write_text(
            bundled_config("smoke.cfg").read_text()
            + "  - {cycle: 5, type: attack, kind: forge_token, app: app1, target: aes, flip_bit: 999}\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == "error: script entry 1: flip_bit must be in 0..255, got 999\n"

    def test_negative_cycle_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "cycle.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text().replace("cycle: 1,", "cycle: -4,"))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == "error: script entry 0: cycle must be >= 0, got -4\n"

    def test_non_integer_oscillator_count_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "puf.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text() + "puf: {oscillator_count: 512.5}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: oscillator_count must be an integer") and err.count("\n") == 1

    def test_oscillator_count_over_bound_exits_1(self, tmp_path, capsys, monkeypatch):
        # the bound holds before any array is made: seeding must not start
        monkeypatch.setattr(puf_model, "_seed_words", lambda *args: pytest.fail("seeding started"))
        cfg = tmp_path / "puf.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text() + "puf: {oscillator_count: 1000000000}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            "error: oscillator_count must be at most 2**16, got 1000000000\n"
        )

    def test_degenerate_puf_exits_1(self, tmp_path, capsys, monkeypatch):
        # sigma 1e-300 leaves every frequency at nominal, so every pair ties
        # and every response is 0
        params = PufParams(process_variation_sigma=1.0e-300)
        assert noiseless_responses(new_chip(1, params), [0, 1, 0xFFFF], params) == [0, 0, 0]
        # the same zeros without the pairings, which would take seconds for all 65,536 challenges
        monkeypatch.setattr(token_authority, "noiseless_responses",
                            lambda chip, challenges, params: [0] * len(challenges))
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(bundled_config("scenario1.cfg").read_text()
                       + "puf: {process_variation_sigma: 1.0e-300}\n")
        out = str(tmp_path / "o")
        assert run_cli("run", "--config", str(cfg), "--mode", "trusttoken", "--out", out) == 1
        assert capsys.readouterr().err == (
            "error: no challenge left for object 'des': every one gave a token already taken\n"
        )
        assert not (tmp_path / "o").exists()

    def test_non_real_noise_sigma_exits_1(self, tmp_path, capsys):
        # YAML 1.1 reads 1e5, with no dot, as a str: the error names the field
        cfg = tmp_path / "puf.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text() + "puf: {noise_sigma: 1e5}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == "error: noise_sigma must be a real number, got '1e5'\n"
        assert not (tmp_path / "o").exists()

    def test_overflowing_sigma_exits_1(self, tmp_path, capsys):
        # YAML 1.1 reads 1.0e308, with no exponent sign, as a str
        cfg = tmp_path / "wide.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text()
                       + "puf: {process_variation_sigma: 1.0e+308}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            "error: process_variation_sigma must keep nominal_frequency + 40 sigma finite, "
            "got 1e+308\n"
        )
        assert not (tmp_path / "o").exists()

    def test_degenerate_puf_runs_in_baseline_mode(self, tmp_path, monkeypatch):
        # a baseline SoC has no token controller, so a chip that could not
        # key one does not matter: the run is the run without the puf section
        monkeypatch.setattr(token_authority, "noiseless_responses",
                            lambda *args: pytest.fail("baseline mode drew a token"))
        text = bundled_config("scenario1.cfg").read_text()
        outputs = []
        for name, puf in [("flat", "puf: {process_variation_sigma: 1.0e-300}\n"), ("plain", "")]:
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(text + puf)
            out = tmp_path / name
            assert run_cli("run", "--config", str(cfg), "--mode", "trustzone-baseline",
                           "--out", str(out)) == 0
            outputs.append([(out / f).read_bytes() for f in ("events.log", "report.json")])
        assert outputs[0] == outputs[1]
        assert b"token_collision" not in outputs[0][0]

    @pytest.mark.parametrize("mode", ["trusttoken", "trustzone-baseline"])
    @pytest.mark.parametrize("config, message", [
        ("topology:\n  cpus: [{name: c, apps: [a]}]\n"
         "  ips: [" + ", ".join(f"{{stub: AES, object: o{i}}}" for i in range(257)) + "]\n"
         "  app_map: {a: o0}\nscript: []\n",
         "at most 256 IPs per controller (8-bit ar_id)"),
        (bundled_config("smoke.cfg").read_text() + "puf: {response_bits: 128}\n",
         "token must be exactly 256 bits, got response_bits=128"),
    ], ids=["257-ips", "128-bit-tokens"])
    def test_controller_limits_hold_in_both_modes(self, tmp_path, capsys, mode, config, message):
        cfg = tmp_path / "limits.cfg"
        cfg.write_text(config)
        assert run_cli("run", "--config", str(cfg), "--mode", mode, "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_baseline_run_leaves_numpy_random_unloaded(self, tmp_path):
        code = (
            "import sys, numpy; before = 'numpy.random' in sys.modules; "
            "from trusttoken.scenario_cli import bundled_config, main; "
            "rc = main(['run', '--config', str(bundled_config('scenario3.cfg')), "
            "'--mode', 'trustzone-baseline', '--out', sys.argv[1]]); "
            "print(rc, before, 'numpy.random' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(trusttoken.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")],
                             env=env, capture_output=True, text=True, check=True)
        rc, before, after = out.stdout.split()[-3:]
        assert rc == "2"  # scenario3 breaches the baseline
        assert after == before  # numpy < 2 imports numpy.random itself

    @pytest.mark.parametrize("kind", ["forge_token", "tamper_interconnect_signal"])
    def test_attack_on_unknown_app_exits_1(self, tmp_path, capsys, kind):
        cfg = tmp_path / "ghost.cfg"
        cfg.write_text(
            bundled_config("smoke.cfg").read_text()
            + f"  - {{cycle: 5, type: attack, kind: {kind}, app: ghost, target: aes}}\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == f"error: script entry 1: {kind} attack names unknown app 'ghost'\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("apps: [app1]", 'apps: ["a\\tpp\\nX"]', "application name 'a\\tpp\\nX'"),
            ("name: cpu0", 'name: "cpu\\r0"', "CPU name 'cpu\\r0'"),
            ("object: aes, integrity", 'object: "a\\tes", integrity', "object name 'a\\tes'"),
            ("app: app1, target", 'app: "gh\\nost", target',
             "script entry 0: access app 'gh\\nost'"),
            ("payload: \"00ff\"}", "payload: \"00ff\"}\n  - {cycle: 5, type: attack,"
             ' kind: cross_ip_access, app: "gh\\tost", target: aes}',
             "script entry 1: cross_ip_access attack app 'gh\\tost'"),
        ],
        ids=["app", "cpu", "object", "access-app", "cross-ip-app"],
    )
    def test_name_that_would_split_a_log_line_exits_1(self, tmp_path, capsys, old, new, message):
        text = bundled_config("smoke.cfg").read_text()
        assert old in text
        cfg = tmp_path / "name.cfg"
        cfg.write_text(text.replace(old, new))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {message} contains a tab, CR or LF\n"
        assert not (tmp_path / "o").exists()

    def test_integrity_attack_on_unknown_target_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "ghost.cfg"
        cfg.write_text(
            bundled_config("smoke.cfg").read_text()
            + "  - {cycle: 5, type: attack, kind: tamper_integrity_level, target: ghost}\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err == "error: script entry 1: tamper_integrity_level attack names unknown target 'ghost'\n"

    @pytest.mark.parametrize("token, shown", [("stolne", "'stolne'"), ("Stolen", "'Stolen'"),
                                              ("null", "None")])
    def test_integrity_attack_with_unknown_token_exits_1(self, tmp_path, capsys, token, shown):
        cfg = tmp_path / "token.cfg"
        cfg.write_text(
            bundled_config("smoke.cfg").read_text()
            + f"  - {{cycle: 5, type: attack, kind: tamper_integrity_level, target: aes, token: {token}}}\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"error: script entry 1: tamper_integrity_level attack has unknown token {shown}, "
            "expected 'none' or 'stolen'\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "extra, key", [("attack: forge_token", "'attack'"), ("actor: mallory", "'actor'"), ("1: x", "1")]
    )
    def test_attack_param_the_event_log_cannot_take_exits_1(self, tmp_path, capsys, extra, key):
        cfg = tmp_path / "param.cfg"
        cfg.write_text(
            bundled_config("smoke.cfg").read_text()
            + f"  - {{cycle: 5, type: attack, kind: forge_token, app: app1, target: aes, {extra}}}\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: script entry 1: forge_token attack does not take {key}\n"

    @pytest.mark.parametrize(
        "attack, key",
        [
            ("kind: replay_stale_token, app: app1, target: aes, payload: \"00ff\"", "payload"),
            ("kind: forge_token, app: app1, target: aes, payload: \"00ff\"", "payload"),
            ("kind: cross_ip_access, app: app1, target: aes, flip_bit: 3", "flip_bit"),
            ("kind: tamper_integrity_level, target: aes, access: r", "attribute"),
            ("kind: tamper_interconnect_signal, app: app1, new_level: LOW", "new_level"),
        ],
        ids=["replay-payload", "forge-payload", "cross-ip-flip_bit", "integrity-access",
             "interconnect-new_level"],
    )
    def test_attack_param_its_kind_does_not_read_exits_1(self, tmp_path, capsys, attack, key):
        # an access: is checked as the attribute it becomes
        cfg = tmp_path / "param.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text()
                       + f"  - {{cycle: 5, type: attack, {attack}}}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        kind = attack.split(",")[0].removeprefix("kind: ")
        assert capsys.readouterr().err == (
            f"error: script entry 1: {kind} attack does not take '{key}'\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed: 7", "seed: .inf"),
            ("max_cycles: 100", "max_cycles: .inf"),
            ("cycle: 1,", "cycle: .inf,"),
            ("payload: \"00ff\"}", "payload: \"00ff\"}\n  - {cycle: 5, type: attack, kind: forge_token,"
             " app: app1, target: aes, flip_bit: .inf}"),
            ("max_cycles: 100", "max_cycles: 100\npuf: [1]"),
            ("max_cycles: 100", "max_cycles: 100\npuf: abc"),
            ("max_cycles: 100", "max_cycles: 100\npuf: false"),
            ("max_cycles: 100", "max_cycles: 100\npuf: []"),
            ("max_cycles: 100", "max_cycles: 100\npuf: 0"),
            ("max_cycles: 100", "max_cycles: 100\npuf: {noise_sigma: true}"),
            ("max_cycles: 100", "max_cycles: 100\npuf: {process_variation_sigma: true}"),
            ("max_cycles: 100", "max_cycles: 100\npuf: {nominal_frequency: false}"),
            ("app_map: {app1: aes}", "app_map: [1]"),
            # numbers int() would truncate, and a negative max_cycles that drops every entry
            ("cycle: 1,", "cycle: 1.9,"),
            ("cycle: 1,", "cycle: true,"),
            ("seed: 7", "seed: 7.9"),
            ("max_cycles: 100", "max_cycles: 2.5"),
            ("max_cycles: 100", "max_cycles: -3"),
            ("payload: \"00ff\"}", "payload: \"00ff\"}\n  - {cycle: 5, type: attack, kind: forge_token,"
             " app: app1, target: aes, flip_bit: 1.9}"),
            # a missing key, a puf key PufParams does not take, and an app_map naming no app
            ("{cycle: 1, type: access,", "{type: access,"),
            ("payload: \"00ff\"}", "payload: \"00ff\"}\n  - {cycle: 5, type: attack,"
             " app: app1, target: aes}"),
            ("max_cycles: 100", "max_cycles: 100\npuf: {bogus: 1}"),
            ("max_cycles: 100", "max_cycles: 100\npuf: {1: 2}"),
            ("app_map: {app1: aes}", "app_map: {app1: aes, ghost: aes}"),
        ],
        ids=["seed-inf", "max_cycles-inf", "cycle-inf", "flip_bit-inf", "puf-list", "puf-str",
             "puf-false", "puf-empty-list", "puf-zero", "puf-bool-noise_sigma",
             "puf-bool-process_variation_sigma", "puf-bool-nominal_frequency", "app_map-list", "cycle-float", "cycle-bool",
             "seed-float", "max_cycles-float", "max_cycles-negative", "flip_bit-float",
             "access-no-cycle", "attack-no-kind", "puf-unknown-key", "puf-int-key",
             "app_map-unknown-app"],
    )
    def test_config_value_of_the_wrong_kind_exits_1(self, tmp_path, capsys, old, new):
        text = bundled_config("smoke.cfg").read_text()
        assert old in text
        cfg = tmp_path / "kind.cfg"
        cfg.write_text(text.replace(old, new))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "replacements, message",
        [
            ({"apps: [app1]": "apps: app1"}, "apps must be a list, got 'app1'"),
            # a str of one-letter names, which would split into the apps a and b
            ({"apps: [app1]": "apps: ab", "app_map: {app1: aes}": "app_map: {a: aes, b: aes}"},
             "apps must be a list, got 'ab'"),
            ({"- {name: cpu0, apps: [app1]}": "{name: cpu0, apps: [app1]}"},
             "cpus must be a list, got {'name': 'cpu0', 'apps': ['app1']}"),
            ({"- {stub: AES, object: aes, integrity: HIGH}": "AES"}, "ips must be a list, got 'AES'"),
        ],
        ids=["apps-app1", "apps-ab", "cpus-mapping", "ips-str"],
    )
    def test_topology_list_that_is_not_a_list_exits_1(self, tmp_path, capsys, replacements,
                                                     message):
        text = bundled_config("smoke.cfg").read_text()
        for old, new in replacements.items():
            assert old in text
            text = text.replace(old, new)
        cfg = tmp_path / "topology.cfg"
        cfg.write_text(text)
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: topology section: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "value, shown",
        [("5", "5"), ("true", "True"), ("false", "False"), ("0", "0"), ('""', "''"), ("{}", "{}")],
    )
    def test_script_that_is_not_a_list_exits_1(self, tmp_path, capsys, value, shown):
        text = bundled_config("smoke.cfg").read_text()
        cfg = tmp_path / "script.cfg"
        cfg.write_text(text[: text.index("script:")] + f"script: {value}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: script section must be a list, got {shown}\n"

    def test_null_sections_are_empty(self, tmp_path, capsys):
        text = bundled_config("smoke.cfg").read_text()
        cfg = tmp_path / "null.cfg"
        cfg.write_text(text[: text.index("script:")] + "script:\npuf: null\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        assert capsys.readouterr().out == "mode=trusttoken verdict=NONE grants=0 denies=0\n"

    @pytest.mark.parametrize("access", ['"-"', '""'])
    @pytest.mark.parametrize("attack", [False, True])
    def test_access_without_access_bits_exits_1(self, tmp_path, capsys, access, attack):
        text = bundled_config("smoke.cfg").read_text()
        if attack:  # script entry 1, after the valid access at cycle 1
            text += ("  - {cycle: 5, type: attack, kind: cross_ip_access, app: app1, target: aes,"
                     f" access: {access}}}\n")
        else:
            text = text.replace("access: rwe", f"access: {access}")
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(text)
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"error: script entry {int(attack)}: an access needs at least one access bit\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "payload, shown",
        # YAML reads 0012 as the octal int 10, which was sent as the one byte 10
        [("0012", "10"), ("12", "12"), ("0x1F", "31"), ("true", "True")],
    )
    @pytest.mark.parametrize("attack", [False, True])
    def test_payload_that_is_not_a_string_exits_1(self, tmp_path, capsys, payload, shown, attack):
        text = bundled_config("smoke.cfg").read_text()
        if attack:
            text += ("  - {cycle: 5, type: attack, kind: cross_ip_access, app: app1, target: aes,"
                     f" payload: {payload}}}\n")
        else:
            text = text.replace('payload: "00ff"', f"payload: {payload}")
        cfg = tmp_path / "payload.cfg"
        cfg.write_text(text)
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"error: script entry {int(attack)}: payload must be a quoted hex string, got {shown}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_quoted_payload_is_read_as_hex(self, tmp_path):
        cfg = tmp_path / "payload.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text().replace('"00ff"', '"0012"'))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        response = (tmp_path / "o" / "events.log").read_text().splitlines()[-1].split("\t")
        assert response[2:] == ["response", '{"bytes": "a584", "to": "app1"}']

    @pytest.mark.parametrize("access, flag", [("q", "'q' in 'q'"), ("7", "'7' in '7'"),
                                              ("rq", "'q' in 'rq'")])
    @pytest.mark.parametrize("key, attack", [("access", False), ("access", True),
                                             ("attribute", True)])
    def test_unknown_access_flag_names_its_entry(self, tmp_path, capsys, access, flag, key, attack):
        text = bundled_config("smoke.cfg").read_text()
        if attack:
            text += ("  - {cycle: 5, type: attack, kind: forge_token, app: app1, target: aes,"
                     f" {key}: {access}}}\n")
        else:
            text = text.replace("access: rwe", f"access: {access}")
        cfg = tmp_path / "flag.cfg"
        cfg.write_text(text)
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == (
            f"error: script entry {int(attack)}: unknown access flag {flag}\n"
        )
        assert not (tmp_path / "o").exists()

    def test_unknown_entry_type_names_its_entry(self, tmp_path, capsys):
        cfg = tmp_path / "type.cfg"
        cfg.write_text(bundled_config("smoke.cfg").read_text() + "  - {cycle: 5, type: probe}\n")
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == "error: script entry 1: unknown script entry type 'probe'\n"

    def test_responses_are_logged_in_cycle_order(self, tmp_path):
        # the HIGH access's response (cost 2) is due after the LOW one's
        # (cost 1) although it was granted first in the same cycle
        cfg = tmp_path / "order.cfg"
        cfg.write_text(
            "seed: 7\nmax_cycles: 100\ntopology:\n"
            "  cpus: [{name: cpu0, apps: [app1, app2]}]\n"
            "  ips: [{stub: AES, object: aes}, {stub: DES, object: des, integrity: LOW}]\n"
            "  app_map: {app1: aes, app2: des}\n"
            "script:\n"
            "  - {cycle: 1, type: access, app: app1, target: aes, access: r}\n"
            "  - {cycle: 1, type: access, app: app2, target: des, access: r}\n"
            "  - {cycle: 3, type: access, app: app1, target: aes, access: r}\n"
        )
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o")) == 0
        lines = [line.split("\t") for line in (tmp_path / "o" / "events.log").read_text().splitlines()]
        assert [(c, actor) for c, actor, kind, _ in lines if kind == "response"] == [
            ("2", "des"), ("3", "aes"), ("5", "aes")
        ]

    def test_raw_attribute_is_parsed_like_access(self, tmp_path):
        text = bundled_config("scenario1.cfg").read_text()
        cfg = tmp_path / "attribute.cfg"
        cfg.write_text(text.replace("target: rsa, access: r}", "target: rsa, attribute: r}"))
        assert cfg.read_text() != text
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0
        run_cli("run", "--config", str(bundled_config("scenario1.cfg")), "--out", str(tmp_path / "b"))
        for name in ("events.log", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("name, encoded", [
        ('"app\\u00e9"', "ascii"),  # an ASCII file naming its app with a YAML escape
        ("appé", "utf-8"),  # the name as raw UTF-8 bytes
    ], ids=["escaped", "raw-utf-8"])
    def test_files_are_utf_8_under_any_locale(self, tmp_path, name, encoded):
        """A config is read, and report.json and events.log are written, as
        UTF-8 whatever the locale: under the ASCII C locale a non-ASCII app
        name gives the verdict's exit code and the bytes a UTF-8 locale gives."""
        cfg = tmp_path / "utf8.cfg"
        cfg.write_bytes(bundled_config("smoke.cfg").read_text(encoding="utf-8")
                        .replace("app1", name).encode(encoded))
        code = "import sys; from trusttoken.scenario_cli import main; sys.exit(main(sys.argv[1:]))"
        outputs = []
        for locale in ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
                       {"PYTHONUTF8": "1"}):
            out = tmp_path / locale["PYTHONUTF8"]
            env = {**os.environ, **locale,
                   "PYTHONPATH": str(Path(trusttoken.__file__).parents[1])}
            done = subprocess.run([sys.executable, "-c", code, "run", "--config", str(cfg),
                                   "--out", str(out)], env=env, capture_output=True, text=True)
            assert (done.returncode, done.stderr) == (0, ""), locale  # smoke.cfg has no attack
            outputs.append([(out / f).read_bytes() for f in ("report.json", "events.log")])
        assert outputs[0] == outputs[1]
        assert "appé\tissue".encode() in outputs[0][1]

    def test_smoke_config(self, tmp_path):
        rc = run_cli("run", "--config", str(bundled_config("smoke.cfg")), "--out", str(tmp_path / "smoke"))
        assert rc == 0
        summary = json.loads((tmp_path / "smoke" / "report.json").read_text())
        assert summary["grants"] == 1

    def test_reproducible_outputs(self, tmp_path):
        cfg = str(bundled_config("scenario1.cfg"))
        run_cli("run", "--config", cfg, "--out", str(tmp_path / "a"))
        run_cli("run", "--config", cfg, "--out", str(tmp_path / "b"))
        assert (tmp_path / "a" / "report.json").read_bytes() == (tmp_path / "b" / "report.json").read_bytes()
        assert (tmp_path / "a" / "events.log").read_bytes() == (tmp_path / "b" / "events.log").read_bytes()

    def test_seed_override_changes_log(self, tmp_path):
        cfg = str(bundled_config("scenario1.cfg"))
        run_cli("run", "--config", cfg, "--out", str(tmp_path / "a"))
        run_cli("run", "--config", cfg, "--seed", "999", "--out", str(tmp_path / "b"))
        # verdicts agree, but the PUF-derived state differs
        assert (
            json.loads((tmp_path / "a" / "report.json").read_text())["verdict"]
            == json.loads((tmp_path / "b" / "report.json").read_text())["verdict"]
            == "BLOCKED"
        )


class TestPufEval:
    def test_outputs(self, tmp_path):
        out = tmp_path / "puf"
        rc = run_cli("puf-eval", "--chips", "5", "--challenges", "4", "--seed", "1", "--out", str(out))
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert 0.0 <= metrics["uniqueness_pct"] <= 100.0
        with (out / "hamming.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4 * (5 * 4 // 2)
        for row in rows:
            assert 0 <= int(row["distance_bits"]) <= 256

    @pytest.mark.parametrize(
        "chips, challenges, block_rows",
        [
            (2, 3, None),  # one row per challenge
            (3, 3, None),
            (6, 3, None),
            (6, 3, 1),  # a write per first chip
            (6, 3, 7),  # blocks that span first chips and challenges
            (91, 1, None),  # 4095 rows: one short of a block
            (92, 1, None),  # 4186 rows: a block, then the rest
        ],
    )
    def test_hamming_csv_is_what_csv_writer_writes(self, tmp_path, monkeypatch, chips, challenges,
                                                   block_rows):
        if block_rows is not None:
            monkeypatch.setattr(scenario_cli, "_CSV_BLOCK_ROWS", block_rows)
        out = tmp_path / "puf"
        argv = ("puf-eval", "--chips", str(chips), "--challenges", str(challenges), "--seed", "4")
        assert run_cli(*argv, "--out", str(out)) == 0
        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(["challenge", "chip_a", "chip_b", "distance_bits", "distance_frac"])
        metrics = evaluate_population(chips, challenges, 4, PufParams())
        for challenge, row in zip(metrics.challenges, metrics.distances.tolist(), strict=True):
            for (a, b), d in zip(itertools.combinations(range(chips), 2), row, strict=True):
                writer.writerow([challenge, a, b, d, f"{d / 256:.6f}"])
        assert (out / "hamming.csv").read_bytes() == expected.getvalue().encode()

    def test_memory_is_bounded_per_distance(self, tmp_path):
        # first-use imports and tables are not part of a campaign's cost
        assert run_cli("puf-eval", "--chips", "2", "--challenges", "1", "--out", str(tmp_path)) == 0
        chips = 300
        distances = chips * (chips - 1) // 2
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            argv = ("puf-eval", "--chips", str(chips), "--challenges", "1", "--out", str(tmp_path))
            assert run_cli(*argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # about 67 bytes a distance here, most of it the chips' frequencies; a
        # str per chip pair, or the distances as lists, took about 190
        assert peak < 100 * distances

    def test_too_few_chips(self, tmp_path):
        assert run_cli("puf-eval", "--chips", "1", "--out", str(tmp_path)) == 1

    def test_too_many_challenges_exits_1(self, tmp_path, capsys):
        argv = ("puf-eval", "--chips", "2", "--challenges", "70000", "--out", str(tmp_path))
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("error: campaign needs 1 to 65536")

    def test_too_many_chips_exits_1(self, tmp_path, capsys, monkeypatch):
        # the bound holds before any draw or array
        monkeypatch.setattr(puf_model, "_campaign_draws", lambda *args: pytest.fail("drawn"))
        assert run_cli("puf-eval", "--chips", "100000", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err == (
            "error: campaign of 100000 chips x 16 challenges exceeds 2**24 pairwise distances\n"
        )

    def test_non_finite_noise_sigma_exits_1(self, tmp_path, capsys):
        assert run_cli("puf-eval", "--noise-sigma", "nan", "--out", str(tmp_path)) == 1
        assert capsys.readouterr().err.startswith("error: noise_sigma must be finite")


@pytest.mark.parametrize("under", [False, True], ids=["out-is-a-file", "out-under-a-file"])
@pytest.mark.parametrize(
    "argv",
    [("run", "--config", str(bundled_config("smoke.cfg"))), ("puf-eval", "--chips", "2", "--challenges", "1")],
    ids=["run", "puf-eval"],
)
def test_out_that_cannot_be_a_directory_exits_1(tmp_path, capsys, argv, under):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run_cli(*argv, "--out", str(taken / "o" if under else taken)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert taken.read_text() == ""


@pytest.mark.parametrize("message", ["", "Unable to allocate 14.9 GiB for an array"])
@pytest.mark.parametrize(
    "argv, target",
    [(("run", "--config", str(bundled_config("smoke.cfg"))), "load_config"),
     (("puf-eval", "--chips", "2", "--challenges", "1"), "evaluate_population")],
    ids=["run", "puf-eval"],
)
def test_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, argv, target, message):
    def exhausted(*args):
        raise MemoryError(message)

    monkeypatch.setattr(scenario_cli, target, exhausted)
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out of memory{': ' + message if message else ''}\n"
    assert not (tmp_path / "o").exists()
