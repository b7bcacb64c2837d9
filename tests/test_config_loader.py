"""load_config, libyaml's loader and PyYAML's pure-Python one: the same
dicts from every config, and the same error class and line, on one line
of text, from malformed ones; and load_config, which builds plain
documents from the parser's events, against yaml.load on the constructs
it leaves to PyYAML's composer and constructor."""

import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from trusttoken import scenario_cli
from trusttoken.errors import ConfigurationError
from trusttoken.scenario_cli import bundled_config, load_config
from trusttoken.soc_sim import AttackKind

pytestmark = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML was built without libyaml: there is one loader"
)

MALFORMED = {
    "unclosed-flow-sequence": "seed: 1\nscript: [1, 2\n",
    "unclosed-flow-mapping": "seed: 1\ntopology: {cpus: 1\n",
    "bad-indent": "topology:\n  cpus: 1\n ips: 2\n",
    "tab": "topology:\n\tcpus: 1\n",
    "block-collection": "script:\n  - a\n  b: 1\n",
    "unknown-tag": "seed: 1\nmode: !foo x\n",
    "undefined-alias": "seed: 1\nmode: *x\n",
    "unterminated-quote": 'seed: 1\nmode: "abc\n',
}

# names YAML must quote or escape, besides arbitrary text
names = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",)), min_size=1, max_size=8),
    st.sampled_from(["app'1", 'ip"2', "ünïcødé", "名前", "a: b", "- x", "#c", "yes", "null",
                     "0x1F", "1e3", "~", "*x", "&y", "!t", " lead", "trail "]),
)


@st.composite
def configs(draw):
    objects = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    apps = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    cycle = st.integers(0, 2**40)
    app, target = st.sampled_from(apps), st.sampled_from(objects)
    entry = st.one_of(
        st.fixed_dictionaries({
            "cycle": cycle, "type": st.just("access"), "app": app, "target": target,
            "access": st.sampled_from(["r", "w", "rwe", "-"]),
            "payload": st.binary(max_size=8).map(bytes.hex),
        }),
        st.fixed_dictionaries({
            "cycle": cycle, "type": st.just("attack"),
            "kind": st.sampled_from([k.value for k in AttackKind]),
            "app": app, "target": target, "flip_bit": st.integers(0, 255),
        }),
        st.fixed_dictionaries({"cycle": cycle, "type": st.just("reprovision")}),
    )
    return {
        "mode": draw(st.sampled_from(["trusttoken", "trustzone-baseline"])),
        "seed": draw(st.integers(0, 2**64)),
        "max_cycles": draw(st.integers(0, 10**6)),
        "topology": {
            "cpus": [{"name": draw(names), "apps": apps}],
            "ips": [
                {"stub": draw(st.sampled_from(["AES", "DES", "TRNG", "RSA"])), "object": obj,
                 "integrity": draw(st.sampled_from(["HIGH", "LOW"]))}
                for obj in objects
            ],
            "app_map": {a: draw(target) for a in apps},
        },
        "script": draw(st.lists(entry, max_size=8)),
        "puf": {"noise_sigma": draw(st.floats(allow_nan=False))},
    }


def test_libyaml_is_the_loader():
    assert scenario_cli._Loader is yaml.CSafeLoader


@pytest.mark.parametrize("name", ["scenario1.cfg", "scenario2.cfg", "scenario3.cfg", "smoke.cfg"])
def test_same_dict_from_every_bundled_config(name):
    text = bundled_config(name).read_text()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@settings(deadline=None)  # max_examples from the profile: 100 by default
@given(config=configs(), flow=st.sampled_from([None, False, True]), unicode=st.booleans())
def test_same_dict_from_dumped_configs(tmp_path_factory, config, flow, unicode):
    text = yaml.safe_dump(config, default_flow_style=flow, allow_unicode=unicode, sort_keys=False)
    path = tmp_path_factory.getbasetemp() / "dumped.cfg"
    path.write_text(text)
    # not always == config: the dumper writes a NEL (U+0085) raw, and every loader folds it
    expected = yaml.load(text, Loader=yaml.CSafeLoader)
    assert expected == yaml.load(text, Loader=yaml.SafeLoader)
    assert repr(load_config(path)) == repr(expected)  # the same keys in the same order


@pytest.mark.parametrize("name", ["scenario1.cfg", "scenario2.cfg", "scenario3.cfg", "smoke.cfg"])
def test_bundled_configs_build_from_events(monkeypatch, name):
    expected = yaml.load(bundled_config(name).read_text(), Loader=yaml.CSafeLoader)
    monkeypatch.setattr(yaml, "load", lambda *args, **kwargs: pytest.fail("yaml.load called"))
    assert load_config(bundled_config(name)) == expected


PLAIN_EVENTS = "".join(f"k{i}: [{i}, v{i}]\n" for i in range(100))  # 500 scalar and list events

# documents load_config leaves to yaml.load, and the plain-event cases next
# to them (a scalar's constructor, the single-document checks, error order)
CASES = {
    "anchor-and-alias": "base: &b {cpus: 1}\nother: *b\n",
    "anchor-only": "seed: &s 1\n",
    "merge-key": "base: &b {x: 1, y: 2}\nmerged: {<<: *b, y: 3}\n",
    "merge-key-inline": "merged: {<<: {x: 1}, y: 2}\n",
    "value-key": "=: 1\nb: 2\n",
    "value-scalar": "seed: 1\nmode: =\n",
    "str-tag": "seed: !!str 1\n",
    "binary-tag": "payload: !!binary AAEC\n",
    "set-tag": "apps: !!set {a, b}\n",
    "map-tag": "puf: !!map {noise_sigma: 0}\n",
    "non-specific-tag": "seed: ! 1\n",
    "complex-key": "? [1, 2]\n: x\n",
    "complex-mapping-key": "seed: 1\n? {a: 1}\n: x\n",
    "two-documents": "seed: 1\n---\nseed: 2\n",
    "two-documents-second-malformed": "seed: 1\n---\nseed: [1\n",
    "empty-file": "",
    "bare-document": "---\n",
    "top-level-scalar": "1\n",
    "top-level-list": "- seed\n",
    "duplicate-key": "a: 1\nb: {x: 1}\na: {y: 2}\n",
    "scalars": "a: [1, 0x1F, 0o17, 1_000, -0, 1.5, .inf, -.inf, .nan, 1e3, 6.8523015e+5,"
               " true, no, ~, null, '', '1', \"yes\", 190:20:30]\n",
    "timestamps": "a: 2001-12-14t21:59:43.10-05:00\nb: 2002-12-14\nc: 2001-12-14\n",
    "bad-timestamp": "seed: 1\nwhen: 2001-13-01\n",
    "bad-timestamp-before-syntax-error": "when: 2001-13-01\nscript: [1, 2\n",
    "value-scalar-before-syntax-error": "mode: =\nscript: [1, 2\n",
    "syntax-error-after-plain-events": PLAIN_EVENTS + "script: [1, 2\nseed: 1\n",
    "indent-error-after-plain-events": PLAIN_EVENTS + "topology:\n  cpus: 1\n ips: 2\n",
}


def loaded(text):
    """What load_config must do with text, from yaml.load with libyaml:
    the dict (by its repr, so that key order counts), a top level that is
    not a mapping, or the error class and line."""
    try:
        data = yaml.load(text, Loader=yaml.CSafeLoader)
    except (yaml.YAMLError, ValueError) as exc:
        mark = getattr(exc, "problem_mark", None)
        return "error", type(exc), mark.line + 1 if mark else None
    return ("dict", repr(data)) if isinstance(data, dict) else ("not a mapping",)


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_same_outcome_as_yaml_load(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    try:
        outcome = ("dict", repr(load_config(path)))
    except ConfigurationError as exc:
        assert "\n" not in str(exc) and "<unicode string>" not in str(exc)
        if exc.__cause__ is None:
            assert str(exc) == f"{path}: top level must be a mapping"
            outcome = ("not a mapping",)
        else:
            line = re.match(re.escape(str(path)) + r"(?::(\d+))?: ", str(exc)).group(1)
            outcome = "error", type(exc.__cause__), line and int(line)
    assert outcome == loaded(text)


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_same_error_class_and_line_from_malformed_configs(tmp_path, monkeypatch, text):
    path = tmp_path / "bad.cfg"
    path.write_text(text)
    seen = []
    for loader in (yaml.SafeLoader, yaml.CSafeLoader):
        monkeypatch.setattr(scenario_cli, "_Loader", loader)
        with pytest.raises(ConfigurationError) as info:
            load_config(path)
        where = re.match(re.escape(str(path)) + r":\d+: ", str(info.value))
        assert where is not None, str(info.value)
        assert "\n" not in str(info.value) and "<unicode string>" not in str(info.value)
        seen.append((type(info.value.__cause__), where.group()))
    assert seen[0] == seen[1]
