"""libyaml's loader against PyYAML's pure-Python one: the same dicts from
every config, and the same error class and line, on one line of text,
from malformed ones."""

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


@settings(max_examples=60, deadline=None)
@given(config=configs(), flow=st.sampled_from([None, False, True]), unicode=st.booleans())
def test_same_dict_from_dumped_configs(config, flow, unicode):
    text = yaml.safe_dump(config, default_flow_style=flow, allow_unicode=unicode, sort_keys=False)
    # not always == config: the dumper writes a NEL (U+0085) raw, and both loaders fold it
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


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
