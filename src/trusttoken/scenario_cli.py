"""Command-line front end.

Two subcommands:

* ``run`` loads a scenario config (YAML), runs the simulation, and writes
  ``report.json`` plus ``events.log`` into the output directory.  Exit
  code 0 when no attack breached, 2 when any did, 1 on config errors.
* ``puf-eval`` runs a PUF metric campaign and writes ``metrics.json``
  plus a ``hamming.csv`` of all pairwise inter-chip distances.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import operator
import sys
from pathlib import Path

import yaml
from yaml.events import (
    DocumentEndEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode

from .errors import ConfigurationError, ParameterError, TrustTokenError
from .policy_engine import IntegrityLevel, attribute_from_str
from .puf_model import PufParams, evaluate_population
from .soc_sim import (
    MODES,
    AttackInjection,
    AttackKind,
    CpuSpec,
    IpSpec,
    ReprovisionEvent,
    Topology,
    TransactionIntent,
    build,
    report,
    run,
)


# libyaml's parser where PyYAML has it: the same dicts, several times faster
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_STR_TAG = "tag:yaml.org,2002:str"
# the two keys SafeConstructor's flatten_mapping rewrites: << and =
_KEY_TAGS = ("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")
_ABSENT = object()  # no pending key of an open mapping; no memoized scalar
# hamming.csv rows per write: about 110 kB of text
_CSV_BLOCK_ROWS = 4096


class _NeedsComposer(Exception):
    """The document holds a construct that only PyYAML's composer and
    constructor build."""


def _scalar(loader, event):
    """An untagged scalar's object, as the loader would construct it."""
    tag = loader.resolve(ScalarNode, event.value, event.implicit)
    if tag == _STR_TAG:
        return event.value
    if tag in _KEY_TAGS:
        raise _NeedsComposer
    node = ScalarNode(tag, event.value, event.start_mark, event.end_mark, event.style)
    try:
        return loader.construct_object(node)
    except ValueError:  # such as the timestamp 2001-13-01; yaml.load raises it in turn
        raise _NeedsComposer from None


def _build(loader):
    """The single document of the loader's event stream, built as dicts,
    lists and scalars with no node tree.  Raises _NeedsComposer at an
    anchor or alias, an explicit tag, a << or = key, a collection used as
    a key, a second document, or a scalar its constructor rejects."""
    get_event = loader.get_event
    scalars = {}  # (value, implicit) -> its object, for this load only
    get_event()  # StreamStartEvent
    if isinstance(get_event(), StreamEndEvent):  # else the DocumentStartEvent
        return None
    root = None
    open_collections = []  # innermost last
    keys = []  # the enclosing mapping's pending key of each open collection
    key = _ABSENT
    while True:
        event = get_event()
        kind = event.__class__
        if kind is ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                raise _NeedsComposer
            memo = (event.value, event.implicit)
            value = scalars.get(memo, _ABSENT)
            if value is _ABSENT:
                value = scalars[memo] = _scalar(loader, event)
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if event.anchor is not None or event.tag is not None or (
                open_collections and key is _ABSENT
                and open_collections[-1].__class__ is dict
            ):
                raise _NeedsComposer
            open_collections.append({} if kind is MappingStartEvent else [])
            keys.append(key)
            key = _ABSENT
            continue
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            value = open_collections.pop()
            key = keys.pop()
        elif kind is DocumentEndEvent:
            break
        else:  # an AliasEvent
            raise _NeedsComposer
        if not open_collections:
            root = value
            continue
        parent = open_collections[-1]
        if parent.__class__ is list:
            parent.append(value)
        elif key is _ABSENT:
            key = value
        else:
            parent[key] = value  # a duplicate key keeps its place and takes the last value
            key = _ABSENT
    if not isinstance(get_event(), StreamEndEvent):
        raise _NeedsComposer
    return root


def load_config(path: Path) -> dict:
    """The config at path as a dict.  The document is built straight from
    the YAML loader's events (_build); a document that uses anchors or
    aliases, an explicit tag, a << or = key, a collection as a key or a
    second document goes through yaml.load with the same loader instead,
    which alone handles those constructs.  Every error, of the file, the
    parser or a scalar's constructor, is a ConfigurationError of one line."""
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    try:
        loader = _Loader(text)
        try:
            data = _build(loader)
        except _NeedsComposer:
            data = yaml.load(text, Loader=_Loader)
        finally:
            loader.dispose()
    except yaml.YAMLError as exc:
        # one line: the loader's own marks name "<unicode string>", not the path
        mark = getattr(exc, "problem_mark", None)
        where = f"{path}:{mark.line + 1}" if mark else str(path)
        problem = (getattr(exc, "problem", None) or str(exc)).partition("\n")[0]
        raise ConfigurationError(f"{where}: {problem}") from exc
    except ValueError as exc:  # a scalar its constructor rejects, such as 2001-13-01
        raise ConfigurationError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: top level must be a mapping")
    return data


def _topology_list(value, what: str) -> list:
    """A topology list; iterating a str or a mapping in its place would
    read each character or key as an item."""
    if not isinstance(value, list):
        raise ConfigurationError(f"topology section: {what} must be a list, got {value!r}")
    return value


def parse_topology(section: dict) -> Topology:
    try:
        cpus = tuple(
            CpuSpec(
                name=str(c["name"]),
                apps=tuple(str(a) for a in _topology_list(c.get("apps", []), "apps")),
            )
            for c in _topology_list(section["cpus"], "cpus")
        )
        ips = tuple(
            IpSpec(
                stub=str(ip["stub"]),
                object=str(ip["object"]),
                integrity=IntegrityLevel(str(ip.get("integrity", "HIGH"))),
            )
            for ip in _topology_list(section["ips"], "ips")
        )
        app_map = {str(k): str(v) for k, v in section["app_map"].items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"topology section: {exc!r}") from exc
    return Topology(cpus=cpus, wrapped_ips=ips, app_to_ip=app_map)


def _payload(value) -> bytes:
    """Bytes from hex digits in a str; YAML reads an unquoted 0012 as the int 10."""
    if not isinstance(value, str):
        raise ConfigurationError(f"payload must be a quoted hex string, got {value!r}")
    return bytes.fromhex(value)


def parse_script(entries) -> list:
    entries = [] if entries is None else entries
    if not isinstance(entries, list):
        raise ConfigurationError(f"script section must be a list, got {entries!r}")
    script = []
    for i, raw in enumerate(entries):
        try:
            cycle = raw["cycle"]  # run() checks it is an int >= 0
            kind = str(raw.get("type", "access"))
            if kind == "access":
                payload = raw.get("payload", "")
                # tuple.__new__ runs no Python frame, where TransactionIntent(...) runs one
                script.append(tuple.__new__(TransactionIntent, (
                    cycle, str(raw["app"]), str(raw["target"]),
                    attribute_from_str(str(raw.get("access", "r"))),
                    bytes.fromhex(payload) if payload.__class__ is str else _payload(payload),
                )))
            elif kind == "attack":
                params = {
                    k: v for k, v in raw.items() if k not in ("cycle", "type", "kind")
                }
                for key in ("attribute", "access"):  # access wins if both are given
                    if key in params:
                        params["attribute"] = attribute_from_str(str(params.pop(key)))
                if "payload" in params:
                    params["payload"] = _payload(params["payload"])
                script.append(
                    AttackInjection(
                        kind=AttackKind(str(raw["kind"])),
                        cycle=cycle,
                        params=params,
                    )
                )
            elif kind == "reprovision":
                script.append(ReprovisionEvent(cycle=cycle))
            else:
                raise ConfigurationError(f"unknown script entry type {kind!r}")
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"script entry {i}: {exc!r}") from exc
        except (ConfigurationError, ParameterError) as exc:  # ParameterError: a bad access flag
            raise ConfigurationError(f"script entry {i}: {exc}") from exc
    return script


def parse_puf_params(section) -> PufParams:
    if section is None:
        return PufParams()
    if not isinstance(section, dict):
        raise ConfigurationError(f"puf section must be a mapping, got {section!r}")
    try:
        return PufParams(**{k: v for k, v in section.items()})
    except TypeError as exc:
        raise ConfigurationError(f"puf section: {exc}") from exc


def cmd_run(config_path: str, mode_override=None, seed_override=None, out_path="out") -> int:
    try:
        config = load_config(Path(config_path))
        mode = mode_override or config.get("mode", "trusttoken")
        seed = seed_override if seed_override is not None else config.get("seed", 0)
        params = parse_puf_params(config.get("puf"))
        topology = parse_topology(config.get("topology", {}))
        script = parse_script(config.get("script"))
        sim = build(topology, seed, mode=mode, params=params)
        log = run(sim, script, config.get("max_cycles", 10_000))
        summary = report(log)
    except TrustTokenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(out_path)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(summary.to_json(), encoding="utf-8")
    (out / "events.log").write_text(log.to_text(), encoding="utf-8")
    print(f"mode={mode} verdict={summary.verdict} grants={summary.grants} denies={summary.denies}")
    return 2 if summary.verdict == "BREACHED" else 0


def cmd_puf_eval(chips: int, challenges: int, seed: int, out_path: str,
                 noise_sigma: float | None = None) -> int:
    """Run a chips x challenges campaign (evaluate_population) and write
    metrics.json and hamming.csv into out_path.  hamming.csv is written in
    blocks of about _CSV_BLOCK_ROWS rows, so that beside the campaign's
    distance array the writer holds one block; it makes no str per chip
    pair and no list of the whole array.  Returns the exit code: 1 on a
    parameter error, else 0."""
    try:
        params = PufParams()
        if noise_sigma is not None:
            params = dataclasses.replace(params, noise_sigma=noise_sigma)
        metrics = evaluate_population(chips, challenges, seed, params)
        noisy = dataclasses.replace(
            params, noise_sigma=params.process_variation_sigma / 20
        )
        # Reliability reads chip 0 of a separate one-challenge campaign with
        # the same seed; chip 0 does not depend on the chip count.
        reliability_noisy = evaluate_population(2, 1, seed, noisy).reliability_pct
    except TrustTokenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out = Path(out_path)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "chips": chips,
        "challenges": challenges,
        "uniqueness_pct": metrics.uniqueness_pct,
        "randomness_pct": metrics.randomness_pct,
        "reliability_pct": metrics.reliability_pct,
        "reliability_noisy_pct": reliability_noisy,
        "fraction_in_40_60_band": metrics.fraction_in_band(),
    }
    metrics_text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    (out / "metrics.json").write_text(metrics_text, encoding="utf-8")
    # The rows csv.writer would write (no field needs quoting).  The rows
    # (a, b) of one challenge and one first chip a are one join of strings
    # made once per chip, once per challenge and once per distance value,
    # and the joins go out in blocks of about _CSV_BLOCK_ROWS rows.
    n_chips, width = metrics.n_chips, metrics.response_bits
    tails = [f"{d},{d / width:.6f}\r\n" for d in range(width + 1)]
    chips = [f"{b}," for b in range(n_chips)]
    with (out / "hamming.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write("challenge,chip_a,chip_b,distance_bits,distance_frac\r\n")
        block, rows = [], 0
        for c, row in zip(metrics.challenges, metrics.distances):
            pre = f"{c},"
            stop = 0
            for a in range(n_chips - 1):
                start, stop = stop, stop + n_chips - 1 - a
                head = pre + chips[a]
                block += head, head.join(map(operator.add, chips[a + 1 :],
                                             map(tails.__getitem__, row[start:stop].tolist())))
                rows += stop - start
                if rows >= _CSV_BLOCK_ROWS:
                    fh.write("".join(block))
                    block, rows = [], 0
        fh.write("".join(block))
    print(
        f"uniqueness={metrics.uniqueness_pct:.2f}% "
        f"randomness={metrics.randomness_pct:.2f}% "
        f"reliability={metrics.reliability_pct:.2f}%"
    )
    return 0


def bundled_config(name: str) -> Path:
    """Path of a config shipped with the package (e.g. 'scenario1.cfg')."""
    return Path(__file__).parent / "configs" / name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="trusttoken")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--mode", choices=MODES)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", default="out")

    p_puf = sub.add_parser("puf-eval", help="run a PUF metric campaign")
    p_puf.add_argument("--chips", type=int, default=20)
    p_puf.add_argument("--challenges", type=int, default=16)
    p_puf.add_argument("--seed", type=int, default=0)
    p_puf.add_argument("--noise-sigma", type=float, default=None)
    p_puf.add_argument("--out", default="out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.mode, args.seed, args.out)
        return cmd_puf_eval(args.chips, args.challenges, args.seed, args.out, args.noise_sigma)
    except OSError as exc:  # the output directory or a file in it cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation that failed
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
