"""Deterministic discrete-event SoC simulation with attack injection.

Wires CPUs/applications, trust wrappers, the token controller, and the
policy engine together, drives a scripted sequence of transactions and
attack injections in cycle order (FIFO within a cycle), and records every
grant, denial, transition, and attack outcome in an append-only event
log.  A "trustzone-baseline" mode replaces token authorization with the
signal-gated isolation that the modeled attacks defeat, for contrast.
"""

from __future__ import annotations

import json
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence, Union

from .errors import ConfigurationError, MatrixTamperError, SimulationFault
from .policy_engine import (
    AccessAttribute,
    AccessMatrix,
    AccessRequest,
    Actor,
    DenialReason,
    IntegrityLevel,
    ProcessId,
    SystemModel,
    build_system,
    evaluate,
    modify_matrix,
)
from .puf_model import PufParams, new_chip
from .token_authority import (
    AuthorizationOutcome,
    authorize,
    check_controller_fits,
    provision,
    request_integrity_transition,
)
from .trust_wrapper import TrustWrapper, WrappedTransaction, standard_stub

MODE_TRUSTTOKEN = "trusttoken"
MODE_BASELINE = "trustzone-baseline"
MODES = (MODE_TRUSTTOKEN, MODE_BASELINE)

FULL_ACCESS = AccessAttribute.READ | AccessAttribute.WRITE | AccessAttribute.EXECUTE

_encode_str = json.encoder.encode_basestring_ascii  # the C encoder json.dumps uses
_encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps(detail, sort_keys=True)
_CHUNK = 4096  # event-log lines joined into one chunk string
_first = itemgetter(0)  # the cycle of a run entry or a pending response


# --------------------------------------------------------------------------
# topology


def _check_name(name, what: str) -> None:
    """Reject a name the event log cannot write: not a str, or holding a
    tab, CR or LF, which would split its tab-separated line."""
    if not isinstance(name, str):
        raise ConfigurationError(f"{what} must be a str, got {name!r}")
    if "\t" in name or "\r" in name or "\n" in name:
        raise ConfigurationError(f"{what} {name!r} contains a tab, CR or LF")


@dataclass(frozen=True)
class CpuSpec:
    name: str
    apps: tuple[str, ...]


@dataclass(frozen=True)
class IpSpec:
    stub: str  # AES / DES / TRNG / RSA
    object: str
    integrity: IntegrityLevel = IntegrityLevel.HIGH


@dataclass(frozen=True)
class Topology:
    cpus: tuple[CpuSpec, ...]
    wrapped_ips: tuple[IpSpec, ...]
    app_to_ip: Mapping[str, str]

    def validate(self) -> None:
        if not self.cpus or not self.wrapped_ips:
            raise ConfigurationError("topology needs at least one CPU and one wrapped IP")
        for cpu in self.cpus:
            _check_name(cpu.name, "CPU name")
            for app in cpu.apps:
                _check_name(app, "application name")
        for ip in self.wrapped_ips:
            _check_name(ip.object, "object name")
        apps = [a for cpu in self.cpus for a in cpu.apps]
        if len(set(apps)) != len(apps):
            raise ConfigurationError("duplicate application names")
        objects = [ip.object for ip in self.wrapped_ips]
        if len(set(objects)) != len(objects):
            raise ConfigurationError("duplicate object names")
        for app, obj in self.app_to_ip.items():
            if app not in apps:
                raise ConfigurationError(f"app_to_ip names unknown app {app!r}")
            if obj not in objects:
                raise ConfigurationError(f"app_to_ip names unknown object {obj!r}")
        for app in apps:
            if app not in self.app_to_ip:
                raise ConfigurationError(f"application {app!r} has no mapped IP")


# --------------------------------------------------------------------------
# script entries


class AttackKind(Enum):
    FORGE_TOKEN = "forge_token"
    CROSS_IP_ACCESS = "cross_ip_access"
    TAMPER_INTERCONNECT_SIGNAL = "tamper_interconnect_signal"
    TAMPER_INTEGRITY_LEVEL = "tamper_integrity_level"
    REPLAY_STALE_TOKEN = "replay_stale_token"


class TransactionIntent(NamedTuple):
    cycle: int
    app: str
    target: str
    attribute: AccessAttribute
    payload: bytes = b""


@dataclass(frozen=True)
class AttackInjection:
    kind: AttackKind
    cycle: int
    params: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class ReprovisionEvent:
    cycle: int


ScriptEntry = Union[TransactionIntent, AttackInjection, ReprovisionEvent]


# --------------------------------------------------------------------------
# event log


class EventLog:
    """Append-only, cycle-monotonic record of a simulation run.  Each event
    becomes its ``events.log`` line, ``cycle<TAB>actor<TAB>kind<TAB>`` and
    ``json.dumps(detail, sort_keys=True)``, as it arrives, and the counts
    that :func:`report` reads are kept at the same time.  The hot records
    have two writers, :meth:`access` and :meth:`responses`, which format
    only the cycle (and a response's bytes) per record and take the rest
    from an access's cached entry; the rare kinds go through :meth:`append`.
    Lines are joined into chunks of about ``_CHUNK`` lines, so the log
    holds its text about once."""

    def __init__(self):
        self._chunks: list[str] = []  # joined runs of lines, oldest first
        self._tail: list[str] = []  # the records after the last chunk
        self._events = 0
        self._join_at = _CHUNK  # the line count at which the tail is joined
        self._cycle = 0
        self._counts: dict[str, int] = {}  # appended events per kind, transitions per outcome
        self._reasons: dict[str, int] = {}  # denied transitions per reason
        # (source, target, cost, reason) -> [issue, decision, count, response text
        # before and after the bytes]
        self._accesses: dict = {}
        self._tallies: dict = {}  # (cost, reason) -> accesses written with cache false

    def _record(self, cycle: int, text: str, lines: int) -> None:
        """Add text, lines lines at one cycle; every writer ends here."""
        if cycle < self._cycle and self._events:
            raise SimulationFault("event log cycles must be non-decreasing")
        self._cycle = cycle
        self._events += lines
        self._tail.append(text)
        if self._events >= self._join_at:
            self._chunks.append("".join(self._tail))
            self._tail.clear()
            self._join_at = self._events + _CHUNK

    def append(self, cycle: int, actor: str, kind: str, **detail) -> None:
        self._record(cycle, f"{cycle}\t{actor}\t{kind}\t{_encode(detail)}\n", 1)
        if kind == "transition":
            kind += "_granted" if detail["status"] == "granted" else "_denied"
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if kind == "transition_denied":
            reason = detail.get("reason", "unknown")
            self._reasons[reason] = self._reasons.get(reason, 0) + 1

    def access(self, cycle: int, source: str, target: str, cost: int,
               reason: Optional[str] = None, cache: bool = True) -> list:
        """Write an access's issue line and its grant line, or with a reason
        its deny line, from text cached per (source, target, cost, reason);
        cache false, for names outside the topology, keeps them out of it.
        Returns the entry, which :meth:`responses` writes a grant's response
        line from."""
        key = (source, target, cost, reason)
        entry = self._accesses.get(key)
        if entry is None:
            source_text = _encode_str(source)  # the text of json.dumps, keys in sorted order
            target_text = _encode_str(target)
            denied = "" if reason is None else f'"reason": {_encode_str(reason)}, '
            entry = [f'\t{source}\tissue\t{{"target": {target_text}}}\n',
                     f'\tcontroller\t{"deny" if denied else "grant"}\t{{"cost": {cost}, {denied}'
                     f'"source": {source_text}, "target": {target_text}}}\n', 0,
                     f'\t{target}\tresponse\t{{"bytes": "', f'", "to": {source_text}}}\n']
            if cache:
                self._accesses[key] = entry
            else:
                self._tallies[cost, reason] = self._tallies.get((cost, reason), 0) + 1
        entry[2] += 1
        self._record(cycle, f"{cycle}{entry[0]}{cycle}{entry[1]}", 2)
        return entry

    def responses(self, due: list) -> None:
        """Write a run of response lines, each given as (cycle, the entry
        :meth:`access` returned for its grant, hex bytes)."""
        for cycle, entry, hex_bytes in due:  # hex digits need no escaping
            self._record(cycle, f"{cycle}{entry[3]}{hex_bytes}{entry[4]}", 1)

    def __len__(self) -> int:
        return self._events

    def to_text(self) -> str:
        # kept as the only chunk, so the old chunks are freed before a caller encodes it
        if self._tail:
            self._chunks.append("".join(self._tail))
            self._tail.clear()
        self._chunks = ["".join(self._chunks)]
        return self._chunks[0]


# --------------------------------------------------------------------------
# simulation


class Simulation:
    """Built SoC instance: wrappers, the sealed policy model and, in trusttoken
    mode, the PUF chip and provisioned controller.  Driven once by :func:`run`."""

    def __init__(self, topology: Topology, master_seed: int, mode: str, params: PufParams):
        self.topology = topology
        self.master_seed = master_seed
        self.mode = mode
        self.params = params
        self.cycle = 0
        self.log = EventLog()
        self.ran = False  # run() may drive a simulation once
        self.epoch = 0
        self._forge_serial = 0  # forged transactions count down from -1

        # user i is the i-th CPU and object j the j-th wrapped IP; names map
        # to ids, and object_names and wrappers are indexed by object id
        self.apps: dict[str, ProcessId] = {
            app: ProcessId(owner=user, index=pi)
            for user, cpu in enumerate(topology.cpus)
            for pi, app in enumerate(cpu.apps)
        }
        self.object_names = tuple(ip.object for ip in topology.wrapped_ips)
        self.objects = {name: obj for obj, name in enumerate(self.object_names)}
        objects = range(len(self.object_names))

        # matrices: each app gets full access to its mapped IP, nothing else
        none_row = (AccessAttribute.NONE,) * len(objects)
        matrices = [
            AccessMatrix(user, tuple(
                none_row[:mapped] + (FULL_ACCESS,) + none_row[mapped + 1:]
                for mapped in (self.objects[topology.app_to_ip[app]] for app in cpu.apps)
            ))
            for user, cpu in enumerate(topology.cpus)
        ]
        model = build_system(range(len(topology.cpus)), self.apps.values(), objects, matrices)
        self.model: SystemModel = model.sealed()

        # PUF chip + provisioning, in trusttoken mode only
        self.chip = new_chip(master_seed & (2**64 - 1), params) if mode == MODE_TRUSTTOKEN else None
        self.ip_list = tuple(enumerate(ip.integrity for ip in topology.wrapped_ips))
        self.wrappers = tuple(
            TrustWrapper(standard_stub(ip.stub), obj)
            for obj, ip in enumerate(topology.wrapped_ips)
        )
        self.app_wrappers = {app: self.wrappers[self.objects[obj]]  # the app's own wrapper
                             for app, obj in topology.app_to_ip.items()}
        self.table = None
        self._attack_surface: dict[str, tuple] = {}
        self._provision()

        # baseline-mode state: per-object protection signal plus the
        # interconnect-level check that scenario-2 style tampering disables
        self._baseline_secure = [ip.integrity is IntegrityLevel.HIGH for ip in topology.wrapped_ips]
        self._baseline_check_enabled = True

    # -- construction helpers ---------------------------------------------

    def _provision(self) -> None:
        if self.mode == MODE_BASELINE:  # no controller: tied-off ar_token 0, ar_id the object id
            check_controller_fits(len(self.ip_list), self.params)
        else:
            faults = []
            self.table = provision(self.chip, self.params, self.ip_list, self.master_seed,
                                   epoch=self.epoch, on_fault=faults.append,
                                   object_names=self.object_names)
            for fault in faults:
                self.log.append(self.cycle, "controller", "fault", **fault)
        for obj, _level in self.ip_list:
            ip_id, token = (obj, 0) if self.table is None else self.table.release_credentials(obj)
            self.wrappers[obj].install_credentials(ip_id, token)
            # boot-time credentials that forge, replay and stolen-token attacks reuse
            self._attack_surface.setdefault(self.object_names[obj], (ip_id, token))

    # -- authorization paths ----------------------------------------------

    def _authorize(self, txn: WrappedTransaction) -> AuthorizationOutcome:
        """Decide one transaction: ``authorize`` in trusttoken mode (a LOW
        target passes, a repeat is memoized).  The uncached token-free
        baseline, at cycle cost 1, grants when a bypass flag is set
        (interconnect check disabled, or the target's protection signal
        cleared); otherwise both modes decide by ``evaluate``'s stages."""
        if self.mode == MODE_TRUSTTOKEN:
            return authorize(self.table, txn, self.model)
        if not self._baseline_check_enabled or not self._baseline_secure[txn.target]:
            return AuthorizationOutcome(True, 1, serial=txn.serial)
        request = AccessRequest(txn.source.owner, txn.source, txn.target, None, None, txn.kind)
        reason = evaluate(self.model, request, _NoTokens)
        return AuthorizationOutcome(reason is None, 1, reason, txn.serial)


class _NoTokens:
    """Baseline mode's credentials view: it holds no tokens, so it denies nothing."""
    check_credentials = staticmethod(lambda obj, ip_id, token: None)


def _is_count(value) -> bool:
    """An int >= 0 that is not a bool (YAML reads true as a bool)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def build(topology: Topology, master_seed: int, mode: str = MODE_TRUSTTOKEN,
          params: Optional[PufParams] = None) -> Simulation:
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}, expected one of {MODES}")
    if not _is_count(master_seed):
        raise ConfigurationError(f"seed must be an integer >= 0, got {master_seed!r}")
    topology.validate()
    return Simulation(topology, master_seed, mode, params or PufParams())


# --------------------------------------------------------------------------
# run loop


def run(sim: Simulation, script: Sequence[ScriptEntry], max_cycles: int) -> EventLog:
    """Drive the simulation: entries in cycle order, FIFO within a cycle.

    Every transaction intent yields exactly one issue and one grant/deny
    record; granted payloads produce a response record cycle_cost cycles
    later.  Entries at or beyond max_cycles have no effect, but
    max_cycles and every entry's type, cycle, attack and access are
    checked, and each attack's params resolved, before the first event.
    A simulation runs once; a second call raises SimulationFault.
    """
    if sim.ran:
        raise SimulationFault("this simulation has already run; build a new one")
    sim.ran = True
    if not _is_count(max_cycles):
        raise ConfigurationError(f"max_cycles must be an integer >= 0, got {max_cycles!r}")
    entries = []  # each entry run: an intent, else (cycle, entry, an attack's args or None)
    checked = set()  # the (app, target, attribute) of str names _check_access passed
    for i, entry in enumerate(script):
        try:
            if isinstance(entry, TransactionIntent):
                cycle, app, target, attribute, payload = entry
            elif isinstance(entry, (AttackInjection, ReprovisionEvent)):
                cycle = entry.cycle
            else:
                raise ConfigurationError(f"not a script entry: {entry!r}")
            if cycle.__class__ is not int and not _is_count(cycle) or cycle < 0:
                raise ConfigurationError(f"cycle must be >= 0, got {cycle!r}")
            if isinstance(entry, TransactionIntent):
                key = (app, target, attribute)
                if not (app.__class__ is target.__class__ is str and payload.__class__ is bytes
                        and attribute.__class__ is AccessAttribute and key in checked):
                    _check_access(app, target, attribute, payload, "access")
                    if app.__class__ is target.__class__ is str:
                        checked.add(key)
            else:
                entry = (cycle, entry,
                         _check_attack(sim, entry) if isinstance(entry, AttackInjection) else None)
        except ConfigurationError as exc:
            raise ConfigurationError(f"script entry {i}: {exc}") from exc
        if cycle < max_cycles:
            entries.append(entry)
    entries.sort(key=_first)  # stable: script order within a cycle
    pending = []  # deferred responses (due cycle, access log entry, hex bytes)

    def flush(up_to: int) -> None:
        due = bisect_right(pending, up_to, key=_first)
        sim.log.responses(pending[:due])
        del pending[:due]

    for entry in entries:
        sim.cycle = cycle = entry[0]
        if pending and pending[0][0] <= cycle:  # a response is due
            flush(cycle)
        if isinstance(entry, TransactionIntent):
            _, app, target, attribute, payload = entry
            _access(sim, app, target, attribute, payload, pending)
        elif entry[2] is None:  # a reprovision
            sim.epoch += 1
            sim._provision()
            sim.log.append(cycle, "controller", "reprovision", epoch=sim.epoch)
        else:
            _run_attack(sim, entry[1], entry[2], pending)
    flush(max_cycles)
    return sim.log


def _access(sim: Simulation, app: str, target: str, attribute: AccessAttribute,
            payload: bytes, pending, sideband: Optional[tuple[int, int]] = None) -> bool:
    """One bus access from app to target: deny an unknown app or target as
    malformed at cycle cost 1, else authorize, log the issue and outcome
    records and deliver on grant, its response due cycle_cost cycles later
    (FIFO within a cycle) and written from the access's log entry.  The
    app's own wrapper issues the transaction unless an attacker-chosen
    sideband, an (ar_token, ar_id) pair of ints, is given; that bypasses
    the wrapper and is the only forgery path in the simulator.  Returns
    granted."""
    cycle = sim.cycle
    proc = sim.apps.get(app)
    obj = sim.objects.get(target)
    if proc is None or obj is None:  # formatted uncached: the names are not the topology's
        sim.log.access(cycle, app, target, 1, DenialReason.MALFORMED.value, cache=False)
        return False
    if sideband is None:
        txn = sim.app_wrappers[app].issue(obj, attribute, payload, source=proc)
    else:
        sim._forge_serial -= 1
        txn = WrappedTransaction(proc, obj, attribute, payload, *sideband, sim._forge_serial)
    outcome = sim._authorize(txn)
    granted, cost, reason, _ = outcome
    entry = sim.log.access(cycle, app, target, cost, None if granted else reason.value)
    if granted:
        response = sim.wrappers[obj].deliver(txn, outcome)
        insort(pending, (cycle + cost, entry, response.hex()), key=_first)
    return granted


def _check_fields(attribute, payload, what: str) -> None:
    if not isinstance(attribute, AccessAttribute):
        raise ConfigurationError(f"{what} attribute must be an AccessAttribute, got {attribute!r}")
    if not isinstance(payload, bytes):
        raise ConfigurationError(f"{what} payload must be bytes, got {payload!r}")


def _check_access(app, target, attribute, payload, what: str) -> None:
    """Reject an access the run could not carry out: an app that _check_name
    rejects (the issue record's actor), a target that is not a str, an
    attribute or payload of the wrong type, or no access bit.  An unknown
    app or target runs, as a malformed and denied transaction."""
    _check_name(app, f"{what} app")
    if not isinstance(target, str):
        raise ConfigurationError(f"{what} target must be a str, got {target!r}")
    _check_fields(attribute, payload, what)
    if attribute == AccessAttribute.NONE:
        raise ConfigurationError("an access needs at least one access bit")


# the params each attack kind reads; an integrity tamper's signal is only logged
_ATTACK_PARAMS = {
    AttackKind.FORGE_TOKEN: {"app", "target", "attribute", "flip_bit"},
    AttackKind.REPLAY_STALE_TOKEN: {"app", "target", "attribute"},
    AttackKind.CROSS_IP_ACCESS: {"app", "target", "attribute", "payload"},
    AttackKind.TAMPER_INTEGRITY_LEVEL: {"target", "new_level", "token", "signal"},
    AttackKind.TAMPER_INTERCONNECT_SIGNAL: {"app", "target"},
}


def _check_attack(sim: Simulation, attack: AttackInjection) -> dict:
    """Check an attack and return its args with every default filled in:
    app (absent on tamper_integrity_level) and target as str, attribute,
    payload, flip_bit, new_level as an IntegrityLevel, and stolen (its
    token is "stolen").  An interconnect tamper's app and target default
    to the first CPU's first app and the first wrapped IP.  Reject a param
    its kind does not read (see _ATTACK_PARAMS), a missing or unknown app
    or target (a cross-IP access is checked as a script access is), an
    attribute or payload of the wrong type, a flip_bit that is not an int
    in 0..255, an unknown new_level, or a token but "none" or "stolen".
    Forge and replay may send an empty attribute (see ``evaluate``)."""
    p = attack.params
    what = f"{attack.kind.value} attack"
    for key in p:
        if key not in _ATTACK_PARAMS[attack.kind]:
            raise ConfigurationError(f"{what} does not take {key!r}")
    names = {"app": None, "target": None}
    if attack.kind is AttackKind.TAMPER_INTERCONNECT_SIGNAL:
        names = {"app": next(iter(sim.topology.cpus[0].apps), None),
                 "target": sim.topology.wrapped_ips[0].object}
    elif attack.kind is AttackKind.TAMPER_INTEGRITY_LEVEL:
        del names["app"]
    known = {"app": sim.apps, "target": sim.objects}
    for key in names:
        if key in p:
            names[key] = str(p[key])
            if attack.kind is not AttackKind.CROSS_IP_ACCESS and names[key] not in known[key]:
                raise ConfigurationError(f"{what} names unknown {key} {p[key]!r}")
        elif names[key] is None:
            raise ConfigurationError(f"{what} needs {key!r}")
    attribute = p.get("attribute", AccessAttribute.READ)
    payload = p.get("payload", b"")
    if attack.kind is AttackKind.CROSS_IP_ACCESS:
        _check_access(names["app"], names["target"], attribute, payload, what)
    else:
        _check_fields(attribute, payload, what)
    flip_bit = p.get("flip_bit", 0)
    if not _is_count(flip_bit) or flip_bit > 255:
        raise ConfigurationError(f"flip_bit must be in 0..255, got {flip_bit!r}")
    try:
        new_level = IntegrityLevel(str(p.get("new_level", "LOW")))
    except ValueError:
        raise ConfigurationError(f"{what} has unknown new_level {p['new_level']!r}") from None
    token = p.get("token", "none")
    if token not in ("none", "stolen"):
        raise ConfigurationError(f"{what} has unknown token {token!r}, expected 'none' or 'stolen'")
    return dict(names, attribute=attribute, payload=payload, flip_bit=flip_bit,
                new_level=new_level, stolen=token == "stolen")


def _run_attack(sim: Simulation, attack: AttackInjection, args: dict, pending) -> None:
    sim.log.append(  # an attribute as its int: str() of an IntFlag differs by Python version
        sim.cycle, "attacker", "attack_fired", attack=attack.kind.value,
        **{k: str(int(v) if isinstance(v, AccessAttribute) else v)
           for k, v in attack.params.items()},
    )
    blocked = False
    detail: dict = {"attack": attack.kind.value}
    target = args["target"]

    if attack.kind is AttackKind.CROSS_IP_ACCESS:
        blocked = not _access(sim, args["app"], target, args["attribute"], args["payload"], pending)

    elif attack.kind in (AttackKind.FORGE_TOKEN, AttackKind.REPLAY_STALE_TOKEN):
        ip_id, token = sim._attack_surface[target]
        if attack.kind is AttackKind.FORGE_TOKEN:
            token ^= 1 << 255 - args["flip_bit"]  # bit 0 is the most significant
        blocked = not _access(  # a forged or replayed access carries no payload
            sim, args["app"], target, args["attribute"], b"", pending, (token, ip_id),
        )

    elif attack.kind is AttackKind.TAMPER_INTEGRITY_LEVEL:
        new_level = args["new_level"]
        detail["target"] = target
        if sim.mode == MODE_TRUSTTOKEN:
            presented = sim._attack_surface[target][1] if args["stolen"] else 0
            outcome = request_integrity_transition(
                sim.table, sim.objects[target], presented, new_level
            )
        else:
            sim._baseline_secure[sim.objects[target]] = new_level is IntegrityLevel.HIGH
            outcome = AuthorizationOutcome(True, 1)
        sim.log.append(
            sim.cycle, "controller" if sim.mode == MODE_TRUSTTOKEN else "interconnect",
            "transition", target=target, to=new_level.value,
            status="granted" if outcome.granted else "denied",
            **({} if outcome.granted else {"reason": outcome.reason.value}),
        )
        blocked = not outcome.granted

    elif attack.kind is AttackKind.TAMPER_INTERCONNECT_SIGNAL:
        if sim.mode == MODE_TRUSTTOKEN:
            # unauthorized actor tries to rewrite the attacker app's matrix row
            proc = sim.apps[args["app"]]
            try:
                modify_matrix(
                    sim.model, Actor.USER, proc.owner, proc,
                    sim.objects[target], FULL_ACCESS,
                )
            except MatrixTamperError:
                detail["reason"] = DenialReason.MATRIX_TAMPER.value
                blocked = True
        else:
            sim._baseline_check_enabled = False

    else:  # pragma: no cover - enum is closed
        raise SimulationFault(f"unhandled attack kind {attack.kind}")

    if blocked:
        sim.log.append(sim.cycle, "controller", "attack_blocked", **detail)


# --------------------------------------------------------------------------
# reporting


@dataclass(frozen=True)
class SummaryReport:
    grants: int
    denies: int
    denials_by_reason: tuple[tuple[str, int], ...]
    transitions_granted: int
    transitions_denied: int
    attacks_fired: int
    attacks_blocked: int
    verdict: str  # BLOCKED / BREACHED / NONE
    cycle_cost_histogram: tuple[tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "grants": self.grants,
            "denies": self.denies,
            "denials_by_reason": dict(self.denials_by_reason),
            "transitions": {
                "granted": self.transitions_granted,
                "denied": self.transitions_denied,
            },
            "attacks": {"fired": self.attacks_fired, "blocked": self.attacks_blocked},
            "verdict": self.verdict,
            "cycle_cost_histogram": {str(k): v for k, v in self.cycle_cost_histogram},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def report(log: EventLog) -> SummaryReport:
    """Summarize a run from the log's counts, the access writer's per-key
    counts folded in: grant/deny totals, attack verdict, cost histogram."""
    counts = log._counts
    grants = denies = 0
    reasons, costs = dict(log._reasons), {}
    cached = [(key[2:], entry[2]) for key, entry in log._accesses.items()]
    for (cost, reason), n in cached + list(log._tallies.items()):
        costs[cost] = costs.get(cost, 0) + n
        if reason is None:
            grants += n
        else:
            denies += n
            reasons[reason] = reasons.get(reason, 0) + n
    fired = counts.get("attack_fired", 0)
    blocked = counts.get("attack_blocked", 0)
    verdict = "NONE" if fired == 0 else "BLOCKED" if blocked == fired else "BREACHED"
    return SummaryReport(
        grants=grants,
        denies=denies,
        denials_by_reason=tuple(sorted(reasons.items())),
        transitions_granted=counts.get("transition_granted", 0),
        transitions_denied=counts.get("transition_denied", 0),
        attacks_fired=fired,
        attacks_blocked=blocked,
        verdict=verdict,
        cycle_cost_histogram=tuple(sorted(costs.items())),
    )
