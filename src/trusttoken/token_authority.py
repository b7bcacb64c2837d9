"""Central token controller: provisioning, runtime authorization, and
integrity-level transitions.

A token (the ar_token sideband value) is a 256-bit PUF response held as an
int below 2**256, bit 0 being its most significant bit; an ip id (ar_id)
is an int in 0..255.  Both are bound to one wrapped IP each.  The table
keeps them private: the only outward path is a one-shot boot-stage
credential release per object; afterwards tokens flow inward only, for
comparison.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import ParameterError, ProvisioningError
from .policy_engine import (
    AccessRequest,
    DenialReason,
    IntegrityLevel,
    SystemModel,
    evaluate,
)
from .puf_model import ChipFingerprint, PufParams, noiseless_responses

_PROVISION_SALT = 0x50524F
# The most challenges one re-key batch draws: their pairings take 4 MB.
_MAX_REKEY_BATCH = 1024


class AuthorizationOutcome(NamedTuple):
    granted: bool
    cycle_cost: int  # 1 or 2, a literal at every site that builds an outcome
    reason: Optional[DenialReason] = None
    serial: Optional[int] = None


@dataclass
class _Entry:
    ip_id: int
    token: int
    integrity: IntegrityLevel
    released: bool = False


class TokenTable:
    """Protected credential store built at boot by :func:`provision`.

    There is deliberately no public token accessor: callers can verify
    presented credentials and release each IP's credentials exactly once
    (the boot-stage push to its wrapper).

    ``_decisions`` memoizes :func:`authorize`: (source owner, source index,
    target, kind, ar_token, ar_id), a key of ints that hashes in C, ->
    (granted, cycle_cost, reason), decided under the ``_policy`` object.
    A table starts with an empty memo, and it is cleared whenever a
    decision input changes: a granted integrity transition, or a call
    under another policy object.
    """

    def __init__(self, entries: dict[int, _Entry]):
        self._entries = dict(entries)
        self._decisions: dict[tuple, tuple[bool, int, Optional[DenialReason]]] = {}
        self._policy: Optional[SystemModel] = None

    def check_credentials(self, obj: int, ip_id, token) -> Optional[DenialReason]:
        if obj not in self._entries:
            return DenialReason.MALFORMED
        entry = self._entries[obj]
        if token != entry.token:
            return DenialReason.TOKEN_MISMATCH
        if ip_id != entry.ip_id:
            return DenialReason.ID_MISMATCH
        return None

    def release_credentials(self, obj: int) -> tuple[int, int]:
        """One-shot boot handout of (ar_id, ar_token) for a wrapper."""
        if obj not in self._entries:
            raise ParameterError(f"object {obj} is not provisioned")
        entry = self._entries[obj]
        if entry.released:
            raise ParameterError(f"credentials for {obj} were already released")
        entry.released = True
        return entry.ip_id, entry.token


def check_controller_fits(n_ips: int, params: PufParams) -> None:
    """Reject more than 256 IPs (8-bit ar_id) or tokens of other than 256
    bits.  provision and a baseline SoC, which provisions nothing, call it."""
    if n_ips > 256:
        raise ProvisioningError("at most 256 IPs per controller (8-bit ar_id)")
    if params.response_bits != 256:
        raise ParameterError(
            f"token must be exactly 256 bits, got response_bits={params.response_bits}"
        )


def provision(
    chip: ChipFingerprint,
    params: PufParams,
    ip_list: Sequence[tuple[int, IntegrityLevel]],
    master_seed: int,
    epoch: int = 0,
    on_fault=None,
    object_names: Optional[Sequence[str]] = None,
) -> TokenTable:
    """Boot-stage provisioning: draw a distinct challenge per IP in seeded
    random order, derive each token as the noiseless PUF response, and
    assign sequential 8-bit IDs.  Each value's range is fixed here, where
    it is made: challenges are drawn from 0..0xFFFF, a token is a
    256-bit response (``response_bits`` must be 256), and at most 256 IPs
    take the ids 0..255.

    The order is one seeded permutation of the 65,536 challenges, shuffled
    lazily front to back (Durstenfeld): position t swaps with position
    t + integers(0, 0x10000 - t), so a provisioning draws only the
    challenges it reads.  The first batch, one challenge per IP, takes all
    its tokens from one noiseless_responses call.  A token collision is a
    logged fault: the colliding IP takes the challenge after, so the
    challenges go to the IPs in the order a one-at-a-time draw would give,
    and any challenge left over in a batch goes to no IP.  Each re-key
    batch is twice the size of the one before, up to _MAX_REKEY_BATCH
    challenges, so that a chip whose responses are all alike runs out of
    the order in few calls.  The IP that is then left without a token is a
    ProvisioningError, which names it as object_names[obj] when names are
    given.
    """
    if not ip_list:
        raise ProvisioningError("ip_list must not be empty")
    objects = [obj for obj, _ in ip_list]
    if len(set(objects)) != len(objects):
        raise ProvisioningError("duplicate object in ip_list")
    check_controller_fits(len(ip_list), params)

    rng = np.random.default_rng([master_seed, epoch, _PROVISION_SALT])
    moved: dict[int, int] = {}  # position -> the challenge a swap put there
    quiet = dataclasses.replace(params, noise_sigma=0.0)

    entries: dict[int, _Entry] = {}
    seen_tokens: set[int] = set()
    drawn, size = 0, len(ip_list)
    while len(entries) < len(ip_list):
        if drawn == 0x10000:
            obj = ip_list[len(entries)][0]
            name = obj if object_names is None else repr(object_names[obj])
            raise ProvisioningError(
                f"no challenge left for object {name}: every one gave a token already taken"
            )
        batch = []
        highs = np.arange(0x10000 - drawn, max(0x10000 - drawn - size, 0), -1)
        for t, r in enumerate(rng.integers(0, highs).tolist(), drawn):
            batch.append(moved.get(t + r, t + r))
            moved[t + r] = moved.pop(t, t)
        drawn += len(batch)
        size = min(2 * size, _MAX_REKEY_BATCH)
        for token in noiseless_responses(chip, batch, quiet):
            obj, level = ip_list[len(entries)]
            if token in seen_tokens:
                if on_fault is not None:
                    on_fault({"event": "token_collision", "object": obj})
                continue
            seen_tokens.add(token)
            entries[obj] = _Entry(ip_id=len(entries), token=token, integrity=level)
            if len(entries) == len(ip_list):
                break
    return TokenTable(entries)


def authorize(table: TokenTable, txn, policy: SystemModel) -> AuthorizationOutcome:
    """Authorize one wrapped transaction.

    A provisioned LOW-integrity target passes through unchecked at cycle
    cost 1.  Every other target pays the 2-cycle handshake and is decided
    by one :func:`evaluate` call, whose stages run in one order (unknown
    reference, foreign process, credentials, empty attribute, matrix) and
    fix the reason; its unknown-reference or credentials stage denies an
    unprovisioned target MALFORMED.  A denied payload is never delivered
    (enforced by the wrapper, which requires this outcome).

    A repeated request is answered from the table's memo of decisions
    (see :class:`TokenTable`); the first one runs the checks above.
    """
    if policy is not table._policy:
        table._decisions.clear()
        table._policy = policy
    source, target, kind, _, sideband, serial = txn
    token, ip_id = sideband.ar_token, sideband.ar_id
    key = (source.owner, source.index, target, kind, token, ip_id)
    decision = table._decisions.get(key)
    if decision is None:
        entry = table._entries.get(target)
        if entry is not None and entry.integrity is IntegrityLevel.LOW:
            decision = (True, 1, None)
        else:
            request = AccessRequest(source.owner, source, target, token, ip_id, kind)
            reason = evaluate(policy, request, table)
            decision = (reason is None, 2, reason)
        table._decisions[key] = decision
    return tuple.__new__(AuthorizationOutcome, decision + (serial,))  # no constructor frame


def request_integrity_transition(
    table: TokenTable,
    obj: int,
    presented_token: int,
    new_level: IntegrityLevel,
) -> AuthorizationOutcome:
    """Change an IP's integrity level; requires the IP's own token.  A
    granted transition clears the memo of decisions."""
    entry = table._entries.get(obj)
    if entry is None:
        return AuthorizationOutcome(False, 2, DenialReason.MALFORMED)
    if presented_token != entry.token:
        return AuthorizationOutcome(False, 2, DenialReason.TOKEN_MISMATCH)
    entry.integrity = new_level
    table._decisions.clear()
    return AuthorizationOutcome(True, 2)
