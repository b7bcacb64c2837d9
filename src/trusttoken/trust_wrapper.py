"""Security wrapper around an untrusted IP core.

The wrapper builds its sideband signals once from each provisioned
(ar_id, ar_token), stamps them onto every transaction it issues, and
gates the data channel: the hosted stub runs only on transactions the
controller has granted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import methodcaller
from typing import Callable, NamedTuple, Optional

from .errors import ConfigurationError, ParameterError, SimulationFault
from .policy_engine import AccessAttribute, ProcessId
from .token_authority import AuthorizationOutcome


@dataclass(frozen=True)
class SidebandSignals:
    """The extra bus signals: 256-bit token and 8-bit id.  A target's
    integrity level is the token table's, so no bus signal carries one."""

    ar_token: int
    ar_id: int


class WrappedTransaction(NamedTuple):
    source: ProcessId
    target: int
    kind: AccessAttribute
    payload: bytes
    sideband: SidebandSignals
    serial: int


def _aes_stub(payload: bytes) -> bytes:
    # fixed byte substitution: xor + nibble swap
    return bytes(((b ^ 0x5A) >> 4 | ((b ^ 0x5A) & 0x0F) << 4) & 0xFF for b in payload)


def _des_stub(payload: bytes) -> bytes:
    # rotate each byte left by 3
    return bytes(((b << 3) | (b >> 5)) & 0xFF for b in payload)


def _trng_stub(payload: bytes) -> bytes:
    # seeded pseudo-random block of the same length as the request
    if not payload:
        return b""
    stream = b""
    counter = 0
    while len(stream) < len(payload):
        stream += hashlib.sha256(payload + counter.to_bytes(4, "big")).digest()
        counter += 1
    return stream[: len(payload)]


def _rsa_stub(payload: bytes) -> bytes:
    # toy per-byte modular exponent
    return bytes(pow(b, 17, 251) for b in payload)


def _translate(byte_map: Callable[[bytes], bytes]) -> Callable[[bytes], bytes]:
    """A stub that maps each byte on its own, run as ``payload.translate``
    of its table over all 256 byte values."""
    return methodcaller("translate", byte_map(bytes(range(256))))


_STANDARD_STUBS = {
    "AES": _translate(_aes_stub),
    "DES": _translate(_des_stub),
    "TRNG": _trng_stub,
    "RSA": _translate(_rsa_stub),
}


def standard_stub(name: str) -> Callable[[bytes], bytes]:
    """The pure transform of a deterministic stand-in for a crypto IP core."""
    try:
        return _STANDARD_STUBS[name.upper()]
    except KeyError:
        raise ConfigurationError(f"no standard stub named {name!r}") from None


class TrustWrapper:
    """One wrapped IP: holds the stub, its object id, and (after
    provisioning) the sideband signals its transactions carry."""

    def __init__(self, stub: Callable[[bytes], bytes], obj: int):
        self.stub = stub
        self.object = obj
        self.sideband: Optional[SidebandSignals] = None  # set by provisioning
        self.stub_invocations = 0
        self._issue_counter = 0

    def install_credentials(self, ip_id: int, token: int) -> None:
        """Controller-side boot push; a re-provisioning replaces it unless it is unchanged."""
        old = self.sideband
        if old is None or old.ar_token != token or old.ar_id != ip_id:
            self.sideband = SidebandSignals(token, ip_id)

    def issue(
        self,
        target: int,
        kind: AccessAttribute,
        payload: bytes,
        *,
        source: ProcessId,
    ) -> WrappedTransaction:
        """Create a transaction carrying this wrapper's own sideband verbatim."""
        if self.sideband is None:
            raise ConfigurationError(f"wrapper for {self.object} is not provisioned")
        if kind == 0:  # AccessAttribute.NONE, compared without the class attribute read
            raise ParameterError("transaction kind needs at least one access bit")
        self._issue_counter += 1
        return tuple.__new__(WrappedTransaction, (  # no Python-level constructor frame
            source, target, kind, bytes(payload), self.sideband, self._issue_counter))

    def deliver(
        self, txn: WrappedTransaction, outcome: AuthorizationOutcome
    ) -> Optional[bytes]:
        """Run the stub on a granted transaction; a denied one never
        reaches the stub and yields no payload."""
        if outcome.serial != txn.serial:
            raise SimulationFault("authorization outcome does not match transaction")
        if not outcome.granted:
            return None
        self.stub_invocations += 1
        return self.stub(txn.payload)
