"""Test-side helpers for the policy engine: a dict-backed credential store
that ``evaluate`` can check credentials against without a provisioned
``TokenTable``, a model's matrix lookup by user, and a provisioned
table's integrity level of an object."""

from typing import Mapping, Optional

from trusttoken.policy_engine import AccessMatrix, DenialReason, IntegrityLevel, SystemModel


class StaticCredentialStore:
    """Plain dict-backed credential view: object -> (ip_id, token)."""

    def __init__(self, entries: Mapping[int, tuple]):
        self._entries = dict(entries)

    def __contains__(self, obj: int) -> bool:
        return obj in self._entries

    def check_credentials(self, obj, ip_id, token) -> Optional[DenialReason]:
        if obj not in self._entries:
            return DenialReason.MALFORMED
        stored_id, stored_token = self._entries[obj]
        if token != stored_token:
            return DenialReason.TOKEN_MISMATCH
        if ip_id != stored_id:
            return DenialReason.ID_MISMATCH
        return None


def matrix_for(model: SystemModel, user: int) -> AccessMatrix:
    for owner, matrix in model.matrices:
        if owner == user:
            return matrix
    raise KeyError(f"no matrix for {user}")


def integrity_of(table, obj: int) -> Optional[IntegrityLevel]:
    """The integrity level a provisioned TokenTable holds for obj, read
    from its private entries; None when obj is not provisioned."""
    entry = table._entries.get(obj)
    return None if entry is None else entry.integrity
