"""Test-side helpers for the policy engine: a dict-backed credential store
that ``evaluate`` can check credentials against without a provisioned
``TokenTable``, and a model's matrix lookup by user."""

from typing import Mapping, Optional

from trusttoken.policy_engine import AccessMatrix, DenialReason, SystemModel


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
