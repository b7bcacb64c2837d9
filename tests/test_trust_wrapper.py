import pytest
from hypothesis import given
from hypothesis import strategies as st

from trusttoken.errors import ConfigurationError, ParameterError, SimulationFault
from trusttoken.policy_engine import AccessAttribute, DenialReason, ProcessId
from trusttoken.token_authority import AuthorizationOutcome
from trusttoken.trust_wrapper import (
    TrustWrapper,
    WrappedTransaction,
    _aes_stub,
    _des_stub,
    _rsa_stub,
    standard_stub,
)

PROC = ProcessId(0, 0)
OBJ = 0
TOKEN = int("10" * 128, 2)


@pytest.fixture()
def wrapper():
    w = TrustWrapper(standard_stub("AES"), OBJ)
    w.install_credentials(3, TOKEN)
    return w


class TestStubs:
    @pytest.mark.parametrize("name", ["AES", "DES", "TRNG", "RSA"])
    def test_deterministic(self, name):
        stub = standard_stub(name)
        assert stub(b"hello") == stub(b"hello")

    def test_distinguishable(self):
        payload = b"\x01\x02\x03\x04"
        outputs = {name: standard_stub(name)(payload) for name in ("AES", "DES", "TRNG", "RSA")}
        assert len(set(outputs.values())) == 4

    def test_unknown_stub(self):
        with pytest.raises(ConfigurationError):
            standard_stub("SHA3")


# the byte maps the standard stubs run as translate tables, and the
# byte-at-a-time transforms the tables are built from
TABLE_STUBS = [("AES", _aes_stub), ("DES", _des_stub), ("RSA", _rsa_stub)]


class TestTableStubs:
    @pytest.mark.parametrize("name, reference", TABLE_STUBS)
    def test_table_stub_matches_reference_on_every_byte(self, name, reference):
        stub = standard_stub(name)
        for b in range(256):
            assert stub(bytes([b])) == reference(bytes([b]))
        assert stub(b"") == reference(b"") == b""

    @pytest.mark.parametrize("name, reference", TABLE_STUBS)
    @given(payload=st.binary())  # max_examples from the profile: 100 by default
    def test_table_stub_matches_reference_on_drawn_payloads(self, name, reference, payload):
        assert standard_stub(name)(payload) == reference(payload)

    @pytest.mark.parametrize("name, reference", TABLE_STUBS)
    def test_stub_invocations_count_only_granted_deliveries(self, name, reference):
        w = TrustWrapper(standard_stub(name), OBJ)
        w.install_credentials(3, TOKEN)
        granted = [i % 3 == 0 for i in range(30)]
        for i, grant in enumerate(granted):
            txn = w.issue(OBJ, AccessAttribute.READ, bytes([i, 255 - i]), source=PROC)
            reason = None if grant else DenialReason.TOKEN_MISMATCH
            response = w.deliver(txn, AuthorizationOutcome(grant, 2, reason, serial=txn.serial))
            assert response == (reference(txn.payload) if grant else None)
        assert w.stub_invocations == sum(granted)


class TestIssue:
    def test_unprovisioned_rejected(self):
        w = TrustWrapper(standard_stub("AES"), OBJ)
        with pytest.raises(ConfigurationError):
            w.issue(OBJ, AccessAttribute.READ, b"", source=PROC)

    def test_sideband_verbatim(self, wrapper):
        txn = wrapper.issue(OBJ, AccessAttribute.READ, b"x", source=PROC)
        assert txn.sideband.ar_id == 3
        assert txn.sideband.ar_token == TOKEN
        assert txn.sideband is wrapper.sideband

    def test_serials_distinct(self, wrapper):
        t1 = wrapper.issue(OBJ, AccessAttribute.READ, b"", source=PROC)
        t2 = wrapper.issue(OBJ, AccessAttribute.READ, b"", source=PROC)
        assert t1.sideband is t2.sideband
        assert t1.serial != t2.serial

    def test_empty_kind_rejected(self, wrapper):
        for kind in (AccessAttribute.NONE, 0):  # a plain int 0 is the empty kind too
            with pytest.raises(ParameterError):
                wrapper.issue(OBJ, kind, b"", source=PROC)
        assert wrapper.issue(OBJ, AccessAttribute.READ, b"", source=PROC).serial == 1  # none spent

    def test_issue_builds_a_real_wrapped_transaction(self, wrapper):
        txn = wrapper.issue(OBJ, AccessAttribute.WRITE, bytearray(b"ab"), source=PROC)
        assert type(txn) is WrappedTransaction and type(txn.payload) is bytes
        built = WrappedTransaction(PROC, OBJ, AccessAttribute.WRITE, b"ab", wrapper.sideband, 1)
        assert txn._asdict() == built._asdict()
        assert repr(txn) == repr(built)


class TestInstallCredentials:
    def test_equal_credentials_keep_the_sideband(self, wrapper):
        sideband = wrapper.sideband
        wrapper.install_credentials(3, TOKEN)
        assert wrapper.sideband is sideband

    @pytest.mark.parametrize("ip_id, token", [(4, TOKEN), (3, TOKEN ^ 1), (4, TOKEN ^ 1)])
    def test_changed_credentials_build_a_new_sideband(self, wrapper, ip_id, token):
        sideband = wrapper.sideband
        wrapper.install_credentials(ip_id, token)
        assert wrapper.sideband is not sideband
        assert (wrapper.sideband.ar_id, wrapper.sideband.ar_token) == (ip_id, token)
        txn = wrapper.issue(OBJ, AccessAttribute.READ, b"", source=PROC)
        assert txn.sideband is wrapper.sideband


class TestDeliver:
    def test_granted_runs_stub(self, wrapper):
        txn = wrapper.issue(OBJ, AccessAttribute.READ, b"abc", source=PROC)
        outcome = AuthorizationOutcome(True, 2, serial=txn.serial)
        assert wrapper.deliver(txn, outcome) == wrapper.stub(b"abc")
        assert wrapper.stub_invocations == 1

    def test_denied_never_reaches_stub(self, wrapper):
        for i in range(50):
            txn = wrapper.issue(OBJ, AccessAttribute.READ, bytes([i]), source=PROC)
            outcome = AuthorizationOutcome(False, 2, DenialReason.TOKEN_MISMATCH, serial=txn.serial)
            assert wrapper.deliver(txn, outcome) is None
        assert wrapper.stub_invocations == 0

    def test_mismatched_outcome_faults(self, wrapper):
        txn = wrapper.issue(OBJ, AccessAttribute.READ, b"", source=PROC)
        outcome = AuthorizationOutcome(True, 2, serial=txn.serial + 1)
        with pytest.raises(SimulationFault):
            wrapper.deliver(txn, outcome)
