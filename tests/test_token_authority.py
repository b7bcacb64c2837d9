import itertools

import pytest

from trusttoken.errors import ParameterError, ProvisioningError
from trusttoken.policy_engine import (
    AccessAttribute,
    AccessMatrix,
    AccessRequest,
    DenialReason,
    IntegrityLevel,
    ProcessId,
    build_system,
    evaluate,
)
from trusttoken.token_authority import (
    ZERO_TOKEN,
    AuthorizationOutcome,
    IpId,
    Token,
    authorize,
    lookup_integrity,
    provision,
    request_integrity_transition,
)
from trusttoken.trust_wrapper import SidebandSignals, WrappedTransaction

RWE = AccessAttribute.READ | AccessAttribute.WRITE | AccessAttribute.EXECUTE

OBJECTS = list(range(4))  # aes, des, trng, rsa
IP_LIST = [(o, IntegrityLevel.HIGH) for o in OBJECTS]
USER = 0
PROC = ProcessId(USER, 0)


@pytest.fixture()
def table(chip, default_params):
    return provision(chip, default_params, IP_LIST, master_seed=99)


@pytest.fixture()
def permissive_model():
    matrix = AccessMatrix(USER, ((RWE, RWE, RWE, RWE),))
    return build_system([USER], [PROC], OBJECTS, [matrix]).sealed()


def release_all(t):
    return {obj: t.release_credentials(obj) for obj, _ in IP_LIST}


def txn_for(creds, source_obj, target_obj, kind=AccessAttribute.READ, serial=1):
    ip_id, token = creds[source_obj]
    sideband = SidebandSignals(token, ip_id, IntegrityLevel.HIGH)
    return WrappedTransaction(
        source=PROC, target=target_obj, kind=kind, payload=b"\x01",
        sideband=sideband, serial=serial,
    )


class TestToken:
    def test_width_enforced(self):
        for bad in (-1, 1 << 256, "0" * 256):
            with pytest.raises(ParameterError):
                Token(bad)
        Token(0)
        Token((1 << 256) - 1)

    def test_flip(self):
        def string_flip(token, i):
            """The flip on the token's 256-character '0'/'1' string, bit 0 first."""
            chars = list(format(token.bits, "0256b"))
            chars[i] = "0" if chars[i] == "1" else "1"
            return Token(int("".join(chars), 2))

        t = ZERO_TOKEN.flipped(5)
        assert format(t.bits, "0256b")[5] == "1"
        assert t.flipped(5) == ZERO_TOKEN
        patterned = Token(int("0110" * 64, 2))
        for bit in (0, 5, 255):
            for token in (ZERO_TOKEN, patterned):
                assert token.flipped(bit) == string_flip(token, bit), bit

    def test_ip_id_range(self):
        with pytest.raises(ParameterError):
            IpId(256)

    def test_cycle_cost_bounds(self):
        with pytest.raises(ParameterError):
            AuthorizationOutcome(True, 3)


class TestProvision:
    def test_four_ips_distinct_tokens(self, table):
        creds = release_all(table)
        tokens = [tok for _, tok in creds.values()]
        for a, b in itertools.combinations(tokens, 2):
            assert a != b

    def test_deterministic(self, chip, default_params):
        t1 = provision(chip, default_params, IP_LIST, master_seed=99)
        t2 = provision(chip, default_params, IP_LIST, master_seed=99)
        assert release_all(t1) == release_all(t2)

    def test_sequential_ids(self, table):
        creds = release_all(table)
        assert [creds[o][0].value for o in OBJECTS] == [0, 1, 2, 3]

    def test_empty_list_rejected(self, chip, default_params):
        with pytest.raises(ProvisioningError):
            provision(chip, default_params, [], master_seed=1)

    def test_duplicate_object_rejected(self, chip, default_params):
        with pytest.raises(ProvisioningError):
            provision(chip, default_params, [(OBJECTS[0], IntegrityLevel.HIGH)] * 2, master_seed=1)

    def test_token_collision_rekeys_and_reports(self, chip, default_params, colliding_draws):
        faults = []
        t = provision(chip, default_params, IP_LIST, master_seed=99, on_fault=faults.append)
        # the second IP's first draw repeats the first IP's token
        assert faults == [{"event": "token_collision", "object": OBJECTS[1]}]
        tokens = [tok for _, tok in release_all(t).values()]
        assert len(set(tokens)) == len(tokens)
        assert len(colliding_draws) == len(OBJECTS) + 1  # one re-key draw

    def test_credentials_released_once(self, table):
        table.release_credentials(OBJECTS[0])
        with pytest.raises(ParameterError):
            table.release_credentials(OBJECTS[0])

    def test_no_public_token_accessor(self, table):
        # the one-shot release is the only outward path for a token
        public = [n for n in dir(table) if not n.startswith("_")]
        assert set(public) == {
            "check_credentials",
            "release_credentials",
        }


class TestAuthorize:
    def test_happy_path(self, table, permissive_model):
        creds = release_all(table)
        txn = txn_for(creds, OBJECTS[0], OBJECTS[0])
        outcome = authorize(table, txn, permissive_model)
        assert outcome.granted and outcome.cycle_cost == 2
        assert outcome.serial == txn.serial

    def test_forged_token_denied(self, table, permissive_model):
        creds = release_all(table)
        ip_id, token = creds[OBJECTS[0]]
        sideband = SidebandSignals(token.flipped(0), ip_id, IntegrityLevel.HIGH)
        txn = WrappedTransaction(PROC, OBJECTS[0], AccessAttribute.READ, b"", sideband, 1)
        outcome = authorize(table, txn, permissive_model)
        assert not outcome.granted
        assert outcome.reason is DenialReason.TOKEN_MISMATCH

    def test_crossed_id_denied(self, table, permissive_model):
        creds = release_all(table)
        _, token = creds[OBJECTS[0]]
        other_id, _ = creds[OBJECTS[1]]
        sideband = SidebandSignals(token, other_id, IntegrityLevel.HIGH)
        txn = WrappedTransaction(PROC, OBJECTS[0], AccessAttribute.READ, b"", sideband, 1)
        outcome = authorize(table, txn, permissive_model)
        assert outcome.reason is DenialReason.ID_MISMATCH

    def test_cross_ip_credentials_denied(self, table, permissive_model):
        creds = release_all(table)
        txn = txn_for(creds, OBJECTS[2], OBJECTS[3])  # trng creds against rsa
        outcome = authorize(table, txn, permissive_model)
        assert outcome.reason is DenialReason.TOKEN_MISMATCH

    def test_unknown_object_malformed(self, table, permissive_model):
        creds = release_all(table)
        txn = txn_for(creds, OBJECTS[0], 17)
        outcome = authorize(table, txn, permissive_model)
        assert outcome.reason is DenialReason.MALFORMED


def test_authorize_is_evaluate_on_high_targets(chip, default_params):
    """authorize adds only the unknown-target and LOW pass-through checks;
    every other verdict and reason is evaluate's, at cycle cost 2."""
    levels = [IntegrityLevel.HIGH, IntegrityLevel.HIGH, IntegrityLevel.LOW, IntegrityLevel.HIGH]
    table = provision(chip, default_params, list(zip(OBJECTS, levels)), master_seed=5)
    creds = {obj: table.release_credentials(obj) for obj in OBJECTS}
    u0, u1 = 0, 1
    procs = [ProcessId(u0, 0), ProcessId(u0, 1), ProcessId(u1, 0)]
    R, W, E = AccessAttribute.READ, AccessAttribute.WRITE, AccessAttribute.EXECUTE
    N = AccessAttribute.NONE
    matrices = [
        AccessMatrix(u0, ((RWE, R, N, W), (N, R | W, E, RWE))),
        AccessMatrix(u1, ((R | E, N, RWE, R | W),)),
    ]
    model = build_system([u0, u1], procs, OBJECTS, matrices).sealed()

    checked, reasons = 0, set()
    for proc in procs + [ProcessId(u0, 7)]:
        for target in OBJECTS + [17]:
            ip_id, token = creds.get(target, creds[OBJECTS[0]])
            other_id = creds[OBJECTS[(target + 1) % len(OBJECTS)]][0]
            for sent_id, sent_token in ((ip_id, token), (ip_id, token.flipped(3)), (other_id, token)):
                for bits in range(8):
                    kind = AccessAttribute(bits)
                    sideband = SidebandSignals(sent_token, sent_id, IntegrityLevel.HIGH)
                    txn = WrappedTransaction(proc, target, kind, b"", sideband, checked)
                    outcome = authorize(table, txn, model)
                    assert outcome.serial == checked
                    checked += 1
                    if target in table and lookup_integrity(table, target) is IntegrityLevel.LOW:
                        assert outcome.granted and outcome.cycle_cost == 1
                        continue
                    request = AccessRequest(proc.owner, proc, target, sent_token, sent_id, kind)
                    reason = evaluate(model, request, table)
                    reasons.add(reason)
                    assert (outcome.granted, outcome.reason, outcome.cycle_cost) == (
                        reason is None, reason, 2
                    ), (proc, target, sent_id, kind)
    assert checked == 4 * 5 * 3 * 8
    assert reasons == {None, DenialReason.MALFORMED, DenialReason.TOKEN_MISMATCH,
                       DenialReason.ID_MISMATCH, DenialReason.MATRIX_DENY}


class TestIntegrityTransitions:
    def test_correct_token_lowers_level(self, table):
        creds = release_all(table)
        _, token = creds[OBJECTS[0]]
        outcome = request_integrity_transition(table, OBJECTS[0], token, IntegrityLevel.LOW)
        assert outcome.granted
        assert lookup_integrity(table, OBJECTS[0]) is IntegrityLevel.LOW

    def test_wrong_token_leaves_level(self, table):
        outcome = request_integrity_transition(table, OBJECTS[0], ZERO_TOKEN, IntegrityLevel.LOW)
        assert not outcome.granted
        assert outcome.reason is DenialReason.TOKEN_MISMATCH
        assert lookup_integrity(table, OBJECTS[0]) is IntegrityLevel.HIGH

    def test_idempotent_transition(self, table):
        creds = release_all(table)
        _, token = creds[OBJECTS[1]]
        outcome = request_integrity_transition(table, OBJECTS[1], token, IntegrityLevel.HIGH)
        assert outcome.granted
        assert lookup_integrity(table, OBJECTS[1]) is IntegrityLevel.HIGH

    def test_unknown_object(self, table):
        outcome = request_integrity_transition(table, 9, ZERO_TOKEN, IntegrityLevel.LOW)
        assert outcome.reason is DenialReason.MALFORMED

    def test_low_disables_isolation(self, table, permissive_model):
        creds = release_all(table)
        _, token = creds[OBJECTS[0]]
        request_integrity_transition(table, OBJECTS[0], token, IntegrityLevel.LOW)
        # forged credentials now pass, at pass-through cost 1
        forged = SidebandSignals(ZERO_TOKEN, IpId(200), IntegrityLevel.HIGH)
        txn = WrappedTransaction(PROC, OBJECTS[0], AccessAttribute.READ, b"", forged, 1)
        outcome = authorize(table, txn, permissive_model)
        assert outcome.granted and outcome.cycle_cost == 1

    def test_fresh_ip_is_high(self, table):
        assert lookup_integrity(table, OBJECTS[3]) is IntegrityLevel.HIGH
