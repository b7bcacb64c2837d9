import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from policy_helpers import StaticCredentialStore, integrity_of

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
from trusttoken import token_authority
from trusttoken.puf_model import PufParams, measure_response, new_chip
from trusttoken.token_authority import (
    _PROVISION_SALT,
    AuthorizationOutcome,
    authorize,
    provision,
    request_integrity_transition,
)
from trusttoken.trust_wrapper import WrappedTransaction

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
    return WrappedTransaction(
        source=PROC, target=target_obj, kind=kind, payload=b"\x01",
        ar_token=token, ar_id=ip_id, serial=serial,
    )


def reference_order(master_seed, epoch, k):
    """provision's first k challenges, one at a time: Durstenfeld's shuffle
    of 0..0xFFFF run front to back, with one scalar draw and one swap in a
    plain list per step, from the same seeded generator."""
    rng = np.random.default_rng([master_seed, epoch, _PROVISION_SALT])
    order = list(range(0x10000))
    for t in range(k):
        j = t + int(rng.integers(0, 0x10000 - t))
        order[t], order[j] = order[j], order[t]
        yield order[t]


def response(chip, params, challenge):
    return measure_response(chip, challenge, 0, params).bits


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
        assert [creds[o][0] for o in OBJECTS] == [0, 1, 2, 3]

    def test_tokens_are_256_bit_ints(self, table):
        for _, token in release_all(table).values():
            assert type(token) is int and 0 <= token < 1 << 256

    def test_token_width_enforced(self, chip):
        for params in (PufParams(response_bits=255), PufParams(oscillator_count=514, response_bits=257)):
            with pytest.raises(ParameterError):
                provision(chip, params, IP_LIST, master_seed=1)

    def test_ip_id_range(self, chip, default_params):
        ips = [(obj, IntegrityLevel.HIGH) for obj in range(257)]
        with pytest.raises(ProvisioningError):
            provision(chip, default_params, ips, master_seed=1)
        table = provision(chip, default_params, ips[:256], master_seed=1)
        assert [table.release_credentials(obj)[0] for obj, _ in ips[:256]] == list(range(256))

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
        # one re-key batch, twice the first's size; only its first challenge is used
        assert [len(batch) for batch in colliding_draws] == [len(OBJECTS), 2 * len(OBJECTS)]
        order = list(reference_order(99, 0, 3 * len(OBJECTS)))
        assert sum(colliding_draws, []) == order
        # the first IP takes challenge 0, the second skips challenge 1, which
        # collided, and the last takes the re-key batch's first, challenge 4
        assert release_all(t) == {obj: (i, response(chip, default_params, order[c]))
                                  for i, (obj, c) in enumerate(zip(OBJECTS, (0, 2, 3, 4)))}

    def test_exhausted_challenges_name_the_object(self, chip, default_params, monkeypatch):
        # every response alike: the first IP takes it, and every later
        # challenge collides while the second IP waits for a token
        batches = []

        def alike(chip, challenges, params):
            batches.append(challenges)
            return [0] * len(challenges)

        monkeypatch.setattr(token_authority, "noiseless_responses", alike)
        faults = []
        names = ["aes", "des", "trng", "rsa"]
        with pytest.raises(ProvisioningError, match="^no challenge left for object 'des': "):
            provision(chip, default_params, IP_LIST, master_seed=99, on_fault=faults.append,
                      object_names=names)
        assert faults == [{"event": "token_collision", "object": OBJECTS[1]}] * 0xFFFF
        # batches of 4, 8, ..., 512 challenges, then of 1024 to the end of the
        # order: 72 calls, where a batch of one challenge per IP left took 21,845
        sizes = [4 << k for k in range(8)] + [1024] * 63 + [4]
        assert [len(batch) for batch in batches] == sizes
        drawn = sum(batches, [])
        assert sorted(drawn) == list(range(0x10000))  # each challenge exactly once
        assert drawn == list(reference_order(99, 0, 0x10000))

    def test_exhausted_challenges_name_the_object_by_id_without_names(
        self, chip, default_params, monkeypatch
    ):
        monkeypatch.setattr(token_authority, "noiseless_responses",
                            lambda chip, challenges, params: [0] * len(challenges))
        with pytest.raises(ProvisioningError, match=f"^no challenge left for object {OBJECTS[1]}: "):
            provision(chip, default_params, IP_LIST, master_seed=99)

    def test_credentials_released_once(self, table):
        table.release_credentials(OBJECTS[0])
        with pytest.raises(ParameterError, match="already released"):
            table.release_credentials(OBJECTS[0])

    def test_unprovisioned_object_has_no_credentials(self, table):
        with pytest.raises(ParameterError, match=f"object {max(OBJECTS) + 1} is not provisioned"):
            table.release_credentials(max(OBJECTS) + 1)

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
        txn = WrappedTransaction(PROC, OBJECTS[0], AccessAttribute.READ, b"",
                                 token ^ 1 << 255, ip_id, 1)
        outcome = authorize(table, txn, permissive_model)
        assert not outcome.granted
        assert outcome.reason is DenialReason.TOKEN_MISMATCH

    def test_crossed_id_denied(self, table, permissive_model):
        creds = release_all(table)
        _, token = creds[OBJECTS[0]]
        other_id, _ = creds[OBJECTS[1]]
        txn = WrappedTransaction(PROC, OBJECTS[0], AccessAttribute.READ, b"", token, other_id, 1)
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


def reference_tokens(chip, params, n_ips, master_seed, epoch):
    """provision's oracle: one measure_response per challenge, in
    reference_order, skipping a token already taken."""
    tokens = []
    for challenge in reference_order(master_seed, epoch, 0x10000):
        if len(tokens) == n_ips:
            break
        token = response(chip, params, challenge)
        if token not in tokens:
            tokens.append(token)
    return tokens


@settings(deadline=None)  # max_examples from the profile: 100 by default
@given(
    master_seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
    epoch=st.integers(0, 2**40),
    n_ips=st.integers(1, 256),
)
def test_provision_matches_per_challenge_oracle(chip, default_params, master_seed, epoch, n_ips):
    ips = [(obj, IntegrityLevel.HIGH) for obj in range(n_ips)]
    table = provision(chip, default_params, ips, master_seed, epoch)
    credentials = [table.release_credentials(obj) for obj, _ in ips]
    expected = reference_tokens(chip, default_params, n_ips, master_seed, epoch)
    assert credentials == list(enumerate(expected))


@settings(deadline=None)  # max_examples from the profile: 100 by default
@given(
    master_seed=st.integers(0, 2**64 - 1),
    epoch=st.integers(0, 2**40),
    n_ips=st.integers(1, 256),
    alike=st.integers(1, 2000),
)
def test_challenge_order_is_batch_independent(chip, default_params, master_seed, epoch, n_ips,
                                              alike):
    """The first `alike` challenges drawn all give token 0 and each later
    one a new token, so every IP after the first waits through alike - 1
    collisions and re-key batches of growing size: the challenges drawn,
    in every batch layout, are reference_order's, and IP i > 0 takes the
    token of draw alike - 1 + i."""
    batches, draws = [], itertools.count()

    def responses(chip, challenges, params):
        batches.append(challenges)
        return [max(next(draws) - alike + 1, 0) for _ in challenges]

    faults = []
    ips = [(obj, IntegrityLevel.HIGH) for obj in range(n_ips)]
    with mock.patch.object(token_authority, "noiseless_responses", responses):
        table = provision(chip, default_params, ips, master_seed, epoch, on_fault=faults.append)
    drawn = sum(batches, [])
    assert drawn == list(reference_order(master_seed, epoch, len(drawn)))
    assert len(faults) == (alike - 1 if n_ips > 1 else 0)
    assert [table.release_credentials(obj) for obj, _ in ips] == [(0, 0)] + [
        (i, i) for i in range(1, n_ips)]


def test_authorize_is_evaluate_on_high_targets(chip, default_params):
    """authorize adds only the LOW pass-through; every other verdict and
    reason, an unprovisioned target's MALFORMED included, is evaluate's,
    at cycle cost 2."""
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
            for sent_id, sent_token in ((ip_id, token), (ip_id, token ^ 1 << 252), (other_id, token)):
                for bits in range(8):
                    kind = AccessAttribute(bits)
                    txn = WrappedTransaction(proc, target, kind, b"", sent_token, sent_id, checked)
                    outcome = authorize(table, txn, model)
                    assert outcome.serial == checked
                    checked += 1
                    if integrity_of(table, target) is IntegrityLevel.LOW:
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
        assert integrity_of(table, OBJECTS[0]) is IntegrityLevel.LOW

    def test_wrong_token_leaves_level(self, table):
        outcome = request_integrity_transition(table, OBJECTS[0], 0, IntegrityLevel.LOW)
        assert not outcome.granted
        assert outcome.reason is DenialReason.TOKEN_MISMATCH
        assert integrity_of(table, OBJECTS[0]) is IntegrityLevel.HIGH

    def test_idempotent_transition(self, table):
        creds = release_all(table)
        _, token = creds[OBJECTS[1]]
        outcome = request_integrity_transition(table, OBJECTS[1], token, IntegrityLevel.HIGH)
        assert outcome.granted
        assert integrity_of(table, OBJECTS[1]) is IntegrityLevel.HIGH

    def test_unknown_object(self, table):
        outcome = request_integrity_transition(table, 9, 0, IntegrityLevel.LOW)
        assert outcome.reason is DenialReason.MALFORMED

    def test_low_disables_isolation(self, table, permissive_model):
        creds = release_all(table)
        _, token = creds[OBJECTS[0]]
        request_integrity_transition(table, OBJECTS[0], token, IntegrityLevel.LOW)
        # forged credentials now pass, at pass-through cost 1
        txn = WrappedTransaction(PROC, OBJECTS[0], AccessAttribute.READ, b"", 0, 200, 1)
        outcome = authorize(table, txn, permissive_model)
        assert outcome.granted and outcome.cycle_cost == 1

    def test_fresh_ip_is_high(self, table):
        assert integrity_of(table, OBJECTS[3]) is IntegrityLevel.HIGH


def uncached_decision(table, txn, policy):
    """What authorize decides without its memo: an unprovisioned target is
    MALFORMED, a LOW target passes at cost 1, a HIGH one is evaluate's."""
    level = integrity_of(table, txn.target)
    if level is None:
        return False, 2, DenialReason.MALFORMED
    if level is IntegrityLevel.LOW:
        return True, 1, None
    request = AccessRequest(txn.source.owner, txn.source, txn.target,
                            txn.ar_token, txn.ar_id, txn.kind)
    reason = evaluate(policy, request, table)
    return reason is None, 2, reason


class TestDecisionMemo:
    def test_granted_downgrade_turns_a_memoized_deny_into_a_grant(self, table, permissive_model):
        creds = release_all(table)
        txn = txn_for(creds, OBJECTS[2], OBJECTS[3])  # trng creds against rsa
        for _ in range(2):  # the second call is answered from the memo
            assert authorize(table, txn, permissive_model).reason is DenialReason.TOKEN_MISMATCH
        _, token = creds[OBJECTS[3]]
        assert request_integrity_transition(table, OBJECTS[3], token, IntegrityLevel.LOW).granted
        outcome = authorize(table, txn, permissive_model)
        assert (outcome.granted, outcome.cycle_cost, outcome.reason) == (True, 1, None)

    def test_boot_token_denied_after_reprovisioning(self, chip, default_params, permissive_model):
        boot = provision(chip, default_params, IP_LIST, master_seed=99)
        boot_creds = release_all(boot)
        txn = txn_for(boot_creds, OBJECTS[0], OBJECTS[0])
        assert authorize(boot, txn, permissive_model).granted
        fresh = provision(chip, default_params, IP_LIST, master_seed=99, epoch=1)
        outcome = authorize(fresh, txn, permissive_model)
        assert not outcome.granted and outcome.reason is DenialReason.TOKEN_MISMATCH

    def test_equal_process_ids_built_apart_share_one_entry(self, table, permissive_model):
        creds = release_all(table)
        calls = []
        with mock.patch.object(token_authority, "evaluate",
                               lambda *args: calls.append(args) or evaluate(*args)):
            for serial in (1, 2):  # a new ProcessId(USER, 0) each time
                txn = txn_for(creds, OBJECTS[0], OBJECTS[0], serial=serial)
                txn = txn._replace(source=ProcessId(USER, 0))
                assert authorize(table, txn, permissive_model).granted
        assert len(calls) == 1 and len(table._decisions) == 1

    @pytest.mark.parametrize("target, expected", [
        (OBJECTS[0], (True, 2, None)),  # granted by evaluate
        (OBJECTS[1], (False, 2, DenialReason.TOKEN_MISMATCH)),  # another IP's token
    ])
    def test_outcome_is_a_real_authorization_outcome(self, table, permissive_model, target,
                                                     expected):
        txn = txn_for(release_all(table), OBJECTS[0], target, serial=7)
        for _ in range(2):  # decided, then answered from the memo
            outcome = authorize(table, txn, permissive_model)
            assert type(outcome) is AuthorizationOutcome
            assert outcome._asdict() == AuthorizationOutcome(*expected, 7)._asdict()

    def test_second_policy_not_served_from_the_first_ones_entries(self, table, permissive_model):
        none = AccessAttribute.NONE
        closed = build_system([USER], [PROC], OBJECTS,
                              [AccessMatrix(USER, ((none,) * len(OBJECTS),))]).sealed()
        txn = txn_for(release_all(table), OBJECTS[0], OBJECTS[0])
        assert authorize(table, txn, permissive_model).granted
        assert authorize(table, txn, closed).reason is DenialReason.MATRIX_DENY
        assert authorize(table, txn, permissive_model).granted


# Two users with two and one processes, plus a process no model knows.
_PROCS = [ProcessId(0, 0), ProcessId(0, 1), ProcessId(1, 0), ProcessId(0, 7)]
_cells = st.tuples(*[st.integers(0, 7).map(AccessAttribute)] * len(OBJECTS))
_models = st.tuples(_cells, _cells, _cells).map(lambda rows: build_system(
    [0, 1], _PROCS[:3], OBJECTS,
    [AccessMatrix(0, rows[:2]), AccessMatrix(1, rows[2:])],
).sealed())
_obj = st.sampled_from(OBJECTS)
# credentials: an IP's current ones, its boot ones, or its boot ones with one bit flipped
_creds = st.one_of(
    st.tuples(st.just("current"), _obj),
    st.tuples(st.just("boot"), _obj),
    st.tuples(st.just("forged"), _obj, st.integers(0, 255)),
)
_kinds = st.sampled_from([AccessAttribute.READ, AccessAttribute.WRITE, RWE, AccessAttribute.NONE])
# an access to the credentials' own IP (None) or to a target, 17 being
# unprovisioned; half are own-IP accesses with current credentials, as most
# bus traffic is
_accesses = st.one_of(
    st.tuples(st.sampled_from(_PROCS), st.tuples(st.just("current"), _obj), st.none(), _kinds),
    st.tuples(st.sampled_from(_PROCS), _creds, st.sampled_from([None, 17] + OBJECTS), _kinds),
)
_changes = st.one_of(
    st.tuples(st.just("transition"), _obj, st.sampled_from(["current", "boot", "zero"]),
              st.sampled_from(IntegrityLevel)),
    st.sampled_from([("reprovision",), ("policy", 0), ("policy", 1)]),
)


@settings(deadline=None)
@given(
    levels=st.lists(st.sampled_from(IntegrityLevel), min_size=4, max_size=4),
    models=st.tuples(_models, _models),
    accesses=st.lists(_accesses, min_size=1, max_size=4),
    changes=st.lists(_changes, min_size=3, max_size=12),
)
def test_memoized_authorize_equals_the_uncached_decision(chip, default_params, levels, models,
                                                         accesses, changes):
    """A few accesses are authorized again after each change of state (a
    granted or denied integrity transition, a reprovision or a policy
    switch), so that most are answered from the memo: every outcome
    equals the decision built from evaluate without the memo."""
    ip_list = list(zip(OBJECTS, levels))
    epoch = 0
    table = provision(chip, default_params, ip_list, master_seed=3)
    boot = current = release_all(table)
    policy = models[0]
    serial = 0

    for change in [("start",)] + changes:
        if change[0] == "reprovision":
            epoch += 1
            table = provision(chip, default_params, ip_list, master_seed=3, epoch=epoch)
            current = release_all(table)
        elif change[0] == "transition":
            _, obj, presented, level = change
            token = {"current": current, "boot": boot}[presented][obj][1] if presented != "zero" else 0
            assert request_integrity_transition(table, obj, token, level).cycle_cost in (1, 2)
        elif change[0] == "policy":
            policy = models[change[1]]
        for _ in range(2):
            for proc, creds, target, kind in accesses:
                ip_id, token = (current if creds[0] == "current" else boot)[creds[1]]
                if creds[0] == "forged":
                    token ^= 1 << 255 - creds[2]
                target = creds[1] if target is None else target
                serial += 1
                txn = WrappedTransaction(proc, target, kind, b"", token, ip_id, serial)
                expected = uncached_decision(table, txn, policy)
                outcome = authorize(table, txn, policy)
                # the second pass of each access is answered from the memo
                assert outcome.cycle_cost in (1, 2)
                assert (outcome.granted, outcome.cycle_cost, outcome.reason) == expected, change
                assert outcome.serial == serial


_MACHINE_PARAMS = PufParams()
_MACHINE_CHIP = new_chip(7, _MACHINE_PARAMS)


@functools.lru_cache(maxsize=None)
def _epoch_tokens(epoch):
    return tuple(reference_tokens(_MACHINE_CHIP, _MACHINE_PARAMS, len(OBJECTS), 5, epoch))


class TokenTableMachine(RuleBasedStateMachine):
    """A TokenTable against a dict model: object -> its ip id, token,
    integrity level and whether its credentials were released, and the set
    of keys the memo of decisions should hold.  A reprovision replaces the
    table with the next epoch's; a granted transition and a call under
    another policy clear the memo, and nothing else does."""

    @initialize(levels=st.lists(st.sampled_from(IntegrityLevel), min_size=4, max_size=4),
                models=st.tuples(_models, _models))
    def boot(self, levels, models):
        self.levels = levels
        self.models = models
        self.epoch = 0
        self.reprovision_table()
        self.boot_creds = {obj: (e["ip_id"], e["token"]) for obj, e in self.entries.items()}

    def reprovision_table(self):
        ip_list = list(zip(OBJECTS, self.levels))
        self.table = provision(_MACHINE_CHIP, _MACHINE_PARAMS, ip_list, master_seed=5,
                               epoch=self.epoch)
        tokens = _epoch_tokens(self.epoch)
        self.entries = {obj: {"ip_id": i, "token": tokens[i], "level": level, "released": False}
                        for i, (obj, level) in enumerate(ip_list)}
        self.memo, self.policy = set(), None  # a new table starts with an empty memo

    @rule()
    def reprovision(self):
        self.epoch += 1  # the new table takes the boot levels, as Simulation's does
        self.reprovision_table()

    @rule(obj=st.sampled_from(OBJECTS + [17]))
    def release(self, obj):
        entry = self.entries.get(obj)
        if entry is None or entry["released"]:
            with pytest.raises(ParameterError):
                self.table.release_credentials(obj)
        else:
            assert self.table.release_credentials(obj) == (entry["ip_id"], entry["token"])
            entry["released"] = True

    @rule(obj=st.sampled_from(OBJECTS + [17]), presented=st.sampled_from(["current", "boot", "zero"]),
          level=st.sampled_from(IntegrityLevel))
    def transition(self, obj, presented, level):
        entry = self.entries.get(obj)
        token = 0
        if presented == "boot" and obj in self.boot_creds:
            token = self.boot_creds[obj][1]
        elif presented == "current" and entry is not None:
            token = entry["token"]
        outcome = request_integrity_transition(self.table, obj, token, level)
        if entry is None:
            expected = (False, 2, DenialReason.MALFORMED)
        elif token != entry["token"]:
            expected = (False, 2, DenialReason.TOKEN_MISMATCH)
        else:
            expected = (True, 2, None)
            entry["level"] = level
            self.memo.clear()
        assert (outcome.granted, outcome.cycle_cost, outcome.reason) == expected

    @rule(access=_accesses, policy=st.sampled_from([0, 1]))
    def authorize(self, access, policy):
        proc, creds, target, kind = access
        ip_id, token = (self.boot_creds[creds[1]] if creds[0] == "boot" else
                        (self.entries[creds[1]]["ip_id"], self.entries[creds[1]]["token"]))
        if creds[0] == "forged":
            token ^= 1 << 255 - creds[2]
        target = creds[1] if target is None else target
        model = self.models[policy]
        outcome = authorize(self.table, WrappedTransaction(
            proc, target, kind, b"", token, ip_id, 9), model)
        if model is not self.policy:
            self.memo.clear()
            self.policy = model
        self.memo.add((proc.owner, proc.index, target, kind, token, ip_id))
        entry = self.entries.get(target)
        if entry is not None and entry["level"] is IntegrityLevel.LOW:
            expected = (True, 1, None)
        else:
            store = StaticCredentialStore(
                {obj: (e["ip_id"], e["token"]) for obj, e in self.entries.items()})
            reason = evaluate(model, AccessRequest(proc.owner, proc, target, token, ip_id, kind),
                              store)
            expected = (reason is None, 2, reason)
        assert tuple(outcome) == (*expected, 9)

    @invariant()
    def table_matches_the_model(self):
        for obj, entry in self.entries.items():
            assert self.table.check_credentials(obj, entry["ip_id"], entry["token"]) is None
            assert integrity_of(self.table, obj) is entry["level"]
        assert self.table.check_credentials(17, 0, 0) is DenialReason.MALFORMED
        assert set(self.table._decisions) == self.memo
        assert self.table._policy is self.policy


TokenTableMachine.TestCase.settings = settings(deadline=None)  # max_examples from the profile
TestTokenTableMachine = TokenTableMachine.TestCase
