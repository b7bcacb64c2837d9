import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from policy_helpers import StaticCredentialStore, matrix_for

from trusttoken.errors import ConstructionError, MatrixTamperError
from trusttoken.policy_engine import (
    AccessAttribute,
    AccessMatrix,
    AccessRequest,
    Actor,
    DenialReason,
    ProcessId,
    attribute_from_str,
    build_system,
    classify_confidentiality,
    classify_integrity,
    evaluate,
    modify_matrix,
)

R = AccessAttribute.READ
W = AccessAttribute.WRITE
E = AccessAttribute.EXECUTE
RWE = R | W | E
NONE = AccessAttribute.NONE

U0, U1 = 0, 1
P00 = ProcessId(U0, 0)
P10 = ProcessId(U1, 0)
O0, O1 = 0, 1


def two_user_model():
    """2 users, 1 process each, 2 objects; each user owns 'their' object."""
    m0 = AccessMatrix(U0, ((RWE, NONE),))
    m1 = AccessMatrix(U1, ((NONE, RWE),))
    return build_system([U0, U1], [P00, P10], [O0, O1], [m0, m1])


def creds():
    return StaticCredentialStore({O0: ("id0", "tok0"), O1: ("id1", "tok1")})


def request(user=U0, process=P00, obj=O0, token="tok0", ip_id="id0", attr=R):
    return AccessRequest(user, process, obj, token, ip_id, attr)


class TestBuildSystem:
    def test_minimal_valid(self):
        model = two_user_model()
        assert matrix_for(model, U0).cell(0, 0) == RWE

    def test_shared_matrix_instance_rejected(self):
        shared = AccessMatrix(U0, ((RWE, NONE),))
        with pytest.raises(ConstructionError):
            build_system([U0, U1], [P00, P10], [O0, O1], [shared, shared])

    def test_two_matrices_for_one_user_rejected(self):
        m0 = AccessMatrix(U0, ((RWE, NONE),))
        m0b = AccessMatrix(U0, ((NONE, NONE),))
        m1 = AccessMatrix(U1, ((NONE, RWE),))
        with pytest.raises(ConstructionError):
            build_system([U0, U1], [P00, P10], [O0, O1], [m0, m0b, m1])

    def test_row_count_must_match_process_count(self):
        # U0 owns two processes but its matrix has one row
        p01 = ProcessId(U0, 1)
        m0 = AccessMatrix(U0, ((RWE, NONE),))
        m1 = AccessMatrix(U1, ((NONE, RWE),))
        with pytest.raises(ConstructionError):
            build_system([U0, U1], [P00, p01, P10], [O0, O1], [m0, m1])

    def test_column_count_must_match_object_count(self):
        m0 = AccessMatrix(U0, ((RWE,),))
        m1 = AccessMatrix(U1, ((NONE, RWE),))
        with pytest.raises(ConstructionError):
            build_system([U0, U1], [P00, P10], [O0, O1], [m0, m1])

    def test_missing_matrix_rejected(self):
        m0 = AccessMatrix(U0, ((RWE, NONE),))
        with pytest.raises(ConstructionError):
            build_system([U0, U1], [P00, P10], [O0, O1], [m0])


class TestEvaluate:
    def test_happy_path(self):
        assert evaluate(two_user_model(), request(), creds()) is None

    def test_foreign_process_denied(self):
        # user U1 presenting U0's process
        d = evaluate(two_user_model(), request(user=U1, process=P00, obj=O1,
                                               token="tok1", ip_id="id1"), creds())
        assert d is DenialReason.FOREIGN_PROCESS

    def test_token_mismatch(self):
        d = evaluate(two_user_model(), request(token="bad"), creds())
        assert d is DenialReason.TOKEN_MISMATCH

    def test_id_mismatch(self):
        d = evaluate(two_user_model(), request(ip_id="id1"), creds())
        assert d is DenialReason.ID_MISMATCH

    def test_matrix_deny(self):
        d = evaluate(two_user_model(), request(obj=O1, token="tok1", ip_id="id1"), creds())
        assert d is DenialReason.MATRIX_DENY

    def test_unknown_user_malformed(self):
        d = evaluate(two_user_model(), request(user=9, process=ProcessId(9, 0)), creds())
        assert d is DenialReason.MALFORMED

    def test_object_missing_from_credentials_denied(self):
        store = StaticCredentialStore({O1: ("id1", "tok1")})
        d = evaluate(two_user_model(), request(), store)
        assert d is not None

    def test_empty_attribute_denied(self):
        d = evaluate(two_user_model(), request(attr=NONE), creds())
        assert d is DenialReason.MALFORMED

    def test_pure(self):
        model, store = two_user_model(), creds()
        req = request()
        assert evaluate(model, req, store) == evaluate(model, req, store)

    @given(cell=st.integers(0, 7), requested=st.integers(1, 7))
    @settings(max_examples=100)
    def test_attribute_monotonicity(self, cell, requested):
        # if `requested` is granted, every subset of it is granted too
        m0 = AccessMatrix(U0, ((AccessAttribute(cell), NONE),))
        m1 = AccessMatrix(U1, ((NONE, RWE),))
        model = build_system([U0, U1], [P00, P10], [O0, O1], [m0, m1])
        full = evaluate(model, request(attr=AccessAttribute(requested)), creds())
        if full is None:
            for sub in range(1, 8):
                if sub & requested == sub:
                    assert evaluate(model, request(attr=AccessAttribute(sub)), creds()) is None


class TestClassification:
    def test_confidentiality(self):
        assert classify_confidentiality(R)
        assert not classify_confidentiality(W)
        assert classify_confidentiality(R | E)

    def test_integrity(self):
        assert classify_integrity(W)
        assert not classify_integrity(R)
        assert classify_integrity(W | E)

    def test_only_empty_attribute_fails_both(self):
        for value in range(8):
            attr = AccessAttribute(value)
            neither = not (classify_confidentiality(attr) or classify_integrity(attr))
            assert neither == (value == 0)

    def test_attribute_parsing(self):
        assert attribute_from_str("rwe") == RWE
        assert attribute_from_str("r") == R
        assert attribute_from_str("we") == W | E


class TestModifyMatrix:
    def test_controller_may_modify(self):
        model = two_user_model()
        updated = modify_matrix(model, Actor.CONTROLLER, U0, P00, O1, R)
        assert matrix_for(updated, U0).cell(0, 1) == R
        # original untouched
        assert matrix_for(model, U0).cell(0, 1) == NONE

    def test_integrator_only_in_design_phase(self):
        model = two_user_model()
        modify_matrix(model, Actor.INTEGRATOR, U0, P00, O1, R)
        sealed = model.sealed()
        with pytest.raises(MatrixTamperError):
            modify_matrix(sealed, Actor.INTEGRATOR, U0, P00, O1, R)

    def test_plain_user_rejected(self):
        with pytest.raises(MatrixTamperError):
            modify_matrix(two_user_model(), Actor.USER, U0, P00, O0, RWE)

    def test_rejected_attempt_changes_nothing(self):
        model = two_user_model()
        store = creds()
        sweep_before = [
            evaluate(model, request(obj=o, token=t, ip_id=i, attr=AccessAttribute(a)), store)
            for (o, t, i) in [(O0, "tok0", "id0"), (O1, "tok1", "id1")]
            for a in range(1, 8)
        ]
        with pytest.raises(MatrixTamperError):
            modify_matrix(model, Actor.USER, U0, P00, O1, RWE)
        sweep_after = [
            evaluate(model, request(obj=o, token=t, ip_id=i, attr=AccessAttribute(a)), store)
            for (o, t, i) in [(O0, "tok0", "id0"), (O1, "tok1", "id1")]
            for a in range(1, 8)
        ]
        assert sweep_before == sweep_after


# ---------------------------------------------------------------------------
# literal rules oracle


def literal_rules_verdict(model, req, store):
    """Straight-line restatement of decision rules 1-5, independent of
    evaluate()'s structure.  Returns 'yes' or 'no'."""
    # rule 2: all six members must come from the model's sets
    if req.user not in model.users:
        return "no"
    if req.process not in model.processes:
        return "no"
    if req.object not in model.objects:
        return "no"
    # rule 1: the per-user process->matrix function covers only own processes
    if req.process.owner != req.user:
        return "no"
    # credential sets T and I: presented values must equal the stored ones
    if req.object not in store:
        return "no"
    if store.check_credentials(req.object, req.ip_id, req.token) is not None:
        return "no"
    # rules 3/4 strict reading: the attribute must preserve at least one of
    # confidentiality (r or e) and integrity (w or e)
    a = int(req.attribute)
    if not (a & 0b100 or a & 0b010 or a & 0b001):
        return "no"
    # rule 5: decision from the matrix element
    row = [p for p in model.processes if p.owner == req.user].index(req.process)
    col = list(model.objects).index(req.object)
    cell = int(matrix_for(model, req.user).cells[row][col])
    return "yes" if (a & cell) == a else "no"


def enumerate_models(max_users=3, max_procs=2, max_objects=3, samples_per_shape=2):
    rng = np.random.default_rng(20240)
    for n_users, n_procs, n_objs in itertools.product(
        range(1, max_users + 1), range(1, max_procs + 1), range(1, max_objects + 1)
    ):
        users = list(range(n_users))
        processes = [ProcessId(u, p) for u in users for p in range(n_procs)]
        objects = list(range(n_objs))
        for _ in range(samples_per_shape):
            matrices = [
                AccessMatrix(
                    u,
                    tuple(
                        tuple(AccessAttribute(int(rng.integers(0, 8))) for _ in objects)
                        for _ in range(n_procs)
                    ),
                )
                for u in users
            ]
            yield build_system(users, processes, objects, matrices)


def enumerate_requests(model, store_entries):
    for user, process, obj, a in itertools.product(
        model.users, model.processes, model.objects, range(8)
    ):
        good_id, good_token = store_entries[obj]
        variants = [
            (good_token, good_id),
            ("WRONG_TOKEN", good_id),
            (good_token, "WRONG_ID"),
        ]
        for token, ip_id in variants:
            yield AccessRequest(user, process, obj, token, ip_id, AccessAttribute(a))


def test_oracle_equivalence_2x2x2_exhaustive():
    model = next(
        m for m in enumerate_models(max_users=2, max_procs=1, max_objects=2, samples_per_shape=1)
        if len(m.users) == 2 and len(m.objects) == 2
    )
    entries = {o: (f"id{o}", f"tok{o}") for o in model.objects}
    store = StaticCredentialStore(entries)
    for req in enumerate_requests(model, entries):
        got = "yes" if evaluate(model, req, store) is None else "no"
        assert got == literal_rules_verdict(model, req, store), req


def test_plain_int_attribute_decided_as_its_access_attribute():
    # an attribute given as a plain int, such as 6, gets its AccessAttribute's verdict
    model = next(m for m in enumerate_models(max_users=2, max_procs=2, max_objects=2)
                 if len(m.processes) == 4 and len(m.objects) == 2)
    entries = {o: (f"id{o}", f"tok{o}") for o in model.objects}
    store = StaticCredentialStore(entries)
    for req in enumerate_requests(model, entries):
        plain = dataclasses.replace(req, attribute=int(req.attribute))
        assert type(plain.attribute) is int
        assert evaluate(model, plain, store) is evaluate(model, req, store), req
    assert evaluate(two_user_model(), request(attr=6), creds()) is None
    assert evaluate(two_user_model(), request(attr=6, obj=O1, token="tok1", ip_id="id1"),
                    creds()) is DenialReason.MATRIX_DENY
    for value in range(8):
        attr = AccessAttribute(value)
        assert classify_confidentiality(value) is classify_confidentiality(attr)
        assert classify_integrity(value) is classify_integrity(attr)
