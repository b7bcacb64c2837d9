"""Formal access-control model and decision rules.

A system couples users, their processes, wrapped IP objects, and one
access matrix per user (m processes x k objects of 3-bit r/w/e cells).
Users and objects are plain int ids.  ``evaluate`` is the single pure
decision function: a request is granted only if the process belongs to
the requesting user, the presented credentials match the provisioned
ones, and the matrix cell covers every requested access bit.  Matrix
mutation is restricted to the controller and, during the design phase,
the IP integrator.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum, IntFlag
from typing import Optional, Sequence

from .errors import ConstructionError, MatrixTamperError, ParameterError


class AccessAttribute(IntFlag):
    """3-bit access attribute a2 a1 a0 with a2=read, a1=write, a0=execute."""

    NONE = 0
    EXECUTE = 1
    WRITE = 2
    READ = 4


# masks as plain ints: checks on an attribute's int value build no IntFlag member
_CONFIDENTIALITY = int(AccessAttribute.READ | AccessAttribute.EXECUTE)
_INTEGRITY = int(AccessAttribute.WRITE | AccessAttribute.EXECUTE)


@functools.lru_cache(maxsize=256)
def attribute_from_str(text: str) -> AccessAttribute:
    """Parse attribute strings like 'rwe', 'r', 'we'.  Cached: a script
    repeats a few distinct strings many times."""
    attr = AccessAttribute.NONE
    for ch in text.lower():
        if ch == "r":
            attr |= AccessAttribute.READ
        elif ch == "w":
            attr |= AccessAttribute.WRITE
        elif ch == "e" or ch == "x":
            attr |= AccessAttribute.EXECUTE
        elif ch in "- ":
            continue
        else:
            raise ParameterError(f"unknown access flag {ch!r} in {text!r}")
    return attr


class IntegrityLevel(Enum):
    HIGH = "HIGH"
    LOW = "LOW"


class DenialReason(Enum):
    TOKEN_MISMATCH = "token_mismatch"
    ID_MISMATCH = "id_mismatch"
    MATRIX_DENY = "matrix_deny"
    FOREIGN_PROCESS = "foreign_process"
    MALFORMED = "malformed"
    MATRIX_TAMPER = "matrix_tamper"


@dataclass(frozen=True)
class ProcessId:
    owner: int  # the user id
    index: int


@dataclass(frozen=True)
class AccessMatrix:
    """Per-user grid of access attributes: rows = that user's processes,
    columns = global objects."""

    owner: int
    cells: tuple[tuple[AccessAttribute, ...], ...]

    def cell(self, process_index: int, object_index: int) -> AccessAttribute:
        return self.cells[process_index][object_index]

    def with_cell(self, process_index: int, object_index: int, attr: AccessAttribute) -> "AccessMatrix":
        rows = [list(row) for row in self.cells]
        rows[process_index][object_index] = attr
        return AccessMatrix(self.owner, tuple(tuple(row) for row in rows))


class Actor(Enum):
    """Who attempts a matrix modification."""

    CONTROLLER = "controller"
    INTEGRATOR = "integrator"
    USER = "user"


@dataclass(frozen=True)
class AccessRequest:
    """One access request: the six enumerated members (u, p, o, t, i, a)."""

    user: int
    process: ProcessId
    object: int
    token: object
    ip_id: object
    attribute: AccessAttribute


@dataclass(frozen=True)
class SystemModel:
    users: tuple[int, ...]
    processes: tuple[ProcessId, ...]
    objects: tuple[int, ...]
    matrices: tuple[tuple[int, AccessMatrix], ...]
    design_phase: bool = True
    # process -> (owner's matrix, row) and object -> column, rebuilt by every
    # construction including ``replace``; cells are not copied
    _rows: dict = field(init=False, repr=False, compare=False)
    _cols: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrices, rows, seen = dict(self.matrices), {}, Counter()
        for p in self.processes:
            rows[p] = (matrices.get(p.owner), seen[p.owner])
            seen[p.owner] += 1
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_cols", {o: c for c, o in enumerate(self.objects)})

    def knows(self, user: int, process: ProcessId, obj: int) -> bool:
        """True iff the user, the process and the object all belong to the model."""
        return user in self.users and process in self._rows and obj in self._cols

    def covers(self, process: ProcessId, obj: int, attribute: AccessAttribute) -> bool:
        """The matrix rule: the process's cell for obj holds every requested bit."""
        matrix, row = self._rows[process]
        attribute = int(attribute)
        return attribute & int(matrix.cell(row, self._cols[obj])) == attribute

    def sealed(self) -> "SystemModel":
        """Leave the design phase: integrator modifications are rejected after this."""
        return replace(self, design_phase=False)


def build_system(
    users: Sequence[int],
    processes: Sequence[ProcessId],
    objects: Sequence[int],
    matrices: Sequence[AccessMatrix],
) -> SystemModel:
    """Validate and freeze a system model.

    The user->matrix assignment must be one-to-one and each matrix must be
    shaped (own process count) x (object count).
    """
    users = tuple(users)
    processes = tuple(processes)
    objects = tuple(objects)
    if len(set(users)) != len(users):
        raise ConstructionError("duplicate users")
    if len(set(objects)) != len(objects):
        raise ConstructionError("duplicate objects")
    if len(set(processes)) != len(processes):
        raise ConstructionError("duplicate processes")
    for p in processes:
        if p.owner not in users:
            raise ConstructionError(f"process {p} owned by unknown user")

    by_owner: dict[int, AccessMatrix] = {}
    for matrix in matrices:
        if matrix.owner in by_owner:
            raise ConstructionError(f"more than one matrix assigned to {matrix.owner}")
        if matrix.owner not in users:
            raise ConstructionError(f"matrix owner {matrix.owner} is not a user")
        by_owner[matrix.owner] = matrix
    for user in users:
        if user not in by_owner:
            raise ConstructionError(f"user {user} has no matrix")
        matrix = by_owner[user]
        own = sum(1 for p in processes if p.owner == user)
        if len(matrix.cells) != own:
            raise ConstructionError(
                f"matrix of {user} has {len(matrix.cells)} rows, user owns {own} processes"
            )
        if own and len(matrix.cells[0]) != len(objects):
            raise ConstructionError(f"matrix of {user} has {len(matrix.cells[0])} columns, "
                                    f"system has {len(objects)} objects")
    return SystemModel(
        users=users,
        processes=processes,
        objects=objects,
        matrices=tuple((u, by_owner[u]) for u in users),
    )


def classify_confidentiality(attribute: AccessAttribute) -> bool:
    """Confidentiality is preserved iff the read bit or the execute bit is set."""
    return bool(int(attribute) & _CONFIDENTIALITY)


def classify_integrity(attribute: AccessAttribute) -> bool:
    """Integrity is preserved iff the write bit or the execute bit is set."""
    return bool(int(attribute) & _INTEGRITY)


def evaluate(model: SystemModel, request: AccessRequest, credentials) -> Optional[DenialReason]:
    """Decide one access request: None grants it, a reason denies it.

    ``credentials`` answers ``check_credentials(obj, ip_id, token)`` with a
    reason or None, as a ``TokenTable`` does.  Stages run in one fixed
    order, part of the observable reason contract: unknown reference,
    foreign process, credentials (MALFORMED for an unprovisioned object),
    empty attribute, matrix rule (``covers``).  Both simulator modes decide
    through it unless a pass-through applies: a LOW target in ``authorize``,
    a set bypass flag in baseline mode, whose view checks no credentials.
    """
    if not model.knows(request.user, request.process, request.object):
        return DenialReason.MALFORMED
    if request.process.owner != request.user:
        return DenialReason.FOREIGN_PROCESS
    cred_reason = credentials.check_credentials(request.object, request.ip_id, request.token)
    if cred_reason is not None:
        return cred_reason
    attribute = int(request.attribute)  # an AccessAttribute or a plain int
    if not (classify_confidentiality(attribute) or classify_integrity(attribute)):
        return DenialReason.MALFORMED
    if not model.covers(request.process, request.object, attribute):
        return DenialReason.MATRIX_DENY
    return None


def modify_matrix(
    model: SystemModel,
    actor: Actor,
    user: int,
    process: ProcessId,
    obj: int,
    new_attribute: AccessAttribute,
) -> SystemModel:
    """Update one matrix cell; only the controller (always) or the
    integrator (design phase only) may do so."""
    allowed = actor is Actor.CONTROLLER or (actor is Actor.INTEGRATOR and model.design_phase)
    if not allowed:
        raise MatrixTamperError(f"{actor.value} may not modify the access matrix")
    if not model.knows(user, process, obj):
        raise ParameterError("unknown user/process/object")
    if process.owner != user:
        raise ParameterError("process is not owned by the given user")
    matrix, row = model._rows[process]
    new_matrix = matrix.with_cell(row, model._cols[obj], new_attribute)
    new_matrices = tuple(
        (u, new_matrix if u == user else m) for u, m in model.matrices
    )
    return replace(model, matrices=new_matrices)
