"""Verification relations and the attestation proof backend.

Four relations tie the protocol together. Each one is a plain predicate
over (statement, witness). A statement encodes to a canonical record through
the primitives' record codec, and that record is what an attestation
digests; records are never decoded, since an auditor rebuilds each
statement from the logged fields it covers:

* check_prove_qual: a submitted response is well-formed. Its quality pair
  is a re-randomization of a credentialed pair accumulated in the registry
  tree, the linkability tag binds that pair to the enrolled identifier,
  the answer and payout-address ciphertexts encrypt domain values under
  the requester key, and the hidden quality clears the task threshold.
* check_auth_calc: the requester key is genuine and the posted encrypted
  final answer equals the policy aggregation of all included answers.
* check_auth_value: one worker's encrypted answer is correct with respect
  to the encrypted final answer under the policy.
* check_auth_qual: a posted quality-pair update adds exactly the increment
  policy.quality_increment gives for the answer's correctness; a voided
  task (empty final ciphertext list) adds the void increment.

Statements are structurally validated before use; a malformed statement
raises MalformedStatementError, which is deliberately distinct from a
well-formed but unsatisfied relation (a False result). Checkers read a Memo.

The proof backend is an attestation oracle standing in for a succinct
proving system: prove() runs the relation checker and, only on success,
emits the proof (a Record): the digest and the keyed attestation of one
statement record, encoded once; verify() rebuilds that proof and compares.
Proofs depend on the statement alone, never on the witness, which is the
unlinkability property the protocol leans on. Soundness holds within one
simulation run (the setup secret could mint attestations), matching the
trust model of a simulated prover rather than re-implementing one.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from types import GenericAlias

from .context import CryptoContext
from .encoding import record
from .errors import (
    DomainError,
    MalformedStatementError,
    RelationUnsatisfiedError,
)
from .group import GroupElement, Scalar
from .merkle import MerklePath, verify_path
from .policy import (
    AVERAGE,
    FinalAnswer,
    QualityState,
    TaskPolicy,
    ans_calc,
    clears_threshold,
    is_correct,
    quality_increment,
)
from .primitives import (
    BlindingPair,
    Ciphertext,
    CommitmentPair,
    Record,
    Signature,
    commit_pair,
    decrypt_message,
    encrypt_message,
    hash_bytes,
    pair_rerandomize,
    pair_step,
    quality_tag,
    record_layout,
    record_parts,
    verify_sig,
)

PROVE_QUAL_ID = "prove-qual/v1"
AUTH_CALC_ID = "auth-calc/v1"
AUTH_VALUE_ID = "auth-value/v1"
AUTH_QUAL_ID = "auth-qual/v1"


def ident_message(ctx: CryptoContext, ident: Scalar) -> bytes:
    """The exact bytes the registration authority signs for an identifier."""
    return record("worker-ident", ctx.group.encode_scalar(ident))


# ── statements ───────────────────────────────────────────────────────────────

class Statement:
    """The record form the four statements share.

    Each field is written by the record codec's writer for its declared type
    (see primitives.Record): a 32-byte digest goes in as is, a group element
    as its encoding, a pair or a ciphertext as its own record, the policy as
    its digest and a ciphertext list counted. Record order is declaration
    order, so reordering a class's fields changes its bytes and every
    attestation.

    A list named final_cts holds the policy's final_ct_count entries, or
    none on a class that admits a voided task; any other list is non-empty.
    """

    admits_void = False

    def validate(self) -> None:
        for name, kind in record_layout(type(self)).fields:
            value = getattr(self, name)
            if kind is bytes:
                ok, problem = isinstance(value, bytes) and len(value) == 32, "is not a 32-byte digest"
            elif not isinstance(kind, GenericAlias):  # a class, not a list alias
                ok, problem = isinstance(value, kind), "is missing"
            elif name == "final_cts":
                count = self.policy.final_ct_count
                ok = len(value) in ((0, count) if self.admits_void else (count,))
                problem = "has the wrong length for the policy"
            else:
                ok, problem = len(value) >= 1, "is empty"
            if not ok:
                raise MalformedStatementError(f"{name.replace('_', ' ')} {problem}")

    def encode(self, ctx: CryptoContext) -> bytes:
        self.validate()
        return record("stmt/" + relation_id_for(self), *record_parts(ctx.group, self))


@dataclass(frozen=True)
class ProveQualStatement(Statement):
    params_digest: bytes
    policy: TaskPolicy
    ra_pk: GroupElement
    requester_pk: GroupElement
    tree_root: bytes
    fresh_pair: CommitmentPair  # re-randomized quality commitment pair
    quality_tag: bytes
    answer_ct: Ciphertext
    address_ct: Ciphertext


@dataclass(frozen=True)
class AuthCalcStatement(Statement):
    params_digest: bytes
    policy: TaskPolicy
    requester_pk: GroupElement
    answer_cts: tuple[Ciphertext, ...]  # all included responses, log order
    final_cts: tuple[Ciphertext, ...]


@dataclass(frozen=True)
class AuthValueStatement(Statement):
    params_digest: bytes
    policy: TaskPolicy
    requester_pk: GroupElement
    worker_ct: Ciphertext
    final_cts: tuple[Ciphertext, ...]


@dataclass(frozen=True)
class AuthQualStatement(Statement):
    """Quality-step statement. An empty final ciphertext list marks a voided
    task, whose only admissible increment is quality_increment(None)."""

    admits_void = True

    params_digest: bytes
    policy: TaskPolicy
    requester_pk: GroupElement
    worker_ct: Ciphertext
    final_cts: tuple[Ciphertext, ...]
    old_pair: CommitmentPair  # the pair the worker submitted (re-randomized)
    new_pair: CommitmentPair  # the posted updated pair, dummy term excluded


# ── witnesses ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ProveQualWitness:
    ident: Scalar
    cert: Signature
    alpha: int
    beta: int
    leaf_blind: BlindingPair  # opens stored_pair to (alpha, beta), cover term included
    stored_pair: CommitmentPair  # the accumulated registry leaf
    rerand: BlindingPair  # freshly drawn re-randomization
    answer: int
    answer_rand: Scalar
    address: int
    address_rand: Scalar
    path: MerklePath


@dataclass(frozen=True)
class AuthCalcWitness:
    sk: Scalar


@dataclass(frozen=True)
class AuthValueWitness:
    sk: Scalar


@dataclass(frozen=True)
class AuthQualWitness:
    sk: Scalar
    update_blind: BlindingPair  # randomness of the posted increment commitment


# ── checkers ─────────────────────────────────────────────────────────────────


def check_prove_qual(
    ctx: CryptoContext, stmt: ProveQualStatement, wit: ProveQualWitness, memo: Memo
) -> bool:
    stmt.validate()
    g = ctx.group

    # credential over the enrolled identifier
    if not verify_sig(g, stmt.ra_pk, ident_message(ctx, wit.ident), wit.cert):
        return False

    # hidden quality state is consistent, clears the admission threshold
    # and is what the leaf opens to
    if wit.alpha < 1 or wit.beta < 1:
        return False
    if not clears_threshold(QualityState(wit.alpha, wit.beta), stmt.policy):
        return False
    if memo(commit_pair, g, wit.alpha, wit.beta, wit.leaf_blind) != wit.stored_pair:
        return False

    # tag binds the stored pair to the identifier
    if stmt.quality_tag != quality_tag(g, wit.stored_pair, wit.ident):
        return False

    # ciphertexts encrypt the claimed plaintexts under the requester key
    pk = stmt.requester_pk
    try:
        answer_ct = memo(encrypt_message, g, pk, ctx.answer_codec, wit.answer, wit.answer_rand)
        address_ct = memo(encrypt_message, g, pk, ctx.address_codec, wit.address, wit.address_rand)
    except DomainError:
        return False
    if wit.answer >= stmt.policy.domain_size:
        return False
    if (stmt.answer_ct, stmt.address_ct) != (answer_ct, address_ct):
        return False

    # the stored pair is accumulated under the pinned root
    if not verify_path(stmt.tree_root, wit.stored_pair.encode(g), wit.path):
        return False

    # the submitted pair re-randomizes the stored one
    return stmt.fresh_pair == memo(pair_rerandomize, g, wit.stored_pair, wit.rerand)


def _decrypt_answers(ctx, memo: Memo, sk: Scalar, cts) -> list[int] | None:
    out = []
    for ct in cts:
        try:
            out.append(memo(decrypt_message, ctx.group, sk, ctx.answer_codec, ct))
        except DomainError:
            return None
    return out


def _decrypt_final(ctx, memo: Memo, sk: Scalar, stmt) -> FinalAnswer | None:
    values = _decrypt_answers(ctx, memo, sk, stmt.final_cts)
    if values is None or stmt.policy.kind == AVERAGE and values[1] < 1:
        return None  # an average over no answers is no answer
    return FinalAnswer(stmt.policy.kind, tuple(values))


def check_auth_calc(
    ctx: CryptoContext, stmt: AuthCalcStatement, wit: AuthCalcWitness, memo: Memo
) -> bool:
    stmt.validate()
    if memo(ctx.group.mul_gen, wit.sk) != stmt.requester_pk:
        return False
    answers = _decrypt_answers(ctx, memo, wit.sk, stmt.answer_cts)
    if answers is None:
        return False
    try:
        recounted = ans_calc(answers, stmt.policy)
    except ValueError:
        return False
    posted = _decrypt_final(ctx, memo, wit.sk, stmt)
    return posted is not None and posted == recounted


def _verdict(ctx: CryptoContext, memo: Memo, stmt, sk: Scalar) -> tuple[bool, bool | None]:
    """The requester's (judged, correct) on stmt.worker_ct: not judged when
    sk is not the requester key or a ciphertext does not decrypt to a domain
    value; correct is None on a voided task (no final ciphertexts)."""
    if memo(ctx.group.mul_gen, sk) != stmt.requester_pk:
        return False, None
    if len(stmt.final_cts) == 0:
        return True, None
    final = _decrypt_final(ctx, memo, sk, stmt)
    answer = None if final is None else _decrypt_answers(ctx, memo, sk, [stmt.worker_ct])
    if answer is None or answer[0] >= stmt.policy.domain_size:
        return False, None
    return True, is_correct(answer[0], final, stmt.policy)


def check_auth_value(
    ctx: CryptoContext, stmt: AuthValueStatement, wit: AuthValueWitness, memo: Memo
) -> bool:
    stmt.validate()
    judged, correct = _verdict(ctx, memo, stmt, wit.sk)
    return judged and correct is True


def check_auth_qual(
    ctx: CryptoContext, stmt: AuthQualStatement, wit: AuthQualWitness, memo: Memo
) -> bool:
    stmt.validate()
    judged, correct = _verdict(ctx, memo, stmt, wit.sk)
    return judged and (
        memo(pair_step, ctx.group, stmt.old_pair, quality_increment(correct), wit.update_blind) == stmt.new_pair
    )


# ── proof backend ────────────────────────────────────────────────────────────

_DST_SETUP = b"anoncrowd/v1/backend-setup"
_DST_ATTEST = b"anoncrowd/v1/attestation"
_UNSET = object()  # a memo entry not yet filled

_RELATIONS = {
    ProveQualStatement: (PROVE_QUAL_ID, check_prove_qual),
    AuthCalcStatement: (AUTH_CALC_ID, check_auth_calc),
    AuthValueStatement: (AUTH_VALUE_ID, check_auth_value),
    AuthQualStatement: (AUTH_QUAL_ID, check_auth_qual),
}

def relation_id_for(stmt) -> str:
    try:
        return _RELATIONS[type(stmt)][0]
    except KeyError:
        raise MalformedStatementError(f"unknown statement type {type(stmt).__name__}")


@dataclass(frozen=True)
class Proof(Record):
    TAG = "proof"

    relation_id: str
    statement_digest: bytes
    attestation: bytes


class Memo(dict):
    """One round's pure crypto calls, shared by every party and checker. memo(fn, *args) runs fn(*args)
    once per fn and args, and later calls read the result: a checker or the serving search repeats no
    call a party made, and an honest post serves with no group operation. An entry is keyed by every
    argument's value and type, so only a real call on those very inputs fills it (5.0 does not read
    what 5 stored) and no witness supplies a plaintext, a ciphertext or a commitment. A call that
    raises raises each time. The runner makes a run's one Memo and clears it as each round closes."""

    def __call__(self, fn: Callable, *args):
        key = (fn, *args, *map(type, args))
        result = self.get(key, _UNSET)  # one lookup, so a hit hashes its key once
        if result is _UNSET:
            result = self[key] = fn(*args)
        return result


class ProofBackend:
    """Attestation oracle over the four relations, keyed by a setup seed.

    One instance plays the role of the proving system for a whole
    simulation: all parties hold it, honest parties only obtain proofs via
    prove(), and an adversary without the instance cannot do better than
    guessing a 256-bit attestation.
    """

    def __init__(self, setup_seed: bytes):
        self._secrets = {
            rid: hash_bytes(_DST_SETUP + setup_seed + rid.encode("ascii"))
            for rid, _ in _RELATIONS.values()
        }

    def _proof(self, ctx: CryptoContext, stmt) -> Proof:
        """The proof of stmt: its relation id, then the digest and the keyed attestation of its record."""
        rid = relation_id_for(stmt)
        encoded = stmt.encode(ctx)
        return Proof(rid, hash_bytes(encoded), hash_bytes(_DST_ATTEST + self._secrets[rid] + encoded))

    def prove(self, ctx: CryptoContext, stmt, witness, memo: Memo) -> Proof:
        rid = relation_id_for(stmt)
        _, checker = _RELATIONS[type(stmt)]
        if not checker(ctx, stmt, witness, memo):
            raise RelationUnsatisfiedError(f"witness does not satisfy {rid}")
        return self._proof(ctx, stmt)

    def verify(self, ctx: CryptoContext, stmt, proof: Proof) -> bool:
        return proof == self._proof(ctx, stmt)
