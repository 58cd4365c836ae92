"""Relation checkers against brute-force oracles, plus the proof backend.

World-building here goes straight through the primitives (no actor layer),
so these tests double as an independent reconstruction of the protocol's
data flow: enroll workers into a depth-4 tree, build response statements
by hand, and compare every checker verdict against plaintext recomputation.
"""

import random
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import partial
from types import GenericAlias

import pytest

from anoncrowd.context import CryptoContext, tiny_context
from anoncrowd.errors import DomainError, MalformedStatementError, RelationUnsatisfiedError
from anoncrowd.merkle import MerkleTree
from anoncrowd.policy import AVERAGE, MAJORITY, TaskPolicy, ans_calc
from anoncrowd import relations
from anoncrowd.primitives import (
    BlindingPair,
    Ciphertext,
    commit_pair,
    decrypt_message,
    encrypt_message,
    keygen,
    pair_add,
    pair_rerandomize,
    quality_tag,
    random_blinding_pair,
    sign,
)
from anoncrowd.relations import (
    AuthCalcStatement,
    AuthCalcWitness,
    AuthQualStatement,
    AuthQualWitness,
    AuthValueStatement,
    AuthValueWitness,
    Memo,
    Proof,
    ProofBackend,
    ProveQualStatement,
    Statement,
    ProveQualWitness,
    check_auth_calc,
    check_auth_qual,
    check_auth_value,
    check_prove_qual,
    ident_message,
)


def mk_policy(kind=MAJORITY, domain=4, winners=1, threshold=Fraction(1, 2), eps=Fraction(1, 2)):
    return TaskPolicy(
        kind=kind,
        domain_size=domain,
        threshold=threshold,
        pay_correct=100,
        pay_incorrect=10,
        winners=winners,
        epsilon=eps if kind == AVERAGE else Fraction(0),
    )


@dataclass
class Enrolled:
    ident: object
    cert: object
    alpha: int
    beta: int
    base_blind: BlindingPair
    dummy_blind: BlindingPair
    stored_pair: object
    position: int


@dataclass
class World:
    ctx: CryptoContext
    rng: random.Random
    ra_keys: object
    req_keys: object
    tree: MerkleTree
    workers: list


def build_world(ctx, seed=2024, states=((4, 1), (5, 2), (7, 3))):
    rng = random.Random(seed)
    ra_keys = keygen(ctx.group, rng)
    req_keys = keygen(ctx.group, rng)
    tree = MerkleTree(depth=4)
    workers = []
    for alpha, beta in states:
        ident = ctx.group.random_scalar(rng)
        cert = sign(ctx.group, ra_keys.sk, ident_message(ctx, ident))
        blind = random_blinding_pair(ctx.group, rng)
        dummy = random_blinding_pair(ctx.group, rng)
        pair = commit_pair(ctx.group, alpha, beta, blind + dummy)
        pos = tree.append(pair.encode(ctx.group))
        workers.append(Enrolled(ident, cert, alpha, beta, blind, dummy, pair, pos))
    return World(ctx, rng, ra_keys, req_keys, tree, workers)


def build_response(world, worker, answer, address):
    """Statement/witness pair for one honest response."""
    ctx, rng = world.ctx, world.rng
    g = ctx.group
    rerand = random_blinding_pair(g, rng)
    answer_rand = g.random_scalar(rng)
    address_rand = g.random_scalar(rng)
    pol = mk_policy()
    stmt = ProveQualStatement(
        params_digest=ctx.params_digest,
        policy=pol,
        ra_pk=world.ra_keys.pk,
        requester_pk=world.req_keys.pk,
        tree_root=world.tree.root(),
        fresh_pair=pair_rerandomize(g, worker.stored_pair, rerand),
        quality_tag=quality_tag(g, worker.stored_pair, worker.ident),
        answer_ct=encrypt_message(g, world.req_keys.pk, ctx.answer_codec, answer, answer_rand),
        address_ct=encrypt_message(g, world.req_keys.pk, ctx.address_codec, address, address_rand),
    )
    wit = ProveQualWitness(
        ident=worker.ident,
        cert=worker.cert,
        alpha=worker.alpha,
        beta=worker.beta,
        leaf_blind=worker.base_blind + worker.dummy_blind,
        stored_pair=worker.stored_pair,
        rerand=rerand,
        answer=answer,
        answer_rand=answer_rand,
        address=address,
        address_rand=address_rand,
        path=world.tree.prove_membership(worker.position),
    )
    return stmt, wit


@pytest.fixture(scope="module")
def tctx():
    return tiny_context()


@pytest.fixture()
def backend():
    """A fresh memo for the checkers, which lives for one test."""
    return Memo()


# ── membership relation ──────────────────────────────────────────────────────


class TestProveQual:
    def test_honest_response_checks_on_both_backends(self, tctx, prod, backend):
        for ctx in (tctx, CryptoContext(prod)):
            world = build_world(ctx)
            stmt, wit = build_response(world, world.workers[0], answer=2, address=111)
            assert check_prove_qual(ctx, stmt, wit, backend)

    def test_below_threshold_quality_rejected(self, tctx, backend):
        world = build_world(tctx, states=((4, 1), (1, 3)))  # 25% < 50%
        stmt, wit = build_response(world, world.workers[1], answer=1, address=50)
        assert not check_prove_qual(tctx, stmt, wit, backend)

    def test_exhaustive_witness_field_swaps(self, tctx, backend):
        # For every ordered pair of distinct enrolled workers, transplant
        # each witness field in isolation. No field is slack: the leaf
        # opening covers the cover term too, so another worker's fails.
        world = build_world(tctx)
        responses = [
            build_response(world, w, answer=i, address=100 * (i + 1))
            for i, w in enumerate(world.workers)
        ]
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                stmt, wit_a = responses[a]
                _, wit_b = responses[b]
                for field in fields(ProveQualWitness):
                    hybrid = replace(wit_a, **{field.name: getattr(wit_b, field.name)})
                    assert not check_prove_qual(tctx, stmt, hybrid, backend), (
                        f"swap {field.name} from {b} into {a}"
                    )

    def test_statement_perturbations_rejected(self, tctx, backend):
        world = build_world(tctx)
        stmt, wit = build_response(world, world.workers[0], answer=1, address=77)
        g = tctx.group
        bad_tag = replace(stmt, quality_tag=bytes(32))
        assert not check_prove_qual(tctx, bad_tag, wit, backend)
        other_root = replace(stmt, tree_root=bytes(32))
        assert not check_prove_qual(tctx, other_root, wit, backend)
        swapped_cts = replace(stmt, answer_ct=stmt.address_ct, address_ct=stmt.answer_ct)
        assert not check_prove_qual(tctx, swapped_cts, wit, backend)
        rogue_pk = replace(stmt, requester_pk=g.mul_gen(9999))
        assert not check_prove_qual(tctx, rogue_pk, wit, backend)

    def test_malformed_statement_raises_not_false(self, tctx, backend):
        world = build_world(tctx)
        stmt, wit = build_response(world, world.workers[0], answer=1, address=77)
        broken = replace(stmt, tree_root=b"short")
        with pytest.raises(MalformedStatementError):
            check_prove_qual(tctx, broken, wit, backend)

    def test_answer_outside_policy_domain_rejected(self, tctx, backend):
        # codec admits 2^16 values but the policy domain is smaller
        world = build_world(tctx)
        stmt, wit = build_response(world, world.workers[0], answer=2, address=44)
        wide = replace(
            stmt,
            answer_ct=encrypt_message(
                tctx.group, world.req_keys.pk, tctx.answer_codec, 9, wit.answer_rand
            ),
        )
        assert not check_prove_qual(tctx, wide, replace(wit, answer=9), backend)


# ── final-answer relation vs recount oracles ─────────────────────────────────


def binary_majority_oracle(votes):
    """Plain-counting oracle for one-winner majority over {0, 1}."""
    ones = sum(votes)
    zeros = len(votes) - ones
    if ones == zeros:
        return 0  # tie breaks toward the lower id
    return 1 if ones > zeros else 0


def build_auth_calc(ctx, rng, policy, answers, keys, posted_values=None):
    g = ctx.group
    answer_cts = tuple(
        encrypt_message(g, keys.pk, ctx.answer_codec, a, g.random_scalar(rng)) for a in answers
    )
    if posted_values is None:
        posted_values = ans_calc(answers, policy).values
    final_cts = tuple(
        encrypt_message(g, keys.pk, ctx.answer_codec, v, g.random_scalar(rng))
        for v in posted_values
    )
    return AuthCalcStatement(ctx.params_digest, policy, keys.pk, answer_cts, final_cts)


class TestAuthCalc:
    def test_exhaustive_binary_vectors(self, tctx, backend):
        rng = random.Random(3)
        keys = keygen(tctx.group, rng)
        pol = mk_policy(domain=2)
        wit = AuthCalcWitness(keys.sk)
        for pattern in range(32):
            votes = [(pattern >> i) & 1 for i in range(5)]
            truth = binary_majority_oracle(votes)
            for claimed in (0, 1):
                stmt = build_auth_calc(tctx, rng, pol, votes, keys, posted_values=(claimed,))
                assert check_auth_calc(tctx, stmt, wit, backend) == (claimed == truth), (votes, claimed)

    @pytest.mark.parametrize(
        "kind,winners",
        [(MAJORITY, 1), (MAJORITY, 3), (AVERAGE, 1)],
        ids=["one-winner", "three-winner", "average"],
    )
    def test_random_instances_accept_truth_reject_perturbed(self, tctx, kind, winners, backend):
        rng = random.Random(hash((kind, winners)) & 0xFFFF)
        keys = keygen(tctx.group, rng)
        wit = AuthCalcWitness(keys.sk)
        for _ in range(25):
            domain = rng.randrange(max(2, winners), 9)
            pol = mk_policy(kind=kind, domain=domain, winners=winners)
            n = rng.randrange(1, 65)
            answers = [rng.randrange(domain) for _ in range(n)]
            stmt = build_auth_calc(tctx, rng, pol, answers, keys)
            assert check_auth_calc(tctx, stmt, wit, backend)
            truth = ans_calc(answers, pol).values
            wrong = (truth[0] + 1,) + truth[1:]
            if wrong != truth:
                bad = build_auth_calc(tctx, rng, pol, answers, keys, posted_values=wrong)
                assert not check_auth_calc(tctx, bad, wit, backend)

    def test_wrong_key_rejected(self, tctx, rng, backend):
        keys = keygen(tctx.group, rng)
        outsider = keygen(tctx.group, rng)
        stmt = build_auth_calc(tctx, rng, mk_policy(domain=2), [1, 1, 0], keys)
        assert not check_auth_calc(tctx, stmt, AuthCalcWitness(outsider.sk), backend)

    def test_malformed_final_list_raises(self, tctx, rng, backend):
        keys = keygen(tctx.group, rng)
        pol = mk_policy(kind=MAJORITY, domain=4, winners=3)
        stmt = build_auth_calc(tctx, rng, pol, [1, 2, 3], keys)
        chopped = replace(stmt, final_cts=stmt.final_cts[:1])
        with pytest.raises(MalformedStatementError):
            check_auth_calc(tctx, chopped, AuthCalcWitness(keys.sk), backend)

    def test_empty_answer_list_raises(self, tctx, rng, backend):
        keys = keygen(tctx.group, rng)
        stmt = build_auth_calc(tctx, rng, mk_policy(domain=2), [0], keys)
        stripped = replace(stmt, answer_cts=())
        with pytest.raises(MalformedStatementError):
            check_auth_calc(tctx, stripped, AuthCalcWitness(keys.sk), backend)

    def test_list_fields_validate_whatever_the_alias_claims_to_be(self, tctx, rng, monkeypatch):
        # on Python 3.10, isinstance(tuple[Ciphertext, ...], type) holds; validate
        # must still read such a field as a list, not hand it to isinstance
        class Py310Alias(GenericAlias):
            __class__ = property(lambda self: type)

        layout = relations.record_layout(AuthCalcStatement)
        kinds = tuple((n, Py310Alias(tuple, (Ciphertext, ...)) if n.endswith("_cts") else k) for n, k in layout.fields)
        assert isinstance(kinds[-1][1], type)
        monkeypatch.setattr(relations, "record_layout", lambda cls: layout._replace(fields=kinds))
        keys = keygen(tctx.group, rng)
        stmt = build_auth_calc(tctx, rng, mk_policy(domain=2), [0, 1], keys)
        stmt.validate()
        with pytest.raises(MalformedStatementError, match="answer cts is empty"):
            replace(stmt, answer_cts=()).validate()
        with pytest.raises(MalformedStatementError, match="final cts has the wrong length"):
            replace(stmt, final_cts=()).validate()


# ── single-answer correctness relation ───────────────────────────────────────


def build_auth_value(ctx, rng, policy, answers, worker_idx, keys):
    g = ctx.group
    worker_ct = encrypt_message(
        g, keys.pk, ctx.answer_codec, answers[worker_idx], g.random_scalar(rng)
    )
    final_cts = tuple(
        encrypt_message(g, keys.pk, ctx.answer_codec, v, g.random_scalar(rng))
        for v in ans_calc(answers, policy).values
    )
    return AuthValueStatement(ctx.params_digest, policy, keys.pk, worker_ct, final_cts)


class TestAuthValue:
    def test_correct_and_incorrect_answers(self, tctx, rng, backend):
        keys = keygen(tctx.group, rng)
        pol = mk_policy(domain=2)
        answers = [1, 1, 1, 0]  # final answer 1
        good = build_auth_value(tctx, rng, pol, answers, 0, keys)
        assert check_auth_value(tctx, good, AuthValueWitness(keys.sk), backend)
        bad = build_auth_value(tctx, rng, pol, answers, 3, keys)
        assert not check_auth_value(tctx, bad, AuthValueWitness(keys.sk), backend)

    def test_average_band(self, tctx, rng, backend):
        keys = keygen(tctx.group, rng)
        pol = mk_policy(kind=AVERAGE, domain=6, eps=Fraction(1, 2))
        answers = [1, 2, 1, 2]  # mean 3/2; band [1, 2]
        assert check_auth_value(
            tctx, build_auth_value(tctx, rng, pol, answers, 0, keys), AuthValueWitness(keys.sk), backend
        )
        answers_far = [5, 1, 2, 1, 2]  # worker 0 answered 5, mean 11/5
        assert not check_auth_value(
            tctx,
            build_auth_value(tctx, rng, pol, answers_far, 0, keys),
            AuthValueWitness(keys.sk),
            backend,
        )

    def test_wrong_key_rejected(self, tctx, rng, backend):
        keys = keygen(tctx.group, rng)
        outsider = keygen(tctx.group, rng)
        stmt = build_auth_value(tctx, rng, mk_policy(domain=2), [1, 1, 0], 0, keys)
        assert not check_auth_value(tctx, stmt, AuthValueWitness(outsider.sk), backend)


    def test_average_over_no_answers_judges_nothing(self, tctx, prod, rng, backend):
        # a posted average of 0/0 would put every answer within epsilon of it
        # (|a*0 - 0| <= eps*0), so neither correctness nor any increment is provable
        for ctx in (tctx, CryptoContext(prod)):
            g = ctx.group
            keys = keygen(g, rng)
            pol = mk_policy(kind=AVERAGE, domain=6)
            worker_ct = encrypt_message(g, keys.pk, ctx.answer_codec, 3, g.random_scalar(rng))
            final_cts = tuple(
                encrypt_message(g, keys.pk, ctx.answer_codec, 0, g.random_scalar(rng)) for _ in range(2)
            )
            value = AuthValueStatement(ctx.params_digest, pol, keys.pk, worker_ct, final_cts)
            assert not check_auth_value(ctx, value, AuthValueWitness(keys.sk), backend)
            old = commit_pair(g, 4, 1, random_blinding_pair(g, rng))
            blind = random_blinding_pair(g, rng)
            for step in ((1, 0), (0, 1), (0, 0)):
                new = pair_add(g, old, commit_pair(g, step[0], step[1], blind))
                qual = AuthQualStatement(ctx.params_digest, pol, keys.pk, worker_ct, final_cts, old, new)
                assert not check_auth_qual(ctx, qual, AuthQualWitness(keys.sk, blind), backend), step


# ── quality-step relation: the 2x2 truth table and the void extension ────────


class TestAuthQual:
    def _setup(self, tctx, rng, worker_correct):
        keys = keygen(tctx.group, rng)
        pol = mk_policy(domain=2)
        answers = [1, 1, 0]  # final answer 1
        worker_answer = 1 if worker_correct else 0
        g = tctx.group
        worker_ct = encrypt_message(g, keys.pk, tctx.answer_codec, worker_answer, g.random_scalar(rng))
        final_cts = (encrypt_message(g, keys.pk, tctx.answer_codec, 1, g.random_scalar(rng)),)
        old = commit_pair(g, 4, 1, random_blinding_pair(g, rng))
        return keys, pol, worker_ct, final_cts, old

    def test_truth_table(self, tctx, rng, backend):
        # worker correctness x claimed increment: only the diagonal verifies
        for correct in (True, False):
            keys, pol, worker_ct, final_cts, old = self._setup(tctx, rng, correct)
            blind = random_blinding_pair(tctx.group, rng)
            wit = AuthQualWitness(keys.sk, blind)
            for claimed in ((1, 0), (0, 1)):
                new = pair_add(
                    tctx.group, old, commit_pair(tctx.group, claimed[0], claimed[1], blind)
                )
                stmt = AuthQualStatement(
                    tctx.params_digest, pol, keys.pk, worker_ct, final_cts, old, new
                )
                expected = claimed == ((1, 0) if correct else (0, 1))
                assert check_auth_qual(tctx, stmt, wit, backend) == expected, (correct, claimed)

    def test_zero_increment_rejected_unless_void(self, tctx, rng, backend):
        keys, pol, worker_ct, final_cts, old = self._setup(tctx, rng, True)
        blind = random_blinding_pair(tctx.group, rng)
        wit = AuthQualWitness(keys.sk, blind)
        frozen = pair_add(tctx.group, old, commit_pair(tctx.group, 0, 0, blind))
        live = AuthQualStatement(tctx.params_digest, pol, keys.pk, worker_ct, final_cts, old, frozen)
        assert not check_auth_qual(tctx, live, wit, backend)
        void = AuthQualStatement(tctx.params_digest, pol, keys.pk, worker_ct, (), old, frozen)
        assert check_auth_qual(tctx, void, wit, backend)

    def test_void_rejects_real_increments(self, tctx, rng, backend):
        keys, pol, worker_ct, _, old = self._setup(tctx, rng, True)
        blind = random_blinding_pair(tctx.group, rng)
        wit = AuthQualWitness(keys.sk, blind)
        for claimed in ((1, 0), (0, 1)):
            new = pair_add(tctx.group, old, commit_pair(tctx.group, claimed[0], claimed[1], blind))
            stmt = AuthQualStatement(tctx.params_digest, pol, keys.pk, worker_ct, (), old, new)
            assert not check_auth_qual(tctx, stmt, wit, backend)

    def test_wrong_update_blind_rejected(self, tctx, rng, backend):
        keys, pol, worker_ct, final_cts, old = self._setup(tctx, rng, True)
        blind = random_blinding_pair(tctx.group, rng)
        new = pair_add(tctx.group, old, commit_pair(tctx.group, 1, 0, blind))
        stmt = AuthQualStatement(tctx.params_digest, pol, keys.pk, worker_ct, final_cts, old, new)
        other = AuthQualWitness(keys.sk, random_blinding_pair(tctx.group, rng))
        assert not check_auth_qual(tctx, stmt, other, backend)


# ── proof backend ────────────────────────────────────────────────────────────


class TestProofBackend:
    def test_prove_verify_round_trip(self, tctx):
        world = build_world(tctx)
        backend = ProofBackend(b"seed-A")
        stmt, wit = build_response(world, world.workers[0], answer=1, address=10)
        proof = backend.prove(tctx, stmt, wit, Memo())
        assert backend.verify(tctx, stmt, proof)
        assert Proof.decode(tctx.group, proof.encode(tctx.group)) == proof

    def test_prove_refuses_unsatisfied_witness(self, tctx):
        world = build_world(tctx)
        backend = ProofBackend(b"seed-A")
        stmt, wit = build_response(world, world.workers[0], answer=1, address=10)
        broken = replace(wit, answer=2)
        with pytest.raises(RelationUnsatisfiedError):
            backend.prove(tctx, stmt, broken, Memo())

    def test_witness_independence(self, tctx):
        # one statement, two satisfying witnesses: the same stored pair
        # accumulated twice gives two distinct membership paths
        world = build_world(tctx)
        twin = world.tree.append(world.workers[0].stored_pair.encode(tctx.group))
        backend = ProofBackend(b"seed-A")
        stmt, wit = build_response(world, world.workers[0], answer=1, address=10)
        other = replace(wit, path=world.tree.prove_membership(twin))
        assert other.path != wit.path
        p1 = backend.prove(tctx, stmt, wit, Memo())
        p2 = backend.prove(tctx, stmt, other, Memo())
        assert p1.encode(tctx.group) == p2.encode(tctx.group)

    def test_statement_tamper_breaks_verification(self, tctx):
        world = build_world(tctx)
        backend = ProofBackend(b"seed-A")
        stmt, wit = build_response(world, world.workers[0], answer=1, address=10)
        proof = backend.prove(tctx, stmt, wit, Memo())
        tampered = replace(stmt, quality_tag=bytes(32))
        assert not backend.verify(tctx, tampered, proof)

    def test_forged_attestations_fail(self, tctx):
        world = build_world(tctx)
        backend = ProofBackend(b"seed-A")
        stmt, wit = build_response(world, world.workers[0], answer=1, address=10)
        real = backend.prove(tctx, stmt, wit, Memo())
        rng = random.Random(99)
        for _ in range(1000):
            forged = Proof(real.relation_id, real.statement_digest, rng.randbytes(32))
            if forged.attestation == real.attestation:
                continue
            assert not backend.verify(tctx, stmt, forged)

    def test_prove_and_verify_encode_the_statement_once(self, tctx, monkeypatch):
        # one record gives a proof its digest and its attestation; the
        # checker validates but does not encode
        world = build_world(tctx)
        backend = ProofBackend(b"seed-A")
        stmt, wit = build_response(world, world.workers[0], answer=1, address=10)
        encodes = []
        real_encode = Statement.encode

        def counting_encode(self, ctx):
            encodes.append(type(self).__name__)
            return real_encode(self, ctx)

        monkeypatch.setattr(Statement, "encode", counting_encode)
        proof = backend.prove(tctx, stmt, wit, Memo())
        assert encodes == ["ProveQualStatement"]
        encodes.clear()
        assert backend.verify(tctx, stmt, proof)
        assert encodes == ["ProveQualStatement"]

    def test_distinct_setups_do_not_cross_verify(self, tctx):
        world = build_world(tctx)
        stmt, wit = build_response(world, world.workers[0], answer=1, address=10)
        proof = ProofBackend(b"seed-A").prove(tctx, stmt, wit, Memo())
        assert not ProofBackend(b"seed-B").verify(tctx, stmt, proof)

    def test_an_instance_holds_its_secrets_alone(self):
        # the oracle keeps no memo: the crypto calls live in the round's Memo
        backend = ProofBackend(b"seed-A")
        assert vars(backend).keys() == {"_secrets"}
        assert not hasattr(backend, "memo")

    def test_wrong_key_refused_after_the_right_key_is_memoized(self, tctx, rng):
        # the decryption memo is keyed by the secret key's value: with the
        # requester's decryptions in it, an outsider key still reads only
        # what decrypting under that key gives, and prove still refuses it
        keys = keygen(tctx.group, rng)
        outsider = keygen(tctx.group, rng)
        backend, memo = ProofBackend(b"seed-A"), Memo()
        g, pol = tctx.group, mk_policy(domain=2)
        value_stmt = build_auth_value(tctx, rng, pol, [1, 1, 0], 0, keys)
        old = commit_pair(g, 4, 1, random_blinding_pair(g, rng))
        blind = random_blinding_pair(g, rng)
        qual_stmt = AuthQualStatement(
            tctx.params_digest,
            pol,
            keys.pk,
            value_stmt.worker_ct,
            value_stmt.final_cts,
            old,
            pair_add(g, old, commit_pair(g, 1, 0, blind)),
        )
        backend.prove(tctx, value_stmt, AuthValueWitness(keys.sk), memo)
        backend.prove(tctx, qual_stmt, AuthQualWitness(keys.sk, blind), memo)
        for stmt, wit in (
            (value_stmt, AuthValueWitness(outsider.sk)),
            (qual_stmt, AuthQualWitness(outsider.sk, blind)),
        ):
            with pytest.raises(RelationUnsatisfiedError):
                backend.prove(tctx, stmt, wit, memo)

        def plaintext(decrypt, sk):
            try:
                return decrypt(g, sk, tctx.answer_codec, value_stmt.worker_ct)
            except DomainError:
                return "outside the domain"

        memoized = partial(memo, decrypt_message)
        assert plaintext(memoized, keys.sk) == 1
        assert plaintext(memoized, outsider.sk) == plaintext(decrypt_message, outsider.sk) != 1

    def test_mismatched_encryption_refused_after_the_honest_one_is_memoized(self, tctx):
        # the encryption memo is keyed by every input's value and type: with
        # the honest response's encryptions in it, a witness whose
        # randomness or plaintext differs (or only its type does) is
        # re-encrypted for real, does not match, and prove refuses it
        world = build_world(tctx)
        stmt, wit = build_response(world, world.workers[0], answer=1, address=77)
        backend, memo = ProofBackend(b"seed-A"), Memo()
        backend.prove(tctx, stmt, wit, memo)
        other = tctx.group.random_scalar(world.rng)
        for bad in (
            replace(wit, answer_rand=other),
            replace(wit, address_rand=other),
            replace(wit, address=78),
            replace(wit, answer=2),
            replace(wit, answer=1.0),
            replace(wit, answer_rand=wit.address_rand, address_rand=wit.answer_rand),
        ):
            with pytest.raises(RelationUnsatisfiedError):
                backend.prove(tctx, stmt, bad, memo)
        assert backend.prove(tctx, stmt, wit, memo) == ProofBackend(b"seed-A").prove(tctx, stmt, wit, Memo())

    def test_relation_id_confusion_rejected(self, tctx, rng):
        keys = keygen(tctx.group, rng)
        backend = ProofBackend(b"seed-A")
        pol = mk_policy(domain=2)
        calc_stmt = build_auth_calc(tctx, rng, pol, [1, 1, 0], keys)
        calc_proof = backend.prove(tctx, calc_stmt, AuthCalcWitness(keys.sk), Memo())
        value_stmt = build_auth_value(tctx, rng, pol, [1, 1, 0], 0, keys)
        mislabel = Proof(calc_proof.relation_id, calc_proof.statement_digest, calc_proof.attestation)
        assert not backend.verify(tctx, value_stmt, mislabel)
