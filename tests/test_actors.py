"""Agent choreography: enrollment, screening, settlement, protests.

Runs the whole party dance off-chain (bundles in lists instead of ledger
payloads) on the brute-forceable backend. The hand-computed expectations
lean on knowing every plaintext answer, which the requester only sees
through decryption; agreement between the two views is the point.
"""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd.actors import (
    REJECT_DUP_CT,
    REJECT_DUP_TAG,
    REJECT_MALFORMED,
    REJECT_PROOF,
    REJECT_STALE,
    Credential,
    ParsedResponse,
    Protest,
    QualityPost,
    RegistrationAuthority,
    RequesterAgent,
    TaskPublic,
    WorkerAgent,
    claim_index,
    claim_pads,
    decode_final_bundle,
    derive_ident,
    payout_account,
    post_board,
    quality_statement,
    response_statement,
    screen_responses,
    serving_post,
)
from anoncrowd.context import context_for, production_context, tiny_context
from anoncrowd.encoding import record, record_fields
from anoncrowd.errors import (
    DuplicateIdentifierError,
    EncodingError,
    ProtocolError,
    RelationUnsatisfiedError,
    ThresholdError,
)
from anoncrowd.group import _FixedBaseTable
from anoncrowd.merkle import MerkleTree
from anoncrowd.policy import MAJORITY, TaskPolicy, quality_increment
from anoncrowd.primitives import (
    BlindingPair,
    commit_pair,
    encrypt,
    pair_add,
    pair_rerandomize,
    pair_step,
    random_blinding_pair,
    record_layout,
)
from anoncrowd.relations import (
    AuthCalcStatement,
    AuthQualWitness,
    Memo,
    ProofBackend,
    ProveQualWitness,
    check_auth_qual,
)


def mk_policy(domain=2, threshold=Fraction(3, 4), winners=1, pay=(100, 10)):
    return TaskPolicy(
        kind=MAJORITY,
        domain_size=domain,
        threshold=threshold,
        pay_correct=pay[0],
        pay_incorrect=pay[1],
        winners=winners,
    )


class World:
    """A small cast sharing one backend, one memo and one registry."""

    def __init__(self, n_workers=3, prior=(4, 1), seed=7, ctx=None):
        self.ctx = ctx or tiny_context()
        self.backend = ProofBackend(b"actor-tests")
        self.memo = Memo()
        rng = random.Random(seed)
        self.ra = RegistrationAuthority(self.ctx, self.backend, self.memo, rng, prior=prior)
        self.requester = RequesterAgent(self.ctx, self.backend, self.memo, rng)
        self.workers = [
            WorkerAgent(self.ctx, self.backend, self.memo, f"w{i}", f"secret-{i}".encode(), rng)
            for i in range(n_workers)
        ]
        for w in self.workers:
            w.enroll(self.ra)
        self.enrolled = [w.cred.pair.encode(self.ctx.group) for w in self.workers]

    def announce(self, policy=None):
        return self.requester.announce(policy or mk_policy(), self.ra)

    def respond(self, task, answers, first_ref=10):
        """Workers answer in order; refs mimic ledger record indexes and
        double as small payout addresses, as the runner draws them."""
        included = []
        for i, (w, ans) in enumerate(zip(self.workers, answers)):
            ref = first_ref + i
            bundle = w.build_response(self.ra, task, ans, ref)
            w.mark_submitted(ref)
            included.append((ref, bundle))
        return included

    def accepted(self, task, included, known_tags):
        """The authority's own screening of a round, which arbitration takes."""
        return screen_responses(self.ctx, self.backend, task, included, known_tags)[0]

    def settle(self, task, outcome):
        """The bookkeeping the harness would do: accumulate covered leaves."""
        for leaf in outcome.leaves:
            self.ra.tree.append(leaf)

    def rebuilt_registry(self, settled):
        """The registry rebuilt from its enrollment and settlement payloads,
        as anyone reading them can, with no authority object."""
        tree = MerkleTree()
        for payload in self.enrolled + settled:
            tree.append(payload)
        assert tree.root() == self.ra.tree.root()
        return tree


class TestEnrollment:
    def test_credential_opens_its_pair(self):
        world = World(n_workers=2)
        for w in world.workers:
            cred = w.cred
            assert commit_pair(world.ctx.group, cred.alpha, cred.beta, cred.opening) == cred.pair
            assert world.ra.tree.position_of(cred.pair.encode(world.ctx.group)) == cred.position

    def test_double_enrollment_rejected(self):
        world = World(n_workers=1)
        with pytest.raises(DuplicateIdentifierError):
            world.ra.enroll(world.workers[0].ident)

    def test_prior_controls_qualification(self):
        strict = mk_policy(threshold=Fraction(3, 4))
        assert World(n_workers=1, prior=(4, 1)).workers[0].qualifies(strict)
        assert not World(n_workers=1, prior=(1, 1)).workers[0].qualifies(strict)

    def test_unqualified_worker_cannot_build(self):
        world = World(n_workers=1, prior=(1, 1))
        task = world.announce()
        with pytest.raises(ThresholdError):
            world.workers[0].build_response(world.ra, task, 1, 7)

    def test_ident_is_a_stable_derivation(self):
        ctx = tiny_context()
        assert derive_ident(ctx, b"abc") == derive_ident(ctx, b"abc")
        assert derive_ident(ctx, b"abc") != derive_ident(ctx, b"abd")


@cache
def real_records(backend):
    """One record of each Record type, on backend, taken from an evaluated round:
    a response and the parts it is made of, a credential's signature, and quality
    posts with and without a value proof."""
    world = World(ctx=context_for(backend))
    g = world.ctx.group
    task = world.announce()
    included = world.respond(task, [1, 1, 0])
    outcome = world.requester.evaluate(task, included, 1)
    response = ParsedResponse.decode(g, included[0][1])
    posts = [QualityPost.decode(g, post) for post in outcome.quality_posts[1:]]
    cert = world.workers[0].cred.cert
    return [response, response.fresh_pair, response.claim_ct, response.proof, cert, *posts]


class TestRecordCodec:
    @pytest.mark.parametrize("backend", ["tiny31", "curve254"])
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_hostile_encodings_raise_only_encoding_or_value_errors(self, backend, data):
        # screening, post_board and the audit catch exactly these two; "reframe"
        # cuts or grows one field inside an intact frame, so the field readers see it
        g = context_for(backend).group
        r = data.draw(st.sampled_from(real_records(backend)))
        raw = bytearray(r.encode(g))
        how = data.draw(st.sampled_from(["truncate", "extend", "flip", "reframe"]))
        if how == "truncate":
            del raw[data.draw(st.integers(0, len(raw) - 1)) :]
        elif how == "extend":
            raw += data.draw(st.binary(min_size=1, max_size=48))
        elif how == "flip":
            for _ in range(data.draw(st.integers(1, 4))):
                raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        else:
            parts = record_fields(bytes(raw), r.TAG, len(record_layout(type(r)).writers))
            i = data.draw(st.integers(0, len(parts) - 1))
            parts[i] = parts[i][: data.draw(st.integers(0, len(parts[i])))] + data.draw(st.binary(max_size=8))
            raw = record(r.TAG, *parts)
        try:
            type(r).decode(g, bytes(raw))
        except (EncodingError, ValueError):
            pass


class TestResponses:
    def test_bundle_round_trip_and_proof(self):
        world = World()
        task = world.announce()
        g = world.ctx.group
        bundle = world.workers[0].build_response(world.ra, task, 1, 7)
        parsed = ParsedResponse.decode(g, bundle, ref=42)
        assert parsed.ref == 42
        assert parsed.encode(g) == bundle
        assert parsed.tag == world.workers[0].current_tag()
        stmt = response_statement(
            world.ctx, task, parsed.fresh_pair, parsed.tag, parsed.answer_ct, parsed.address_ct
        )
        assert world.backend.verify(world.ctx, stmt, parsed.proof)
        # a round's quality posts, with a value proof (correct answers) and without
        outcome = world.requester.evaluate(task, world.respond(task, [1, 1, 0]), 1)
        posts = [QualityPost.decode(g, post) for post in outcome.quality_posts]
        assert [post.value_proof is not None for post in posts] == [True, True, False]
        assert [post.encode(g) for post in posts] == outcome.quality_posts

    def test_screen_accepts_honest_cast(self):
        world = World()
        task = world.announce()
        included = world.respond(task, [1, 1, 0])
        accepted, rejections = screen_responses(
            world.ctx, world.backend, task, included, set()
        )
        assert [p.ref for p in accepted] == [10, 11, 12]
        assert rejections == []

    def test_screen_rejects_malformed_and_forged(self):
        world = World()
        task = world.announce()
        included = world.respond(task, [1, 1, 0])
        ref, bundle = included[0]
        mangled = (ref, bundle[:-3])
        parsed = ParsedResponse.decode(world.ctx.group, bundle, ref=ref)
        bad_proof = replace(parsed.proof, attestation=bytes(32))
        forged = (
            included[1][0],
            replace(parsed, proof=bad_proof).encode(world.ctx.group),
        )
        accepted, rejections = screen_responses(
            world.ctx, world.backend, task, [mangled, forged, included[2]], set()
        )
        assert [p.ref for p in accepted] == [12]
        assert dict(rejections) == {10: REJECT_MALFORMED, 11: REJECT_PROOF}

    def test_screen_rejects_same_task_duplicate_tag(self):
        world = World(n_workers=1)
        task = world.announce()
        w = world.workers[0]
        first = w.build_response(world.ra, task, 1, 7)
        second = w.build_response(world.ra, task, 0, 8)  # same credential, same tag
        accepted, rejections = screen_responses(
            world.ctx, world.backend, task, [(10, first), (11, second)], set()
        )
        assert [p.ref for p in accepted] == [10]
        assert rejections == [(11, REJECT_DUP_TAG)]

    def test_screen_rejects_shared_answer_ciphertext(self):
        world = World(n_workers=2)
        task = world.announce()
        ctx, g = world.ctx, world.ctx.group
        # w0 and w1 collude: each builds honestly, then splices in one
        # shared answer box, encrypted here under randomness drawn here, and
        # re-proves over it with its own pair and a fresh address box
        rng = random.Random(5)
        answer_rand = g.random_scalar(rng)
        shared_ct = encrypt(g, task.requester_pk, ctx.answer_codec.forward(1), answer_rand)
        from anoncrowd.relations import ProveQualWitness

        def spliced(w, ref):
            honest = ParsedResponse.decode(g, w.build_response(world.ra, task, 1, ref), ref=ref)
            address, address_rand = w._pending.address, g.random_scalar(rng)
            address_ct = encrypt(g, task.requester_pk, ctx.address_codec.forward(address), address_rand)
            wit = ProveQualWitness(
                ident=w.ident,
                cert=w.cred.cert,
                alpha=w.cred.alpha,
                beta=w.cred.beta,
                leaf_blind=w.cred.opening,
                stored_pair=w.cred.pair,
                rerand=w._pending.rerand,
                answer=1,
                answer_rand=answer_rand,
                address=address,
                address_rand=address_rand,
                path=world.ra.tree.prove_membership(w.cred.position),
            )
            stmt = response_statement(ctx, task, honest.fresh_pair, honest.tag, shared_ct, address_ct)
            proof = world.backend.prove(ctx, stmt, wit, world.memo)
            return replace(honest, answer_ct=shared_ct, address_ct=address_ct, proof=proof).encode(g)

        w0, w1 = world.workers
        accepted, rejections = screen_responses(
            ctx, world.backend, task, [(10, spliced(w0, 10)), (11, spliced(w1, 11))], set()
        )
        assert [p.ref for p in accepted] == [10]
        assert rejections == [(11, REJECT_DUP_CT)]

    def test_screen_rejects_known_tag_as_stale(self):
        world = World(n_workers=1)
        task = world.announce()
        included = world.respond(task, [1])
        history = {world.workers[0].current_tag()}
        accepted, rejections = screen_responses(
            world.ctx, world.backend, task, included, history
        )
        assert accepted == []
        assert rejections == [(10, REJECT_STALE)]


class TestSettlement:
    def run_round(self, world, answers, min_workers=1, policy=None):
        task = world.announce(policy)
        included = world.respond(task, answers)
        outcome = world.requester.evaluate(task, included, min_workers)
        return task, included, outcome

    def test_majority_outcome_and_payments(self):
        world = World()
        task, included, outcome = self.run_round(world, [1, 1, 0])
        assert not outcome.void
        assert outcome.final.values == (1,)
        posts = [QualityPost.decode(world.ctx.group, post) for post in outcome.quality_posts]
        assert [post.value_proof is not None for post in posts] == [True, True, False]
        accounts = [payout_account(w._pending.address) for w in world.workers]
        assert outcome.payments == [
            (accounts[0], 100),
            (accounts[1], 100),
            (accounts[2], 10),
        ]

    def test_final_bundle_verifies_like_an_auditor(self):
        world = World()
        task, included, outcome = self.run_round(world, [1, 1, 0])
        final_cts, proof = decode_final_bundle(world.ctx, outcome.final_bundle, 1)
        stmt = AuthCalcStatement(
            params_digest=world.ctx.params_digest,
            policy=task.policy,
            requester_pk=task.requester_pk,
            answer_cts=tuple(p.answer_ct for p in outcome.accepted),
            final_cts=final_cts,
        )
        assert world.backend.verify(world.ctx, stmt, proof)

    def test_adoption_moves_quality_forward(self):
        world = World()
        task, included, outcome = self.run_round(world, [1, 1, 0])
        world.settle(task, outcome)
        board = post_board(world.ctx, outcome.quality_posts)
        for w in world.workers:
            assert w.adopt_update(world.ra, task, board, outcome.final_cts) is None
        assert (world.workers[0].cred.alpha, world.workers[0].cred.beta) == (5, 1)
        assert (world.workers[1].cred.alpha, world.workers[1].cred.beta) == (5, 1)
        assert (world.workers[2].cred.alpha, world.workers[2].cred.beta) == (4, 2)
        for w in world.workers:
            assert commit_pair(world.ctx.group, w.cred.alpha, w.cred.beta, w.cred.opening) == w.cred.pair
            assert world.ra.tree.position_of(w.cred.pair.encode(world.ctx.group)) == w.cred.position

    def test_second_round_runs_on_updated_credentials(self):
        # everyone answers with the majority so all three still qualify
        world = World()
        task1, _, outcome1 = self.run_round(world, [1, 1, 1])
        world.settle(task1, outcome1)
        board = post_board(world.ctx, outcome1.quality_posts)
        for w in world.workers:
            assert w.adopt_update(world.ra, task1, board, outcome1.final_cts) is None
        task2 = world.announce()
        included2 = world.respond(task2, [0, 0, 0], first_ref=50)
        outcome2 = world.requester.evaluate(task2, included2, 1)
        assert not outcome2.void
        assert outcome2.rejections == []
        assert outcome2.final.values == (0,)
        posts = [QualityPost.decode(world.ctx.group, post) for post in outcome2.quality_posts]
        assert [post.value_proof is not None for post in posts] == [True, True, True]

    def test_stale_credential_replay_is_caught_next_task(self):
        world = World()
        straggler = world.workers[2]
        old_cred = straggler.cred
        task1, _, outcome1 = self.run_round(world, [1, 1, 0])
        world.settle(task1, outcome1)
        board = post_board(world.ctx, outcome1.quality_posts)
        for w in world.workers:
            w.adopt_update(world.ra, task1, board, outcome1.final_cts)
        # replay the pre-update state: (4,2) would miss the threshold, so the
        # cheater prefers the stale (4,1); the old leaf is still in the tree
        straggler.cred = old_cred
        task2 = world.announce()
        bundle = straggler.build_response(world.ra, task2, 1, 60)
        accepted, rejections = screen_responses(
            world.ctx, world.backend, task2, [(60, bundle)], world.requester.seen_tags
        )
        assert accepted == []
        assert rejections == [(60, REJECT_STALE)]

    def test_void_round_posts_zero_increments(self):
        world = World()
        task, included, outcome = self.run_round(world, [1, 1, 0], min_workers=5)
        assert outcome.void
        assert outcome.final_bundle is None
        assert outcome.payments == []
        assert len(outcome.quality_posts) == 3
        world.settle(task, outcome)
        before = [(w.cred.alpha, w.cred.beta) for w in world.workers]
        pairs_before = [w.cred.pair for w in world.workers]
        board = post_board(world.ctx, outcome.quality_posts)
        for w in world.workers:
            assert w.adopt_update(world.ra, task, board, ()) is None
        assert [(w.cred.alpha, w.cred.beta) for w in world.workers] == before
        assert all(w.cred.pair != p for w, p in zip(world.workers, pairs_before))

    def test_voided_tags_cannot_be_replayed_either(self):
        world = World()
        task, included, outcome = self.run_round(world, [1, 1, 0], min_workers=5)
        task2 = world.announce()
        replay = included[0]
        accepted, rejections = screen_responses(
            world.ctx, world.backend, task2, [replay], world.requester.seen_tags
        )
        assert rejections == [(10, REJECT_STALE)]


class TestProtests:
    def deprived_round(self, victim=1):
        world = World()
        task = world.announce()
        included = world.respond(task, [1, 1, 0])
        tags_before = set(world.requester.seen_tags)
        outcome = world.requester.evaluate(task, included, 1)
        world.settle(task, outcome)
        kept = [p for i, p in enumerate(outcome.quality_posts) if i != victim]
        return world, task, included, outcome, kept, tags_before

    def test_deprived_worker_protests_and_wins(self):
        world, task, included, outcome, kept, tags_before = self.deprived_round()
        victim = world.workers[1]
        protest = victim.adopt_update(world.ra, task, post_board(world.ctx, kept), outcome.final_cts)
        assert isinstance(protest, Protest)
        assert protest.payout == payout_account(victim._pending.address)
        assert world.ra.arbitrate(
            protest, task, world.accepted(task, included, tags_before),
            post_board(world.ctx, kept), outcome.final_cts,
        )

    def test_served_worker_cannot_win_a_protest(self):
        world, task, included, outcome, kept, tags_before = self.deprived_round()
        served = world.workers[0]
        fake = served.adopt_update(world.ra, task, post_board(world.ctx, []), outcome.final_cts)
        assert isinstance(fake, Protest)  # no posts shown to the worker
        assert not world.ra.arbitrate(
            fake, task, world.accepted(task, included, tags_before),
            post_board(world.ctx, outcome.quality_posts), outcome.final_cts,
        )

    def test_wrong_claim_key_binding_fails(self):
        world, task, included, outcome, kept, tags_before = self.deprived_round()
        victim = world.workers[1]
        protest = victim.adopt_update(world.ra, task, post_board(world.ctx, kept), outcome.final_cts)
        lying = replace(protest, claim_key=(protest.claim_key + 1) % 2**16)
        assert not world.ra.arbitrate(
            lying, task, world.accepted(task, included, tags_before),
            post_board(world.ctx, kept), outcome.final_cts,
        )

    def test_claim_key_outside_the_codec_domain_loses(self):
        world, task, included, outcome, kept, tags_before = self.deprived_round()
        victim = world.workers[1]
        protest = victim.adopt_update(world.ra, task, post_board(world.ctx, kept), outcome.final_cts)
        # the key cannot even be encrypted, so nothing binds it to the response
        out_of_domain = replace(protest, claim_key=1 << 16)
        assert not world.ra.arbitrate(
            out_of_domain, task, world.accepted(task, included, tags_before),
            post_board(world.ctx, kept), outcome.final_cts,
        )

    def test_rejected_response_earns_no_arbitration(self):
        world = World()
        task = world.announce()
        included = world.respond(task, [1, 1, 0])
        tags_before = set(world.requester.seen_tags)
        outcome = world.requester.evaluate(task, included, 1)
        # a replayed duplicate of w0 lands after the original and is screened
        # out, so a protest under the duplicate's reference goes nowhere even
        # with the genuine claim secrets
        dup = (99, included[0][1])
        w0 = world.workers[0]
        protest = Protest(99, w0._pending.claim_key, w0._pending.claim_rand, "addr:0")
        assert not world.ra.arbitrate(
            protest, task, world.accepted(task, included + [dup], tags_before),
            post_board(world.ctx, outcome.quality_posts), outcome.final_cts,
        )

    def test_misaddressed_post_is_deprivation(self):
        world, task, included, outcome, kept, tags_before = self.deprived_round(victim=1)
        victim = world.workers[1]
        post = QualityPost.decode(world.ctx.group, outcome.quality_posts[1])
        wrong = replace(post, claim_index=bytes(32))
        doctored = kept + [wrong.encode(world.ctx.group)]
        protest = victim.adopt_update(world.ra, task, post_board(world.ctx, doctored), outcome.final_cts)
        assert isinstance(protest, Protest)
        assert world.ra.arbitrate(
            protest, task, world.accepted(task, included, tags_before),
            post_board(world.ctx, doctored), outcome.final_cts,
        )

    def test_garbled_blinding_is_deprivation(self):
        world, task, included, outcome, kept, tags_before = self.deprived_round(victim=1)
        victim = world.workers[1]
        post = QualityPost.decode(world.ctx.group, outcome.quality_posts[1])
        spoiled = replace(
            post, blinded_update=replace(post.blinded_update, alpha=post.blinded_update.alpha + 1)
        )
        doctored = kept + [spoiled.encode(world.ctx.group)]
        protest = victim.adopt_update(world.ra, task, post_board(world.ctx, doctored), outcome.final_cts)
        assert isinstance(protest, Protest)
        assert world.ra.arbitrate(
            protest, task, world.accepted(task, included, tags_before),
            post_board(world.ctx, doctored), outcome.final_cts,
        )

    POST_CASES = (
        "honest", "missing", "misaddressed", "garbled-blinding", "wrong-increment", "never-accumulated",
        "garbled-then-honest", "unattested", "undecodable-then-honest",
    )

    @pytest.mark.parametrize("victim", [1, 2])  # a correct answer, an incorrect one
    @pytest.mark.parametrize("case", POST_CASES)
    def test_worker_and_authority_agree_on_every_post(self, case, victim):
        # whatever posts the worker is shown, it walks away with a
        # protest exactly when the authority upholds that protest
        world = World()
        ctx, g = world.ctx, world.ctx.group
        task = world.announce()
        included = world.respond(task, [1, 1, 0])
        tags_before = set(world.requester.seen_tags)
        outcome = world.requester.evaluate(task, included, 1)
        worker, target = world.workers[victim], outcome.accepted[victim]
        own = QualityPost.decode(g, outcome.quality_posts[victim])
        posts = [p for i, p in enumerate(outcome.quality_posts) if i != victim]
        leaves = [leaf for i, leaf in enumerate(outcome.leaves) if i != victim]
        p = worker._pending
        update_pads, cover_pads = claim_pads(ctx, p.ref, p.claim_key)
        if case in ("honest", "never-accumulated"):
            posts.append(outcome.quality_posts[victim])
        elif case == "misaddressed":
            posts.append(replace(own, claim_index=bytes(32)).encode(g))
        elif case in ("garbled-blinding", "garbled-then-honest"):
            garbled = replace(own.blinded_update, alpha=own.blinded_update.alpha + 1)
            posts.append(replace(own, blinded_update=garbled).encode(g))
            if case == "garbled-then-honest":
                posts.append(outcome.quality_posts[victim])
        elif case == "undecodable-then-honest":
            # a truncated payload the board drops, ahead of the honest post
            posts += [outcome.quality_posts[victim][:-3], outcome.quality_posts[victim]]
        elif case == "unattested":
            # a serving post carrying the attestation of worker 0's post
            other = QualityPost.decode(g, outcome.quality_posts[0])
            posts.append(replace(own, qual_proof=other.qual_proof).encode(g))
        elif case == "wrong-increment":
            # (1, 1) is no admissible increment; its attestation is minted
            # outside prove(), as a cheating prover would have to
            new_pair = pair_step(g, target.fresh_pair, (1, 1), own.blinded_update - update_pads)
            stmt = quality_statement(ctx, task, target, outcome.final_cts, new_pair)
            minted = replace(own, new_pair=new_pair, qual_proof=world.backend._proof(ctx, stmt))
            posts.append(minted.encode(g))
            leaves.append(pair_rerandomize(g, new_pair, own.blinded_dummy - cover_pads).encode(g))
        if case in ("honest", "garbled-then-honest", "unattested", "undecodable-then-honest"):
            leaves.append(outcome.leaves[victim])
        for leaf in leaves:
            world.ra.tree.append(leaf)

        protest = Protest(p.ref, p.claim_key, p.claim_rand, payout_account(p.address))
        accepted = world.accepted(task, included, tags_before)
        adopted = worker.adopt_update(world.ra, task, post_board(ctx, posts), outcome.final_cts) is None
        upheld = world.ra.arbitrate(protest, task, accepted, post_board(ctx, posts), outcome.final_cts)
        assert adopted != upheld
        tree = world.rebuilt_registry(leaves)
        board = post_board(ctx, posts)
        args = (ctx, world.backend, world.memo, task, target, p.claim_key, board, outcome.final_cts, tree)
        assert (serving_post(*args) is None) == upheld
        assert adopted == (case in ("honest", "garbled-then-honest", "undecodable-then-honest"))

    def test_garbled_claim_ciphertext_is_workers_own_loss(self):
        world = World(n_workers=2)
        task = world.announce()
        g = world.ctx.group
        w0, w1 = world.workers
        b0 = w0.build_response(world.ra, task, 1, 10)
        w0.mark_submitted(10)
        b1 = w1.build_response(world.ra, task, 1, 11)
        w1.mark_submitted(11)
        p1 = ParsedResponse.decode(world.ctx.group, b1, ref=11)
        junk = encrypt(g, task.requester_pk, g.hash_to_element(b"junk"), g.random_scalar(random.Random(5)))
        sabotaged = replace(p1, claim_ct=junk).encode(g)
        tags_before = set(world.requester.seen_tags)
        included = [(10, b0), (11, sabotaged)]
        outcome = world.requester.evaluate(task, included, 1)
        assert not outcome.void
        assert len(outcome.quality_posts) == 2  # update still posted, unaddressed
        unaddressed = QualityPost.decode(world.ctx.group, outcome.quality_posts[1])
        assert unaddressed.claim_index == bytes(32)
        board = post_board(world.ctx, outcome.quality_posts)
        protest = w1.adopt_update(world.ra, task, board, outcome.final_cts)
        assert isinstance(protest, Protest)
        # arbitration checks the claim key against the on-chain ciphertext,
        # which the worker themselves garbled
        assert not world.ra.arbitrate(
            protest, task, world.accepted(task, included, tags_before), board, outcome.final_cts
        )


def pair_step_search(ctx, backend, task, target, claim_key, board, final_cts, tree):
    """The serving search written from its definition, for serving_post to
    match, with no memo, no pair_step and no verdict read off the value
    proof: a post serves when the old pair plus a commitment to an admissible
    increment under the unpadded update blinding is the posted pair, and that
    pair rerandomized by the unpadded cover term is a leaf of tree."""
    g = ctx.group
    update_pads, cover_pads = claim_pads(ctx, target.ref, claim_key)
    increments = [quality_increment(v) for v in ((None,) if len(final_cts) == 0 else (True, False))]
    for post in board.get((target.ref, claim_index(target.ref, claim_key)), ()):
        stmt = quality_statement(ctx, task, target, final_cts, post.new_pair)
        if not backend.verify(ctx, stmt, post.qual_proof):
            continue
        update, dummy = post.blinded_update - update_pads, post.blinded_dummy - cover_pads
        for increment in increments:
            if pair_add(g, target.fresh_pair, commit_pair(g, *increment, update)) == post.new_pair:
                leaf = pair_rerandomize(g, post.new_pair, dummy)
                position = tree.position_of(leaf.encode(g))
                if position is not None:
                    return increment, update + dummy, leaf, position
    return None


CONTEXTS = {"tiny31": tiny_context, "curve254": production_context}


class TestServingDifferenceCheck:
    @pytest.mark.parametrize("backend", sorted(CONTEXTS))
    def test_matches_the_pair_step_search(self, backend):
        ctx = CONTEXTS[backend]()
        g = ctx.group
        # min_workers 1 settles a correct (worker 0) and an incorrect
        # (worker 2) post; min_workers 4 voids the round
        for min_workers, want in ((1, {0: (1, 0), 2: (0, 1)}), (4, {0: (0, 0), 2: (0, 0)})):
            world = World(ctx=ctx)
            task = world.announce()
            included = world.respond(task, [1, 1, 0])
            outcome = world.requester.evaluate(task, included, min_workers)
            assert outcome.void == (min_workers == 4)
            world.settle(task, outcome)
            tree = world.rebuilt_registry(outcome.leaves)
            board = post_board(ctx, outcome.quality_posts)
            for i, increment in want.items():
                w = world.workers[i]
                p, before = w._pending, w.cred
                args = (task, p, p.claim_key, board, outcome.final_cts, tree)
                served = serving_post(ctx, world.backend, world.memo, *args)
                assert served is not None and served[0] == increment
                assert served == pair_step_search(ctx, world.backend, *args)

                # the update pad off by one, and the inadmissible increment
                # (1, 1) behind a minted attestation with its leaf accumulated
                own = QualityPost.decode(g, outcome.quality_posts[i])
                update_pads, cover_pads = claim_pads(ctx, p.ref, p.claim_key)
                off = replace(own, blinded_update=replace(own.blinded_update, alpha=own.blinded_update.alpha + 1))
                new_pair = pair_step(g, p.fresh_pair, (1, 1), own.blinded_update - update_pads)
                stmt = quality_statement(ctx, task, p, outcome.final_cts, new_pair)
                minted = replace(own, new_pair=new_pair, qual_proof=world.backend._proof(ctx, stmt))
                tree.append(pair_rerandomize(g, new_pair, own.blinded_dummy - cover_pads).encode(g))
                for bad in (off, minted):
                    args = (task, p, p.claim_key, post_board(ctx, [bad.encode(g)]), outcome.final_cts, tree)
                    assert serving_post(ctx, world.backend, world.memo, *args) is None
                    assert pair_step_search(ctx, world.backend, *args) is None

                # the worker, searching the authority's registry, adopts what
                # the search over the rebuilt one found
                assert w.adopt_update(world.ra, task, board, outcome.final_cts) is None
                (da, db), blinding, leaf, position = served
                assert (w.cred.alpha, w.cred.beta) == (before.alpha + da, before.beta + db)
                assert (w.cred.opening, w.cred.pair, w.cred.position) == (
                    before.opening + p.rerand + blinding, leaf, position
                )

    def test_settlement_repeats_no_fixed_base_work(self, monkeypatch):
        # the checker reads the requester's pair_step from the memo, and
        # serving_post reads both the step and the covered leaf from it
        ctx = production_context()
        world = World(ctx=ctx)
        task = world.announce()
        included = world.respond(task, [1, 1, 0])
        outcome = world.requester.evaluate(task, included, 1)
        world.settle(task, outcome)
        p, target = world.workers[0]._pending, outcome.accepted[0]
        post = QualityPost.decode(ctx.group, outcome.quality_posts[0])
        update = post.blinded_update - claim_pads(ctx, p.ref, p.claim_key)[0]
        witness = AuthQualWitness(world.requester.keypair.sk, update)
        stmt = quality_statement(ctx, task, target, outcome.final_cts, post.new_pair)
        board = post_board(ctx, outcome.quality_posts)

        bases = Counter()
        real = _FixedBaseTable.accumulate

        def counted(table, k, acc):
            bases[table.base] += 1
            return real(table, k, acc)

        monkeypatch.setattr(_FixedBaseTable, "accumulate", counted)
        assert check_auth_qual(ctx, stmt, witness, world.memo)
        assert sum(bases.values()) == 0
        args = (ctx, world.backend, world.memo, task, p, p.claim_key, board, outcome.final_cts, world.ra.tree)
        assert serving_post(*args) is not None
        assert sum(bases.values()) == 0, bases

    @pytest.mark.parametrize("backend", sorted(CONTEXTS))
    def test_an_honest_post_serves_from_the_memo_alone(self, backend, monkeypatch):
        # the requester's step and leaf sit in the memo, so neither the worker's
        # nor the authority's search for a correct (worker 0), an incorrect
        # (worker 2) or a voided (min_workers 4) post adds an entry or multiplies
        ctx = CONTEXTS[backend]()
        g = ctx.group
        for min_workers in (1, 4):
            world = World(ctx=ctx)
            task = world.announce()
            outcome = world.requester.evaluate(task, world.respond(task, [1, 1, 0]), min_workers)
            world.settle(task, outcome)
            board = post_board(ctx, outcome.quality_posts)
            entries = len(world.memo)
            with monkeypatch.context() as m:
                m.setattr(type(g), "lincomb", lambda *args: pytest.fail("serving multiplied"))
                for i in (0, 2):
                    p = world.workers[i]._pending
                    for target in (p, outcome.accepted[i]):
                        args = (task, target, p.claim_key, board, outcome.final_cts, world.ra.tree)
                        assert serving_post(ctx, world.backend, world.memo, *args) is not None, (min_workers, i)
                        assert len(world.memo) == entries, (min_workers, i)


class TestMemoSoundness:
    """The checkers read commit_pair, pair_rerandomize and pair_step from the
    memo that enrollment, the response and the quality post filled. A
    witness that differs from the honest one in any argument misses those
    entries, is computed for real, and prove refuses it."""

    def test_witnesses_off_the_honest_ones_are_refused(self, monkeypatch):
        world = World()
        g, backend, memo = world.ctx.group, world.backend, world.memo
        proved = []
        real_prove = backend.prove

        def recording(ctx, stmt, wit, memo):
            proof = real_prove(ctx, stmt, wit, memo)
            proved.append((stmt, wit, proof))
            return proof

        monkeypatch.setattr(backend, "prove", recording)
        task = world.announce()
        world.requester.evaluate(task, world.respond(task, [1, 1, 0]), 1)
        response = next(entry for entry in proved if isinstance(entry[1], ProveQualWitness))
        post = next(entry for entry in proved if isinstance(entry[1], AuthQualWitness))
        for stmt, wit, proof in (response, post):
            assert real_prove(world.ctx, stmt, wit, memo) == proof

        def swapped(blind):
            return BlindingPair(blind.beta, blind.alpha)

        other = random_blinding_pair(g, random.Random(3))
        stmt, wit, _ = response
        bad = [(stmt, replace(wit, leaf_blind=b)) for b in (other, swapped(wit.leaf_blind))]
        bad += [(stmt, replace(wit, rerand=b)) for b in (other, swapped(wit.rerand))]
        stmt, wit, _ = post
        bad += [(stmt, replace(wit, update_blind=b)) for b in (other, swapped(wit.update_blind))]
        # worker 0 was correct: a pair stepped by (0, 1), even one the memo
        # holds, is not the step the checker takes
        assert quality_increment(True) == (1, 0)
        wrong = memo(pair_step, g, stmt.old_pair, (0, 1), wit.update_blind)
        bad.append((replace(stmt, new_pair=wrong), wit))
        for stmt, wit in bad:
            with pytest.raises(RelationUnsatisfiedError):
                real_prove(world.ctx, stmt, wit, memo)


class TestWorkerBookkeeping:
    def test_adopt_requires_a_submitted_response(self):
        world = World(n_workers=1)
        task = world.announce()
        with pytest.raises(ProtocolError):
            world.workers[0].adopt_update(world.ra, task, post_board(world.ctx, []), ())
        world.workers[0].build_response(world.ra, task, 1, 7)
        with pytest.raises(ProtocolError):  # built but never marked submitted
            world.workers[0].adopt_update(world.ra, task, post_board(world.ctx, []), ())

    def test_claim_index_depends_on_ref_and_key(self):
        a = claim_index(1, 7)
        assert a == claim_index(1, 7)
        assert a != claim_index(2, 7)
        assert a != claim_index(1, 8)

    def test_answer_domain_enforced_locally(self):
        world = World(n_workers=1)
        task = world.announce()
        with pytest.raises(ValueError):
            world.workers[0].build_response(world.ra, task, 2, 7)
