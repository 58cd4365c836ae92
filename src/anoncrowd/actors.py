"""Protocol parties: registration authority, workers, requesters.

The three agent classes speak in bytes. Responses, final-answer posts and
per-worker quality posts are canonical records that travel as ledger
payloads, so an auditor can replay every decision from a transaction log
and the registry tree alone. A response (ParsedResponse) and a quality post
(QualityPost) are Records of the primitives' codec, declared once as
dataclasses; the final-answer bundle, a bare ciphertext list whose count
the policy gives, keeps its own pair of functions. Nothing in here touches
the chain directly; the harness shuttles the bytes.

The claim channel works like this: each response carries an encrypted
claim key. The requester addresses the matching quality post with an index
derived from that key and pads the update blinding with scalars derived
from it, so only the submitting worker can recognize the post and strip
the pads. The claim ciphertext is the one response field outside the
proven relation; a worker who garbles it forfeits the claim (the update is
posted but unclaimable) and nothing else.

Workers never learn their correctness verdict directly. Worker and authority
find a response's post by one search, the module function serving_post, over
public data alone: the board post_board decodes once per round from the posts
on chain, and the registry tree, which indexes its own leaves. The search takes
the first addressed post whose attestation verifies and which serves, which
also checks that the requester blinded honestly. A worker adopts from it or
protests; given its own screening, the authority upholds a bound protest
exactly when the search finds nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from .context import CryptoContext
from .encoding import enc_u32, enc_u64, record, record_fields
from .errors import (
    DomainError,
    DuplicateIdentifierError,
    EncodingError,
    ProtocolError,
    ThresholdError,
)
from .group import GroupElement, Scalar
from .merkle import MerkleTree
from .policy import (
    FinalAnswer,
    QualityState,
    TaskPolicy,
    ans_calc,
    clears_threshold,
    is_correct,
    paym_calc,
    quality_increment,
)
from .primitives import (
    BlindingPair,
    Ciphertext,
    CommitmentPair,
    KeyPair,
    Record,
    Signature,
    commit_pair,
    decode_ciphertexts,
    decrypt_message,
    encode_ciphertexts,
    encrypt_message,
    hash_bytes,
    hash_to_scalar,
    keygen,
    pair_rerandomize,
    pair_step,
    quality_tag,
    random_blinding_pair,
    sign,
)
from .relations import (
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
    ProveQualWitness,
    ident_message,
)

_DST_IDENT = b"anoncrowd/v1/ident-derive"
_DST_CLAIM_INDEX = b"anoncrowd/v1/claim-index"
_DST_CLAIM_PAD = b"anoncrowd/v1/claim-pad"

# screening verdicts, in the order the filters run
REJECT_MALFORMED = "malformed-bundle"
REJECT_PROOF = "invalid-proof"
REJECT_STALE = "stale-tag"
REJECT_DUP_TAG = "duplicate-tag"
REJECT_DUP_CT = "duplicate-answer-ct"


def derive_ident(ctx: CryptoContext, secret: bytes) -> Scalar:
    """Enrollment identifier derived from a long-term worker secret."""
    return hash_to_scalar(ctx.group, _DST_IDENT + secret)


def claim_index(ref: int, claim_key: int) -> bytes:
    return hash_bytes(_DST_CLAIM_INDEX + enc_u32(ref) + enc_u64(claim_key))


def claim_pads(ctx: CryptoContext, ref: int, claim_key: int) -> tuple[BlindingPair, BlindingPair]:
    """Pads for the update blinding and, independently, for the cover term."""
    base = _DST_CLAIM_PAD + enc_u32(ref) + enc_u64(claim_key)
    s = [hash_to_scalar(ctx.group, base + bytes([i])) for i in range(4)]
    return BlindingPair(s[0], s[1]), BlindingPair(s[2], s[3])


def quorate(accepted: list, min_workers: int) -> bool:
    """The quorum rule of the requester and the log audit: fewer accepted than min_workers voids."""
    return len(accepted) >= min_workers


def payout_account(address: int) -> str:
    """Ledger account name for a payout-registry index."""
    return f"addr:{address:08x}"


# ── wire bundles ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ParsedResponse(Record):
    """A response payload; ref, off the wire, is its ledger record index
    once it is on chain."""

    TAG = "response"

    fresh_pair: CommitmentPair
    tag: bytes
    answer_ct: Ciphertext
    address_ct: Ciphertext
    claim_ct: Ciphertext
    proof: Proof
    ref: int | None = field(default=None, kw_only=True)


def encode_final_bundle(ctx: CryptoContext, final_cts: tuple[Ciphertext, ...], proof: Proof) -> bytes:
    g = ctx.group
    return record("final-answer", encode_ciphertexts(g, final_cts), proof.encode(g))


def decode_final_bundle(ctx: CryptoContext, data: bytes, count: int) -> tuple[tuple[Ciphertext, ...], Proof]:
    body, proof = record_fields(data, "final-answer", 2)
    return decode_ciphertexts(ctx.group, body, count), Proof.decode(ctx.group, proof)


@dataclass(frozen=True)
class QualityPost(Record):
    """One worker's quality update, addressed through the claim channel.

    The posted pair excludes the cover term the accumulator folds into the
    registry leaf; the worker recovers that term from blinded_dummy and
    reconstructs the leaf locally, so the two never match byte for byte."""

    TAG = "quality-post"

    response_ref: int
    claim_index: bytes
    blinded_update: BlindingPair  # update blinding plus claim-key pads
    blinded_dummy: BlindingPair  # cover-term blinding plus its own pads
    new_pair: CommitmentPair
    qual_proof: Proof
    value_proof: Proof | None  # present exactly when the answer was correct


def post_board(ctx: CryptoContext, payloads: list[bytes]) -> dict[tuple[int, bytes], list[QualityPost]]:
    """A round's quality posts decoded once, keyed by (response_ref, claim_index), each
    list in posting order; a payload that does not decode addresses nobody and is dropped."""
    board: dict[tuple[int, bytes], list[QualityPost]] = {}
    for payload in payloads:
        try:
            post = QualityPost.decode(ctx.group, payload)
        except (EncodingError, ValueError):
            continue
        board.setdefault((post.response_ref, post.claim_index), []).append(post)
    return board


@dataclass(frozen=True)
class Protest:
    """Evidence a worker hands the authority over an anonymous channel.

    The claim randomness lets the authority re-encrypt the claim key and
    match it byte for byte against the on-chain response, binding the
    protest to one response without trusting either side's word."""

    response_ref: int
    claim_key: int
    claim_rand: Scalar
    payout: str


# ── task announcement and screening ──────────────────────────────────────────


@dataclass(frozen=True)
class TaskPublic:
    """What every party sees when a task opens."""

    policy: TaskPolicy
    requester_pk: GroupElement
    ra_pk: GroupElement
    tree_root: bytes


def response_statement(
    ctx: CryptoContext,
    task: TaskPublic,
    fresh_pair: CommitmentPair,
    tag: bytes,
    answer_ct: Ciphertext,
    address_ct: Ciphertext,
) -> ProveQualStatement:
    """What a response is proven against: the worker proves it, and
    screening verifies the proof, over this one statement."""
    return ProveQualStatement(
        params_digest=ctx.params_digest,
        policy=task.policy,
        ra_pk=task.ra_pk,
        requester_pk=task.requester_pk,
        tree_root=task.tree_root,
        fresh_pair=fresh_pair,
        quality_tag=tag,
        answer_ct=answer_ct,
        address_ct=address_ct,
    )


def calc_statement(
    ctx: CryptoContext, task: TaskPublic, accepted: list[ParsedResponse], final_cts: tuple[Ciphertext, ...]
) -> AuthCalcStatement:
    """What the final answer over the accepted responses is proven against."""
    return AuthCalcStatement(
        params_digest=ctx.params_digest,
        policy=task.policy,
        requester_pk=task.requester_pk,
        answer_cts=tuple(p.answer_ct for p in accepted),
        final_cts=final_cts,
    )


def quality_statement(
    ctx: CryptoContext,
    task: TaskPublic,
    target: ParsedResponse | _PendingResponse,
    final_cts: tuple[Ciphertext, ...],
    new_pair: CommitmentPair,
) -> AuthQualStatement:
    """What the quality post moving target's pair to new_pair is proven against."""
    return AuthQualStatement(
        params_digest=ctx.params_digest,
        policy=task.policy,
        requester_pk=task.requester_pk,
        worker_ct=target.answer_ct,
        final_cts=final_cts,
        old_pair=target.fresh_pair,
        new_pair=new_pair,
    )


def value_statement(
    ctx: CryptoContext, task: TaskPublic, target: ParsedResponse, final_cts: tuple[Ciphertext, ...]
) -> AuthValueStatement:
    """What the claim that target's answer is correct is proven against."""
    return AuthValueStatement(
        params_digest=ctx.params_digest,
        policy=task.policy,
        requester_pk=task.requester_pk,
        worker_ct=target.answer_ct,
        final_cts=final_cts,
    )


def screen_responses(
    ctx: CryptoContext,
    backend: ProofBackend,
    task: TaskPublic,
    included: list[tuple[int, bytes]],
    known_tags: frozenset[bytes] | set[bytes],
) -> tuple[list[ParsedResponse], list[tuple[int, str]]]:
    """The response filter, one pass in inclusion order, each response judged in
    fixed verdict order: malformed, failing proof, tag seen in an earlier task,
    then a duplicate tag or answer ciphertext of an earlier accepted response.

    Deterministic given the same inputs; the requester, the authority and
    the log auditor all run this same function.
    """
    rejections: list[tuple[int, str]] = []
    accepted: list[ParsedResponse] = []
    seen_tags: set[bytes] = set()
    seen_cts: set[bytes] = set()
    for ref, payload in included:
        try:
            parsed = ParsedResponse.decode(ctx.group, payload, ref=ref)
        except (EncodingError, ValueError):
            rejections.append((ref, REJECT_MALFORMED))
            continue
        stmt = response_statement(ctx, task, parsed.fresh_pair, parsed.tag, parsed.answer_ct, parsed.address_ct)
        if not backend.verify(ctx, stmt, parsed.proof):
            rejections.append((ref, REJECT_PROOF))
        elif parsed.tag in known_tags:
            rejections.append((ref, REJECT_STALE))
        elif parsed.tag in seen_tags:
            rejections.append((ref, REJECT_DUP_TAG))
        elif (ct_bytes := parsed.answer_ct.encode(ctx.group)) in seen_cts:
            rejections.append((ref, REJECT_DUP_CT))
        else:
            seen_tags.add(parsed.tag)
            seen_cts.add(ct_bytes)
            accepted.append(parsed)
    rejections.sort()
    return accepted, rejections


def serving_post(
    ctx: CryptoContext,
    backend: ProofBackend,
    memo: Memo,
    task: TaskPublic,
    target: ParsedResponse | _PendingResponse,
    claim_key: int,
    board: dict[tuple[int, bytes], list[QualityPost]],
    final_cts: tuple[Ciphertext, ...],
    tree: MerkleTree,
) -> tuple[tuple[int, int], BlindingPair, CommitmentPair, int] | None:
    """The first board post addressed to (target.ref, claim_key), in posting order, whose
    quality attestation verifies and which serves: pair_step takes target.fresh_pair by an
    admissible increment (first the verdict its value proof claims) under the unpadded
    update blinding to the posted pair, and the pair rerandomized by the unpadded cover term
    is a leaf of tree. Returns (increment, blinding the leaf adds, leaf, position) or None."""
    g = ctx.group
    update_pads, cover_pads = claim_pads(ctx, target.ref, claim_key)
    # a voided task (no final ciphertexts) admits only the void increment;
    # binding commitments let at most one increment reach the posted pair
    increments = [quality_increment(v) for v in ((None,) if len(final_cts) == 0 else (True, False))]
    for post in board.get((target.ref, claim_index(target.ref, claim_key)), ()):
        stmt = quality_statement(ctx, task, target, final_cts, post.new_pair)
        if not backend.verify(ctx, stmt, post.qual_proof):
            continue
        update, dummy = post.blinded_update - update_pads, post.blinded_dummy - cover_pads
        for increment in increments if post.value_proof is not None else increments[::-1]:
            if memo(pair_step, g, target.fresh_pair, increment, update) == post.new_pair:
                leaf = memo(pair_rerandomize, g, post.new_pair, dummy)
                position = tree.position_of(leaf.encode(g))
                if position is not None:
                    return increment, update + dummy, leaf, position
    return None


# ── registration authority ───────────────────────────────────────────────────


@dataclass(frozen=True)
class Credential:
    """What a worker walks away from enrollment with: a certificate over
    the identifier, the counts (alpha, beta) and the accumulated leaf pair.

    opening is the blinding under which pair commits to (alpha, beta).
    Each adoption moves it by the response's re-randomization, the
    unpadded update blinding and the new leaf's cover term."""

    cert: Signature
    alpha: int
    beta: int
    opening: BlindingPair
    pair: CommitmentPair
    position: int


class RegistrationAuthority:
    """Certifies identities at enrollment and arbitrates protests.

    tree is the public registry: every enrollment and every settled update lands in
    it as an opaque commitment-pair payload (the posted pair with a cover term
    folded in, so leaves never repeat on-chain bytes), and the tree indexes its own
    leaves, so workers locate theirs by recomputing it. The authority cannot tell
    whose any accumulated pair is after the enrollment handshake. arbitrate upholds
    a bound protest when the module's serving_post finds no post for it."""

    def __init__(
        self,
        ctx: CryptoContext,
        backend: ProofBackend,
        memo: Memo,
        rng: random.Random,
        prior: tuple[int, int] = (1, 1),
    ):
        if prior[0] < 1 or prior[1] < 1:
            raise ValueError("the starting state needs at least one of each observation")
        self.ctx = ctx
        self.backend = backend
        self.memo = memo
        self.rng = rng
        self.prior = prior
        self.keypair: KeyPair = keygen(ctx.group, rng)
        self.tree = MerkleTree()
        self._enrolled: set[bytes] = set()

    @property
    def pk(self) -> GroupElement:
        return self.keypair.pk

    def enroll(self, ident: Scalar) -> Credential:
        g = self.ctx.group
        key = g.encode_scalar(ident)
        if key in self._enrolled:
            raise DuplicateIdentifierError("identifier is already enrolled")
        self._enrolled.add(key)
        alpha, beta = self.prior
        # a starting pair blinding plus a cover term, as an adopted leaf has
        opening = random_blinding_pair(g, self.rng) + random_blinding_pair(g, self.rng)
        pair = self.memo(commit_pair, g, alpha, beta, opening)
        position = self.tree.append(pair.encode(g))
        cert = sign(g, self.keypair.sk, ident_message(self.ctx, ident))
        return Credential(cert, alpha, beta, opening, pair, position)

    def arbitrate(
        self,
        protest: Protest,
        task: TaskPublic,
        accepted: list[ParsedResponse],
        board: dict[tuple[int, bytes], list[QualityPost]],
        final_cts: tuple[Ciphertext, ...],
    ) -> bool:
        """True when the protest is upheld: the response is among accepted,
        the authority's own screening of the round, the claim key is bound to
        it, and serving_post finds no post for it."""
        ctx, g = self.ctx, self.ctx.group
        target = next((p for p in accepted if p.ref == protest.response_ref), None)
        if target is None:
            return False  # never accepted, nothing was owed

        try:
            bound_ct = encrypt_message(
                g, task.requester_pk, ctx.claim_codec, protest.claim_key, protest.claim_rand
            )
        except DomainError:
            return False
        if bound_ct != target.claim_ct:
            return False  # claim key does not match the on-chain response
        return serving_post(ctx, self.backend, self.memo, task, target, protest.claim_key, board, final_cts, self.tree) is None


# ── worker ───────────────────────────────────────────────────────────────────


@dataclass
class _PendingResponse:
    ref: int | None
    rerand: BlindingPair
    fresh_pair: CommitmentPair  # the re-randomized pair the response proves over
    answer_ct: Ciphertext  # with fresh_pair, what the quality statement covers
    address: int
    claim_key: int
    claim_rand: Scalar


class WorkerAgent:
    """One enrolled worker: quality state, response building, claim logic."""

    def __init__(self, ctx: CryptoContext, backend: ProofBackend, memo: Memo, name: str, secret: bytes, rng: random.Random):
        self.ctx = ctx
        self.backend = backend
        self.memo = memo
        self.name = name
        self.rng = rng
        self.ident: Scalar = derive_ident(ctx, secret)
        self.cred: Credential | None = None
        self._pending: _PendingResponse | None = None

    # enrolled state shorthands
    @property
    def quality(self) -> QualityState:
        self._require_enrolled()
        return QualityState(self.cred.alpha, self.cred.beta)

    def _require_enrolled(self) -> None:
        if self.cred is None:
            raise ProtocolError(f"worker {self.name} is not enrolled")

    def enroll(self, ra: RegistrationAuthority) -> None:
        self.cred = ra.enroll(self.ident)

    def qualifies(self, policy: TaskPolicy) -> bool:
        return clears_threshold(self.quality, policy)

    def current_tag(self) -> bytes:
        self._require_enrolled()
        return quality_tag(self.ctx.group, self.cred.pair, self.ident)

    def build_response(
        self,
        ra: RegistrationAuthority,
        task: TaskPublic,
        answer: int,
        address: int,
    ) -> bytes:
        """Builds the response payload and remembers the secrets needed to
        claim the eventual quality post. The reference is attached by
        mark_submitted once the transaction index is known."""
        self._require_enrolled()
        ctx, g, rng = self.ctx, self.ctx.group, self.rng
        if not self.qualifies(task.policy):
            raise ThresholdError(f"worker {self.name} does not clear the task threshold")
        if not (0 <= answer < task.policy.domain_size):
            raise ValueError("answer outside the task domain")

        rerand = random_blinding_pair(g, rng)
        answer_rand = g.random_scalar(rng)
        address_rand = g.random_scalar(rng)
        pending = _PendingResponse(
            ref=None,
            rerand=rerand,
            fresh_pair=self.memo(pair_rerandomize, g, self.cred.pair, rerand),
            answer_ct=self.memo(encrypt_message, g, task.requester_pk, ctx.answer_codec, answer, answer_rand),
            address=address,
            claim_key=rng.randrange(ctx.claim_codec.domain_size),
            claim_rand=g.random_scalar(rng),
        )
        stmt = response_statement(
            ctx,
            task,
            pending.fresh_pair,
            self.current_tag(),
            pending.answer_ct,
            self.memo(encrypt_message, g, task.requester_pk, ctx.address_codec, address, address_rand),
        )
        witness = ProveQualWitness(
            ident=self.ident,
            cert=self.cred.cert,
            alpha=self.cred.alpha,
            beta=self.cred.beta,
            leaf_blind=self.cred.opening,
            stored_pair=self.cred.pair,
            rerand=pending.rerand,
            answer=answer,
            answer_rand=answer_rand,
            address=address,
            address_rand=address_rand,
            path=ra.tree.prove_membership(self.cred.position),
        )
        proof = self.backend.prove(ctx, stmt, witness, self.memo)
        claim_ct = encrypt_message(
            g, task.requester_pk, ctx.claim_codec, pending.claim_key, pending.claim_rand
        )
        self._pending = pending
        response = ParsedResponse(stmt.fresh_pair, stmt.quality_tag, stmt.answer_ct, stmt.address_ct, claim_ct, proof)
        return response.encode(g)

    def mark_submitted(self, ref: int) -> None:
        if self._pending is None:
            raise ProtocolError("no response awaiting a reference")
        self._pending = replace(self._pending, ref=ref)

    def adopt_update(
        self,
        ra: RegistrationAuthority,
        task: TaskPublic,
        board: dict[tuple[int, bytes], list[QualityPost]],
        final_cts: tuple[Ciphertext, ...],
    ) -> Protest | None:
        """Adopts the update from the post serving_post finds in ra's registry.
        On success the local opening advances and None returns; otherwise the
        worker walks away with a ready-to-file protest."""
        self._require_enrolled()
        p = self._pending
        if p is None or p.ref is None:
            raise ProtocolError("no submitted response on record")
        served = serving_post(self.ctx, self.backend, self.memo, task, p, p.claim_key, board, final_cts, ra.tree)
        if served is None:
            return Protest(p.ref, p.claim_key, p.claim_rand, payout_account(p.address))
        (da, db), blinding, leaf, position = served
        self.cred = replace(
            self.cred,
            alpha=self.cred.alpha + da,
            beta=self.cred.beta + db,
            opening=self.cred.opening + p.rerand + blinding,
            pair=leaf,
            position=position,
        )
        self._pending = None
        return None


# ── requester ────────────────────────────────────────────────────────────────


@dataclass
class TaskOutcome:
    """Everything the requester computes for one task, ready to post; a quality
    post carries a value proof exactly when its answer was judged correct."""

    accepted: list[ParsedResponse]
    rejections: list[tuple[int, str]]
    void: bool
    final: FinalAnswer | None
    final_cts: tuple[Ciphertext, ...]
    final_bundle: bytes | None
    quality_posts: list[bytes]  # aligned with accepted
    leaves: list[bytes]  # covered registry payloads, aligned with quality_posts
    payments: list[tuple[str, int]]  # (payout account, wei), aligned; empty when void


class RequesterAgent:
    """Crowdsourcer: screens responses, aggregates, settles quality and pay.

    Keeps the set of linkability tags accepted in earlier tasks; a tag
    reappearing there means a worker replayed an outdated quality state."""

    def __init__(self, ctx: CryptoContext, backend: ProofBackend, memo: Memo, rng: random.Random):
        self.ctx = ctx
        self.backend = backend
        self.memo = memo
        self.rng = rng
        self.keypair: KeyPair = keygen(ctx.group, rng)
        self.seen_tags: set[bytes] = set()

    @property
    def pk(self) -> GroupElement:
        return self.keypair.pk

    def announce(self, policy: TaskPolicy, ra: RegistrationAuthority) -> TaskPublic:
        return TaskPublic(policy, self.keypair.pk, ra.pk, ra.tree.root())

    def evaluate(
        self,
        task: TaskPublic,
        included: list[tuple[int, bytes]],
        min_workers: int,
    ) -> TaskOutcome:
        ctx, g = self.ctx, self.ctx.group
        accepted, rejections = screen_responses(ctx, self.backend, task, included, self.seen_tags)
        self.seen_tags.update(p.tag for p in accepted)

        void = not quorate(accepted, min_workers)
        sk = self.keypair.sk
        answers: list[int | None] = [None] * len(accepted)
        final, final_cts, final_bundle = None, (), None
        if not void:
            answers = [self.memo(decrypt_message, g, sk, ctx.answer_codec, p.answer_ct) for p in accepted]
            final = ans_calc(answers, task.policy)
            final_cts = tuple(
                encrypt_message(g, self.keypair.pk, ctx.answer_codec, v, g.random_scalar(self.rng))
                for v in final.values
            )
            calc_stmt = calc_statement(ctx, task, accepted, final_cts)
            calc_proof = self.backend.prove(ctx, calc_stmt, AuthCalcWitness(sk), self.memo)
            final_bundle = encode_final_bundle(ctx, final_cts, calc_proof)

        posts, leaves, payments = [], [], []
        for parsed, answer in zip(accepted, answers):
            correct = None if void else is_correct(answer, final, task.policy)
            post, leaf = self._quality_post(task, parsed, final_cts, correct)
            posts.append(post)
            leaves.append(leaf)
            if void:
                continue  # a void task settles zero increments and pays nobody
            address = decrypt_message(g, sk, ctx.address_codec, parsed.address_ct)
            payments.append((payout_account(address), paym_calc(correct, task.policy)))
        return TaskOutcome(
            accepted=accepted,
            rejections=rejections,
            void=void,
            final=final,
            final_cts=final_cts,
            final_bundle=final_bundle,
            quality_posts=posts,
            leaves=leaves,
            payments=payments,
        )

    def _quality_post(
        self,
        task: TaskPublic,
        parsed: ParsedResponse,
        final_cts: tuple[Ciphertext, ...],
        correct: bool | None,
    ) -> tuple[bytes, bytes]:
        """Builds one addressed quality post plus the covered registry leaf
        it should be accumulated as. correct is None on void."""
        ctx, g = self.ctx, self.ctx.group
        sk = self.keypair.sk
        update = random_blinding_pair(g, self.rng)
        dummy = random_blinding_pair(g, self.rng)
        new_pair = self.memo(pair_step, g, parsed.fresh_pair, quality_increment(correct), update)
        stmt = quality_statement(ctx, task, parsed, final_cts, new_pair)
        qual_proof = self.backend.prove(ctx, stmt, AuthQualWitness(sk, update), self.memo)
        value_proof = None
        if correct:
            value_stmt = value_statement(ctx, task, parsed, final_cts)
            value_proof = self.backend.prove(ctx, value_stmt, AuthValueWitness(sk), self.memo)

        try:
            key = decrypt_message(g, sk, ctx.claim_codec, parsed.claim_ct)
            update_pads, cover_pads = claim_pads(ctx, parsed.ref, key)
            idx = claim_index(parsed.ref, key)
            blinded = update + update_pads
            covered = dummy + cover_pads
        except DomainError:
            # unproven claim field did not decrypt; the update is posted
            # unaddressed and the submitter has only themselves to blame
            idx = bytes(32)
            blinded = update
            covered = dummy
        post = QualityPost(parsed.ref, idx, blinded, covered, new_pair, qual_proof, value_proof)
        return post.encode(g), self.memo(pair_rerandomize, g, new_pair, dummy).encode(g)
