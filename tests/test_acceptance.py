"""Acceptance suite: one test per headline guarantee, with its tolerance.

Expected values here are re-derived from scratch inside this module
(plaintext recounts, a from-first-principles root rebuild, published fee
figures) instead of trusting package internals. Where a guarantee carries
a time budget the test asserts the budget too. Run with -v to get one
pass/fail line per guarantee.
"""

import hashlib
import json
import random
import re
import time
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import pytest

from anoncrowd.context import ANSWER_DOMAIN, production_context, tiny_context
from anoncrowd.harness.audit import verify_log
from anoncrowd.harness.fixtures import load_fixture
from anoncrowd.harness.runner import _final_text, run
from anoncrowd.harness.scenario import load_scenario
from anoncrowd.ledger import SUBMIT_RESPONSE, FeeParams, GasSchedule, LatencyModel
from anoncrowd.merkle import MerkleTree, verify_path
from anoncrowd.policy import AVERAGE, MAJORITY, TaskPolicy, ans_calc, is_correct, paym_calc
from anoncrowd.primitives import (
    BlindingPair,
    commit,
    commit_pair,
    decrypt_message,
    encrypt_message,
    keygen,
    pair_add,
    pair_rerandomize,
    quality_tag,
    random_blinding_pair,
    rerandomize,
    sign,
    verify_sig,
)
from anoncrowd.relations import (
    AuthCalcStatement,
    AuthCalcWitness,
    AuthQualStatement,
    AuthQualWitness,
    ProofBackend,
    ProveQualStatement,
    ProveQualWitness,
    check_auth_calc,
    check_auth_qual,
    check_prove_qual,
    ident_message,
)

BUNDLED = ("image_annotation", "gallup", "avg_review")

# SHA-256 of each seed-1 log (the ROADMAP behaviour anchors, taken over the
# `run --out` bytes) and of its report
PRODUCTION_PINS = {
    "image_annotation": (
        "d75e0f6948084720626b37e8a0b06ad8865d52ab82ac06b73454d40bf2c5df50",
        "967680ed60777c951dcad987fe1d25b7f02491ba04c65a0dab4977ef6dbb5f95",
    ),
    "gallup": (
        "1c5422f46a582a7c4f6d8b08017556e237fd35b2100e0addac402ae2c2d2cd33",
        "d4537a6e8b94fb76e0ffac3ac14f19d75e96e1ca24eab6561820ee0ffd5e032f",
    ),
    "avg_review": (
        "87a8a2a01a9ef7b97215a57e887bf0239befaed75fce5718cb09ae2f13680894",
        "def7714371e15c63fd787127882642ac660eccc23a81fa83542908c3e3727a5f",
    ),
}


@pytest.fixture(scope="module")
def production_runs():
    """The three bundled scenarios, honest, seed 1, on the real curve."""
    out = {}
    for name in BUNDLED:
        started = time.monotonic()
        result = run(load_scenario(name), seed=1)
        out[name] = (result, time.monotonic() - started)
    return out


# ── randomized crypto properties ─────────────────────────────────────────────


def test_crypto_suite_randomized():
    """1000 cases per property on the production curve, all under 30 s."""
    ctx = production_context()
    g = ctx.group
    rng = random.Random(0xACCE97)
    started = time.monotonic()

    for _ in range(1000):
        a, b = rng.randrange(1 << 32), rng.randrange(1 << 32)
        r, s = g.random_scalar(rng), g.random_scalar(rng)
        folded = g.add(commit(g, a, r), commit(g, b, s))
        assert g.encode_element(folded) == g.encode_element(commit(g, a + b, r + s))

    keys = keygen(g, rng)
    for _ in range(1000):
        msg = rng.randrange(ANSWER_DOMAIN)
        ct = encrypt_message(g, keys.pk, ctx.answer_codec, msg, g.random_scalar(rng))
        assert decrypt_message(g, keys.sk, ctx.answer_codec, ct) == msg

    signer = keygen(g, rng)
    for _ in range(1000):
        payload = rng.randbytes(24)
        sig = sign(g, signer.sk, payload)
        assert verify_sig(g, signer.pk, payload, sig)
        assert not verify_sig(g, signer.pk, payload + b"\x00", sig)

    for _ in range(1000):
        v, r = rng.randrange(1 << 32), g.random_scalar(rng)
        extra = g.random_scalar(rng)
        moved = rerandomize(g, commit(g, v, r), extra)
        assert commit(g, v, r + extra) == moved
        assert commit(g, v + 1, r + extra) != moved

    assert time.monotonic() - started < 30.0


# ── accumulator roots and paths ──────────────────────────────────────────────


def _rebuilt_root(depth, payloads):
    """Root from first principles: rehash every occupied node each call,
    folding the all-empty right spine level by level instead of padding
    the leaf row to 2^depth."""
    dst = b"anoncrowd/v1/hash"

    def h(data):
        return hashlib.sha256(dst + data).digest()

    level = [h(b"\x00" + p) for p in payloads]
    empty = h(b"\x00")
    for _ in range(depth):
        if len(level) % 2:
            level.append(empty)
        level = [h(b"\x01" + level[i] + level[i + 1]) for i in range(0, len(level), 2)]
        empty = h(b"\x01" + empty + empty)
    return level[0] if level else empty


def test_merkle_roots_and_paths():
    """Exhaustive depth-4 path soundness; 1000 incremental roots vs rebuild."""
    small = MerkleTree(depth=4)
    payloads = [f"leaf-{i:02d}".encode() for i in range(16)]
    for p in payloads:
        small.append(p)
    root = small.root()
    paths = [small.prove_membership(i) for i in range(16)]
    for i in range(16):
        for j in range(16):
            assert verify_path(root, payloads[i], paths[j]) == (i == j), (i, j)

    rng = random.Random(0xACC2)
    tree = MerkleTree(depth=20)
    seen = []
    for _ in range(1000):
        p = rng.randbytes(rng.randrange(1, 64))
        tree.append(p)
        seen.append(p)
        assert tree.root() == _rebuilt_root(20, seen)


# ── relation checkers vs plaintext oracles ───────────────────────────────────


def _pol(kind=MAJORITY, domain=4, winners=1):
    return TaskPolicy(
        kind=kind,
        domain_size=domain,
        threshold=Fraction(1, 2),
        pay_correct=100,
        pay_incorrect=10,
        winners=winners,
        epsilon=Fraction(1, 2) if kind == AVERAGE else Fraction(0),
    )


def _recount_oracle(policy, answers):
    """What the posted final must decrypt to, recounted in the clear."""
    if policy.kind == MAJORITY:
        tally = [0] * policy.domain_size
        for a in answers:
            tally[a] += 1
        ranked = sorted(range(policy.domain_size), key=lambda v: (-tally[v], v))
        return tuple(ranked[: policy.winners])
    return (sum(answers), len(answers))


def _calc_statement(ctx, rng, policy, answers, keys, posted):
    g = ctx.group
    answer_cts = tuple(
        encrypt_message(g, keys.pk, ctx.answer_codec, a, g.random_scalar(rng)) for a in answers
    )
    final_cts = tuple(
        encrypt_message(g, keys.pk, ctx.answer_codec, v, g.random_scalar(rng)) for v in posted
    )
    return AuthCalcStatement(ctx.params_digest, policy, keys.pk, answer_cts, final_cts)


@dataclass
class _Enrolled:
    ident: object
    cert: object
    alpha: int
    beta: int
    base: BlindingPair
    dummy: BlindingPair
    pair: object
    position: int


def _enroll_workers(ctx, rng, states):
    """Three registered workers in a four-slot tree, built by hand."""
    g = ctx.group
    ra = keygen(g, rng)
    req = keygen(g, rng)
    tree = MerkleTree(depth=2)
    roster = []
    for alpha, beta in states:
        ident = g.random_scalar(rng)
        cert = sign(g, ra.sk, ident_message(ctx, ident))
        base = random_blinding_pair(g, rng)
        dummy = random_blinding_pair(g, rng)
        pair = commit_pair(g, alpha, beta, base + dummy)
        pos = tree.append(pair.encode(g))
        roster.append(_Enrolled(ident, cert, alpha, beta, base, dummy, pair, pos))
    return ra, req, tree, roster


def _response(ctx, rng, policy, ra, req, tree, w, answer, address):
    g = ctx.group
    rerand = random_blinding_pair(g, rng)
    a_rand, d_rand = g.random_scalar(rng), g.random_scalar(rng)
    stmt = ProveQualStatement(
        params_digest=ctx.params_digest,
        policy=policy,
        ra_pk=ra.pk,
        requester_pk=req.pk,
        tree_root=tree.root(),
        fresh_pair=pair_rerandomize(g, w.pair, rerand),
        quality_tag=quality_tag(g, w.pair, w.ident),
        answer_ct=encrypt_message(g, req.pk, ctx.answer_codec, answer, a_rand),
        address_ct=encrypt_message(g, req.pk, ctx.address_codec, address, d_rand),
    )
    wit = ProveQualWitness(
        ident=w.ident,
        cert=w.cert,
        alpha=w.alpha,
        beta=w.beta,
        leaf_blind=w.base + w.dummy,
        stored_pair=w.pair,
        rerand=rerand,
        answer=answer,
        answer_rand=a_rand,
        address=address,
        address_rand=d_rand,
        path=tree.prove_membership(w.position),
    )
    return stmt, wit


def test_relation_checkers_vs_plaintext_oracles():
    """Zero verdict disagreements against recount and transplant oracles."""
    ctx = tiny_context()
    g = ctx.group
    rng = random.Random(0x0A1C)
    backend = ProofBackend(b"oracle-checks")
    disagreements = []

    # final-answer checker, exhaustive: every binary 5-vote pattern x claim
    keys = keygen(g, rng)
    cwit = AuthCalcWitness(keys.sk)
    pol2 = _pol(domain=2)
    for pattern in range(32):
        votes = [(pattern >> i) & 1 for i in range(5)]
        truth = 1 if sum(votes) > len(votes) - sum(votes) else 0
        for claimed in (0, 1):
            stmt = _calc_statement(ctx, rng, pol2, votes, keys, (claimed,))
            if check_auth_calc(ctx, stmt, cwit, backend) is not (claimed == truth):
                disagreements.append(("binary", votes, claimed))

    # final-answer checker, randomized: truth accepted, perturbed rejected
    shapes = ((MAJORITY, 1), (MAJORITY, 3), (AVERAGE, 1))
    for i in range(500):
        kind, winners = shapes[i % len(shapes)]
        domain = rng.randrange(max(2, winners), 9)
        pol = _pol(kind=kind, domain=domain, winners=winners)
        n = rng.randrange(1, 65)
        answers = [rng.randrange(domain) for _ in range(n)]
        truth = _recount_oracle(pol, answers)
        if check_auth_calc(ctx, _calc_statement(ctx, rng, pol, answers, keys, truth), cwit, backend) is not True:
            disagreements.append(("accept", kind, winners, i))
        wrong = (truth[0] + 1,) + truth[1:]
        if check_auth_calc(ctx, _calc_statement(ctx, rng, pol, answers, keys, wrong), cwit, backend) is not False:
            disagreements.append(("reject", kind, winners, i))

    # quality-step checker: the full correctness x increment table
    for correct in (True, False):
        worker_ct = encrypt_message(
            g, keys.pk, ctx.answer_codec, 1 if correct else 0, g.random_scalar(rng)
        )
        final_cts = (encrypt_message(g, keys.pk, ctx.answer_codec, 1, g.random_scalar(rng)),)
        old = commit_pair(g, 4, 1, random_blinding_pair(g, rng))
        step = random_blinding_pair(g, rng)
        qwit = AuthQualWitness(keys.sk, step)
        for claimed in ((1, 0), (0, 1)):
            new = pair_add(g, old, commit_pair(g, claimed[0], claimed[1], step))
            stmt = AuthQualStatement(
                ctx.params_digest, pol2, keys.pk, worker_ct, final_cts, old, new
            )
            expected = claimed == ((1, 0) if correct else (0, 1))
            if check_auth_qual(ctx, stmt, qwit, backend) is not expected:
                disagreements.append(("qual-step", correct, claimed))

    # membership checker: transplant every witness field between workers
    ra, req, tree, roster = _enroll_workers(ctx, rng, ((4, 1), (5, 2), (7, 3)))
    pol = _pol()
    built = [
        _response(ctx, rng, pol, ra, req, tree, w, answer=i, address=70 + i)
        for i, w in enumerate(roster)
    ]
    for stmt, wit in built:
        if check_prove_qual(ctx, stmt, wit, backend) is not True:
            disagreements.append(("honest", stmt.quality_tag.hex()[:8]))
    for a in range(len(built)):
        for b in range(len(built)):
            if a == b:
                continue
            stmt, wit_a = built[a]
            _, wit_b = built[b]
            for field in fields(ProveQualWitness):
                hybrid = replace(wit_a, **{field.name: getattr(wit_b, field.name)})
                if check_prove_qual(ctx, stmt, hybrid, backend) is not False:
                    disagreements.append(("swap", field.name, a, b))

    assert disagreements == []


# ── published cost figures ───────────────────────────────────────────────────


def test_gas_schedule_and_usd_costs():
    """Benchmarked per-call gas, bit for bit, and the USD price at defaults."""
    sched = GasSchedule()
    fee = FeeParams()
    assert sched.deploy == 1_340_000
    assert sched.create_task == 363_491
    assert sched.submit_response == 394_604
    assert sched.submit_auth_calc == 120_772
    assert abs(fee.cost_usd(sched.deploy) - 12.49) <= 0.05
    assert abs(fee.cost_usd(sched.create_task) - 3.39) <= 0.01
    assert abs(fee.cost_usd(sched.submit_response) - 3.68) <= 0.01
    assert abs(fee.cost_usd(sched.submit_auth_calc) - 1.13) <= 0.01


def test_latency_profile_calibration():
    """10^4 seeded draws per anchor; sample means inside the 10% bands."""
    anchors = (("rinkeby", 1.1, 2.54), ("rinkeby", 0.5, 8.68), ("goerli", 1.1, 3.52))
    for profile, tip, target in anchors:
        model = LatencyModel(profile, random.Random(0x7E57))
        mean = sum(model.latency(tip) for _ in range(10_000)) / 10_000
        assert abs(mean - target) <= 0.1 * target, (profile, tip, mean)


# ── bundled scenarios end to end ─────────────────────────────────────────────


def test_bundled_scenarios_end_to_end(production_runs):
    """Honest runs: recounted finals, policy payments, conserved escrow."""
    gas_caps = {"image_annotation": 19_000_000, "avg_review": 55_000_000}
    for name, (res, elapsed) in production_runs.items():
        cfg = res.config
        assert elapsed < 120.0, (name, elapsed)
        assert res.failures == [], (name, res.failures)
        assert all(row.status == "adopted" for row in res.worker_rows), name

        answers = load_fixture(cfg.fixture)[: cfg.worker_count]
        final = ans_calc(answers, cfg.policy)
        round0 = res.rounds[0]
        assert round0.final_text == _final_text(final), name
        assert not round0.void and round0.task.escrow_conserved(), name

        expected_pay = [paym_calc(is_correct(a, final, cfg.policy), cfg.policy) for a in answers]
        assert round0.task.paid_out_wei == sum(expected_pay), name
        for row, pay in zip(res.worker_rows, expected_pay):
            assert row.paid_wei == pay, (name, row.name)

        if name in gas_caps:
            spent = sum(
                ev["gas"]
                for ev in map(json.loads, res.log_lines)
                if ev.get("type") == "tx" and ev["sender"] == "requester"
            )
            assert spent < gas_caps[name], (name, spent)


# ── adversarial guarantees ───────────────────────────────────────────────────


def test_reposted_pairs_unlinkable_and_proofs_witness_blind():
    """Fresh postings never repeat bytes; attestations leak no witness."""
    ctx = production_context()
    g = ctx.group
    rng = random.Random(0xB11D)
    for _ in range(500):
        a, b = rng.randrange(64), rng.randrange(64)
        blind = random_blinding_pair(g, rng)
        pair = commit_pair(g, a, b, blind)
        extra = random_blinding_pair(g, rng)
        moved = pair_rerandomize(g, pair, extra)
        assert moved.encode(g) != pair.encode(g)
        assert commit_pair(g, a, b, blind + extra) == moved

    # two satisfying witnesses for one statement (the same stored pair
    # sits at two tree positions) attest byte-identically
    tctx = tiny_context()
    trng = random.Random(0xB11E)
    ra, req, tree, roster = _enroll_workers(tctx, trng, ((4, 1), (5, 2), (7, 3)))
    twin = tree.append(roster[0].pair.encode(tctx.group))
    stmt, wit = _response(tctx, trng, _pol(), ra, req, tree, roster[0], answer=1, address=9)
    other = replace(wit, path=tree.prove_membership(twin))
    assert other.path != wit.path
    backend = ProofBackend(b"acceptance")
    assert backend.prove(tctx, stmt, wit).encode(tctx.group) == backend.prove(tctx, stmt, other).encode(tctx.group)


def test_free_riders_detected_and_unpaid():
    """Copied and doctored responses: one detection each, nothing paid out."""
    cfg = replace(load_scenario("image_annotation"), backend="tiny31")
    answers = load_fixture(cfg.fixture)[: cfg.worker_count]
    final = ans_calc(answers, cfg.policy)
    honest_total = sum(paym_calc(is_correct(a, final, cfg.policy), cfg.policy) for a in answers)

    for attack, reason in (
        ("duplicate-response", "duplicate-tag"),
        ("forged-proof", "invalid-proof"),
    ):
        res = run(cfg, seed=1, attack=attack)
        round0 = res.rounds[0]
        assert res.failures == [], (attack, res.failures)
        assert [why for _, why in round0.rejections] == [reason], attack
        assert len(round0.task.sent(SUBMIT_RESPONSE)) == cfg.worker_count + 1, attack
        assert round0.accepted == cfg.worker_count, attack
        assert round0.task.paid_out_wei == honest_total, attack
        payment_txs = [
            ev
            for ev in map(json.loads, res.log_lines)
            if ev.get("type") == "tx" and ev["method"] == "WorkerPayment"
        ]
        assert len(payment_txs) == cfg.worker_count, attack
        assert all(row.status == "adopted" for row in res.worker_rows), attack


def test_log_audit_rejects_single_bit_tampering(production_runs):
    """One flipped payload bit in any posted artifact fails the audit."""
    res, _ = production_runs["image_annotation"]
    assert verify_log(("\n".join(res.log_lines) + "\n").splitlines()).ok

    lines = res.log_lines
    for method in ("SubmitAuthCalc", "SubmitQuality", "SubmitResponse"):
        idx = next(
            i
            for i, line in enumerate(lines)
            if json.loads(line).get("type") == "tx" and json.loads(line)["method"] == method
        )
        line = lines[idx]
        span = re.search(r'"payload":"([0-9a-f]+)"', line)
        assert span is not None and span.end(1) > span.start(1), method
        at = (span.start(1) + span.end(1)) // 2
        flipped = format(int(line[at], 16) ^ 1, "x")
        tampered = lines[:idx] + [line[:at] + flipped + line[at + 1 :]] + lines[idx + 1 :]
        report = verify_log(("\n".join(tampered) + "\n").splitlines())
        assert not report.ok and report.problems, method


def test_deprivation_protest_upheld_and_confiscated():
    """A withheld update ends in an upheld protest and seized escrow."""
    cfg = replace(load_scenario("image_annotation"), backend="tiny31")
    res = run(cfg, seed=1, attack="deprivation")
    round0 = res.rounds[0]
    assert res.failures == []
    assert round0.protests == 1 and round0.upheld == 1
    assert round0.task.confiscated_wei > 0
    victims = [row for row in res.worker_rows if row.status == "protest upheld, escrow confiscated"]
    assert len(victims) == 1 and victims[0].paid_wei == 0
    assert all(
        row.status == "adopted" for row in res.worker_rows if row.name != victims[0].name
    )


# ── determinism ──────────────────────────────────────────────────────────────


def test_production_runs_match_the_anchors(production_runs):
    """Seed-1 logs and reports hash to the pinned behaviour anchors."""
    for name, (res, _) in production_runs.items():
        log = "\n".join(res.log_lines) + "\n"
        got = (hashlib.sha256(log.encode()).hexdigest(), hashlib.sha256(res.report.encode()).hexdigest())
        assert got == PRODUCTION_PINS[name], name


def test_same_seed_replays_byte_identical(production_runs):
    """Rerunning a scenario with its seed reproduces log and report exactly."""
    first, _ = production_runs["image_annotation"]
    again = run(load_scenario("image_annotation"), seed=1)
    assert again.log_lines == first.log_lines
    assert again.report == first.report
