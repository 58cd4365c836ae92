"""Independent re-verification of a run's transaction log.

verify_log holds no agent secrets. From the log alone it rebuilds the
crypto context, replays every screening verdict, re-verifies every
attestation, recomputes fees and escrow flows, replays each round's
transactions in log order through the contract's own rules (sender, phase
and deadline windows, as `ledger.RULES` and `window_problem` state them)
and the ledger's numbering (transactions 0..n-1 in log order, tasks in
creation order), and checks that the hash chain over the lines is intact
and signed off by the registration authority's key from the header.

Two trust anchors come from the header: the authority's public key (for
the signoff) and the attestation setup seed. A deployment would publish a
verification key instead of a seed; the simulated backend needs the seed
itself to recompute attestations, so the log carries it. Nothing else in
the audit depends on that shortcut.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from ..actors import (
    QualityPost,
    TaskPublic,
    calc_statement,
    decode_final_bundle,
    quality_statement,
    quorate,
    screen_responses,
    value_statement,
)
from ..context import context_for
from ..errors import ConfigError, EncodingError, MalformedStatementError
from ..ledger import (
    CONFISCATE,
    CREATE_TASK,
    DEPLOY,
    FINALIZED,
    REFUND,
    RULES,
    SUBMIT_AUTH_CALC,
    SUBMIT_QUALITY,
    VOID,
    WORKER_PAYMENT,
    FeeParams,
    GasSchedule,
    LedgerRecord,
    contract_problem,
    gas_by_sender,
    included_responses,
    mistyped_field,
    void_refunds,
    window_problem,
)
from ..policy import TaskPolicy
from ..primitives import Signature, hash_bytes, verify_sig
from ..relations import ProofBackend

LOG_VERSION = 1
CHAIN_SEED = hash_bytes(b"anoncrowd/v1/log-chain")

# the task policy as a log header carries it: field -> JSON type, with the
# rational threshold and tolerance written as "n/d" text
_POLICY_FIELDS = {
    "kind": str,
    "domain_size": int,
    "threshold": str,
    "epsilon": str,
    "winners": int,
    "pay_correct": int,
    "pay_incorrect": int,
}

# the fields the replay reads from each event type, with their JSON types;
# transaction events are checked by LedgerRecord.from_json_dict
_NUMBER = (int, float)
_FIELDS = {
    "header": {
        "backend": str,
        "params_digest": str,
        "ra_pk": str,
        "requester_pk": str,
        "backend_seed": str,
        "policy": dict,
        "rounds": int,
        "min_workers": int,
        "base_fee_gwei": _NUMBER,
        "tip_gwei": _NUMBER,
        "eth_usd": _NUMBER,
    },
    "round": {
        "round": int,
        "task_seq": int,
        "tree_root": str,
        "response_deadline": int,
        "processing_deadline": int,
        "escrow_wei": int,
    },
    "screening": {"round": int, "accepted": list, "rejections": list, "void": bool},
    "arbitration": {"round": int, "ref": int, "upheld": bool},
    "signoff": {"chain": str, "sig": str},
}


def canonical_line(obj: dict) -> str:
    """The one serialization the hash chain is defined over."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def chain_digest(prev: bytes, event: dict) -> bytes:
    """Next chain value; `event` must not carry its own chain field."""
    return hash_bytes(prev + canonical_line(event).encode("utf-8"))


@dataclass
class AuditReport:
    ok: bool
    problems: list[str] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"log audit: {'PASS' if self.ok else 'FAIL'}"]
        for key in sorted(self.stats):
            lines.append(f"  {key}: {self.stats[key]}")
        for problem in self.problems:
            lines.append(f"  problem: {problem}")
        return "\n".join(lines) + "\n"


def policy_header(policy: TaskPolicy) -> dict:
    return {name: kind(getattr(policy, name)) for name, kind in _POLICY_FIELDS.items()}


def _policy_from_header(d: dict) -> TaskPolicy:
    rational = ("threshold", "epsilon")
    return TaskPolicy(**{name: Fraction(d[name]) if name in rational else d[name] for name in _POLICY_FIELDS})


def _unattested(ctx, backend: ProofBackend, stmt, proof, what: str, where: str) -> str | None:
    """None when proof attests stmt, else the problem; a statement built from logged
    fields that does not validate attests nothing, and the problem names why."""
    try:
        return None if backend.verify(ctx, stmt, proof) else f"{what} attestation fails{where}"
    except MalformedStatementError as exc:
        return f"{what} statement{where} does not validate: {exc}"


def verify_log(lines: Iterable[str]) -> AuditReport:
    problems: list[str] = []
    stats = {"lines": 0, "txs": 0, "rounds": 0, "proofs_verified": 0}

    # pass 1: parse and walk the hash chain
    events: list[dict] = []
    signoff: dict | None = None
    chain = CHAIN_SEED
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        stats["lines"] += 1
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError:
            return AuditReport(False, [f"line {lineno}: not valid json"], stats)
        if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
            return AuditReport(False, [f"line {lineno}: not a log event"], stats)
        if obj["type"] == "signoff":
            signoff = obj
            continue
        if signoff is not None:
            return AuditReport(False, [f"line {lineno}: event after the signoff"], stats)
        body = {k: v for k, v in obj.items() if k != "chain"}
        chain = chain_digest(chain, body)
        if obj.get("chain") != chain.hex():
            return AuditReport(False, [f"line {lineno}: hash chain mismatch"], stats)
        events.append(body)

    if not events or events[0]["type"] != "header":
        return AuditReport(False, ["log does not start with a header"], stats)
    header = events[0]
    if header.get("version") != LOG_VERSION:
        return AuditReport(False, [f"unsupported log version {header.get('version')}"], stats)
    bad = mistyped_field(header, _FIELDS["header"]) or mistyped_field(header["policy"], _POLICY_FIELDS)
    if bad:
        return AuditReport(False, [f"header field {bad!r} is missing or mistyped"], stats)
    try:
        ctx = context_for(header["backend"])
        g = ctx.group
        if header["params_digest"] != ctx.params_digest.hex():
            problems.append("header parameter digest does not match this build")
        ra_pk = g.decode_element(bytes.fromhex(header["ra_pk"]))
        requester_pk = g.decode_element(bytes.fromhex(header["requester_pk"]))
        backend = ProofBackend(bytes.fromhex(header["backend_seed"]))
        policy = _policy_from_header(header["policy"])
        min_workers = header["min_workers"]
        fee = FeeParams(header["base_fee_gwei"], header["tip_gwei"], header["eth_usd"])
    except (ConfigError, ValueError, ZeroDivisionError, EncodingError) as exc:
        return AuditReport(False, [f"header does not parse: {exc}"], stats)

    if signoff is None:
        problems.append("log carries no signoff")
    elif mistyped_field(signoff, _FIELDS["signoff"]):
        problems.append("signoff signature is malformed")
    else:
        if signoff["chain"] != chain.hex():
            problems.append("signoff does not cover the log contents")
        try:
            sig = Signature.decode(g, bytes.fromhex(signoff["sig"]))
            if not verify_sig(g, ra_pk, bytes.fromhex(signoff["chain"]), sig):
                problems.append("signoff signature does not verify")
        except (ValueError, EncodingError):
            problems.append("signoff signature is malformed")

    # pass 2: group events
    metas: dict[int, dict] = {}
    screenings: dict[int, dict] = {}
    arbitrations: dict[int, list[dict]] = {}
    txs: list[LedgerRecord] = []
    summaries: list[dict] = []
    for event in events[1:]:
        kind = event["type"]
        bad = mistyped_field(event, _FIELDS.get(kind, {}))
        if bad:
            problems.append(f"{kind} event field {bad!r} is missing or mistyped")
        elif kind == "round":
            metas[event["round"]] = event
        elif kind == "screening":
            screenings[event["round"]] = event
        elif kind == "arbitration":
            arbitrations.setdefault(event["round"], []).append(event)
        elif kind == "tx":
            try:
                txs.append(LedgerRecord.from_json_dict(event))
            except ValueError as exc:
                problems.append(f"transaction event does not parse: {exc}")
        elif kind == "summary":
            summaries.append(event)
        else:
            problems.append(f"unknown event type {kind!r}")
    stats["txs"] = len(txs)
    # the ledger numbers its transactions 0..n-1 in log order; only the first
    # break is named, since one dropped or added transaction shifts every later index
    for pos, t in enumerate(txs):
        if t.index != pos:
            problems.append(f"transaction {pos} in log order carries index {t.index}")
            break

    if len(metas) != header["rounds"] or sorted(metas) != list(range(len(metas))):
        problems.append("round metadata does not cover rounds 0..n-1")
    known_seqs = {meta["task_seq"] for meta in metas.values()}
    for rec in txs:
        if rec.task_seq not in known_seqs and (rec.method, rec.task_seq) != (DEPLOY, -1):
            problems.append(f"tx {rec.index} belongs to an unknown task {rec.task_seq}")
    deploys = [t for t in txs if t.method == DEPLOY]
    if len(deploys) != 1:
        problems.append(f"expected exactly one deploy transaction, found {len(deploys)}")
    requester = deploys[0].sender if deploys else None
    # the contract numbers its tasks in creation order
    task_number = {id(t): k for k, t in enumerate(t for t in txs if t.method == CREATE_TASK)}
    for r in screenings:
        if r not in metas:
            problems.append(f"screening event for unknown round {r}")

    # pass 3: per-transaction fee, value and timing rules
    sched = GasSchedule()
    for rec in txs:
        try:
            gas = sched.for_method(rec.method)
        except KeyError:
            problems.append(f"tx {rec.index}: unknown method {rec.method!r}")
            continue
        if rec.gas != gas:
            problems.append(f"tx {rec.index}: gas {rec.gas} != schedule {gas}")
        if rec.value_wei > 0 and rec.method != CREATE_TASK:
            problems.append(f"tx {rec.index}: {rec.method} moves {rec.value_wei} wei into escrow")
        if rec.value_wei < 0 and rec.method not in (WORKER_PAYMENT, REFUND, CONFISCATE):
            problems.append(f"tx {rec.index}: {rec.method} moves {-rec.value_wei} wei out of escrow")
        try:
            fee_ok = rec.fee_wei == fee.fee_wei(rec.gas)
        except (OverflowError, ValueError):  # a non-finite or huge fee or gas figure
            fee_ok = False
        if not fee_ok:
            problems.append(f"tx {rec.index}: fee {rec.fee_wei} off the fee rule")
        if rec.inclusion_block <= rec.submitted_block:
            problems.append(f"tx {rec.index}: included before it was submitted")

    # pass 4: replay each round
    tags_seen: set[bytes] = set()
    for r in sorted(metas):
        meta = metas[r]
        prefix = f"round {r}: "
        round_txs = [t for t in txs if t.task_seq == meta["task_seq"]]
        stats["rounds"] += 1
        phase = None  # the replayed task's; a refusal by its window alone still moves it
        for t in round_txs:
            if t.method == CREATE_TASK and task_number[id(t)] != t.task_seq:
                problems.append(prefix + f"tx {t.index} (CreateTask): opens task {task_number[id(t)]}, not {t.task_seq}")
            refusal = contract_problem(t.method, t.sender, requester, phase)
            if refusal is None:
                phase = RULES[t.method][2] or phase
                refusal = window_problem(t.method, t.submitted_block, meta["response_deadline"], meta["processing_deadline"])
            if refusal is not None:
                problems.append(prefix + f"tx {t.index} ({t.method}): {refusal[1]}")
        closed = phase in (FINALIZED, VOID)
        if not closed:
            problems.append(prefix + "task was never closed")

        screening = screenings.get(r)
        if screening is None:
            problems.append(prefix + "no screening event")
            continue
        included = included_responses(round_txs, meta["response_deadline"])
        try:
            tree_root = bytes.fromhex(meta["tree_root"])
        except ValueError:
            tree_root = b""
        if len(tree_root) != 32:
            problems.append(prefix + "tree root is not a 32-byte hex digest")
            continue
        task_pub = TaskPublic(policy, requester_pk, ra_pk, tree_root)
        accepted, rejections = screen_responses(
            ctx, backend, task_pub, [(t.index, t.payload) for t in included], tags_seen
        )
        stats["proofs_verified"] += len(included)
        tags_seen.update(p.tag for p in accepted)
        if [p.ref for p in accepted] != screening["accepted"]:
            problems.append(prefix + "screening acceptances do not replay")
        if [[ref, why] for ref, why in rejections] != screening["rejections"]:
            problems.append(prefix + "screening rejections do not replay")
        void = not quorate(accepted, min_workers)
        if screening["void"] != void:
            problems.append(prefix + "void flag does not match the quorum rule")

        if void and phase != VOID:
            problems.append(prefix + "voided round must carry exactly one void transaction")
        if not void and phase == VOID:
            problems.append(prefix + "quorate round carries a void transaction")

        calc_txs = [t for t in round_txs if t.method == SUBMIT_AUTH_CALC]
        final_cts = ()
        accepted_by_ref = {p.ref: p for p in accepted}
        if not void and len(calc_txs) != 1:
            problems.append(prefix + "expected exactly one final answer post")
        elif not void:
            try:
                final_cts, calc_proof = decode_final_bundle(ctx, calc_txs[0].payload, policy.final_ct_count)
            except (EncodingError, ValueError):
                problems.append(prefix + "final answer bundle does not decode")
            else:
                calc_stmt = calc_statement(ctx, task_pub, accepted, final_cts)
                if problem := _unattested(ctx, backend, calc_stmt, calc_proof, "final answer", ""):
                    problems.append(prefix + problem)
                else:
                    stats["proofs_verified"] += 1

        covered: set[int] = set()
        value_count = 0
        for t in (t for t in round_txs if t.method == SUBMIT_QUALITY):
            try:
                post = QualityPost.decode(g, t.payload)
            except (EncodingError, ValueError):
                problems.append(prefix + f"quality post tx {t.index} does not decode")
                continue
            target = accepted_by_ref.get(post.response_ref)
            if target is None:
                problems.append(prefix + f"quality post for unaccepted response {post.response_ref}")
                continue
            if post.response_ref in covered:
                problems.append(prefix + f"response {post.response_ref} has two quality posts")
                continue
            where = f" for response {post.response_ref}"
            qual_stmt = quality_statement(ctx, task_pub, target, final_cts, post.new_pair)
            if problem := _unattested(ctx, backend, qual_stmt, post.qual_proof, "quality", where):
                problems.append(prefix + problem)
                continue
            stats["proofs_verified"] += 1
            covered.add(post.response_ref)
            if post.value_proof is None:
                continue
            if void:
                problems.append(prefix + "voided round carries a correctness attestation")
                continue
            value_stmt = value_statement(ctx, task_pub, target, final_cts)
            if problem := _unattested(ctx, backend, value_stmt, post.value_proof, "correctness", where):
                problems.append(prefix + problem)
            else:
                value_count += 1
                stats["proofs_verified"] += 1

        upheld_refs = {a["ref"] for a in arbitrations.get(r, []) if a["upheld"]}
        confiscations = [t for t in round_txs if t.method == CONFISCATE]
        for p in accepted:
            if p.ref not in covered and p.ref not in upheld_refs:
                problems.append(
                    prefix + f"accepted response {p.ref} got no quality post and no upheld protest"
                )
        if upheld_refs and not confiscations:
            problems.append(prefix + "upheld protest without a confiscation")
        if confiscations and not upheld_refs:
            problems.append(prefix + "confiscation without an upheld protest")

        pay_txs = [t for t in round_txs if t.method == WORKER_PAYMENT]
        if not void:
            if len(pay_txs) != len(covered):
                problems.append(prefix + f"{len(pay_txs)} payments for {len(covered)} served responses")
            amounts = Counter(-t.value_wei for t in pay_txs)
            if any(a not in (policy.pay_correct, policy.pay_incorrect) for a in amounts):
                problems.append(prefix + "payment amount outside the policy")
            elif policy.pay_correct != policy.pay_incorrect:
                if amounts.get(policy.pay_correct, 0) != value_count:
                    problems.append(
                        prefix + "correct-answer payments do not match the correctness attestations"
                    )

        create = next((t for t in round_txs if t.method == CREATE_TASK), None)
        escrow_in = meta["escrow_wei"]
        if create is not None and create.value_wei != escrow_in:
            problems.append(prefix + "escrow deposit does not match the announced amount")
        outgoing = sum(-t.value_wei for t in round_txs if t.value_wei < 0)
        if closed and outgoing != escrow_in:
            problems.append(prefix + f"escrow not conserved: {escrow_in} in, {outgoing} out")
        if void and requester is not None:
            refunds = [(t.beneficiary, -t.value_wei) for t in round_txs if t.method == REFUND]
            if refunds != void_refunds(included, escrow_in, requester):
                problems.append(prefix + "void refunds do not reimburse the responders")

    # pass 5: summary totals
    if len(summaries) != 1:
        problems.append("expected exactly one summary event")
    else:
        s = summaries[0]
        paid = sum(-t.value_wei for t in txs if t.method == WORKER_PAYMENT)
        confiscated = sum(-t.value_wei for t in txs if t.method == CONFISCATE)
        if s.get("gas_by_sender") != gas_by_sender(txs):
            problems.append("summary gas totals do not match the transactions")
        if s.get("payments_wei") != paid:
            problems.append("summary payment total does not match the transactions")
        if s.get("confiscated_wei") != confiscated:
            problems.append("summary confiscation total does not match the transactions")

    return AuditReport(not problems, problems, stats)
