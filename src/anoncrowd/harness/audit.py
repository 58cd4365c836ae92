"""Independent re-verification of a run's transaction log.

verify_log holds no agent secrets. From the log alone it rebuilds the
crypto context, replays every screening verdict and re-verifies every
attestation. It reads the header's fees and policy, each round's task
parameters and each transaction with encoding.from_json, the inverse of
the runner's to_json, so a missing or mistyped field is named. One rule
numbers the rounds: round r opens task r. The round events number the
rounds 0..n-1 once each in log order, each naming its own task, and so do
the screening events; a log off the rule is not replayed, and an
arbitration must name a round there is. The audit re-executes the
contract: every logged transaction, in log order, goes through the same
`ledger.TaskContract` check and move the simulated chain ran (the one
Deploy, sender, phase, deadlines, gas, fee, value, beneficiary, escrow,
the task it names and the refunds a close owes), and each task must end
closed with no escrow and no refund owed. A log with no Deploy is one
problem, and nothing is replayed. The replayed contract is the audit's one
record of the chain: a transaction's problem names the round of the task
it was applied to, round r replays task r's transactions, and the
summary's chain figures must equal ledger.chain_summary of the replay,
the function the runner wrote them with. A quorate round's payments must
be the multiset of `paym_calc` amounts owed to its served responses, given
which carry a verified correctness attestation: addresses are encrypted,
so no payment names its response. Task r opens with round event r's
figures (a bad one is a refusal of that CreateTask alone) at the block
its CreateTask was submitted in. It also checks the chain's numbering
(transactions 0..n-1 in log order, each included after it was submitted)
and that the hash chain over the lines is intact and ends in one signoff
by the registration authority's key from the header.

Two trust anchors come from the header: the authority's public key (for
the signoff) and the attestation setup seed. A deployment would publish a
verification key instead of a seed; the simulated backend needs the seed
itself to recompute attestations, so the log carries it. Nothing else in
the audit depends on that shortcut, but through it whoever signs the log
can mint any attestation (README Limitations).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
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
from ..encoding import from_json, mistyped_field
from ..errors import ConfigError, EncodingError, MalformedStatementError
from ..ledger import (
    CONFISCATE,
    DEPLOY,
    FINALIZED,
    SUBMIT_AUTH_CALC,
    SUBMIT_QUALITY,
    VOID,
    WORKER_PAYMENT,
    ChainTaskParams,
    FeeParams,
    LedgerRecord,
    TaskContract,
    chain_summary,
)
from ..policy import TaskPolicy, paym_calc
from ..primitives import Signature, hash_bytes, verify_sig
from ..relations import ProofBackend

LOG_VERSION = 1
CHAIN_SEED = hash_bytes(b"anoncrowd/v1/log-chain")

# the plain fields the replay reads from each event type, with their JSON types;
# the dataclasses an event carries (the header's fees and policy, a round's task
# parameters, a transaction) are read by from_json
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
    },
    "round": {"round": int, "task_seq": int, "tree_root": str, "opened_block": int},
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
        except (ValueError, RecursionError):  # a JSONDecodeError, a too-long integer or too-deep nesting
            return AuditReport(False, [f"line {lineno}: not valid json"], stats)
        if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
            return AuditReport(False, [f"line {lineno}: not a log event"], stats)
        if signoff is not None:
            return AuditReport(False, [f"line {lineno}: event after the signoff"], stats)
        if obj["type"] == "signoff":
            signoff = obj
            continue
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
    bad = mistyped_field(header, _FIELDS["header"])
    if bad:
        return AuditReport(False, [f"header field {bad!r} is missing or mistyped"], stats)
    try:
        fee = from_json(FeeParams, header)
        policy = from_json(TaskPolicy, header["policy"])
        ctx = context_for(header["backend"])
        g = ctx.group
        if header["params_digest"] != ctx.params_digest.hex():
            problems.append("header parameter digest does not match this build")
        ra_pk = g.decode_element(bytes.fromhex(header["ra_pk"]))
        requester_pk = g.decode_element(bytes.fromhex(header["requester_pk"]))
        backend = ProofBackend(bytes.fromhex(header["backend_seed"]))
        min_workers = header["min_workers"]
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

    # pass 2: one list per event kind, in log order; an event that does not parse joins none
    kinds: dict[str, list] = {"round": [], "screening": [], "arbitration": [], "tx": [], "summary": []}
    task_params: list[ChainTaskParams] = []  # the figures each round event's task opens with
    for event in events[1:]:
        kind = event["type"]
        if kind not in kinds:
            problems.append(f"unknown event type {kind!r}")
            continue
        try:
            if bad := mistyped_field(event, _FIELDS.get(kind, {})):
                raise ValueError(f"field {bad!r} is missing or mistyped")
            if kind == "round":
                task_params.append(from_json(ChainTaskParams, event))
            kinds[kind].append(from_json(LedgerRecord, event) if kind == "tx" else event)
        except ValueError as exc:
            problems.append(f"{kind} event {exc}")
    round_events, screenings, arbitrations, txs, summaries = kinds.values()
    stats["txs"] = len(txs)
    # the ledger numbers its transactions 0..n-1 in log order; only the first
    # break is named, since one dropped or added transaction shifts every later index
    for pos, t in enumerate(txs):
        if t.index != pos:
            problems.append(f"transaction {pos} in log order carries index {t.index}")
            break

    # the numbering rule: round r opens task r, so the round events number the rounds and
    # their tasks 0..n-1 once each in log order, and the screening events number the rounds
    # the same way; an event off it matches no task, so the replay stops here
    n = header["rounds"]
    labels = {
        "round events number rounds": [m["round"] for m in round_events],
        "round events number tasks": [m["task_seq"] for m in round_events],
        "screening events number rounds": [s["round"] for s in screenings],
    }
    off = [(what, got) for what, got in labels.items() if len(got) != n or got != list(range(n))]
    misnumbered = [f"{what} {got}, not 0..{n - 1} in log order" for what, got in off]
    if misnumbered:
        return AuditReport(False, problems + misnumbered, stats)
    problems += [f"arbitration event for unknown round {a['round']}" for a in arbitrations if not 0 <= a["round"] < n]

    # with no contract every transaction would be refused, so the replay stops here
    if not any(t.method == DEPLOY for t in txs):
        return AuditReport(False, problems + ["log carries no Deploy"], stats)

    # pass 3: re-execute the contract over every transaction in log order; each task
    # opens with its round's logged figures, and the replay follows the log past a
    # refusal, so one bad transaction or task figure is one problem
    contract = TaskContract(fee)

    def tx_problem(rec: LedgerRecord, why: str) -> None:
        # the round of the task the contract applied rec to, whatever task its label names
        r = len(contract.tasks) - 1
        named = 0 <= r < n and contract.tasks[r].records[-1] is rec
        problems.append((f"round {r}: " if named else "") + f"tx {rec.index} ({rec.method}): {why}")

    for rec in txs:
        params = task_params[rec.task_seq] if 0 <= rec.task_seq < n else None
        refusal = contract.check(rec, params)
        contract.move(rec, params)
        if rec.inclusion_block <= rec.submitted_block:
            tx_problem(rec, "included before it was submitted")
        if refusal:
            tx_problem(rec, refusal[1])

    # pass 4: replay each round off the transactions its replayed task holds
    tags_seen: set[bytes] = set()
    for r, (meta, screening) in enumerate(zip(round_events, screenings)):
        prefix = f"round {r}: "
        stats["rounds"] += 1
        if r >= len(contract.tasks):
            problems.append(prefix + "task was never opened")
            continue
        task = contract.tasks[r]
        opened = task.records[0].submitted_block  # its CreateTask's
        if meta["opened_block"] != opened:
            problems.append(prefix + f"opened at block {meta['opened_block']}, not at its CreateTask's {opened}")
        phase = task.phase
        if phase not in (FINALIZED, VOID):
            problems.append(prefix + "task was never closed")
        elif task.escrow_wei or task.owed:
            problems.append(prefix + f"task closed holding {task.escrow_wei} wei, {len(task.owed)} refunds owed")

        included = task.included_responses()
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

        calc_txs = task.sent(SUBMIT_AUTH_CALC)
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
        valued: set[int] = set()  # responses whose correctness attestation verified
        for t in task.sent(SUBMIT_QUALITY):
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
            value_stmt = value_statement(ctx, task_pub, target, final_cts)
            if problem := _unattested(ctx, backend, value_stmt, post.value_proof, "correctness", where):
                problems.append(prefix + problem)
            else:
                valued.add(post.response_ref)
                stats["proofs_verified"] += 1

        upheld_refs = {a["ref"] for a in arbitrations if a["round"] == r and a["upheld"]}
        confiscations = task.sent(CONFISCATE)
        for p in accepted:
            if p.ref not in covered and p.ref not in upheld_refs:
                problems.append(
                    prefix + f"accepted response {p.ref} got no quality post and no upheld protest"
                )
        if upheld_refs and not confiscations:
            problems.append(prefix + "upheld protest without a confiscation")
        if confiscations and not upheld_refs:
            problems.append(prefix + "confiscation without an upheld protest")

        if not void:
            paid = Counter(-t.value_wei for t in task.sent(WORKER_PAYMENT))
            owed = Counter(paym_calc(ref in valued, policy) for ref in covered)
            if paid != owed:
                extra, missing = sorted((paid - owed).elements()), sorted((owed - paid).elements())
                problems.append(prefix + f"payments do not match the policy: paid but not owed {extra}, owed but not paid {missing}")

    # pass 5: the summary's chain figures, recomputed from the transactions and the replay
    if len(summaries) != 1:
        problems.append("expected exactly one summary event")
    elif off := [k for k, v in chain_summary(txs, contract.tasks).items() if summaries[0].get(k) != v]:
        problems.append(f"summary figures off the replayed chain: {', '.join(off)}")

    return AuditReport(not problems, problems, stats)
