"""The conductor: plays one scenario onto a simulated chain, end to end.

Everything a run produces is deterministic in (scenario, seed, attack):
agent randomness, inclusion latency, payout addresses and claim keys all
derive from the one seed, so two runs with the same inputs emit identical
reports and identical log bytes. The log is a hash-chained JSONL stream
signed off by the registration authority; audit.verify_log replays every
screening verdict and proof in it without any of the agents' secrets.

A run has three parts: set-up (cast, chain, fixture), one loop that plays
each round through the same five phases (open, collect, screen and settle,
adopt and arbitrate, close and self-check), and log writing. An attack
toggle from attacks.ATTACKS wires one misbehaving party into the phases
through its hooks.

Each round's record holds the TaskState the ledger's contract keeps, and
the log's summary is ledger.chain_summary, which the log audit recomputes.
The runner also self-checks: escrow conservation, a plaintext recount of
the final answer, payment amounts against the policy, and the attack's own
detection check. Failed checks land in RunResult.failures and the report;
the CLI exits 1 on any.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from ..actors import (
    QualityPost,
    RegistrationAuthority,
    RequesterAgent,
    TaskOutcome,
    TaskPublic,
    WorkerAgent,
    payout_account,
    post_board,
    screen_responses,
)
from ..context import context_for
from ..encoding import to_json
from ..errors import ConfigError
from ..ledger import (
    BLOCK_SECONDS,
    CONFISCATE,
    CONTRACT,
    CREATE_TASK,
    DEPLOY,
    FINALIZE,
    PROCESSING,
    SUBMIT_AUTH_CALC,
    SUBMIT_QUALITY,
    SUBMIT_RESPONSE,
    VOID_TASK,
    WORKER_PAYMENT,
    ChainTaskParams,
    Ledger,
    TaskState,
    chain_summary,
)
from ..policy import AVERAGE, FinalAnswer, QualityState, ans_calc, is_correct, paym_calc, quality_mean
from ..primitives import sign
from ..relations import (
    AUTH_CALC_ID,
    AUTH_QUAL_ID,
    AUTH_VALUE_ID,
    PROVE_QUAL_ID,
    ProofBackend,
)
from .attacks import ADVERSARY, ATTACKS, Attack
from .audit import CHAIN_SEED, LOG_VERSION, canonical_line, chain_digest
from .scenario import SUBMITS_PER_BLOCK, WEI_PER_ETH, ScenarioConfig

REQUESTER = "requester"
_ADDRESS_SPACE = 1 << 20  # payout addresses drawn small so decryption is quick


@dataclass
class RoundStats:
    """One round's record; the phases fill it in as the round plays. Its
    task's records, escrow and totals are the contract's, in task."""

    index: int
    task: TaskState | None = None
    process_blocks: int = 0
    included: int = 0
    accepted: int = 0
    rejections: list[tuple[int, str]] = field(default_factory=list)
    void: bool = False
    final_text: str = ""
    value_proofs: int = 0
    protests: int = 0
    upheld: int = 0
    notes: list[str] = field(default_factory=list)


@dataclass
class WorkerRow:
    name: str
    alpha: int
    beta: int
    paid_wei: int
    status: str


@dataclass
class RunResult:
    config: ScenarioConfig
    seed: int
    attack: str | None
    rounds: list[RoundStats]
    worker_rows: list[WorkerRow]
    proof_counts: dict[str, int]
    failures: list[str]
    simulated_blocks: int
    report: str
    log_lines: list[str]

    def write_log(self, path: str) -> None:
        with open(path, "w") as fh:
            for line in self.log_lines:
                fh.write(line + "\n")


def _final_text(final: FinalAnswer | None) -> str:
    if final is None:
        return "void"
    if final.kind == AVERAGE:
        num, den = final.values
        return f"average -> {num}/{den} ({num / den:.3f})"
    return "majority -> " + ",".join(str(v) for v in final.values)


def run(config: ScenarioConfig, seed: int, attack: str | None = None) -> RunResult:
    return _Run(config, seed, attack).play()


@dataclass
class _Round:
    """One round: its record plus the working state the phases hand on."""

    stats: RoundStats
    # open
    task_pub: TaskPublic | None = None
    # collect
    account_to_worker: dict[str, str] = field(default_factory=dict)
    ref_to_worker: dict[int, WorkerAgent] = field(default_factory=dict)
    ref_to_answer: dict[int, int] = field(default_factory=dict)
    kept_bundles: dict[int, bytes] = field(default_factory=dict)  # by worker index
    included: list[tuple[int, bytes]] = field(default_factory=list)
    tags_before: set[bytes] = field(default_factory=set)
    # screen and settle
    outcome: TaskOutcome | None = None
    board: dict[tuple[int, bytes], list[QualityPost]] = field(default_factory=dict)  # decoded once per round


class _Run:
    """One run: set-up here, the round loop in play, the log in _result."""

    def __init__(self, config: ScenarioConfig, seed: int, attack: str | None):
        if attack is not None and attack not in ATTACKS:
            raise ConfigError(f"unknown attack {attack!r} (one of {', '.join(ATTACKS)})")
        self.hook = ATTACKS[attack]() if attack is not None else Attack()
        self.rounds = self.hook.rounds(config)
        played = replace(config, rounds=self.rounds)  # an attack may play more rounds than the scenario
        self.answers = played.validate()
        requester_funding, self.worker_funding = played.funding
        self.config = config
        self.seed = seed
        self.attack = attack

        self.ctx = context_for(config.backend)
        master = random.Random(seed)
        self.backend_seed = master.getrandbits(256).to_bytes(32, "little")
        backend = ProofBackend(self.backend_seed)
        ledger_seed = master.getrandbits(64)
        ra_rng = random.Random(master.getrandbits(64))
        req_rng = random.Random(master.getrandbits(64))
        worker_rngs = [random.Random(master.getrandbits(64)) for _ in range(config.worker_count)]
        self.address_rng = random.Random(master.getrandbits(64))

        self.ledger = Ledger(seed=ledger_seed, profile=config.profile, fee=config.fee)
        self.ledger.fund(REQUESTER, requester_funding)
        self.ledger.fund(ADVERSARY, self.worker_funding)

        self.ra = RegistrationAuthority(self.ctx, backend, ra_rng, prior=config.prior)
        self.requester = RequesterAgent(self.ctx, backend, req_rng)
        self.workers: list[WorkerAgent] = []
        for i in range(config.worker_count):
            name = f"worker-{i:03d}"
            self.ledger.fund(name, self.worker_funding)
            w = WorkerAgent(self.ctx, backend, name, f"{config.name}/{seed}/{name}".encode(), worker_rngs[i])
            w.enroll(self.ra)
            self.workers.append(w)

        self.ledger.send(DEPLOY, REQUESTER)
        self.round_events: list[dict] = []
        self.screening_events: list[dict] = []
        self.arbitration_events: list[dict] = []
        self.stats: list[RoundStats] = []
        self.failures: list[str] = []
        self.paid_to_worker = {w.name: 0 for w in self.workers}
        self.status = {w.name: "idle" for w in self.workers}

    def play(self) -> RunResult:
        phases = (self._open, self._collect, self._screen_and_settle, self._adopt_and_arbitrate, self._close_and_check)
        for r in range(self.rounds):
            rnd = _Round(RoundStats(r))
            for phase in phases:
                phase(rnd)
            self.stats.append(rnd.stats)
            self.hook.after_round(self, rnd)
        self.failures.extend(self.hook.check(self))
        return self._result()

    def _open(self, rnd: _Round) -> None:
        config, ledger, st = self.config, self.ledger, rnd.stats
        rnd.task_pub = self.requester.announce(config.policy, self.ra)
        params = ChainTaskParams(
            response_deadline=ledger.block + config.response_window,
            processing_deadline=ledger.block + config.response_window + config.processing_window,
            escrow_wei=config.escrow_wei,
        )
        create = ledger.send(CREATE_TASK, REQUESTER, value_wei=params.escrow_wei, params=params)
        st.task = ledger.contract.tasks[-1]
        self.round_events.append(
            {
                "type": "round",
                "round": st.index,
                "task_seq": st.task.seq,
                "tree_root": rnd.task_pub.tree_root.hex(),
                **to_json(params),
                "opened_block": create.submitted_block,
            }
        )

    def _collect(self, rnd: _Round) -> None:
        config, ledger, workers = self.config, self.ledger, self.workers
        responders = self.hook.responders(self, rnd, list(range(config.worker_count)))
        addresses = self.address_rng.sample(range(_ADDRESS_SPACE), config.worker_count)
        rnd.account_to_worker = {payout_account(addresses[i]): workers[i].name for i in responders}
        for pos, i in enumerate(responders):
            w = workers[i]
            if not w.qualifies(config.policy):
                self.status[w.name] = "sat out below threshold"
                rnd.stats.notes.append(f"{w.name} no longer clears the admission threshold and sits out")
                continue
            bundle = w.build_response(self.ra, rnd.task_pub, self.answers[i], address=addresses[i])
            rec = ledger.send(SUBMIT_RESPONSE, w.name, bundle)
            w.mark_submitted(rec.index)
            rnd.ref_to_worker[rec.index] = w
            rnd.ref_to_answer[rec.index] = self.answers[i]
            rnd.kept_bundles[i] = bundle
            if pos % SUBMITS_PER_BLOCK == SUBMITS_PER_BLOCK - 1:
                ledger.tick(1)
        self.hook.after_collect(self, rnd)

        ledger.tick_to(rnd.stats.task.params.response_deadline + 1)
        rnd.included = [(rec.index, rec.payload) for rec in rnd.stats.task.included_responses()]
        rnd.stats.included = len(rnd.included)
        rnd.tags_before = set(self.requester.seen_tags)

    def _screen_and_settle(self, rnd: _Round) -> None:
        ledger, st = self.ledger, rnd.stats
        outcome = rnd.outcome = self.requester.evaluate(rnd.task_pub, rnd.included, self.config.min_workers)
        st.accepted = len(outcome.accepted)
        st.rejections = outcome.rejections
        st.void = outcome.void
        st.final_text = _final_text(outcome.final)
        self.screening_events.append(
            {
                "type": "screening",
                "round": st.index,
                "accepted": [p.ref for p in outcome.accepted],
                "rejections": [[ref, reason] for ref, reason in outcome.rejections],
                "void": outcome.void,
            }
        )
        for ref, reason in outcome.rejections:
            w = rnd.ref_to_worker.get(ref)
            if w is not None:
                self.status[w.name] = f"rejected: {reason}"

        victim_ref = self.hook.victim(self, rnd)
        if outcome.void:
            ledger.send(VOID_TASK, REQUESTER)
        else:
            ledger.send(SUBMIT_AUTH_CALC, REQUESTER, outcome.final_bundle)
            ledger.tick(1)
        for parsed, post, leaf in zip(outcome.accepted, outcome.quality_posts, outcome.leaves):
            if parsed.ref != victim_ref:
                ledger.send(SUBMIT_QUALITY, REQUESTER, post)
                self.ra.tree.append(leaf)
        for parsed, (account, amount) in zip(outcome.accepted, outcome.payments):  # none when void
            if parsed.ref != victim_ref:
                ledger.send(WORKER_PAYMENT, REQUESTER, value_wei=-amount, beneficiary=account)
                earner = rnd.account_to_worker.get(account)
                if earner is not None:
                    self.paid_to_worker[earner] += amount
        ledger.tick(1)

        rnd.board = post_board(self.ctx, [rec.payload for rec in st.task.sent(SUBMIT_QUALITY)])
        # the correctness proofs that reached the chain, as the audit counts them
        st.value_proofs = sum(post.value_proof is not None for posts in rnd.board.values() for post in posts)

    def _adopt_and_arbitrate(self, rnd: _Round) -> None:
        final_cts, status, st, task = rnd.outcome.final_cts, self.status, rnd.stats, rnd.stats.task
        protests = []
        for ref in sorted(rnd.ref_to_worker):
            w = rnd.ref_to_worker[ref]
            grievance = w.adopt_update(self.ra, rnd.task_pub, rnd.board, final_cts)
            if grievance is None:
                status[w.name] = "adopted"
            else:
                protests.append((w, grievance))
        st.protests = len(protests)
        if protests:  # the authority screens the round once, for every protest
            accepted, _ = screen_responses(self.ctx, self.ra.backend, rnd.task_pub, rnd.included, rnd.tags_before)
        for w, grievance in protests:
            ref = grievance.response_ref
            upheld = self.ra.arbitrate(grievance, rnd.task_pub, accepted, rnd.board, final_cts)
            self.arbitration_events.append(
                {"type": "arbitration", "round": st.index, "ref": ref, "upheld": upheld}
            )
            if upheld:
                st.upheld += 1
                status[w.name] = "protest upheld, escrow confiscated"
                st.notes.append(f"protest over response {ref} upheld, escrow confiscated")
                if task.phase == PROCESSING:
                    self.ledger.send(CONFISCATE, CONTRACT, value_wei=-task.escrow_wei, beneficiary=grievance.payout)
            else:
                base = status[w.name]
                status[w.name] = (
                    f"{base}; protest rejected" if base.startswith("rejected") else "protest rejected"
                )
                st.notes.append(f"protest over response {ref} rejected")

    def _close_and_check(self, rnd: _Round) -> None:
        """Closes the task and self-checks the round: conservation, recount,
        policy payments."""
        ledger, outcome, st, task = self.ledger, rnd.outcome, rnd.stats, rnd.stats.task
        policy = self.config.policy
        close_block = ledger.block
        if task.phase == PROCESSING:
            close_block = ledger.send(FINALIZE, REQUESTER).inclusion_block
        st.process_blocks = max(close_block - task.params.response_deadline, 0)

        prefix = f"round {st.index}: "
        if not task.escrow_conserved():
            self.failures.append(prefix + "escrow not conserved")
        if not outcome.void:
            recount = ans_calc([rnd.ref_to_answer[p.ref] for p in outcome.accepted], policy)
            if recount != outcome.final:
                self.failures.append(prefix + "final answer differs from the plaintext recount")
            for parsed, (_, amount) in zip(outcome.accepted, outcome.payments):
                expected = paym_calc(is_correct(rnd.ref_to_answer[parsed.ref], recount, policy), policy)
                if amount != expected:
                    self.failures.append(prefix + f"payment for response {parsed.ref} off the policy")
                    break
        ledger.tick(2)

    def _result(self) -> RunResult:
        """Writes the signed log and the report."""
        config, ctx, ledger, stats = self.config, self.ctx, self.ledger, self.stats
        g = ctx.group
        # every submitted response carries a proof, late ones too
        proof_counts = {
            PROVE_QUAL_ID: sum(len(s.task.sent(SUBMIT_RESPONSE)) for s in stats),
            AUTH_CALC_ID: sum(not s.void for s in stats),
            AUTH_QUAL_ID: sum(len(s.task.sent(SUBMIT_QUALITY)) for s in stats),
            AUTH_VALUE_ID: sum(s.value_proofs for s in stats),
        }
        header = {
            "type": "header",
            "version": LOG_VERSION,
            "scenario": config.name,
            "seed": self.seed,
            "attack": self.attack,
            "backend": g.name,
            "profile": config.profile,
            **to_json(ledger.fee),
            "policy": to_json(config.policy),
            "prior": list(config.prior),
            "rounds": self.rounds,
            "min_workers": config.min_workers,
            "worker_count": config.worker_count,
            "params_digest": ctx.params_digest.hex(),
            "ra_pk": g.encode_element(self.ra.pk).hex(),
            "requester_pk": g.encode_element(self.requester.pk).hex(),
            "backend_seed": self.backend_seed.hex(),
        }
        summary = {
            "type": "summary",
            **chain_summary(ledger.records, ledger.contract.tasks),
            "escrow_ok": all(t.escrow_conserved() for t in ledger.contract.tasks),
            "final_block": ledger.block,
        }
        events = [header, *self.round_events]
        events.extend({"type": "tx", **to_json(rec)} for rec in ledger.records)
        events.extend(self.screening_events)
        events.extend(self.arbitration_events)
        events.append(summary)

        log_lines: list[str] = []
        chain = CHAIN_SEED
        for event in events:
            chain = chain_digest(chain, event)
            log_lines.append(canonical_line({**event, "chain": chain.hex()}))
        signoff_sig = sign(g, self.ra.keypair.sk, chain)
        log_lines.append(
            canonical_line({"type": "signoff", "chain": chain.hex(), "sig": signoff_sig.encode(g).hex()})
        )

        worker_rows = [
            WorkerRow(w.name, w.quality.alpha, w.quality.beta, self.paid_to_worker[w.name], self.status[w.name])
            for w in self.workers
        ]
        simulated_blocks = max((rec.inclusion_block for rec in ledger.records), default=0)
        return RunResult(
            config=config,
            seed=self.seed,
            attack=self.attack,
            rounds=stats,
            worker_rows=worker_rows,
            proof_counts=proof_counts,
            failures=self.failures,
            simulated_blocks=simulated_blocks,
            report=_render_report(self, worker_rows, proof_counts, simulated_blocks, summary["gas_by_sender"]),
            log_lines=log_lines,
        )


def _render_report(run: _Run, worker_rows: list[WorkerRow], proof_counts: dict, blocks: int, by_sender: dict) -> str:
    config, seed, attack, stats, ledger = run.config, run.seed, run.attack, run.stats, run.ledger
    failures, fee = run.failures, ledger.fee
    eth = lambda wei: f"{wei / WEI_PER_ETH:.6f}"
    lines = []
    lines.append(f"== scenario {config.name} (seed {seed}) ==")
    if config.description:
        lines.append(config.description)
    lines.append(
        f"backend {config.backend}, network {config.profile}"
        f" (base {fee.base_fee_gwei:g} gwei, tip {fee.tip_gwei:g} gwei, 1 ETH = {fee.eth_usd:.2f} USD)"
    )
    pol = config.policy
    extra = f" epsilon={pol.epsilon}" if pol.kind == AVERAGE else f" winners={pol.winners}"
    lines.append(
        f"policy {pol.kind} domain={pol.domain_size}{extra} threshold={pol.threshold}"
        f" pay {eth(pol.pay_correct)}/{eth(pol.pay_incorrect)} ETH"
    )
    lines.append(f"workers {config.worker_count} enrolled at prior {config.prior[0]}/{config.prior[1]}")
    if attack:
        lines.append(f"attack enabled: {attack}")

    for s in stats:
        task = s.task
        lines.append("")
        lines.append(f"-- round {s.index + 1} (task {task.seq}) --")
        lines.append(
            f"opened at block {task.records[0].submitted_block}; collecting {config.response_window} blocks,"
            f" processing {s.process_blocks} blocks"
        )
        lines.append(
            f"responses submitted {len(task.sent(SUBMIT_RESPONSE))}, included {s.included},"
            f" accepted {s.accepted}, rejected {len(s.rejections)}"
        )
        for ref, reason in s.rejections:
            lines.append(f"  rejected tx {ref}: {reason}")
        lines.append(f"final answer: {s.final_text}")
        lines.append(
            f"quality posts {len(task.sent(SUBMIT_QUALITY))}, value proofs {s.value_proofs},"
            f" payments {eth(task.paid_out_wei)} ETH"
        )
        lines.append(
            f"escrow: refunded {eth(task.refunded_wei)}, confiscated {eth(task.confiscated_wei)},"
            f" conserved {'yes' if task.escrow_conserved() else 'NO'}"
        )
        lines.append(f"protests {s.protests}, upheld {s.upheld}")
        for note in s.notes:
            lines.append(f"  note: {note}")

    lines.append("")
    lines.append("-- workers --")
    for row in worker_rows:
        mean = float(quality_mean(QualityState(row.alpha, row.beta)))
        lines.append(
            f"{row.name} quality {row.alpha}/{row.beta} (mean {mean:.3f})"
            f" paid {eth(row.paid_wei)} ETH, {row.status}"
        )

    lines.append("")
    lines.append("-- proofs posted --")
    for rid in sorted(proof_counts):
        lines.append(f"{rid}: {proof_counts[rid]}")

    lines.append("")
    lines.append("-- chain totals --")
    worker_gas = sum(by_sender.get(w.name, 0) for w in run.workers)
    req_gas = by_sender.get(REQUESTER, 0)
    adv_gas = by_sender.get(ADVERSARY, 0)
    lines.append(f"requester gas {req_gas} (USD {fee.cost_usd(req_gas):.2f})")
    lines.append(f"worker gas total {worker_gas} (USD {fee.cost_usd(worker_gas):.2f})")
    if adv_gas:
        lines.append(f"adversary gas {adv_gas} (USD {fee.cost_usd(adv_gas):.2f})")
    charged = [r for r in ledger.records if r.gas > 0]
    if charged:
        mean_latency = sum(r.inclusion_block - r.submitted_block for r in charged) / len(charged)
        lines.append(f"inclusion latency mean {mean_latency:.2f} blocks over {len(charged)} txs")
    minutes = blocks * BLOCK_SECONDS / 60
    lines.append(f"simulated time {blocks} blocks ({minutes:.1f} min at {BLOCK_SECONDS} s/block)")

    lines.append("")
    if failures:
        for f in failures:
            lines.append(f"FAILED: {f}")
    else:
        lines.append("all run invariants hold")
    return "\n".join(lines) + "\n"
