"""Attack toggles: one misbehaving party wired into an otherwise honest run.

Each toggle is an Attack subclass in ATTACKS. A run makes a fresh instance
and calls its hooks at fixed points of every round; a subclass overrides
only the points it uses, and its check names the detection the attack must
trigger and what the attacker must not gain.
"""

from __future__ import annotations

from ..actors import REJECT_DUP_TAG, REJECT_PROOF, REJECT_STALE
from ..ledger import SUBMIT_RESPONSE

ADVERSARY = "adversary"


class Attack:
    """The honest cast: every hook leaves the round as it is."""

    def rounds(self, config) -> int:
        return config.rounds

    def responders(self, run, rnd, responders: list[int]) -> list[int]:
        """Indexes of the workers who answer this round."""
        return responders

    def after_collect(self, run, rnd) -> None:
        """Runs after the cast has responded, while the window is open."""

    def victim(self, run, rnd) -> int | None:
        """The accepted response whose update and pay the requester withholds."""
        return None

    def after_round(self, run, rnd) -> None:
        """Runs once the round is closed and self-checked."""

    def check(self, run) -> list[str]:
        """The run's failures: in an honest run, any protest at all."""
        return [f"round {s.index}: protest in an honest run" for s in run.stats if s.protests]


def _failures(*checks: tuple[bool, str]) -> list[str]:
    return [message for failed, message in checks if failed]


def _rejections(run, reason: str) -> int:
    return sum(1 for s in run.stats for _, why in s.rejections if why == reason)


def _outsider_submits(run, payload: bytes):
    """An outsider's response, two blocks after the cast's."""
    run.ledger.tick(2)
    return run.ledger.send(SUBMIT_RESPONSE, ADVERSARY, payload)


def _outsider_failures(run, reason: str, detection: str, who: str) -> list[str]:
    """Each replayed response that lands in time is screened out once, and none earns anything."""
    ledger = run.ledger
    spent = sum(r.fee_wei for r in ledger.records if r.sender == ADVERSARY)
    landed = sum(r.sender == ADVERSARY for t in ledger.contract.tasks for r in t.included_responses())
    return _failures(
        (_rejections(run, reason) != landed, f"expected exactly one {detection} detection per copy that landed in time"),
        (ledger.balance(ADVERSARY) != run.worker_funding - spent, f"the {who} outsider was paid"),
    )


class DuplicateResponse(Attack):
    """An outsider resubmits worker-000's response verbatim."""

    def after_collect(self, run, rnd):
        if 0 in rnd.kept_bundles:
            rec = _outsider_submits(run, rnd.kept_bundles[0])
            rnd.ref_to_answer[rec.index] = run.answers[0]  # byte copy carries the same answer
            rnd.stats.notes.append(f"an outsider resubmits worker-000's response verbatim (tx {rec.index})")

    def check(self, run):
        return _outsider_failures(run, REJECT_DUP_TAG, "duplicate-tag", "duplicating")


class ForgedProof(Attack):
    """An outsider replays worker-001's response with a doctored proof."""

    def after_collect(self, run, rnd):
        if 1 in rnd.kept_bundles:
            source = rnd.kept_bundles[1]
            rec = _outsider_submits(run, source[:-1] + bytes([source[-1] ^ 0x01]))
            rnd.stats.notes.append(
                f"an outsider replays a response with a doctored attestation (tx {rec.index})"
            )

    def check(self, run):
        return _outsider_failures(run, REJECT_PROOF, "invalid-proof", "forging")


class StaleQuality(Attack):
    """worker-000 replays its first-round quality state in round two."""

    stale = None  # worker-000's credential as round one opened
    real = None  # its current one while the stale one is in play

    def rounds(self, config):
        return max(config.rounds, 2)

    def responders(self, run, rnd, responders):
        cheater = run.workers[0]
        if rnd.stats.index == 0:
            self.stale = cheater.cred
        elif rnd.stats.index == 1:
            self.real, cheater.cred = cheater.cred, self.stale
            rnd.stats.notes.append("worker-000 replays its previous quality state")
        return responders

    def after_round(self, run, rnd):
        if self.real is not None:  # back on the honest track
            run.workers[0].cred, run.workers[0]._pending = self.real, None
            self.real = None

    def check(self, run):
        return _failures(
            (_rejections(run, REJECT_STALE) != 1, "expected exactly one stale-tag detection"),
            (any(s.upheld for s in run.stats), "a stale replay won arbitration"),
        )


class Deprivation(Attack):
    """The requester withholds one accepted worker's update and pay."""

    def victim(self, run, rnd):
        accepted = rnd.outcome.accepted
        if rnd.outcome.void or not accepted:
            return None
        ref = accepted[1 if len(accepted) > 1 else 0].ref
        rnd.stats.notes.append(f"the requester withholds the update and pay for response {ref}")
        return ref

    def check(self, run):
        return _failures(
            (not any(s.upheld for s in run.stats), "deprivation protest was not upheld"),
            (not any(s.task.confiscated_wei > 0 for s in run.stats), "no escrow was confiscated"),
        )


class VoidTask(Attack):
    """Too few workers respond and the task voids."""

    def responders(self, run, rnd, responders):
        quorum = run.config.min_workers
        responders = responders[: quorum - 1]
        rnd.stats.notes.append(f"only {len(responders)} workers respond, below the quorum of {quorum}")
        return responders

    def check(self, run):
        return _failures(
            (not any(s.void for s in run.stats), "the task did not void"),
            (any(s.task.paid_out_wei for s in run.stats), "a voided task paid workers"),
        )


# the toggles `run --attack` offers, in the order it lists them
ATTACKS: dict[str, type[Attack]] = {
    "duplicate-response": DuplicateResponse,
    "forged-proof": ForgedProof,
    "stale-quality": StaleQuality,
    "deprivation": Deprivation,
    "void-task": VoidTask,
}
