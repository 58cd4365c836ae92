"""Scenario configuration: INI files describing one simulated deployment.

A scenario fixes the network profile, the task policy, the cast size and
the money. Three ready-made ones ship inside the package (list_bundled);
any path to an .ini with the same sections works too. All money fields are
parsed exactly (fractions of ETH become integer wei through Fraction, not
float), so two loads of the same file can never disagree by a rounding.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from ..context import ANSWER_DOMAIN, BACKENDS
from ..errors import ConfigError
from ..ledger import PROFILES, FeeParams, GasSchedule
from ..policy import MAJORITY, TaskPolicy

WEI_PER_ETH = 10**18
SUBMITS_PER_BLOCK = 7  # the cast's pace in a run: one block passes after every 7th response


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    description: str
    backend: str  # group backend name, a key of context.BACKENDS
    profile: str  # latency profile
    base_fee_gwei: float
    tip_gwei: float
    eth_usd: float
    rounds: int
    min_workers: int
    response_window: int  # blocks the collection phase stays open
    processing_window: int
    escrow_wei: int
    policy: TaskPolicy
    worker_count: int
    prior: tuple[int, int]
    fixture: str  # bundled fixture name or a path to a csv
    worker_funding_wei: int
    requester_funding_wei: int

    def validate(self) -> None:
        """The one feasibility rule, applied on load and by the runner, so a run plays
        every round to the end: the escrow pays every worker the larger pay, and the
        funding covers every fee and deposit (the runner adds the fixture's checks)."""
        if self.backend not in BACKENDS:
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown network profile {self.profile!r}")
        fees = (self.base_fee_gwei, self.tip_gwei, self.eth_usd)
        if not all(math.isfinite(v) and v >= 0 for v in fees):
            raise ConfigError("base_fee_gwei, tip_gwei and eth_usd must be finite and non-negative")
        if self.rounds < 1:
            raise ConfigError("a scenario needs at least one round")
        if not (1 <= self.min_workers <= self.worker_count):
            raise ConfigError("min_workers must be between 1 and the worker count")
        # the cast's last response, and an outsider's two blocks after it, go in before the window closes
        if self.response_window < self.worker_count // SUBMITS_PER_BLOCK + 2:
            raise ConfigError(
                f"a response window of {self.response_window} blocks is too short for {self.worker_count}"
                f" workers submitting {SUBMITS_PER_BLOCK} per block"
            )
        if self.processing_window < 2:
            raise ConfigError("the processing window must span at least two blocks")
        if self.policy.domain_size > ANSWER_DOMAIN:
            raise ConfigError(f"domain_size exceeds the answer codec's domain of {ANSWER_DOMAIN}")
        if self.escrow_wei < self.worker_count * max(self.policy.pay_correct, self.policy.pay_incorrect):
            raise ConfigError("escrow cannot pay every worker the larger of the two pays")
        if min(self.prior) < 1:
            raise ConfigError("the prior needs at least one of each observation")
        # the funding must cover every fee and deposit before the first transaction: each round may keep its
        # whole escrow (an upheld protest confiscates what is left), and each party sends one response a round
        gas, fee, n, rounds = GasSchedule(), FeeParams(*fees).fee_wei, self.worker_count, self.rounds
        try:
            per_round = self.escrow_wei + fee(gas.create_task) + fee(gas.submit_auth_calc)
            need = fee(gas.deploy) + rounds * (per_round + n * (fee(gas.submit_quality) + fee(gas.worker_payment)))
            response_fee = fee(gas.submit_response)
        except OverflowError:
            raise ConfigError("fees are too large: a transaction fee has no wei value") from None
        if self.requester_funding_wei < need:
            raise ConfigError(f"requester funding cannot cover the {need} wei that {rounds} round(s) may cost")
        if self.worker_funding_wei < rounds * response_fee:
            raise ConfigError(f"worker funding cannot cover {rounds} response fee(s) of {response_fee} wei")


def _wei(text: str) -> int:
    """ETH amount as an exact wei integer; accepts '1', '0.78', '39/50'."""
    amount = Fraction(text) * WEI_PER_ETH
    if amount.denominator != 1 or amount < 0:
        raise ConfigError(f"not a representable ETH amount: {text!r}")
    return amount.numerator


def load_scenario(name_or_path: str) -> ScenarioConfig:
    path = Path(name_or_path)
    if path.suffix == ".ini" and path.exists():
        text = path.read_text()
        fallback_name = path.stem
    else:
        resource = resources.files("anoncrowd").joinpath(f"data/scenarios/{name_or_path}.ini")
        if not resource.is_file():
            known = ", ".join(list_bundled())
            raise ConfigError(f"no scenario {name_or_path!r} (bundled: {known})")
        text = resource.read_text()
        fallback_name = name_or_path
    return parse_scenario(text, fallback_name)


def parse_scenario(text: str, fallback_name: str) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    fee = FeeParams()
    try:
        cp.read_string(text)
        for optional in ("scenario", "network"):
            if not cp.has_section(optional):
                cp.add_section(optional)
        scenario = cp["scenario"]
        network = cp["network"]
        task = cp["task"]
        policy = cp["policy"]
        workers = cp["workers"]
        config = ScenarioConfig(
            name=scenario.get("name", fallback_name),
            description=scenario.get("description", ""),
            backend=network.get("backend", "curve254"),
            profile=network.get("profile", "rinkeby"),
            base_fee_gwei=network.getfloat("base_fee_gwei", fallback=fee.base_fee_gwei),
            tip_gwei=network.getfloat("tip_gwei", fallback=fee.tip_gwei),
            eth_usd=network.getfloat("eth_usd", fallback=fee.eth_usd),
            rounds=task.getint("rounds", fallback=1),
            min_workers=cp.getint("task", "min_workers"),
            response_window=task.getint("response_window", fallback=600),
            processing_window=task.getint("processing_window", fallback=900),
            escrow_wei=_wei(cp.get("task", "escrow_eth")),
            policy=TaskPolicy(
                kind=policy.get("kind", MAJORITY).strip().lower(),
                domain_size=cp.getint("policy", "domain_size"),
                threshold=Fraction(policy.get("threshold", "1/2")),
                pay_correct=_wei(policy.get("pay_correct_eth", "0")),
                pay_incorrect=_wei(policy.get("pay_incorrect_eth", "0")),
                winners=policy.getint("winners", fallback=1),
                epsilon=Fraction(policy.get("epsilon", "0")),
            ),
            worker_count=cp.getint("workers", "count"),
            prior=(workers.getint("prior_alpha", fallback=1), workers.getint("prior_beta", fallback=1)),
            fixture=cp.get("workers", "fixture"),
            worker_funding_wei=_wei(workers.get("funding_eth", "0.05")),
            requester_funding_wei=_wei(task.get("requester_funding_eth", "10")),
        )
    except (configparser.Error, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad scenario file: {exc}") from exc
    config.validate()
    return config


def list_bundled() -> list[str]:
    base = resources.files("anoncrowd").joinpath("data/scenarios")
    return sorted(p.name[: -len(".ini")] for p in base.iterdir() if p.name.endswith(".ini"))
