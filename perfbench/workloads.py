"""The three benchmark workloads and the inputs each one runs.

Every workload is one scenario config, built from the workload seed; the
runner gets that same seed. `PINS` holds the SHA-256 of each workload's
run log at DEFAULT_SEED (the bytes `anoncrowd run --out` writes). A change
that alters log bytes on purpose updates these pins, as the ROADMAP
requires for its own anchors.
"""

from __future__ import annotations

import configparser
import io
from fractions import Fraction
from importlib import resources
from pathlib import Path

from anoncrowd.harness.fixtures import generate_answers, render_fixture
from anoncrowd.harness.scenario import WEI_PER_ETH, ScenarioConfig, load_scenario
from anoncrowd.ledger import FeeParams, GasSchedule

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1

PINS = {
    "settle_tiny31": "dd9f551e4a7b08d082be1c64fc2024cf486ce142c6e85062348579bd9ce1ea3d",
    "review_curve254": "87a8a2a01a9ef7b97215a57e887bf0239befaed75fce5718cb09ae2f13680894",
    "poll_rounds_curve254": "0dde2c2d4e5c418cc895934c090086ae299a1d54c7c8ff6f4181936fcd6cd013",
}

SETTLE_WORKERS = 512
_SUBMITS_PER_BLOCK = 7  # the runner ticks one block after every 7th response
_LATENCY_MARGIN = 16  # blocks; goerli inclusion latency is about 4 +- 1


def _eth(wei: int) -> str:
    return str(Fraction(wei, WEI_PER_ETH))


def _settle_config(seed: int, out_dir: Path) -> ScenarioConfig:
    """image_annotation's policy (binary majority, one round) with n
    workers on tiny31, answers drawn from the workload seed."""
    n = SETTLE_WORKERS
    answers = generate_answers("biased", n, 2, seed)
    fixture = out_dir / f"settle_tiny31-seed{seed}.csv"
    fixture.write_text(render_fixture(answers, f"kind=biased count={n} domain=2 seed={seed}"))

    cp = configparser.ConfigParser()
    cp.read_string(resources.files("anoncrowd").joinpath("data/scenarios/image_annotation.ini").read_text())
    base = load_scenario("image_annotation")
    fee = FeeParams(base.base_fee_gwei, base.tip_gwei, base.eth_usd)
    gas = GasSchedule()
    # the escrow covers a fully correct round; the requester also pays the
    # gas of its own transactions, one quality post and payment per worker
    escrow = n * base.policy.pay_correct
    requester_gas = gas.deploy + gas.create_task + gas.submit_auth_calc
    requester_gas += n * (gas.submit_quality + gas.worker_payment)
    cp["scenario"]["name"] = "settle_tiny31"
    cp["scenario"]["description"] = f"binary labeling, {n} workers, single-winner majority"
    cp["network"]["backend"] = "tiny31"
    cp["task"]["min_workers"] = str(n // 2)
    # every response must land inside the window: a late one leaves its
    # worker without an update, and the protest fails the honest run
    cp["task"]["response_window"] = str(-(-n // _SUBMITS_PER_BLOCK) + _LATENCY_MARGIN)
    cp["task"]["escrow_eth"] = _eth(escrow)
    cp["task"]["requester_funding_eth"] = _eth(escrow + fee.fee_wei(requester_gas))
    cp["workers"]["count"] = str(n)
    cp["workers"]["fixture"] = str(fixture)
    text = io.StringIO()
    cp.write(text)
    scenario = out_dir / f"settle_tiny31-seed{seed}.ini"
    scenario.write_text(text.getvalue())
    return load_scenario(str(scenario))


def load(name: str, seed: int, out_dir: Path) -> ScenarioConfig:
    if name == "settle_tiny31":
        return _settle_config(seed, out_dir)
    if name == "review_curve254":
        return load_scenario("avg_review")
    if name == "poll_rounds_curve254":
        return load_scenario(str(HERE / "scenarios" / "poll_rounds_curve254.ini"))
    raise ValueError(f"unknown workload {name!r}")
