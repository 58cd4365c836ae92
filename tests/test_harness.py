"""Scenario plumbing, the runner, attack toggles, and log auditing.

Runner tests use the bundled scenarios switched onto the brute-forceable
backend; the production curve gets its exercise in the acceptance suite.
Every run here is seeded, so expectations are exact, not statistical.
"""

import configparser
import hashlib
import io
import json
import random
import tracemalloc
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anoncrowd import primitives
from anoncrowd.actors import QualityPost
from anoncrowd.encoding import from_json, to_json
from anoncrowd.errors import ConfigError
from anoncrowd.harness.audit import (
    CHAIN_SEED,
    AuditReport,
    canonical_line,
    chain_digest,
    verify_log,
)
from anoncrowd.harness.cli import main
from anoncrowd.harness.fixtures import (
    generate_answers,
    load_fixture,
    parse_fixture,
    render_fixture,
)
from anoncrowd.harness.attacks import ATTACKS
from anoncrowd.harness import runner
from anoncrowd.harness.runner import run
from anoncrowd.harness.scenario import list_bundled, load_scenario, parse_scenario
from anoncrowd.ledger import (
    CREATE_TASK,
    SUBMIT_QUALITY,
    SUBMIT_RESPONSE,
    ChainTaskParams,
    FeeParams,
    LedgerRecord,
    TaskContract,
)
from anoncrowd.policy import TaskPolicy, ans_calc


# SHA-256 of the log bytes ("\n".join(log_lines) + "\n"), of the report and
# of the log audit's rendered report for the tiny31 image_annotation runs at
# seed 11. A change that alters any of them on purpose updates the pin
# together with its reason.
PINS = {
    None: (
        "ed1eb80e9b9a3b07dc8cdfc9f19917f63188c3f73990963a379f1d867dd8ece0",
        "9993de7d491f3c98df021842423b169fc5ffadf698e0a80bf078dcfbdb95cde9",
        "db212962ad8dcf00ab87f329fb7278085288354abae4ea01405ebcb89283b428",
    ),
    "duplicate-response": (
        "f8bac0e78836367f65a8eb3d9422edbd4276e93b223b405e76e023e45c204a24",
        "0d9b3b17deea43f050a70ec8c714f95146797524c592e342e5c8110c50cc3b01",
        "80288fd5d41321ce22b99ebaddbf31103e38532e6d774b4cca96740bd0edcbc0",
    ),
    "forged-proof": (
        "bb33b629a11a93df6f97373fe77d14beb49cb47f0611f2fa051d1686d54d5023",
        "6a49bd6c8decbfad06eda1a8ea477c2e93834773f2b2f53cbc1c9dd707321c96",
        "80288fd5d41321ce22b99ebaddbf31103e38532e6d774b4cca96740bd0edcbc0",
    ),
    "stale-quality": (
        "22ad2b94a61f0a59305fe533be45063e0c9a0dd62e3694d63c28d6be2609bd47",
        "5b18553162a03f40a2056765b12dfc97d6b15b9c147bb012e026b8510696ee28",
        "ab60dda540a2625e3328debd8aade4d19cb16ada5e3fe91c05184d738460ed89",
    ),
    "deprivation": (
        "a7071abc2c6946b19c506ee27ed6a712d2281e236a6725ee0fab256c199e3037",
        "fb130e1d4daade4594389b956167f629b3041de50322bdc16b58e1db03ea1e7b",
        "8dace37e4f6bf5b067a0c728175298d4dfa15ad88701a917ee0110fa92764689",
    ),
    "void-task": (
        "8da911d87667b82c4d957f21f6170e1c2d77bda26d661c46a57d34992062f3dc",
        "fece0cb56716d6a3533db55ed0c37b3f4d18daba69d302ec3c5ddc8642edfdd7",
        "3fbc703c59f44ef260a664e8e0b85c16ba54eb8c78e1fafac3379a14f80cad3a",
    ),
}


def digests(result):
    log = "\n".join(result.log_lines) + "\n"
    texts = (log, result.report, verify_log(result.log_lines).render())
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in texts)


def chained(bodies, signoff=None):
    """Log lines for event bodies with the hash chain redone; a signoff is
    pointed at the new chain, so its signature no longer verifies."""
    out, chain = [], CHAIN_SEED
    for body in bodies:
        chain = chain_digest(chain, body)
        out.append(canonical_line({**body, "chain": chain.hex()}))
    if signoff is not None:
        out.append(canonical_line({**signoff, "chain": chain.hex()}))
    return out


def split_log(lines):
    """The event bodies (chain fields dropped) and the signoff of a log."""
    events = [json.loads(ln) for ln in lines]
    bodies = [{k: v for k, v in ev.items() if k != "chain"} for ev in events if ev["type"] != "signoff"]
    return bodies, next(ev for ev in events if ev["type"] == "signoff")


def resigned(bodies, group, sk):
    """Log lines for event bodies with the hash chain redone and signed off
    afresh with the authority's key sk, so the signoff verifies."""
    lines = chained(bodies)
    chain = json.loads(lines[-1])["chain"]
    sig = primitives.sign(group, sk, bytes.fromhex(chain))
    return lines + [canonical_line({"type": "signoff", "chain": chain, "sig": sig.encode(group).hex()})]


def rechain(lines, kind, mutate):
    """The log with its first `kind` event mutated and the hash chain redone
    (the signoff signature then no longer verifies)."""
    bodies, signoff = split_log(lines)
    mutate(next(body for body in bodies if body["type"] == kind))
    return chained(bodies, signoff)


# re-chained logs the audit must fail rather than raise on, each made by a
# list of (event type, mutation) edits
REPLAY_BREAKERS = {
    "header without rounds": [("header", lambda ev: ev.pop("rounds"))],
    "round without task_seq": [("round", lambda ev: ev.pop("task_seq"))],
    "null acceptances": [("screening", lambda ev: ev.update(accepted=None))],
    "string domain size": [("header", lambda ev: ev["policy"].update(domain_size="2"))],
    "unknown backend": [("header", lambda ev: ev.update(backend="nope"))],
    "infinite tip": [("header", lambda ev: ev.update(tip_gwei=float("inf")))],
    "NaN base fee": [("header", lambda ev: ev.update(base_fee_gwei=float("nan")))],
    "oversized domain": [("header", lambda ev: ev["policy"].update(domain_size=2**70))],
    "short tree root": [("round", lambda ev: ev.update(tree_root="00"))],
    "processing deadline at the response deadline": [
        ("round", lambda ev: ev.update(processing_deadline=ev["response_deadline"]))
    ],
    "negative escrow": [("round", lambda ev: ev.update(escrow_wei=-1))],
    # nothing is included, yet the round counts as quorate: the final-answer
    # statement covers no answer ciphertext and does not validate
    "quorate round with no answers": [
        ("header", lambda ev: ev.update(min_workers=0)),
        ("round", lambda ev: ev.update(response_deadline=-1)),
    ],
}


# what a scenario mutant sets a value to: edge numbers, overflows, fractions and junk
MUTANT_VALUES = ["0", "-1", "nan", "inf", "1e400", "1/3", "3/2", "zz"]


# values of every JSON type, to swap in for a field of another type
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


def value_slots(body):
    """(container, key) of every value in an event the fuzzer may swap out,
    nested ones (the header's policy, screening lists) included."""
    slots = [(body, key) for key in sorted(body)]
    for value in body.values():
        if isinstance(value, dict):
            slots += [(value, key) for key in sorted(value)]
        elif isinstance(value, list):
            slots += [(value, i) for i in range(len(value))]
            slots += [(item, j) for item in value if isinstance(item, list) for j in range(len(item))]
    return slots


def mutate_events(data, bodies):
    """One drawn mutation: drop a field, swap in a value of another type,
    move or delete an event, or flip a bit of a transaction payload."""
    if not bodies:
        return
    body = bodies[data.draw(st.integers(0, len(bodies) - 1))]
    op = data.draw(st.sampled_from(["drop", "retype", "move", "delete", "flip"]))
    if op == "drop" and body:
        del body[data.draw(st.sampled_from(sorted(body)))]
    elif op == "retype" and body:
        container, key = data.draw(st.sampled_from(value_slots(body)))
        container[key] = data.draw(JUNK)
    elif op == "move":
        bodies.remove(body)
        bodies.insert(data.draw(st.integers(0, len(bodies))), body)
    elif op == "delete":
        bodies.remove(body)
    elif op == "flip":
        txs = [b for b in bodies if b.get("type") == "tx" and isinstance(b.get("payload"), str) and b["payload"]]
        if txs:
            tx = data.draw(st.sampled_from(txs))
            at = data.draw(st.integers(0, len(tx["payload"]) - 1))
            digit = tx["payload"][at]
            if digit in "0123456789abcdef":
                flipped = format(int(digit, 16) ^ (1 << data.draw(st.integers(0, 3))), "x")
                tx["payload"] = tx["payload"][:at] + flipped + tx["payload"][at + 1 :]


@pytest.fixture(scope="module")
def tiny_image():
    return replace(load_scenario("image_annotation"), backend="tiny31")


@pytest.fixture(scope="module")
def honest_run(tiny_image):
    return run(tiny_image, seed=11)


@pytest.fixture(scope="module")
def authority_run(tiny_image):
    """An honest run at seed 1 and the authority that signed its log off."""
    return signed_run(tiny_image)


def signed_run(cfg, attack=None):
    """A run at seed 1 and the authority that signed its log off."""
    return recorded_run(cfg, "RegistrationAuthority", seed=1, attack=attack)


def recorded_run(cfg, name, seed, attack=None):
    """A run and the first instance of the runner's class `name` it made."""
    made = []

    class Recorded(getattr(runner, name)):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, name, Recorded)
        result = run(cfg, seed=seed, attack=attack)
    return result, made[0]


@pytest.fixture(scope="module")
def signed_runs(tiny_image, authority_run):
    """Seed-1 runs, honest and under the attacks that confiscate or void, with their authorities."""
    runs = {attack: signed_run(tiny_image, attack) for attack in ("deprivation", "void-task")}
    return {None: authority_run, **runs}


@pytest.fixture(scope="module")
def attack_runs(tiny_image):
    return {attack: run(tiny_image, seed=11, attack=attack) for attack in ATTACKS}


class TestScenarios:
    def test_bundled_names(self):
        assert list_bundled() == ["avg_review", "gallup", "image_annotation"]

    def test_image_annotation_shape(self):
        cfg = load_scenario("image_annotation")
        assert cfg.worker_count == 39
        assert cfg.policy.kind == "majority"
        assert cfg.policy.domain_size == 2
        assert cfg.policy.winners == 1
        assert cfg.backend == "curve254"
        assert cfg.profile == "goerli"

    def test_money_is_parsed_exactly(self):
        cfg = load_scenario("avg_review")
        assert cfg.policy.pay_correct == 20_000_000_000_000_000
        assert cfg.policy.pay_incorrect == 2_000_000_000_000_000
        assert cfg.escrow_wei == 3 * 10**18

    def test_load_from_path(self, tmp_path):
        text = load_scenario("gallup")
        src = (
            "[task]\nmin_workers = 2\nescrow_eth = 1\n"
            "[policy]\nkind = majority\ndomain_size = 2\npay_correct_eth = 0.02\n"
            "[workers]\ncount = 4\nfixture = image_annotation\n"
        )
        path = tmp_path / "mini.ini"
        path.write_text(src)
        cfg = load_scenario(str(path))
        assert cfg.name == "mini"  # falls back to the file stem
        assert cfg.worker_count == 4
        assert text.name == "gallup"

    def test_unknown_name_lists_bundled(self):
        with pytest.raises(ConfigError, match="image_annotation"):
            load_scenario("no_such_scenario")

    def test_validation_rejects_bad_quorum(self):
        with pytest.raises(ConfigError, match="min_workers"):
            parse_scenario(
                "[task]\nmin_workers = 9\nescrow_eth = 1\n"
                "[policy]\nkind = majority\ndomain_size = 2\n"
                "[workers]\ncount = 4\nfixture = f\n",
                "bad",
            )

    def test_validation_rejects_thin_escrow(self):
        with pytest.raises(ConfigError, match="escrow"):
            parse_scenario(
                "[task]\nmin_workers = 2\nescrow_eth = 0.01\n"
                "[policy]\nkind = majority\ndomain_size = 2\npay_correct_eth = 0.02\n"
                "[workers]\ncount = 4\nfixture = f\n",
                "bad",
            )

    def test_missing_section_is_a_config_error(self):
        with pytest.raises(ConfigError):
            parse_scenario("[task]\nmin_workers = 1\n", "bad")

    @pytest.mark.parametrize(
        "section, key",
        [
            ("task", "min_workers"),
            ("task", "escrow_eth"),
            ("policy", "domain_size"),
            ("workers", "count"),
            ("workers", "fixture"),
        ],
    )
    def test_missing_required_key_is_a_config_error(self, section, key):
        text = resources.files("anoncrowd").joinpath("data/scenarios/image_annotation.ini").read_text()
        cp = configparser.ConfigParser()
        cp.read_string(text)
        cp.remove_option(section, key)
        out = io.StringIO()
        cp.write(out)
        with pytest.raises(ConfigError, match=key):
            parse_scenario(out.getvalue(), "bad")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("policy", "threshold", "3/0"),
            ("policy", "epsilon", "1/0"),
            ("task", "escrow_eth", "1/0"),
            ("network", "profile", "mainnet"),
            ("workers", "prior_alpha", "0"),
            ("network", "base_fee_gwei", "nan"),
            ("network", "base_fee_gwei", "1e300"),
            ("network", "tip_gwei", "nan"),
            ("network", "tip_gwei", "1e300"),
            ("network", "eth_usd", "inf"),
            ("policy", "domain_size", "100000"),  # above the answer codec's 2^16
            ("workers", "count", "40"),  # the fixture holds 39 answers
            ("workers", "fixture", "gallup"),  # answers of a five-value domain
        ],
    )
    def test_hostile_value_is_a_config_error(self, tmp_path, capsys, section, key, value):
        cp = configparser.ConfigParser()
        cp.read_string(resources.files("anoncrowd").joinpath("data/scenarios/image_annotation.ini").read_text())
        cp[section][key] = value
        path = tmp_path / "hostile.ini"
        with path.open("w") as fh:
            cp.write(fh)
        with pytest.raises(ConfigError):
            load_scenario(str(path))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_scenario_mutants_are_refused_or_play_to_a_passing_log(self):
        # seeded mutants of image_annotation on tiny31, each setting one or two values:
        # every one is refused up front, or plays to the end with no failure and a
        # log the audit passes; none stops halfway through a run
        cp = configparser.ConfigParser()
        cp.read_string(resources.files("anoncrowd").joinpath("data/scenarios/image_annotation.ini").read_text())
        cp["network"]["backend"] = "tiny31"
        slots = [(section, key) for section in cp.sections() for key in cp[section]]
        rng = random.Random(15)
        mutants = [[("policy", "pay_incorrect_eth", "3/2")]]  # its escrow ran dry at the first incorrect answer
        for _ in range(99):
            mutants.append([(*rng.choice(slots), rng.choice(MUTANT_VALUES)) for _ in range(rng.randint(1, 2))])
        played = 0
        for edits in mutants:
            mutant = configparser.ConfigParser()
            mutant.read_dict(cp)
            for section, key, value in edits:
                mutant[section][key] = value
            text = io.StringIO()
            mutant.write(text)
            try:
                result = run(parse_scenario(text.getvalue(), "mutant"), seed=1)
            except ConfigError:
                continue
            played += 1
            assert result.failures == [], edits
            assert verify_log(result.log_lines).ok, edits
        assert played > 0


class TestFixtures:
    def test_generation_is_seeded(self):
        a = generate_answers("biased", 20, 5, seed=3, truth=2)
        b = generate_answers("biased", 20, 5, seed=3, truth=2)
        c = generate_answers("biased", 20, 5, seed=4, truth=2)
        assert a == b
        assert a != c
        assert all(0 <= v < 5 for v in a)

    def test_uniform_covers_domain_only(self):
        answers = generate_answers("uniform", 200, 3, seed=9)
        assert set(answers) == {0, 1, 2}

    def test_render_parse_round_trip(self):
        answers = [1, 0, 4, 2]
        text = render_fixture(answers, "four rows")
        assert text.startswith("# four rows\n")
        assert parse_fixture(text) == answers

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(ConfigError, match="header"):
            parse_fixture("a,b\n0,1\n")
        with pytest.raises(ConfigError, match="twice"):
            parse_fixture("worker,answer\n0,1\n0,2\n")
        with pytest.raises(ConfigError, match="gaps"):
            parse_fixture("worker,answer\n0,1\n2,1\n")
        with pytest.raises(ConfigError, match="row"):
            parse_fixture("worker,answer\n0,x\n")

    def test_bundled_fixtures_match_their_scenarios(self):
        for name in list_bundled():
            cfg = load_scenario(name)
            answers = load_fixture(cfg.fixture)
            assert len(answers) >= cfg.worker_count
            assert all(0 <= a < cfg.policy.domain_size for a in answers)

    @pytest.mark.parametrize("name", ["avg_review", "gallup", "image_annotation"])
    def test_bundled_fixture_is_generated_from_its_header(self, name):
        text = resources.files("anoncrowd").joinpath(f"data/fixtures/{name}.csv").read_text()
        params = dict(field.split("=") for field in text.splitlines()[0].lstrip("# ").split())
        kind, accuracy = params.pop("kind"), float(params.pop("accuracy"))
        ints = {key: int(value) for key, value in params.items()}
        assert parse_fixture(text) == generate_answers(kind, accuracy=accuracy, **ints)

    def test_wrong_answers_are_drawn_without_listing_the_domain(self):
        tracemalloc.start()
        try:
            answers = generate_answers("biased", 10, 10**6, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert all(0 <= v < 10**6 for v in answers)

    def test_shuffled_fixture_same_final_answer(self):
        cfg = load_scenario("gallup")
        answers = load_fixture(cfg.fixture)
        shuffled = answers[:]
        random.Random(5).shuffle(shuffled)
        assert ans_calc(shuffled, cfg.policy) == ans_calc(answers, cfg.policy)


class TestRunner:
    def test_honest_run_holds_every_invariant(self, honest_run):
        assert honest_run.failures == []
        assert len(honest_run.rounds) == 1
        s = honest_run.rounds[0]
        assert not s.void
        assert s.accepted == 39
        assert s.rejections == []
        assert s.final_text == "majority -> 1"

    def test_honest_run_adopts_and_pays_everyone(self, honest_run, tiny_image):
        assert all(row.status == "adopted" for row in honest_run.worker_rows)
        answers = load_fixture(tiny_image.fixture)
        pay = tiny_image.policy
        expected = sum(pay.pay_correct if a == 1 else pay.pay_incorrect for a in answers)
        assert sum(row.paid_wei for row in honest_run.worker_rows) == expected
        # every correct worker moved to (5, 1), every incorrect one to (4, 2)
        for row, answer in zip(honest_run.worker_rows, answers):
            assert (row.alpha, row.beta) == ((5, 1) if answer == 1 else (4, 2))

    def test_same_seed_is_byte_identical(self, honest_run, tiny_image):
        again = run(tiny_image, seed=11)
        assert again.log_lines == honest_run.log_lines
        assert again.report == honest_run.report

    def test_different_seed_differs(self, honest_run, tiny_image):
        other = run(tiny_image, seed=12)
        assert other.log_lines != honest_run.log_lines

    def test_unknown_attack_rejected(self, tiny_image):
        with pytest.raises(ConfigError, match="unknown attack"):
            run(tiny_image, seed=1, attack="mitm")

    def test_short_fixture_rejected(self, tiny_image, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(render_fixture([1, 0, 1]))
        cfg = replace(tiny_image, fixture=str(path))
        with pytest.raises(ConfigError, match="39 workers"):
            run(cfg, seed=1)

    def test_averaging_overflow_rejected_before_any_crypto(self, tmp_path, monkeypatch):
        from anoncrowd.harness import runner

        review = load_scenario("avg_review")
        path = tmp_path / "wide.csv"
        path.write_text(render_fixture([999] * review.worker_count))  # sums past 2^16
        cfg = replace(
            review,
            backend="tiny31",
            policy=replace(review.policy, domain_size=1000),
            fixture=str(path),
        )
        monkeypatch.setattr(runner, "context_for", lambda name: pytest.fail("crypto set-up ran"))
        with pytest.raises(ConfigError, match="sum to 127872"):
            run(cfg, seed=1)

    @pytest.mark.parametrize("attack", [None, "deprivation"])
    def test_two_rounds_of_a_5_eth_escrow_play(self, tiny_image, attack):
        # each round may keep its whole escrow, and the funding the rule derives covers both
        result = run(replace(tiny_image, rounds=2, escrow_wei=5 * 10**18), seed=1, attack=attack)
        assert result.failures == []
        assert verify_log(result.log_lines).ok

    def test_run_reads_the_fixture_once(self, tiny_image, monkeypatch):
        from anoncrowd.harness import scenario

        reads = []
        monkeypatch.setattr(scenario, "load_fixture", lambda name: reads.append(name) or load_fixture(name))
        run(tiny_image, seed=1)
        assert reads == [tiny_image.fixture]

    def test_escrow_short_of_the_larger_pay_rejected_before_any_crypto(self, tiny_image, monkeypatch):
        # 39 workers each owed 3/2 ETH for an incorrect answer: a 1 ETH escrow
        # would run dry at the first such payment, halfway through the round
        monkeypatch.setattr(runner, "context_for", lambda name: pytest.fail("crypto set-up ran"))
        policy = replace(tiny_image.policy, pay_incorrect=3 * 10**18 // 2)
        assert tiny_image.worker_count * policy.pay_correct <= tiny_image.escrow_wei < policy.pay_incorrect
        with pytest.raises(ConfigError, match="^escrow cannot pay every worker the larger of the two pays$"):
            run(replace(tiny_image, policy=policy), seed=1)

    def test_funding_bound_is_exact(self, tiny_image):
        # the requester deposits the escrow and pays every fee before the finalize
        # refund comes back, and each worker pays one response fee: exactly what is funded
        _, ledger = recorded_run(tiny_image, "Ledger", seed=1)
        fees = {}
        for r in ledger.records:
            fees.setdefault(r.sender, []).append(r.fee_wei)
        requester, worker = tiny_image.funding
        assert requester == tiny_image.escrow_wei + sum(fees[runner.REQUESTER])
        assert all(fees[f"worker-{i:03d}"] == [worker] for i in range(tiny_image.worker_count))

    def test_out_of_domain_fixture_rejected(self, tiny_image, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(render_fixture([1, 7] + [0] * 37))
        cfg = replace(tiny_image, fixture=str(path))
        with pytest.raises(ConfigError, match="row 1"):
            run(cfg, seed=1)

    def test_response_window_shorter_than_the_cast_rejected(self, tiny_image):
        # 39 workers submit over 5 blocks and an outsider 2 blocks later
        with pytest.raises(ConfigError, match="too short for 39 workers"):
            run(replace(tiny_image, response_window=6), seed=1)

    def test_late_responses_fail_an_honest_run_only(self, tiny_image):
        # at a 7-block window, 7 of the 39 responses land late, and their
        # workers protest the updates they never got
        cfg = replace(tiny_image, response_window=7)
        honest = run(cfg, seed=1)
        s = honest.rounds[0]
        assert (len(s.task.sent(SUBMIT_RESPONSE)), s.included, s.protests) == (39, 32, 7)
        assert "round 0: protest in an honest run" in honest.failures
        attacked = run(cfg, seed=1, attack="duplicate-response")
        assert not any("protest in an honest run" in f for f in attacked.failures)

    @pytest.mark.parametrize("attack", [None, "deprivation"])
    def test_settlement_decodes_each_quality_post_once(self, tiny_image, monkeypatch, attack):
        # the round's posts are decoded once into a board, not once per
        # adopting worker or per protest, so settlement stays linear
        decode, calls = QualityPost.decode.__func__, []

        def counting(cls, ctx, data):
            calls.append(data)
            return decode(cls, ctx, data)

        monkeypatch.setattr(QualityPost, "decode", classmethod(counting))
        result = run(tiny_image, seed=11, attack=attack)
        assert result.failures == []
        assert len(calls) == sum(len(r.task.sent(SUBMIT_QUALITY)) for r in result.rounds) > 0

    def test_requester_decrypts_each_ciphertext_once_per_run(self, tiny_image, monkeypatch):
        # evaluate and the three requester checkers read one memo, so each
        # accepted response costs three decryptions (answer, address, claim
        # key) and each round its final ciphertexts once; the memo lives in
        # the run, so a second run with the same seed decrypts as much again
        decrypt, calls = primitives.decrypt_element, []

        def counting(group, sk, ct):
            calls.append(ct)
            return decrypt(group, sk, ct)

        monkeypatch.setattr(primitives, "decrypt_element", counting)
        counts = []
        for _ in range(2):
            calls.clear()
            result = run(tiny_image, seed=11)
            assert result.failures == [] and not any(r.void for r in result.rounds)
            final_cts = tiny_image.policy.final_ct_count
            assert len(calls) == sum(3 * r.accepted + final_cts for r in result.rounds) > 0
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_report_carries_the_metrics_sections(self, honest_run):
        report = honest_run.report
        assert "-- workers --" in report
        assert "-- proofs posted --" in report
        assert "-- chain totals --" in report
        assert "all run invariants hold" in report
        assert "prove-qual/v1: 39" in report
        assert "auth-value/v1: 36" in report


class TestPins:
    def test_honest_run_bytes_pinned(self, honest_run):
        assert digests(honest_run) == PINS[None]

    @pytest.mark.parametrize("attack", [name for name in PINS if name is not None])
    def test_attack_run_bytes_pinned(self, attack_runs, attack):
        assert digests(attack_runs[attack]) == PINS[attack]


@dataclass
class Listed:
    count: int
    items: list


class TestJsonLayout:
    @pytest.fixture(scope="class")
    def logged(self, tiny_image):
        """Values of each dataclass the log carries, from a tiny31 run."""
        _, ledger = recorded_run(tiny_image, "Ledger", seed=11)
        policy = tiny_image.policy
        return {
            LedgerRecord: ledger.records,
            TaskPolicy: [policy, replace(policy, epsilon=Fraction(3, 7))],
            FeeParams: [ledger.fee],
            ChainTaskParams: [task.params for task in ledger.contract.tasks],
        }

    @pytest.mark.parametrize("cls", [LedgerRecord, TaskPolicy, FeeParams, ChainTaskParams])
    def test_round_trip_through_the_log(self, logged, cls):
        assert logged[cls]
        for value in logged[cls]:
            assert from_json(cls, json.loads(canonical_line(to_json(value)))) == value

    @pytest.mark.parametrize("cls", [LedgerRecord, TaskPolicy, FeeParams, ChainTaskParams])
    def test_a_dropped_or_retyped_field_is_named(self, logged, cls):
        wire = to_json(logged[cls][0])
        for name in (f.name for f in fields(cls)):
            other = 7 if isinstance(wire[name], str) else "7"
            for broken in ({k: v for k, v in wire.items() if k != name}, {**wire, name: other}, {**wire, name: None}):
                with pytest.raises(ValueError, match=f"^field '{name}' is missing or mistyped$"):
                    from_json(cls, broken)

    @pytest.mark.parametrize("cls, name, text", [(LedgerRecord, "payload", "0g"), (TaskPolicy, "threshold", "1/0")])
    def test_text_that_does_not_parse_is_named(self, logged, cls, name, text):
        with pytest.raises(ValueError, match=f"^field '{name}' is missing or mistyped$"):
            from_json(cls, {**to_json(logged[cls][0]), name: text})

    def test_a_field_type_with_no_layout_is_refused(self):
        with pytest.raises(TypeError, match="Listed.items"):
            to_json(Listed(1, []))


class TestAttacks:
    def test_every_attack_clears_its_own_assertions(self, attack_runs):
        for attack, res in attack_runs.items():
            assert res.failures == [], attack

    def test_every_attack_log_still_audits(self, attack_runs):
        # detections are handled in protocol, so the logs stay honest
        for attack, res in attack_runs.items():
            assert verify_log(res.log_lines).ok, attack

    @pytest.mark.parametrize("attack", [None, *ATTACKS])
    def test_audit_verifies_every_proof_the_run_posted(self, honest_run, attack_runs, attack):
        # the benchmark's proof gate: the proofs the audit verifies are those the run counts
        res = honest_run if attack is None else attack_runs[attack]
        assert verify_log(res.log_lines).stats["proofs_verified"] == sum(res.proof_counts.values())

    def test_duplicate_response_detected_once_and_unpaid(self, attack_runs):
        res = attack_runs["duplicate-response"]
        rejections = [why for s in res.rounds for _, why in s.rejections]
        assert rejections == ["duplicate-tag"]
        # the copied response pays its original author exactly once
        assert sum(1 for row in res.worker_rows if row.paid_wei > 0) == 39

    def test_forged_proof_detected(self, attack_runs):
        res = attack_runs["forged-proof"]
        assert [why for s in res.rounds for _, why in s.rejections] == ["invalid-proof"]

    def test_stale_quality_two_rounds_one_collision(self, attack_runs):
        res = attack_runs["stale-quality"]
        assert len(res.rounds) == 2
        rejections = [why for s in res.rounds for _, why in s.rejections]
        assert rejections == ["stale-tag"]
        assert sum(s.upheld for s in res.rounds) == 0
        cheater = res.worker_rows[0]
        assert "protest rejected" in cheater.status

    def test_deprivation_protest_confiscates(self, attack_runs):
        res = attack_runs["deprivation"]
        s = res.rounds[0]
        assert s.upheld == 1
        assert s.task.confiscated_wei > 0
        assert s.task.escrow_conserved()
        victims = [row for row in res.worker_rows if "upheld" in row.status]
        assert len(victims) == 1
        assert victims[0].paid_wei == 0

    @pytest.mark.parametrize("attack", ["duplicate-response", "forged-proof"])
    def test_outsider_copy_that_lands_late_needs_no_detection(self, tiny_image, attack):
        # at a 7-block window the copy is submitted in time but lands late, so
        # screening never sees it and nothing went wrong
        res = run(replace(tiny_image, response_window=7), seed=1, attack=attack)
        assert res.rounds[0].rejections == []
        assert res.failures == []

    def test_outsider_copy_detected_once_per_round(self, tiny_image):
        res = run(replace(tiny_image, rounds=3), seed=1, attack="duplicate-response")
        assert [why for s in res.rounds for _, why in s.rejections] == ["duplicate-tag"] * 3
        assert res.failures == []

    def test_void_on_accepted_count_below_an_included_quorum(self, tiny_image):
        # round two includes 39 responses and accepts 38 (one stale tag): the
        # requester voids a task whose included count meets the quorum
        policy = replace(tiny_image.policy, threshold=Fraction(1, 2))
        cfg = replace(tiny_image, min_workers=39, policy=policy)
        res = run(cfg, seed=1, attack="stale-quality")
        assert res.failures == []
        s = res.rounds[1]
        assert (s.included, s.accepted, s.void) == (39, 38, True)
        assert s.task.refunded_wei == cfg.escrow_wei
        assert verify_log(res.log_lines).ok

    def test_void_task_with_no_escrow_refunds_nothing(self, tiny_image):
        policy = replace(tiny_image.policy, pay_correct=0, pay_incorrect=0)
        res = run(replace(tiny_image, policy=policy, escrow_wei=0), seed=1, attack="void-task")
        assert res.failures == []
        assert res.rounds[0].void and res.rounds[0].task.refunded_wei == 0
        assert verify_log(res.log_lines).ok

    def test_void_task_refunds_and_preserves_quality(self, attack_runs, tiny_image):
        res = attack_runs["void-task"]
        s = res.rounds[0]
        assert s.void
        assert s.task.paid_out_wei == 0
        assert s.task.refunded_wei == tiny_image.escrow_wei
        # responders adopt a zero increment: quality unchanged, still enrolled
        responders = res.worker_rows[: tiny_image.min_workers - 1]
        assert all(row.status == "adopted" for row in responders)
        assert all((row.alpha, row.beta) == tiny_image.prior for row in res.worker_rows)


class TestAudit:
    def test_honest_log_verifies(self, honest_run):
        report = verify_log(honest_run.log_lines)
        assert report.ok
        assert report.problems == []
        s = honest_run.rounds[0]
        expected_proofs = s.included + 1 + len(s.task.sent(SUBMIT_QUALITY)) + s.value_proofs
        assert report.stats["proofs_verified"] == expected_proofs

    @pytest.mark.parametrize("attack", [None, *ATTACKS])
    def test_live_records_replay_through_a_fresh_contract(self, tiny_image, attack):
        # the chain and the audit run one transition: the records a run logged
        # replay without a refusal and leave every task as the live one ended
        _, ledger = recorded_run(tiny_image, "Ledger", seed=11, attack=attack)
        live = ledger.contract
        replay = TaskContract(ledger.fee)
        for rec in ledger.records:
            params = live.tasks[rec.task_seq].params if rec.method == CREATE_TASK else None
            assert replay.check(rec, params) is None, rec.index
            replay.move(rec, params)

        def end(task):
            return task.phase, task.escrow_wei, task.paid_out_wei, task.refunded_wei, task.confiscated_wei, task.owed

        assert [end(t) for t in replay.tasks] == [end(t) for t in live.tasks]
        assert replay.requester == live.requester == runner.REQUESTER

    def test_text_entry_point(self, honest_run):
        assert verify_log("\n".join(honest_run.log_lines).splitlines()).ok

    @pytest.mark.parametrize("which", ["header", "tx", "screening", "signoff"])
    def test_single_character_flip_rejected(self, honest_run, which):
        lines = list(honest_run.log_lines)
        idx = next(i for i, ln in enumerate(lines) if f'"type":"{which}"' in ln)
        ln = lines[idx]
        at = ln.rindex("0") if "0" in ln else len(ln) // 2
        lines[idx] = ln[:at] + "1" + ln[at + 1 :]
        assert not verify_log(lines).ok

    @pytest.mark.parametrize("extra", ["junk before", "repeated"])
    def test_second_signoff_fails(self, authority_run, extra):
        lines = list(authority_run[0].log_lines)
        if extra == "junk before":
            lines.insert(-1, canonical_line({"type": "signoff", "chain": "00", "sig": "zz"}))
        else:
            lines.append(lines[-1])
        assert verify_log(lines).problems == [f"line {len(lines)}: event after the signoff"]

    def test_rechained_tamper_fails_the_signoff(self, honest_run):
        lines = rechain(
            honest_run.log_lines, "summary", lambda ev: ev.update(payments_wei=ev["payments_wei"] + 1)
        )
        report = verify_log(lines)
        assert not report.ok
        assert "signoff signature does not verify" in report.problems
        assert "summary figures off the replayed chain: payments_wei" in report.problems

    @pytest.mark.parametrize("figure", ["gas_by_sender", "payments_wei", "confiscated_wei"])
    def test_summary_figure_off_the_chain_fails(self, authority_run, figure):
        # the authority signs a summary whose one figure is off the chain's: the
        # audit recomputes the figures as the runner wrote them and names the one
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        summary = next(b for b in bodies if b["type"] == "summary")
        if figure == "gas_by_sender":
            summary[figure]["requester"] += 1
        else:
            summary[figure] += 1
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"summary figures off the replayed chain: {figure}"]

    @pytest.mark.parametrize("case", [*REPLAY_BREAKERS, "non-utf-8 bytes"])
    def test_malformed_log_fails_without_raising(self, honest_run, tmp_path, capsys, case):
        path = tmp_path / "bad.jsonl"
        if case in REPLAY_BREAKERS:
            lines = honest_run.log_lines
            for kind, mutate in REPLAY_BREAKERS[case]:
                lines = rechain(lines, kind, mutate)
            assert not verify_log(lines).ok
            path.write_text("\n".join(lines) + "\n")
            assert main(["verify-log", str(path)]) == 1
            assert "log audit: FAIL" in capsys.readouterr().out
        else:
            path.write_bytes(b"\xff\xfe" + "\n".join(honest_run.log_lines).encode())
            assert main(["verify-log", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, mutate, want",
        [
            (
                "header",
                lambda ev: ev["policy"].update(threshold=0.5),
                "header does not parse: field 'threshold' is missing or mistyped",
            ),
            (
                "header",
                lambda ev: ev.update(tip_gwei="1"),
                "header does not parse: field 'tip_gwei' is missing or mistyped",
            ),
            (
                "round",
                lambda ev: ev.update(response_deadline=None),
                "round event field 'response_deadline' is missing or mistyped",
            ),
        ],
        ids=["policy", "fee", "round"],
    )
    def test_mistyped_dataclass_field_is_named(self, honest_run, kind, mutate, want):
        problems = verify_log(rechain(honest_run.log_lines, kind, mutate)).problems
        assert want in problems
        if kind == "header":
            assert problems == [want]

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("round", {"round": False, "task_seq": False}),
            ("screening", {"round": False}),
            ("tx", {"index": False}),  # the Deploy
            ("header", {"rounds": True}),
            ("header", {"min_workers": True}),
        ],
    )
    def test_boolean_for_a_number_is_mistyped(self, authority_run, kind, edit):
        # JSON's true and false are no numbers, though Python's bool is an int
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        next(body for body in bodies if body["type"] == kind).update(edit)
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        name = next(iter(edit))  # the first edited field the reader meets
        assert not report.ok
        assert any(f"field {name!r} is missing or mistyped" in p for p in report.problems), report.problems

    def test_statement_that_does_not_validate_is_named(self, honest_run):
        lines = honest_run.log_lines
        for kind, mutate in REPLAY_BREAKERS["quorate round with no answers"]:
            lines = rechain(lines, kind, mutate)
        problems = verify_log(lines).problems
        assert "round 0: final answer statement does not validate: answer cts is empty" in problems

    def test_payment_off_the_policy_fails(self, authority_run):
        # one correct answer is paid as an incorrect one: the round's payments are
        # no longer the multiset paym_calc owes the attested correctness
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        policy = from_json(TaskPolicy, bodies[0]["policy"])
        assert policy.pay_correct != policy.pay_incorrect
        pay = next(
            b for b in bodies
            if b["type"] == "tx" and b["method"] == "WorkerPayment" and b["value_wei"] == -policy.pay_correct
        )
        pay["value_wei"] = -policy.pay_incorrect
        problems = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk)).problems
        want = (
            "round 0: payments do not match the policy: "
            f"paid but not owed [{policy.pay_incorrect}], owed but not paid [{policy.pay_correct}]"
        )
        # the escrow the payment leaves behind also shows in the refund, the close
        # and the summary, so only this problem's presence is pinned
        assert want in problems

    def test_correctness_proof_in_a_void_round_fails(self, tiny_image):
        # a void round has no final answer, so no correctness statement validates
        result, ra = signed_run(tiny_image, attack="void-task")
        g = ra.ctx.group
        bodies, _ = split_log(result.log_lines)
        tx = next(b for b in bodies if b["type"] == "tx" and b["method"] == "SubmitQuality")
        post = QualityPost.decode(g, bytes.fromhex(tx["payload"]))
        assert post.value_proof is None
        tx["payload"] = replace(post, value_proof=post.qual_proof).encode(g).hex()
        problems = verify_log(resigned(bodies, g, ra.keypair.sk)).problems
        assert problems == [
            f"round 0: correctness statement for response {post.response_ref} does not validate: "
            "final cts has the wrong length for the policy"
        ]

    def test_void_flag_off_the_quorum_rule_fails(self, honest_run):
        # a quorum above the 39 accepted responses: the round should have voided
        lines = rechain(honest_run.log_lines, "header", lambda ev: ev.update(min_workers=40))
        problems = verify_log(lines).problems
        assert "round 0: void flag does not match the quorum rule" in problems
        assert "round 0: voided round must carry exactly one void transaction" in problems

    def test_void_transaction_in_a_quorate_round_fails(self, attack_runs):
        lines = rechain(attack_runs["void-task"].log_lines, "header", lambda ev: ev.update(min_workers=1))
        problems = verify_log(lines).problems
        assert "round 0: void flag does not match the quorum rule" in problems
        assert "round 0: quorate round carries a void transaction" in problems

    def test_void_refunds_out_of_order_fail(self, attack_runs):
        # the same refunds, with the first responder's and the requester's
        # remainder swapped: the amounts still add up, the order does not
        bodies, signoff = split_log(attack_runs["void-task"].log_lines)
        refunds = [b for b in bodies if b["type"] == "tx" and b["method"] == "Refund"]
        first, last = refunds[0], refunds[-1]
        assert first["beneficiary"].startswith("worker-") and last["beneficiary"] == "requester"
        for key in ("beneficiary", "value_wei"):
            first[key], last[key] = last[key], first[key]
        problems = verify_log(chained(bodies, signoff)).problems
        owed = f"{-last['value_wei']} wei to {last['beneficiary']}"  # the first refund, before the swap
        assert f"round 0: tx {first['index']} (Refund): the next refund owed is {owed}" in problems

    @pytest.mark.parametrize(
        "method, value_wei",
        [("SubmitResponse", 1), ("SubmitQuality", 10**15), ("Finalize", 1), ("SubmitAuthCalc", -1)],
    )
    def test_value_moved_by_the_wrong_method_fails(self, authority_run, method, value_wei):
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        assert verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk)).ok
        tx = next(b for b in bodies if b["type"] == "tx" and b["method"] == method)
        assert tx["value_wei"] == 0
        tx["value_wei"] = value_wei
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert not report.ok
        direction = "into" if value_wei > 0 else "out of"
        want = f"round 0: tx {tx['index']} ({method}): moves {abs(value_wei)} wei {direction} escrow"
        assert want in report.problems
        assert not any("signoff" in p for p in report.problems)

    @pytest.mark.parametrize(
        "method, deadline, past, why",
        [
            ("SubmitAuthCalc", "processing_deadline", 1, "processing window has closed"),
            ("SubmitQuality", "processing_deadline", 1, "processing window has closed"),
            ("SubmitAuthCalc", "response_deadline", 0, "response window is still open"),
            ("CreateTask", "response_deadline", 0, "response deadline is not in the future"),
        ],
    )
    def test_submission_outside_its_window_fails(self, authority_run, method, deadline, past, why):
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        meta = next(b for b in bodies if b["type"] == "round")
        tx = next(b for b in bodies if b["type"] == "tx" and b["method"] == method)
        shift = meta[deadline] + past - tx["submitted_block"]
        tx["submitted_block"] += shift
        tx["inclusion_block"] += shift
        if method == "CreateTask":  # the round opens when its CreateTask is sent
            meta["opened_block"] += shift
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"round 0: tx {tx['index']} ({method}): {why}"]

    @pytest.mark.parametrize(
        "case, why, closes_processing",
        [
            ("negative escrow", "escrow of -1 wei is negative", False),
            (
                "processing deadline at the response deadline",
                "processing deadline is not after the response deadline",
                True,
            ),
        ],
        ids=["negative escrow", "inverted deadlines"],
    )
    def test_bad_task_figure_is_refused_once_at_its_create_task(self, authority_run, case, why, closes_processing):
        # the replay opens the task from the round's logged figures, so the
        # later transactions replay against them and are not refused wholesale
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        for kind, mutate in REPLAY_BREAKERS[case]:
            mutate(next(b for b in bodies if b["type"] == kind))
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        txs = [b for b in bodies if b["type"] == "tx"]
        # with no processing window, the final answer and every quality post land after it
        late = [b for b in txs if closes_processing and b["method"] in ("SubmitAuthCalc", "SubmitQuality")]
        assert report.problems == [f"round 0: tx 1 (CreateTask): {why}"] + [
            f"round 0: tx {b['index']} ({b['method']}): processing window has closed" for b in late
        ]

    @pytest.mark.parametrize("split", [False, True])
    def test_finalize_refund_to_anyone_but_the_requester_fails(self, authority_run, split):
        # the refund goes to a worker, or 1 wei of it is split off to one
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        refund = next(b for b in bodies if b["type"] == "tx" and b["method"] == "Refund")
        at, owed = refund["index"], -refund["value_wei"]
        assert refund["beneficiary"] == "requester"
        if split:
            for b in bodies:
                if b["type"] == "tx" and b["index"] > at:
                    b["index"] += 1
            part = {**refund, "index": at + 1, "beneficiary": "worker-003", "value_wei": -1}
            bodies.insert(bodies.index(refund) + 1, part)
            refund["value_wei"] += 1
            wrong = [(at, f"the next refund owed is {owed} wei to requester"), (at + 1, "no refund is owed")]
        else:
            refund["beneficiary"] = "worker-003"
            wrong = [(at, f"the next refund owed is {owed} wei to requester")]
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"round 0: tx {i} (Refund): {why}" for i, why in wrong]

    def test_partial_confiscation_fails(self, tiny_image):
        # the upheld protest's confiscation takes half the escrow: the contract
        # names the transaction, and the stranded half echoes in the close
        result, ra = signed_run(tiny_image, attack="deprivation")
        bodies, _ = split_log(result.log_lines)
        tx = next(b for b in bodies if b["type"] == "tx" and b["method"] == "Confiscate")
        escrow = -tx["value_wei"]
        tx["value_wei"] = -(escrow // 2)
        problems = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk)).problems
        want = f"round 0: tx {tx['index']} (Confiscate): a confiscation takes the task's whole escrow of {escrow} wei"
        assert want in problems

    @pytest.mark.parametrize(
        "probe, why",
        [
            ("sent by a worker", "only the requester may send it"),
            ("moved ahead of the final answer", "not legal in phase Collecting"),
        ],
    )
    def test_finalize_off_the_contract_rules_fails(self, authority_run, probe, why):
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        tx = next(b for b in bodies if b["type"] == "tx" and b["method"] == "Finalize")
        if probe == "sent by a worker":
            tx["sender"] = "worker-003"  # Finalize costs no gas, so the summary's totals still hold
        else:
            bodies.remove(tx)
            bodies.insert(next(i for i, b in enumerate(bodies) if b.get("method") == "SubmitAuthCalc"), tx)
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert f"round 0: tx {tx['index']} (Finalize): {why}" in report.problems
        assert not any("signoff" in p for p in report.problems)

    @pytest.mark.parametrize("deploys", [0, 2])
    def test_log_without_exactly_one_deploy_fails(self, authority_run, deploys):
        # with none, the audit names the missing Deploy once instead of replaying
        # every transaction against no contract; the contract refuses a second
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        deploy = next(b for b in bodies if b["type"] == "tx" and b["method"] == "Deploy")
        if deploys == 0:
            bodies.remove(deploy)
            want = ["transaction 0 in log order carries index 1", "log carries no Deploy"]
        else:
            bodies.insert(bodies.index(deploy) + 1, {**deploy, "index": deploy["index"] + 1})
            want = [
                "transaction 2 in log order carries index 1",
                "tx 1 (Deploy): the contract is already deployed",
                "summary figures off the replayed chain: gas_by_sender",
            ]
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == want

    @pytest.mark.parametrize(
        "attack, method, edit, why",
        [
            *[
                (None, method, {"beneficiary": "worker-003"}, "pays no one, yet names worker-003 its beneficiary")
                for method in ("Deploy", "CreateTask", "SubmitResponse", "SubmitAuthCalc", "SubmitQuality", "Finalize")
            ],
            ("void-task", "VoidTask", {"beneficiary": "worker-003"}, "pays no one, yet names worker-003 its beneficiary"),
            (None, "Deploy", {"task_seq": 0}, "belongs to task -1, not 0"),
            # the wei it moves out of escrow would reach no account
            (None, "WorkerPayment", {"beneficiary": ""}, "names no beneficiary to pay"),
            ("deprivation", "Confiscate", {"beneficiary": ""}, "names no beneficiary to pay"),
        ],
        ids=[
            *(f"{method} beneficiary" for method in ("Deploy", "CreateTask", "SubmitResponse", "SubmitAuthCalc")),
            *(f"{method} beneficiary" for method in ("SubmitQuality", "Finalize", "VoidTask")),
            "Deploy task label",
            "WorkerPayment without beneficiary",
            "Confiscate without beneficiary",
        ],
    )
    def test_transaction_field_off_its_method_fails(self, tiny_image, attack, method, edit, why):
        # a beneficiary on a method that pays no one, none on one that pays, or a Deploy
        # labelled as a task's: the contract refuses that transaction, and nothing else fails
        result, ra = signed_run(tiny_image, attack=attack)
        bodies, _ = split_log(result.log_lines)
        tx = next(b for b in bodies if b["type"] == "tx" and b["method"] == method)
        tx.update(edit)
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        where = "" if method == "Deploy" else "round 0: "  # a Deploy is applied to no task, whatever its label
        assert report.problems == [f"{where}tx {tx['index']} ({method}): {why}"]

    def test_round_opened_off_its_create_task_fails(self, authority_run):
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        meta = next(b for b in bodies if b["type"] == "round")
        create = next(b for b in bodies if b["type"] == "tx" and b["method"] == "CreateTask")
        assert meta["opened_block"] == create["submitted_block"]
        meta["opened_block"] = 10**6
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"round 0: opened at block 1000000, not at its CreateTask's {create['submitted_block']}"]

    def test_task_transaction_outside_every_task_fails(self, authority_run):
        # only the deploy belongs to no task; the contract refuses a payment labelled
        # so, and the problem names the round of the task it was applied to
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        tx = next(b for b in bodies if b["type"] == "tx" and b["method"] == "WorkerPayment")
        tx["task_seq"] = -1
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"round 0: tx {tx['index']} (WorkerPayment): belongs to task 0, not -1"]

    def test_transaction_labelled_with_another_task_fails(self, tiny_image):
        # task 0's finalize refund, relabelled as task 1's: the money moves
        # the same, but the contract paid it from task 0, so round 0 names it
        result, ra = signed_run(tiny_image, attack="stale-quality")
        bodies, _ = split_log(result.log_lines)
        refund = next(b for b in bodies if b["type"] == "tx" and b["method"] == "Refund")
        assert refund["task_seq"] == 0
        refund["task_seq"] = 1
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"round 0: tx {refund['index']} (Refund): belongs to task 0, not 1"]

    def test_transactions_numbered_out_of_log_order_fail(self, authority_run):
        result, ra = authority_run
        bodies, _ = split_log(result.log_lines)
        first, second = [b for b in bodies if b["type"] == "tx" and b["method"] == "WorkerPayment"][:2]
        first["index"], second["index"] = second["index"], first["index"]
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"transaction {second['index']} in log order carries index {first['index']}"]

    def test_second_task_under_a_taken_number_fails(self, tiny_image):
        # after the voided task 0 closes, a zero-wei task opens and is voided
        # again under task_seq 0; the contract numbers it 1, which no round describes
        result, ra = signed_run(tiny_image, attack="void-task")
        bodies, _ = split_log(result.log_lines)
        txs = [b for b in bodies if b["type"] == "tx"]
        create, void = (next(b for b in txs if b["method"] == m) for m in ("CreateTask", "VoidTask"))
        block = txs[-1]["inclusion_block"] + 1
        added = [
            {**create, "index": len(txs), "submitted_block": block, "inclusion_block": block + 1, "value_wei": 0},
            {**void, "index": len(txs) + 1, "submitted_block": block + 2, "inclusion_block": block + 3},
        ]
        at = bodies.index(txs[-1]) + 1
        bodies[at:at] = added
        summary = next(b for b in bodies if b["type"] == "summary")
        summary["gas_by_sender"][create["sender"]] += create["gas"]
        report = verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk))
        assert report.problems == [f"tx {len(txs)} (CreateTask): opens task 1, not 0"]

    @pytest.mark.parametrize(
        "forgery, want",
        [
            *[
                (forgery, [f"round events number {what} [0, 0], not 0..0 in log order" for what in ("rounds", "tasks")])
                for forgery in ("bogus round first", "duplicated round")
            ],
            ("voiding screening first", ["screening events number rounds [0, 0], not 0..0 in log order"]),
            ("arbitration for round 7", ["arbitration event for unknown round 7"]),
            ("screenings swapped", ["screening events number rounds [1, 0], not 0..1 in log order"]),
        ],
    )
    def test_event_off_the_round_numbering_fails(self, tiny_image, forgery, want):
        # round r opens task r: the round events and the screening events each number
        # the rounds 0..n-1 once in log order, and an arbitration names a round there is
        result, ra = signed_run(tiny_image, attack="stale-quality" if forgery == "screenings swapped" else None)
        bodies, _ = split_log(result.log_lines)
        meta, screening = (next(b for b in bodies if b["type"] == kind) for kind in ("round", "screening"))
        if forgery == "bogus round first":
            bogus = {**meta, "tree_root": "11" * 32, "escrow_wei": meta["escrow_wei"] + 1}
            bodies.insert(bodies.index(meta), bogus)
        elif forgery == "duplicated round":
            bodies.insert(bodies.index(meta), dict(meta))
        elif forgery == "voiding screening first":
            bodies.insert(bodies.index(screening), {**screening, "accepted": screening["accepted"][1:], "void": True})
        elif forgery == "arbitration for round 7":
            arbitration = {"type": "arbitration", "round": 7, "ref": screening["accepted"][0], "upheld": True}
            bodies.insert(bodies.index(screening) + 1, arbitration)
        else:
            at = bodies.index(screening)
            bodies[at], bodies[at + 1] = bodies[at + 1], bodies[at]
            assert [bodies[at]["round"], bodies[at + 1]["round"]] == [1, 0]
        assert verify_log(resigned(bodies, ra.ctx.group, ra.keypair.sk)).problems == want

    @pytest.mark.parametrize(
        "line", ["[" * 100_000, '{"type":"header","rounds":' + "9" * 5_000 + "}"], ids=["deep", "long int"]
    )
    def test_line_json_cannot_hold_is_not_valid_json(self, tmp_path, capsys, line):
        # too deep for the parser's recursion, or an integer past Python's digit limit
        assert verify_log([line]).problems == ["line 1: not valid json"]
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        assert main(["verify-log", str(path)]) == 1
        assert "problem: line 1: not valid json" in capsys.readouterr().out

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_logs_give_a_report_not_an_exception(self, signed_runs, data):
        # a re-signed mutant may PASS; each one gets a report, never an exception
        res, ra = signed_runs[data.draw(st.sampled_from([None, "deprivation", "void-task"]))]
        bodies, signoff = split_log(res.log_lines)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate_events(data, bodies)
        if data.draw(st.booleans()):
            lines = resigned(bodies, ra.ctx.group, ra.keypair.sk)
        else:
            lines = chained(bodies, signoff if data.draw(st.booleans()) else None)
        report = verify_log(lines)
        assert isinstance(report, AuditReport)
        assert report.render().startswith("log audit: ")

    def test_dropped_line_rejected(self, honest_run):
        lines = list(honest_run.log_lines)
        del lines[len(lines) // 2]
        assert not verify_log(lines).ok

    def test_garbage_rejected(self):
        assert not verify_log(["not json"]).ok
        assert not verify_log([]).ok
        assert not verify_log(['{"type":"header","chain":"00"}']).ok


class TestCli:
    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("image_annotation", "gallup", "avg_review"):
            assert name in out

    def test_gen_fixture_round_trip(self, tmp_path, capsys):
        out = tmp_path / "gen.csv"
        rc = main(
            ["gen-fixture", "biased", "--count", "12", "--domain", "3", "--seed", "8",
             "--truth", "1", "--out", str(out)]
        )
        assert rc == 0
        assert parse_fixture(out.read_text()) == generate_answers("biased", 12, 3, 8, truth=1)

    def test_run_verify_cycle(self, tmp_path, capsys):
        log = tmp_path / "run.jsonl"
        report = tmp_path / "report.txt"
        rc = main(
            ["run", "image_annotation", "--seed", "11", "--backend", "tiny31",
             "--out", str(log), "--report", str(report)]
        )
        assert rc == 0
        assert "all run invariants hold" in report.read_text()
        assert main(["verify-log", str(log)]) == 0
        assert "PASS" in capsys.readouterr().out

        text = log.read_text()
        flipped = text.replace("worker-000", "worker-xxx", 1)
        log.write_text(flipped)
        assert main(["verify-log", str(log)]) == 1

    def test_config_errors_exit_2(self, capsys):
        assert main(["run", "no_such_scenario"]) == 2
        assert main(["verify-log", "/nonexistent/path.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_invariant_failure_exits_1(self, honest_run, monkeypatch, capsys):
        import dataclasses

        from anoncrowd.harness import cli

        broken = dataclasses.replace(honest_run, failures=["escrow for task 0 leaked 1 wei"])
        monkeypatch.setattr(cli, "run", lambda *a, **kw: broken)
        assert main(["run", "image_annotation", "--backend", "tiny31"]) == 1
        captured = capsys.readouterr()
        assert "escrow for task 0 leaked 1 wei" in captured.err
