"""Answer fixtures: per-worker plaintext answers for a scenario round.

The csv is two columns, worker index and answer id. Fixtures can be
generated (seeded) or read back; the bundled ones were produced with the
same generator this module exposes, so `gen-fixture` can always recreate
them from the parameters in their header comment.
"""

from __future__ import annotations

import csv
import io
import random
from importlib import resources
from pathlib import Path

from ..errors import ConfigError

KINDS = ("biased", "uniform")


def generate_answers(
    kind: str,
    count: int,
    domain: int,
    seed: int,
    truth: int | None = None,
    accuracy: float = 0.8,
) -> list[int]:
    """biased: each worker hits `truth` with probability `accuracy`, else a
    uniformly wrong value. uniform: anything goes."""
    if kind not in KINDS:
        raise ConfigError(f"unknown fixture kind {kind!r} (one of {', '.join(KINDS)})")
    if count < 1 or domain < 2:
        raise ConfigError("need at least one worker and a two-value domain")
    rng = random.Random(seed)
    if kind == "uniform":
        return [rng.randrange(domain) for _ in range(count)]
    if truth is None:
        truth = 1 if domain == 2 else domain // 2
    if not (0 <= truth < domain):
        raise ConfigError("truth value outside the answer domain")
    # a wrong answer is uniform over the domain's other values, drawn without listing them
    return [truth if rng.random() < accuracy else (v := rng.randrange(domain - 1)) + (v >= truth) for _ in range(count)]


def render_fixture(answers: list[int], comment: str = "") -> str:
    out = io.StringIO()
    if comment:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["worker", "answer"])
    for i, a in enumerate(answers):
        writer.writerow([i, a])
    return out.getvalue()


def parse_fixture(text: str) -> list[int]:
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    if not rows or [c.strip() for c in rows[0]] != ["worker", "answer"]:
        raise ConfigError("fixture csv must start with a 'worker,answer' header")
    answers: dict[int, int] = {}
    for row in rows[1:]:
        try:
            idx, ans = int(row[0]), int(row[1])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"bad fixture row {row!r}") from exc
        if idx in answers:
            raise ConfigError(f"worker {idx} listed twice")
        answers[idx] = ans
    if sorted(answers) != list(range(len(answers))):
        raise ConfigError("worker indexes must be 0..n-1 without gaps")
    return [answers[i] for i in range(len(answers))]


def load_fixture(name_or_path: str) -> list[int]:
    path = Path(name_or_path)
    if path.suffix == ".csv" and path.exists():
        return parse_fixture(path.read_text())
    resource = resources.files("anoncrowd").joinpath(f"data/fixtures/{name_or_path}.csv")
    if not resource.is_file():
        raise ConfigError(f"no fixture {name_or_path!r}")
    return parse_fixture(resource.read_text())
