"""Command line front end.

anoncrowd run image_annotation --seed 7 --out run.jsonl
anoncrowd verify-log run.jsonl
anoncrowd gen-fixture biased --count 40 --domain 2 --seed 11 --out answers.csv
anoncrowd scenarios
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from ..context import BACKENDS
from ..errors import ProtocolError
from .attacks import ATTACKS
from .audit import verify_log
from .fixtures import KINDS, generate_answers, render_fixture
from .runner import run
from .scenario import list_bundled, load_scenario


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_scenario(args.scenario)
    if args.backend:
        config = replace(config, backend=args.backend)
    result = run(config, seed=args.seed, attack=args.attack)
    if args.out:
        result.write_log(args.out)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(result.report)
    else:
        sys.stdout.write(result.report)
    if result.failures:
        print(f"error: run invariant failed: {result.failures[0]}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify_log(args: argparse.Namespace) -> int:
    with open(args.log, encoding="utf-8") as fh:
        report = verify_log(fh)
    sys.stdout.write(report.render())
    return 0 if report.ok else 1


def _cmd_gen_fixture(args: argparse.Namespace) -> int:
    answers = generate_answers(
        args.kind, args.count, args.domain, args.seed, truth=args.truth, accuracy=args.accuracy
    )
    comment = (
        f"kind={args.kind} count={args.count} domain={args.domain}"
        f" seed={args.seed} truth={args.truth} accuracy={args.accuracy}"
    )
    text = render_fixture(answers, comment)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    for name in list_bundled():
        config = load_scenario(name)
        sys.stdout.write(f"{name}: {config.description}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anoncrowd",
        description="simulate and audit an anonymous crowdsourcing deployment",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play one scenario and print its report")
    p_run.add_argument("scenario", help="bundled scenario name or path to an .ini")
    p_run.add_argument("--seed", type=int, default=1, help="master seed (default 1)")
    p_run.add_argument("--attack", choices=list(ATTACKS), help="enable one misbehaving party")
    p_run.add_argument("--backend", choices=list(BACKENDS), help="override the group backend")
    p_run.add_argument("--out", metavar="PATH", help="write the signed jsonl transaction log here")
    p_run.add_argument("--report", metavar="PATH", help="write the report here instead of stdout")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify-log", help="re-verify a transaction log, no secrets needed")
    p_verify.add_argument("log", help="path to a jsonl log written by run --out")
    p_verify.set_defaults(func=_cmd_verify_log)

    p_gen = sub.add_parser("gen-fixture", help="generate a per-worker answer csv")
    p_gen.add_argument("kind", choices=KINDS)
    p_gen.add_argument("--count", type=int, required=True, help="number of workers")
    p_gen.add_argument("--domain", type=int, required=True, help="answer domain size")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--truth", type=int, default=None, help="biased only: the planted answer")
    p_gen.add_argument("--accuracy", type=float, default=0.8, help="biased only: hit probability")
    p_gen.add_argument("--out", metavar="PATH", help="write the csv here instead of stdout")
    p_gen.set_defaults(func=_cmd_gen_fixture)

    p_list = sub.add_parser("scenarios", help="list the bundled scenarios")
    p_list.set_defaults(func=_cmd_scenarios)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProtocolError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
