"""One benchmark session: a warm process running one workload back to back.

    python3 perfbench/session.py WORKLOAD SEED SECONDS TRACE SUMMARY_PATH

run.py starts this as a child, so the session's peak RSS is the
workload's own. The session prints `ready` once its context is warm,
which run.py times as one more set-up. One operation is one
`runner.run(config, seed)` followed by `verify_log` over that run's log
lines; operations repeat until SECONDS have passed (closed loop, one
client). Every operation is checked:

* the run must not raise and must report no failed invariant;
* each audit must pass and verify as many proofs as the run posted;
* every log in a session must hash the same (same inputs, same bytes),
  and at the default seed it must hash to the workload's pin.

With TRACE 0 each run's log is audited AUDITS times, to steady `verify_s`.
With TRACE 1 one untraced operation runs first, then traced operations
with one audit each give the per-layer metrics; their logs must hash as
the untraced one does. The JSON summary goes to SUMMARY_PATH.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from setup_probe import BACKEND, ready_context

AUDITS = 5
OUT = Path(__file__).resolve().parent / "out"


class Session:
    def __init__(self, config, seed: int, pin: str) -> None:
        from anoncrowd.harness import audit, runner

        self.config, self.seed, self.pin = config, seed, pin
        self._runner, self._audit = runner, audit
        self.run_s: list[float] = []
        self.verify_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def _fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def operation(self, audits: int):
        """One run and `audits` audits of its log; returns the run result."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self._runner.run(self.config, self.seed)
        except Exception as exc:  # a crash is a failed operation, not a dead benchmark
            self.run_s.append(time.perf_counter() - t0)
            self._fail(f"run raised {type(exc).__name__}: {exc}")
            return None
        self.run_s.append(time.perf_counter() - t0)
        digest = hashlib.sha256(("\n".join(result.log_lines) + "\n").encode()).hexdigest()
        self.digest = self.digest or digest
        if result.failures:
            self._fail(f"run invariant failed: {result.failures[0]}")
        elif digest != self.digest:
            self._fail(f"log hashes {digest}, an earlier run in this session {self.digest}")
        elif self.pin and digest != self.pin:
            self._fail(f"log hashes {digest}, pinned {self.pin}")

        posted = sum(result.proof_counts.values())
        for _ in range(audits):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                report = self._audit.verify_log(result.log_lines)
            except Exception as exc:
                self.verify_s.append(time.perf_counter() - t0)
                self._fail(f"audit raised {type(exc).__name__}: {exc}")
                continue
            self.verify_s.append(time.perf_counter() - t0)
            if not report.ok:
                self._fail(f"audit failed: {report.problems[:1]}")
            elif report.stats["proofs_verified"] != posted:
                self._fail(f"audit verified {report.stats['proofs_verified']} proofs, run posted {posted}")
        return result


def _timed(session: Session, seconds: float) -> None:
    start = time.perf_counter()
    while True:
        session.operation(AUDITS)
        if time.perf_counter() - start >= seconds:
            return


def _traced(session: Session, seconds: float, spans_path: Path) -> dict:
    import layers
    from tracer import Tracer

    session.operation(1)
    untraced_run_s = session.run_s[0]
    tracer = Tracer()
    layers.install(tracer)
    per_op: list[dict[str, float]] = []
    start = time.perf_counter()
    try:
        while True:
            tracer.begin_op()
            result = session.operation(1)
            if result is not None:
                per_op.append(layers.op_metrics(tracer, tracer.op, result))
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    if not per_op:
        return {}
    layer = {
        name: {"value": statistics.median(op[name] for op in per_op), "unit": layers.unit_of(name)}
        for name in per_op[0]
    }
    overhead = statistics.median(session.run_s[1:]) - untraced_run_s
    layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {"layers": layer, "traced_ops": len(per_op), "spans": len(tracer.name_ids)}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    ready_context(BACKEND[workload])
    print("ready", flush=True)
    import workloads

    config = workloads.load(workload, seed, OUT)
    pin = workloads.PINS[workload] if seed == workloads.DEFAULT_SEED else ""
    session = Session(config, seed, pin)
    extra = {}
    if trace:
        extra = _traced(session, seconds, OUT / f"spans-{workload}-seed{seed}.tsv.gz")
    else:
        _timed(session, seconds)
    summary = {
        "run_s": session.run_s,
        "verify_s": session.verify_s,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "digest": session.digest,
        "pinned": bool(pin),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **extra,
    }
    Path(argv[4]).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
