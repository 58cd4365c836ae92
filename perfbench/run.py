"""anoncrowd benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload review_curve254 --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from its src/.
With --trace 0 it reports the end-to-end metrics:

* run_s: median wall time of one `runner.run(config, seed)` in a warm process;
* verify_s: median wall time of one `verify_log` over that run's log lines;
* setup_s: median time from a fresh interpreter to a ready context for
  the workload's backend, over three fresh processes: two set-up probes
  and the session's own start;
* peak_rss_mb: peak RSS of the process that ran the workload.

fail_ratio (failed runs and audits over attempted ones) is printed with
them and carried by `attempted` and `failed` in the result line. With
--trace 1 a traced session reports the per-layer metrics instead (see
layers.py). Every process started here runs one at a time. The last line
of stdout is the JSON result; a fuller record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from setup_probe import BACKEND

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 2  # with the session's own start, three set-ups per run
READY_TIMEOUT_S = 60
DEADLINE_S = 170  # the whole benchmark must end within 180 s


def ready_after(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from t0 until `proc` prints `ready`; kills a child that does not."""
    line = ""
    if select.select([proc.stdout], [], [], READY_TIMEOUT_S)[0]:
        line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{Path(proc.args[1]).name} never reached a ready context (exit {proc.returncode})")
    return time.perf_counter() - t0


def setup_seconds(backend: str) -> float:
    """Fresh interpreter to `ready` from setup_probe.py, in seconds."""
    t0 = time.perf_counter()
    cmd = [sys.executable, str(HERE / "setup_probe.py"), backend]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        elapsed = ready_after(proc, t0)
    if proc.returncode != 0:
        raise RuntimeError(f"setup_probe.py exited {proc.returncode}")
    return elapsed


def run_session(args, started: float, setups: list[float]) -> dict:
    """Run session.py for the workload and return its summary; its time to
    `ready` joins `setups` in a timed run."""
    summary_path = OUT / f"session-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    summary_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "session.py"), args.workload, str(args.seed), str(args.seconds),
           str(args.trace), str(summary_path)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        ready_s = ready_after(proc, t0)
        try:
            proc.wait(timeout=DEADLINE_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError("the benchmark session overran its deadline")
    if proc.returncode != 0 or not summary_path.is_file():
        raise RuntimeError(f"the benchmark session exited {proc.returncode}")
    if not args.trace:
        setups.append(ready_s)
    return json.loads(summary_path.read_text())


def metadata() -> dict:
    revision = "unknown"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "revision": revision,
        "src_py_lines": src_lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(BACKEND))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "anoncrowd" / "__init__.py").is_file():
        print(f"error: no anoncrowd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        setups = [] if args.trace else [setup_seconds(BACKEND[args.workload]) for _ in range(SETUP_PROBES)]
        session = run_session(args, started, setups)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs, audits = len(session["run_s"]), len(session["verify_s"])
    meta = metadata()
    lines = [
        f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {'on' if args.trace else 'off'}",
        f"python {meta['python']}, nproc {meta['nproc']}, revision {meta['revision']},"
        f" src {meta['src_py_lines']} lines of Python",
        f"fail_ratio   {session['failed'] / session['attempted']:.4f}  {session['failed']} failed of"
        f" {session['attempted']} attempted ({runs} runs, {audits} audits)",
    ]
    lines += [f"  problem: {p}" for p in session["problems"]]
    if args.trace:
        if "layers" not in session:
            print("error: no traced operation completed", file=sys.stderr)
            return 1
        metrics = session["layers"]
        lines.append(f"per-layer values are medians over {session['traced_ops']} traced operations")
        lines.append(f"{session['spans']} spans written to {OUT.relative_to(ROOT)}")
    else:
        metrics = {
            "run_s": {"value": statistics.median(session["run_s"]), "unit": "s"},
            "verify_s": {"value": statistics.median(session["verify_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": session["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        lines += [
            f"run_s        {metrics['run_s']['value']:.4f} s  median of {runs} runs"
            f" (too few samples for a tail percentile, which needs 10 beyond it)",
            f"verify_s     {metrics['verify_s']['value']:.4f} s  median of {audits} audits",
            f"setup_s      {metrics['setup_s']['value']:.4f} s  median of {len(setups)} fresh processes",
            f"peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  of the session process",
        ]
    print("\n".join(lines))

    result = {
        "correct": session["failed"] == 0,
        "attempted": session["attempted"],
        "failed": session["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **meta,
        "setup_s": setups,
        "session": session,
        "result": result,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
