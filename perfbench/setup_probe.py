"""Set-up probe: a fresh interpreter brought to a ready crypto context.

    python3 perfbench/setup_probe.py curve254|tiny31

prints `ready` once the `anoncrowd` import, the backend's context and one
MessageCodec.inverse per codec (which builds the lazy baby tables) are
done. run.py times this from process start to that line: the set-up every
CLI invocation pays. The benchmark session warms its own process with
`ready_context` and prints `ready` too, so its start is timed the same way.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BACKEND = {
    "settle_tiny31": "tiny31",
    "review_curve254": "curve254",
    "poll_rounds_curve254": "curve254",
}


def import_anoncrowd():
    """Import the package from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import anoncrowd

    if Path(anoncrowd.__file__).resolve().parent != SRC / "anoncrowd":
        raise ImportError(f"anoncrowd was imported from {anoncrowd.__file__}, not from {SRC}")
    return anoncrowd


def ready_context(backend: str):
    anoncrowd = import_anoncrowd()
    if backend == "curve254":
        ctx = anoncrowd.production_context()
    elif backend == "tiny31":
        ctx = anoncrowd.tiny_context()
    else:
        raise ValueError(f"unknown backend {backend!r}")
    for codec in (ctx.answer_codec, ctx.address_codec, ctx.claim_codec):
        codec.inverse(codec.forward(0))
    return ctx


if __name__ == "__main__":
    ready_context(sys.argv[1])
    print("ready", flush=True)
