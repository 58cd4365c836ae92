"""Where the traced run puts its spans, and the per-layer metrics they give.

`install` wraps the public entry points of each layer; per-byte helpers
(`_Reader`, Scalar arithmetic) stay unwrapped so the trace does not swamp
the run. `op_metrics` turns the spans of one traced operation (one run and
one audit of its log) into the per-layer metrics, all per operation:

* `<layer>.<fn>.calls`: calls during the run and the audit;
* `<layer>.<fn>.self_s`: span time minus the time of traced calls inside;
* `<layer>.<fn>.total_s`: whole span time, for the actor steps and roots.

Nothing in this sequential simulator queues, so no layer reports a wait.
"""

from __future__ import annotations

import inspect

GROUP_OPS = ("mul", "mul_gen", "mul_blind", "dual_mul", "decode_element")
PRIMITIVE_FNS = ("encrypt", "decrypt_message", "sign", "verify_sig", "commit_pair")
RELATIONS = ("prove_qual", "auth_calc", "auth_qual", "auth_value")
MERKLE_FNS = ("append", "prove_membership", "verify_path")
ACTOR_STEPS = ("enroll", "build_response", "evaluate", "screen_responses", "adopt_update", "arbitrate")


def _prove_span(args) -> str:
    from anoncrowd.relations import relation_id_for

    rid = relation_id_for(args[2])  # ProofBackend.prove(self, ctx, stmt, witness)
    return "relations.prove." + rid.split("/")[0].replace("-", "_")


def install(tracer) -> None:
    from anoncrowd import actors, group, ledger, merkle, primitives, relations
    from anoncrowd.harness import audit, runner

    for cls in (group.CurveGroup, group.TinyGroup):
        for op in GROUP_OPS:
            tracer.patch_method(cls, op, f"group.{op}")
    for fn in PRIMITIVE_FNS:
        tracer.patch_function(primitives, fn, f"primitives.{fn}")
    tracer.patch_method(primitives.MessageCodec, "inverse", "primitives.codec_inverse")
    tracer.patch_method(relations.ProofBackend, "prove", "relations.prove", name_for=_prove_span)
    tracer.patch_method(relations.ProofBackend, "verify", "relations.verify")
    tracer.patch_method(merkle.MerkleTree, "append", "merkle.append")
    tracer.patch_method(merkle.MerkleTree, "prove_membership", "merkle.prove_membership")
    tracer.patch_function(merkle, "verify_path", "merkle.verify_path")
    for cls, step in (
        (actors.WorkerAgent, "enroll"),
        (actors.WorkerAgent, "build_response"),
        (actors.RequesterAgent, "evaluate"),
        (actors.WorkerAgent, "adopt_update"),
        (actors.RegistrationAuthority, "arbitrate"),
    ):
        tracer.patch_method(cls, step, f"actors.{step}")
    tracer.patch_function(actors, "screen_responses", "actors.screen_responses")
    tracer.patch_method(actors.QualityPost, "decode", "actors.post_decode")
    for attr, raw in list(vars(ledger.Ledger).items()):
        if not attr.startswith("_") and (inspect.isfunction(raw) or isinstance(raw, staticmethod)):
            tracer.patch_method(ledger.Ledger, attr, f"ledger.{attr}")
    tracer.patch_function(runner, "run", "runner.run")
    tracer.patch_function(audit, "verify_log", "audit.verify_log")


def _sum(totals: dict, prefix: str, key: str) -> float:
    return sum(row[key] for name, row in totals.items() if name.startswith(prefix))


def op_metrics(tracer, op: int, result) -> dict[str, float]:
    """Per-layer metrics of traced operation `op`, whose run gave `result`."""
    spans = tracer.spans_of(op)
    totals = tracer.layer_totals(spans)
    in_run = tracer.layer_totals(dict(tracer.subtrees(spans))["runner.run"])
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name: str, source: dict = totals) -> dict:
        return source.get(name, empty)

    out: dict[str, float] = {}
    for op_name in GROUP_OPS:
        out[f"group.{op_name}.calls"] = row(f"group.{op_name}")["calls"]
        out[f"group.{op_name}.self_s"] = row(f"group.{op_name}")["self_s"]
    out["group.self_s"] = _sum(totals, "group.", "self_s")
    for fn in PRIMITIVE_FNS + ("codec_inverse",):
        out[f"primitives.{fn}.calls"] = row(f"primitives.{fn}")["calls"]
        out[f"primitives.{fn}.self_s"] = row(f"primitives.{fn}")["self_s"]
    for rel in RELATIONS:
        out[f"relations.prove.{rel}.calls"] = row(f"relations.prove.{rel}")["calls"]
    out["relations.prove.self_s"] = _sum(totals, "relations.prove.", "self_s")
    out["relations.prove.refused"] = sum(
        1
        for i, exc in tracer.raised
        if i in spans
        and exc == "RelationUnsatisfiedError"
        and tracer.names[tracer.name_ids[i]].startswith("relations.prove.")
    )
    out["relations.verify.calls"] = row("relations.verify")["calls"]
    out["relations.verify.self_s"] = row("relations.verify")["self_s"]
    for fn in MERKLE_FNS:
        out[f"merkle.{fn}.calls"] = row(f"merkle.{fn}")["calls"]
        out[f"merkle.{fn}.self_s"] = row(f"merkle.{fn}")["self_s"]
    for step in ACTOR_STEPS:
        out[f"actors.{step}.calls"] = row(f"actors.{step}")["calls"]
        out[f"actors.{step}.total_s"] = row(f"actors.{step}")["total_s"]
    out["actors.post_decode.calls"] = row("actors.post_decode")["calls"]
    out["actors.post_decode.self_s"] = row("actors.post_decode")["self_s"]
    # wasted settlement work: quality-post decodes inside the run per post
    # a worker adopted (adopt_update calls that filed no protest)
    protests = sum(s.protests for s in result.rounds)
    adopted = row("actors.adopt_update", in_run)["calls"] - protests
    out["actors.post_decodes_per_adopt"] = row("actors.post_decode", in_run)["calls"] / max(adopted, 1)
    out["actors.screen_rejections"] = sum(len(s.rejections) for s in result.rounds)
    out["ledger.calls"] = _sum(totals, "ledger.", "calls")
    out["ledger.self_s"] = _sum(totals, "ledger.", "self_s")
    for root in ("runner.run", "audit.verify_log"):
        out[f"{root}.total_s"] = row(root)["total_s"]
        out[f"{root}.self_s"] = row(root)["self_s"]
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric == "actors.post_decodes_per_adopt":
        return "decodes/post"
    return "count"
