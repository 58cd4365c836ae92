"""Frozen wire encodings for both group backends.

The expected file ships inside the package so an installed copy can be
checked against the encodings it was released with. After a deliberate
encoding change, regenerate by running this file as a script.
"""

import random
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from pathlib import Path

from anoncrowd.actors import ParsedResponse, QualityPost
from anoncrowd.context import production_context, tiny_context
from anoncrowd.merkle import MerkleTree
from anoncrowd.policy import MAJORITY, TaskPolicy
from anoncrowd.primitives import (
    commit,
    commit_pair,
    encrypt_message,
    hash_bytes,
    keygen,
    pair_rerandomize,
    pair_step,
    quality_tag,
    random_blinding_pair,
    sign,
)
from anoncrowd.relations import AuthQualStatement, AuthValueStatement, ProofBackend, ProveQualStatement

SEED = 0x601D
MESSAGE = b"anoncrowd golden"


def generate() -> str:
    lines = [
        "# Frozen wire encodings, one per line: <backend>.<name> = <hex>.",
        "# Checked by tests/test_golden_vectors.py; regenerate by running",
        "# that file as a script after a deliberate encoding change.",
    ]
    for ctx in (tiny_context(), production_context()):
        g = ctx.group
        rng = random.Random(SEED)
        keys = keygen(g, rng)
        blind = random_blinding_pair(g, rng)
        extra = random_blinding_pair(g, rng)
        pair = commit_pair(g, 4, 1, blind)
        ident = g.random_scalar(rng)
        tree = MerkleTree(depth=4)
        for i in range(3):
            tree.append(pair.encode(g) + bytes([i]))
        vectors = [
            ("params_digest", ctx.params_digest),
            ("commitment", g.encode_element(commit(g, 7, g.random_scalar(rng)))),
            ("pair", pair.encode(g)),
            ("pair_rerandomized", pair_rerandomize(g, pair, extra).encode(g)),
            (
                "ciphertext",
                encrypt_message(g, keys.pk, ctx.answer_codec, 42, g.random_scalar(rng)).encode(g),
            ),
            ("signature", sign(g, keys.sk, MESSAGE).encode(g)),
            ("quality_tag", quality_tag(g, pair, ident)),
            ("tree_root", tree.root()),
        ]
        vectors += _protocol_records(ctx, rng, keys, pair, extra, ident, tree)
        lines.append("")
        lines.extend(f"{g.name}.{name} = {value.hex()}" for name, value in vectors)
    return "\n".join(lines) + "\n"


def _protocol_records(ctx, rng, ra_keys, pair, extra, ident, tree):
    """The on-chain records, drawn after the primitive vectors so their draws
    leave the vectors above unchanged: a prove-qual statement, its proof, a
    response bundle, and a quality post with and without a value proof."""
    g = ctx.group
    requester = keygen(g, rng)
    policy = TaskPolicy(MAJORITY, 4, Fraction(1, 2), 10, 1)
    answer_ct, address_ct, claim_ct, final_ct = (
        encrypt_message(g, requester.pk, codec, m, g.random_scalar(rng))
        for codec, m in ((ctx.answer_codec, 2), (ctx.address_codec, 77), (ctx.claim_codec, 5), (ctx.answer_codec, 2))
    )
    fresh = pair_rerandomize(g, pair, extra)
    stmt = ProveQualStatement(
        ctx.params_digest, policy, ra_keys.pk, requester.pk, tree.root(),
        fresh, quality_tag(g, pair, ident), answer_ct, address_ct,
    )
    backend = ProofBackend(MESSAGE)
    proof = backend._proof(ctx, stmt)
    new_pair = pair_step(g, fresh, (1, 0), random_blinding_pair(g, rng))
    qual_stmt = AuthQualStatement(
        ctx.params_digest, policy, requester.pk, answer_ct, (final_ct,), fresh, new_pair
    )
    value_stmt = AuthValueStatement(ctx.params_digest, policy, requester.pk, answer_ct, (final_ct,))
    post = QualityPost(
        7,
        hash_bytes(MESSAGE),
        random_blinding_pair(g, rng),
        random_blinding_pair(g, rng),
        new_pair,
        backend._proof(ctx, qual_stmt),
        backend._proof(ctx, value_stmt),
    )
    return [
        ("prove_qual_statement", stmt.encode(ctx)),
        ("proof", proof.encode(g)),
        ("response", ParsedResponse(fresh, stmt.quality_tag, answer_ct, address_ct, claim_ct, proof).encode(g)),
        ("quality_post", post.encode(g)),
        ("quality_post_unvalued", replace(post, value_proof=None).encode(g)),
    ]


def test_encodings_match_the_shipped_vectors():
    shipped = resources.files("anoncrowd").joinpath("data/golden_vectors.txt").read_text()
    assert generate() == shipped


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "src" / "anoncrowd" / "data" / "golden_vectors.txt"
    out.write_text(generate())
    print(f"wrote {out}")
