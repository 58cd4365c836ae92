"""Shared crypto context: one group backend plus the three message codecs.

Message domains are finite by design and pinned here:

* answers: ids below 2^16 (also reused for encrypted aggregates, so the
  answers of an averaging task must sum to less than 2^16);
* payout addresses: indices into a 2^32-entry registry;
* claim keys: per-task secrets below 2^16 that index and blind each
  worker's quality post. Desk-scale only; a deployment would widen this
  domain and replace the additive blinds, see the README limitations.
  The domain equals the answers', so the two share one codec.

The params digest fingerprints the group, the generators and the codec
layout; every relation statement embeds it, so proofs cannot be replayed
across differently parameterized deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .encoding import enc_u64, record
from .errors import ConfigError
from .group import Group, production_group, tiny_group
from .primitives import MessageCodec, hash_bytes

ANSWER_DOMAIN = 1 << 16
ADDRESS_DOMAIN = 1 << 32
CLAIM_DOMAIN = 1 << 16


@dataclass
class CryptoContext:
    group: Group
    answer_codec: MessageCodec = field(init=False)
    address_codec: MessageCodec = field(init=False)
    claim_codec: MessageCodec = field(init=False)
    params_digest: bytes = field(init=False)

    def __post_init__(self):
        g = self.group
        self.answer_codec = MessageCodec(g, ANSWER_DOMAIN)
        self.address_codec = MessageCodec(g, ADDRESS_DOMAIN, baby_size=1 << 16)
        self.claim_codec = self.answer_codec  # CLAIM_DOMAIN == ANSWER_DOMAIN
        self.params_digest = hash_bytes(
            record(
                "params",
                g.name.encode("ascii"),
                g.encode_element(g.generator),
                g.encode_element(g.blind_generator),
                enc_u64(ANSWER_DOMAIN) + enc_u64(ADDRESS_DOMAIN) + enc_u64(CLAIM_DOMAIN),
            )
        )


@cache
def production_context() -> CryptoContext:
    """Process-wide context over the production curve (codec table reuse)."""
    return CryptoContext(production_group())


@cache
def tiny_context() -> CryptoContext:
    """Context over the brute-forceable group. Oracle tests only."""
    return CryptoContext(tiny_group())


# group backends by the name scenarios and log headers use
BACKENDS = {"curve254": production_context, "tiny31": tiny_context}


def context_for(backend: str) -> CryptoContext:
    """The shared context of a backend named by a scenario or a log header."""
    if backend not in BACKENDS:
        raise ConfigError(f"unknown backend {backend!r}")
    return BACKENDS[backend]()
