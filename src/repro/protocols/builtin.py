"""The 2002 protocol menu as registry entries.

The four protocols the paper evaluates (SSL, WTLS, IPSec ESP, WEP),
each as a :class:`~repro.protocols.registry.ProtocolModel` whose
cycle arithmetic is exactly the historical ``cost_of`` chain of
:mod:`repro.farm.workload` -- the refactor is behavior-preserving, and
the legacy farm benchmark baselines gate that byte for byte.
"""

import math
from hashlib import sha1

from repro.protocols.registry import (MTU_BYTES, ProtocolModel,
                                      RequestCost, register_protocol)
from repro.ssl.transaction import (HANDSHAKE_TRANSCRIPT_BYTES,
                                   SslWorkloadModel)

__all__ = ["EspProtocolModel", "SslProtocolModel", "WepProtocolModel",
           "WtlsProtocolModel", "farm_session", "session_id_for_client"]

_SERVER_RANDOM = b"farm-server-random".ljust(32, b"\0")


class _FarmSession:
    """Shim handshake result so cores can reuse the SSL session cache."""

    __slots__ = ("client_random", "server_random")

    def __init__(self, client_random: bytes, server_random: bytes):
        self.client_random = client_random
        self.server_random = server_random


def farm_session(client_id: int) -> _FarmSession:
    """The cacheable session record for a client's full SSL handshake."""
    return _FarmSession(
        client_random=client_id.to_bytes(32, "big"),
        server_random=_SERVER_RANDOM)


def session_id_for_client(client_id: int) -> bytes:
    """The session id a resuming SSL client presents (affinity key).

    Equal to ``SessionCache.session_id(farm_session(client_id))``, but
    hashed with :mod:`hashlib`: farm keying is host bookkeeping, not
    estimated work, so it skips the traced pure-Python SHA-1 that SSL
    estimation charges through :func:`repro.mp.hooks.trace`.
    """
    return sha1(b"session-id" + client_id.to_bytes(32, "big")
                + _SERVER_RANDOM).digest()[:16]


class SslProtocolModel(ProtocolModel):
    """SSL transaction: full or session-cache-resumed handshake plus
    record transfer, priced by
    :meth:`repro.ssl.transaction.SslWorkloadModel.breakdown`."""

    name = "ssl"
    default_mix_weight = 0.5
    resumable = True

    def request_cost(self, request, costs, cache_hit=False):
        resumed = request.resumed and cache_hit
        b = SslWorkloadModel.breakdown(costs, request.size_bytes,
                                       resumed=resumed)
        return RequestCost(cycles=b.total, public_key_cycles=b.public_key,
                           payload_bytes=request.size_bytes)

    def public_key_heavy(self, request) -> bool:
        return not request.resumed

    def cache_key(self, client_id: int) -> bytes:
        return session_id_for_client(client_id)

    def session_record(self, client_id: int):
        return farm_session(client_id)


class WtlsProtocolModel(ProtocolModel):
    """WTLS browsing session: ECDH (secp160r1) handshake plus record
    transfer over a leaner transcript than SSL's."""

    name = "wtls"
    default_mix_weight = 0.2

    def request_cost(self, request, costs, cache_hit=False):
        size = request.size_bytes
        public_key = costs.ecdh_handshake_cycles()
        hashed = HANDSHAKE_TRANSCRIPT_BYTES // 4 + size
        bulk = (size * costs.cipher_cycles_per_byte
                + hashed * costs.hash_cycles_per_byte
                + size * costs.protocol_cycles_per_byte
                + costs.protocol_fixed_cycles)
        return RequestCost(cycles=public_key + bulk,
                           public_key_cycles=public_key,
                           payload_bytes=size)

    def public_key_heavy(self, request) -> bool:
        return not request.resumed


class EspProtocolModel(ProtocolModel):
    """IPSec ESP bulk transfer: cipher + HMAC per byte, a fixed price
    per MTU-sized packet (header build, SA lookup, replay window)."""

    name = "esp"
    default_mix_weight = 0.2

    def request_cost(self, request, costs, cache_hit=False):
        size = request.size_bytes
        packets = max(1, math.ceil(size / MTU_BYTES))
        cycles = (size * (costs.cipher_cycles_per_byte
                          + costs.hash_cycles_per_byte
                          + costs.protocol_cycles_per_byte)
                  + packets * costs.esp_packet_fixed_cycles)
        return RequestCost(cycles=cycles, public_key_cycles=0.0,
                           payload_bytes=size)


class WepProtocolModel(ProtocolModel):
    """WEP frame burst: RC4 + CRC-32 per byte, a fixed price per
    MTU-sized frame.  Neither primitive is TIE-accelerated, so WEP is
    what keeps base cores busy in a heterogeneous farm."""

    name = "wep"
    default_mix_weight = 0.1

    def request_cost(self, request, costs, cache_hit=False):
        size = request.size_bytes
        frames = max(1, math.ceil(size / MTU_BYTES))
        cycles = (size * (costs.rc4_cycles_per_byte
                          + costs.crc32_cycles_per_byte
                          + costs.protocol_cycles_per_byte)
                  + frames * costs.wep_frame_fixed_cycles)
        return RequestCost(cycles=cycles, public_key_cycles=0.0,
                           payload_bytes=size)


# Registration order is the default-mix key order the seeded draws
# walk; ssl/wtls/esp/wep must stay first and in this order for the
# legacy request streams to stay byte-identical.
register_protocol(SslProtocolModel())
register_protocol(WtlsProtocolModel())
register_protocol(EspProtocolModel())
register_protocol(WepProtocolModel())
