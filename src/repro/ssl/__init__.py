"""SSL transaction model (paper Section 4.2, Figure 8).

A simplified but *executed* SSL: a client and server actually run the
handshake (RSA key exchange with client authentication, transcript
hashing, key derivation) and transfer bulk data through a record layer
(HMAC-SHA1 MAC-then-encrypt over a block cipher), all on the library's
own primitives.

Cycle accounting mirrors the paper's workload breakdown: the
public-key component is estimated with performance macro-models, the
symmetric component uses ISS-measured cycles/byte, and the
miscellaneous component (hashing + protocol overhead) is charged
identically on both platforms because the selected custom instructions
do not accelerate it -- that is exactly what saturates the
large-transaction speedup in Figure 8.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.ssl.record": ("RecordLayer", "RecordError"),
    "repro.ssl.handshake": ("SslClient", "SslServer", "run_handshake"),
    "repro.ssl.transaction": ("SslWorkloadModel", "TransactionBreakdown"),
})

__all__ = ["RecordLayer", "RecordError", "SslClient", "SslServer",
           "run_handshake", "SslWorkloadModel", "TransactionBreakdown"]
