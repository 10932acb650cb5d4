"""Security protocol layers the platform targets, as pluggable models.

The paper motivates the platform with *multiple* protocol standards at
different stack layers: "WEP, IPSec, and SSL" (Section 1).  Protocol
*mechanics* live in their own modules (:mod:`repro.ssl`,
:mod:`repro.protocols.wep`, :mod:`repro.protocols.esp`,
:mod:`repro.crypto.kasumi`); what the farm layer consumes is the
:mod:`repro.protocols.registry` seam -- one :class:`ProtocolModel` per
protocol, registered by name:

- :mod:`repro.protocols.builtin` -- the legacy menu (SSL, WTLS, ESP,
  WEP) with the historical cycle arithmetic, registered first so the
  seeded default-mix draws stay byte-identical.
- :mod:`repro.protocols.tls13` -- TLS-1.3-style 1-RTT handshake with
  session-ticket 0-RTT resumption (opt-in, weight 0).
- :mod:`repro.protocols.kasumi_link` -- KASUMI f8/f9 3G link-layer
  protection (opt-in, weight 0).
"""

from repro.protocols.registry import (MTU_BYTES, ProtocolModel,
                                      RequestCost, SessionKeys,
                                      UnknownProtocolError,
                                      default_mix, get_protocol,
                                      protocol_names, register_protocol,
                                      unregister_protocol)
# Registration order matters: legacy four first, then additions.
from repro.protocols import builtin as _builtin  # noqa: F401
from repro.protocols import tls13 as _tls13  # noqa: F401
from repro.protocols import kasumi_link as _kasumi_link  # noqa: F401
from repro.protocols.tls13 import Tls13ProtocolModel
from repro.protocols.kasumi_link import KasumiLinkProtocolModel
from repro.protocols.wep import WepError, WepPeer
from repro.protocols.esp import EspError, EspSecurityAssociation

__all__ = [
    "EspError", "EspSecurityAssociation", "KasumiLinkProtocolModel",
    "MTU_BYTES", "ProtocolModel", "RequestCost", "SessionKeys",
    "Tls13ProtocolModel", "UnknownProtocolError", "WepError", "WepPeer",
    "default_mix", "get_protocol", "protocol_names", "register_protocol",
    "unregister_protocol",
]
