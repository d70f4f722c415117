"""Coinhive service simulator.

Coinhive (Section 4 of the paper) was the dominant browser-mining
provider: it served a highly optimized Monero Wasm miner, ran a mining
pool behind 32 WebSocket endpoints (two per backend system), kept 30% of
the mined rewards, obfuscated outgoing PoW blobs with a fixed XOR, and
operated side businesses — most notably the ``cnhv.co`` short-link
forwarding service that required visitors to compute hashes before being
redirected.

- :mod:`repro.coinhive.obfuscation` — the XOR blob transform.
- :mod:`repro.coinhive.service` — accounts, pool, endpoints.
- :mod:`repro.coinhive.miner_script` — website-embeddable miner assets.
- :mod:`repro.coinhive.shortlink` — the cnhv.co short-link service.
- :mod:`repro.coinhive.resolver` — the paper's non-browser parallel link
  resolver (Section 4.1, "Link Destinations").
"""

from repro.coinhive.obfuscation import BlobObfuscator
from repro.coinhive.service import CoinhiveService, CoinhiveUser
from repro.coinhive.shortlink import ShortLink, ShortLinkService, id_to_index, index_to_id
from repro.coinhive.resolver import LinkResolver, ResolvedLink

__all__ = [
    "BlobObfuscator",
    "CoinhiveService",
    "CoinhiveUser",
    "ShortLink",
    "ShortLinkService",
    "id_to_index",
    "index_to_id",
    "LinkResolver",
    "ResolvedLink",
]
