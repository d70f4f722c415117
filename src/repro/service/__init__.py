"""Detection-as-a-service: the long-running verdict server.

The batch campaigns answer "how prevalent is mining *today*"; this
package answers single requests, forever. It wraps the full detector
cascade (NoCoin → wasm signature db → classifier → dynamic) behind a
deterministic, sim-clock-driven request/response API with:

- hot-reloadable detection state (:mod:`repro.service.bundles`):
  versioned FilterList/signature-db bundles swapped atomically under
  load, rejected candidates rolled back, torn swaps provably impossible,
- admission control (:mod:`repro.service.admission`): per-tenant token
  buckets, a bounded queue with deadline-aware rejection, and graceful
  degradation tiers that shed expensive cascade stages first,
- SLO gates over the persisted metrics (:mod:`repro.obs.gates`, with
  the health table in :mod:`repro.service.slo`),
- a seeded open-loop load generator (:mod:`repro.service.loadgen`).
"""

from repro.service.admission import AdmissionQueue, ServicePolicy, TokenBucket
from repro.service.bundles import (
    BundleStore,
    BundleValidationError,
    DetectionBundle,
    validate_bundle,
)
from repro.service.loadgen import LoadgenConfig, LoadReport, run_loadgen
from repro.service.server import ServiceRequest, ServiceResponse, VerdictServer

__all__ = [
    "AdmissionQueue",
    "BundleStore",
    "BundleValidationError",
    "DetectionBundle",
    "LoadReport",
    "LoadgenConfig",
    "ServicePolicy",
    "ServiceRequest",
    "ServiceResponse",
    "TokenBucket",
    "VerdictServer",
    "run_loadgen",
    "validate_bundle",
]
