"""The service health table ``repro obs slo`` prints.

The SLO gates themselves (``--fail-on 'p99>5'``, ``shed_rate>0.9``, …)
are :mod:`repro.obs.gates` expressions over the run's registry.
"""

from __future__ import annotations

from repro.obs.gates import RegistryView
from repro.obs.metrics import MetricsRegistry


def slo_summary_rows(registry: MetricsRegistry) -> list:
    """The at-a-glance service health table ``obs slo`` prints."""
    view = RegistryView(registry)
    return [
        ["offered", registry.counter("service.requests.offered")],
        ["admitted", registry.counter("service.requests.admitted")],
        ["completed", registry.counter("service.requests.completed")],
        ["shed rate", f"{view.value('shed_rate'):.1%}"],
        ["degraded rate", f"{view.value('degraded_rate'):.1%}"],
        ["error rate", f"{view.value('error_rate'):.1%}"],
        ["latency p50", f"{view.value('p50') * 1000:.0f}ms"],
        ["latency p99", f"{view.value('p99') * 1000:.0f}ms"],
        ["max queue depth", int(registry.gauges.get("service.queue.depth", 0.0))],
        ["reloads applied", registry.counter("service.reload.applied")],
        ["reloads rejected", registry.counter("service.reload.rejected")],
        ["mixed-bundle verdicts", registry.counter("service.reload.mixed_bundle")],
    ]
