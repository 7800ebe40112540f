"""Simulation-as-a-service: the asyncio HTTP/JSON serving front end.

The batch machinery (``repro.jobs``) answers "run this sweep"; this
package answers "keep answering pricing questions forever".  Layering
(each module only imports downward):

``http``       minimal HTTP/1.1 over asyncio streams (stdlib only)
``protocol``   JSON bodies <-> canonical ``RunRequest`` identities
``store``      tiered read-through result store (hot LRU -> disk CAS)
``admission``  bounded dispatch concurrency with wait telemetry
``batching``   single-flight coalescing of identical in-flight requests
               plus cross-request batching of same-profile cells
``pool``       the compute backend: the jobs layer's dispatcher on
               threads, in-process or over an OS-process worker pool
``app``        endpoints, request spans, compute dispatch, graceful
               drain

Endpoints: ``POST /price``, ``POST /simulate``, ``POST /sweep``,
``GET /schemes``, ``GET /healthz``, ``GET /stats``.  See
docs/SERVING.md for schemas and semantics, ``python -m repro serve``
for the CLI entry point, and the repository benchmark's ``serve_mixed``
workload (``perfbench/``) for load and latency.
"""

from repro.serve.admission import AdmissionController
from repro.serve.app import (
    ComputeError,
    DRAIN_TIMEOUT_S,
    ServeApp,
    ServeServer,
)
from repro.serve.batching import (
    DEFAULT_BATCH_MAX,
    DEFAULT_BATCH_WINDOW_S,
    GroupBatcher,
    SingleFlight,
)
from repro.serve.http import (
    BadRequest,
    HttpRequest,
    MAX_BODY_BYTES,
    read_request,
    render_response,
    write_json,
)
from repro.serve.pool import BACKENDS, ServeBackend
from repro.serve.protocol import (
    MAX_SWEEP_CELLS,
    ProtocolError,
    metrics_to_json,
    parse_price,
    parse_sweep,
)
from repro.serve.store import DEFAULT_HOT_CAPACITY, TieredStore

__all__ = [
    "AdmissionController",
    "BACKENDS",
    "BadRequest",
    "ComputeError",
    "DEFAULT_BATCH_MAX",
    "DEFAULT_BATCH_WINDOW_S",
    "DEFAULT_HOT_CAPACITY",
    "DRAIN_TIMEOUT_S",
    "GroupBatcher",
    "HttpRequest",
    "MAX_BODY_BYTES",
    "MAX_SWEEP_CELLS",
    "ProtocolError",
    "ServeApp",
    "ServeBackend",
    "ServeServer",
    "SingleFlight",
    "TieredStore",
    "metrics_to_json",
    "parse_price",
    "parse_sweep",
    "read_request",
    "render_response",
    "write_json",
]
