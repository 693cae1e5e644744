"""The versioned JSON envelope every serve endpoint speaks.

One wire contract for the whole serving layer — the single-process
server, the shard workers, and the shard router all exchange exactly
these shapes:

* success: ``{"schema": 2, ...payload...}``
* error:   ``{"schema": 2, "error": {"kind": "<TypeName>", "message": "..."}}``

``schema`` is the wire-format version. The router stamps it on every
request it forwards and refuses any response whose version differs
(:func:`require_schema`): a mixed-version cluster fails loudly at the
first RPC instead of silently mis-merging decisions.

Schema history
--------------
* **1** — the original envelope.
* **2** — decision rows and instance rows may carry policy provenance
  (``policy_spec``, ``drawn_phi``, ``rebuys``), and ``/v1/costs`` may
  carry a ``policies`` section (cancellation re-buy counts).

Every response is answered in :data:`SCHEMA_VERSION`; there is no
negotiation. An ingest body carrying any other ``"schema"`` is refused
with :class:`~repro.serve.errors.SchemaSkewError`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.serve.errors import SchemaSkewError

#: Version of the serve wire format. Bump on any change to response or
#: request shapes; servers, routers and shards refuse to interoperate
#: across versions.
SCHEMA_VERSION = 2


def envelope(payload: "Dict[str, object]") -> "Dict[str, object]":
    """Wrap a success payload in the versioned envelope."""
    wrapped: "Dict[str, object]" = {"schema": SCHEMA_VERSION}
    wrapped.update(payload)
    return wrapped


def error_envelope(kind: str, message: str) -> "Dict[str, object]":
    """The one error shape every serve endpoint returns."""
    return {
        "schema": SCHEMA_VERSION,
        "error": {"kind": kind, "message": message},
    }


def require_schema(body: object, source: str = "peer") -> "Dict[str, object]":
    """Validate that ``body`` is an envelope of this build's version.

    Returns the body (typed as a dict) so callers can chain. Raises
    :class:`~repro.serve.errors.SchemaSkewError` on a missing or
    mismatched ``schema`` field — version skew between router and shard
    is a deployment error and must never be papered over.
    """
    if not isinstance(body, dict):
        raise SchemaSkewError(
            f"{source} sent a non-object body ({type(body).__name__}); "
            "expected a schema envelope"
        )
    version = body.get("schema")
    if version != SCHEMA_VERSION:
        raise SchemaSkewError(
            f"{source} speaks envelope schema {version!r}; this build "
            f"speaks {SCHEMA_VERSION} — refusing to interoperate across "
            "versions"
        )
    return body


def error_kind(body: "Dict[str, object]") -> "Optional[str]":
    """The ``error.kind`` of an error envelope, or ``None`` on success."""
    error = body.get("error")
    if isinstance(error, dict):
        kind = error.get("kind")
        return str(kind) if kind is not None else None
    return None
