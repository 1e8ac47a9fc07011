"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  The split between key-level errors (duplicate keys,
unencodable values) and structural errors (page-store misuse, exhausted
split depth) mirrors the two failure surfaces of the paper's algorithms:
``BMEH_Insert`` reports duplicate keys, and every splitting scheme has a
hard floor once all ``w`` pseudo-key bits are consumed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class EncodingError(ReproError):
    """A value cannot be mapped to an order-preserving pseudo-key."""


class KeyDimensionError(ReproError):
    """A key vector's arity does not match the index's dimensionality."""


class DuplicateKeyError(ReproError):
    """An exact duplicate key was inserted.

    The paper's insertion algorithm prints an error message and returns
    when the target page already contains the key; we raise instead.
    """


class KeyNotFoundError(ReproError):
    """A delete or update referenced a key that is not in the index."""


class CapacityError(ReproError):
    """Splitting cannot separate the colliding keys any further.

    Raised when a region already at the maximal depth ``w`` on every
    dimension still overflows, i.e. more than ``b`` keys share all
    ``w``-bit pseudo-key components.  The paper assumes distinct 32-bit
    keys and never hits this case.
    """


class StorageError(ReproError):
    """Page-store misuse: bad page id, freed-page access, size overflow."""


class LatchTimeout(ReproError):
    """A latch acquisition gave up after its timeout elapsed.

    Raised by :meth:`repro.storage.latch.ReadWriteLatch.acquire_read` /
    ``acquire_write`` when called with ``timeout=``.  The service layer
    maps it to a 503-style backpressure reply: a stuck writer becomes a
    clean retryable error at the client instead of a hung server.
    """


class ProtocolError(ReproError):
    """A malformed, oversized or version-mismatched wire-protocol frame.

    Carries ``code``, the structured error identifier sent back to the
    client (``bad-frame``, ``bad-version``, ``bad-payload``, ...).
    """

    def __init__(self, message: str, *, code: str = "bad-frame") -> None:
        self.code = code
        super().__init__(message)


class ShardDownError(ReproError):
    """A shard worker is unreachable and a routed request cannot proceed.

    Raised by the :class:`~repro.server.router.ShardRouter` when the
    upstream connection for the shard owning a key is dead and one
    reconnect attempt failed.  Carries ``code = "shard-down"`` so the
    wire layer reports it structurally instead of hanging the client;
    the other shards keep serving (graceful degradation, not cluster
    failure).

    Attributes:
        shard: index of the unreachable shard, if known.
    """

    code = "shard-down"

    def __init__(self, message: str, *, shard: int | None = None) -> None:
        self.shard = shard
        super().__init__(message)


class StaleTopologyError(ReproError):
    """A request asserted a topology epoch the router has moved past.

    Carries ``code = "stale-topology"``.  The reply header already holds
    the current epoch, so a client refreshes and retries transparently
    — callers only ever see this if retries are exhausted.
    """

    code = "stale-topology"

    def __init__(self, message: str, *, epoch: int = 0) -> None:
        self.epoch = epoch
        super().__init__(message)


class MigrationError(ReproError):
    """An online shard split/merge could not be completed.

    Carries ``code = "migration-failed"``.  Raised by the
    :class:`~repro.server.migrate.ShardMigrator` when a rebalance step
    fails *before* its commit point (the atomic topology replace): the
    cluster is left exactly as it was — the target worker is killed, the
    tap released, and no epoch is bumped — so the caller may simply
    retry.  A failure after the commit point never raises this; the
    new topology is live and only cleanup (orphan eviction) remains.
    """

    code = "migration-failed"


class CrashError(StorageError):
    """A simulated power failure raised by the fault-injection harness.

    Once raised, every further operation on the injected files raises it
    again — the "machine" is down.  Durable state is materialized to the
    real filesystem at the crash point, so a fresh backend can reopen the
    files and exercise recovery.
    """


class InvariantViolation(ReproError):
    """A structural invariant does not hold (raised by ``repro.sanitize``).

    Unlike a bare ``AssertionError`` the violation is structured: it names
    the broken invariant, the index scheme, and the path from the root to
    the failing node, so a corrupted split deep in a tree is reported as
    an addressable location rather than a stack trace.

    Attributes:
        invariant: short identifier of the broken invariant
            (e.g. ``"balance"``, ``"depth-arithmetic"``).
        scheme: class name of the index under check.
        path: root-to-failure location steps, e.g.
            ``("node 4", "cell (1, 0)", "page 17")``.
    """

    def __init__(
        self,
        message: str,
        *,
        invariant: str = "invariant",
        scheme: str | None = None,
        path: tuple[str, ...] | list[str] = (),
    ) -> None:
        self.invariant = invariant
        self.scheme = scheme
        self.path = tuple(path)
        where = " -> ".join(self.path) if self.path else "<root>"
        prefix = f"{scheme}: " if scheme else ""
        super().__init__(f"{prefix}[{invariant}] at {where}: {message}")


class SerializationError(StorageError):
    """A page image cannot be encoded into / decoded from its byte form."""
