"""Storage options: one frozen record for every persistence knob.

Mirroring :class:`repro.xsql.options.ExecutionOptions`,
:class:`StorageOptions` gathers the storage knobs into a single
validated frozen dataclass accepted uniformly by :meth:`Session.open`,
the REPL's ``--storage`` flag, and :func:`make_engine`.

Backends:

``dict``
    The in-process dictionaries alone — no engine attached, the write
    path pays nothing, nothing persists; takes no ``path``.
``memory``
    A :class:`~repro.storage.engine.MemoryEngine` KV mirror: every
    mutation flows through the codec, nothing touches disk.
``log``
    A :class:`~repro.storage.wal.LogStructuredEngine` at ``path``:
    write-ahead logged, checkpointable, crash-recoverable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.storage.engine import MemoryEngine, StorageEngine, StorageError
from repro.storage.wal import SYNC_MODES, LogStructuredEngine

__all__ = ["BACKENDS", "StorageOptions", "make_engine"]

#: Storage backends, ordered by durability.
BACKENDS = ("dict", "memory", "log")


@dataclass(frozen=True)
class StorageOptions:
    """Frozen bundle of persistence knobs for one session.

    ``backend``
        One of :data:`BACKENDS`.
    ``path``
        Database directory; required for ``log``, rejected for
        ``dict``, ignored by ``memory``.
    ``sync``
        Fsync policy for the ``log`` backend: ``"commit"`` (every
        batch), ``"checkpoint"`` (default: flushed per batch, fsynced
        at checkpoints and close), or ``"never"`` (tests).
    """

    backend: str = "dict"
    path: Optional[str] = None
    sync: str = "checkpoint"

    def validate(self) -> "StorageOptions":
        if self.backend not in BACKENDS:
            raise StorageError(
                f"unknown storage backend {self.backend!r}; "
                f"choose from {BACKENDS}"
            )
        if self.sync not in SYNC_MODES:
            raise StorageError(
                f"unknown sync mode {self.sync!r}; choose from {SYNC_MODES}"
            )
        if self.path is not None and not isinstance(self.path, str):
            raise StorageError(f"path must be a string, got {self.path!r}")
        if self.backend == "log" and not self.path:
            raise StorageError("the log backend needs a path")
        if self.backend == "dict" and self.path:
            raise StorageError(
                "the dict backend persists nothing and takes no path; "
                "open the path with the log backend instead"
            )
        return self

    def with_overrides(self, **overrides) -> "StorageOptions":
        """A copy with the given fields replaced (and re-validated)."""
        return replace(self, **overrides).validate()

    def cache_key(self) -> Tuple:
        return (self.backend, self.path, self.sync)

    @classmethod
    def coerce(
        cls,
        options: Optional["StorageOptions"] = None,
        **kwargs,
    ) -> "StorageOptions":
        """Build options from an explicit record and/or loose kwargs.

        Mirrors :meth:`ExecutionOptions.coerce`: kwargs left as ``None``
        keep the base value, so callers thread optional CLI flags
        straight through.
        """
        base = options if options is not None else cls()
        if not isinstance(base, cls):
            raise StorageError(
                f"storage options must be StorageOptions, "
                f"got {type(base).__name__}"
            )
        overrides = {
            name: value for name, value in kwargs.items() if value is not None
        }
        if overrides:
            base = replace(base, **overrides)
        return base.validate()

    @classmethod
    def parse(cls, spec: str) -> "StorageOptions":
        """Parse a CLI/REPL spec: ``dict``, ``memory``, ``log:PATH``,
        or a bare ``PATH`` (shorthand for ``log:PATH``)."""
        spec = spec.strip()
        if not spec:
            raise StorageError("empty storage spec")
        backend, _, rest = spec.partition(":")
        if backend in BACKENDS:
            return cls(
                backend=backend, path=rest or None
            ).validate()
        return cls(backend="log", path=spec).validate()


def make_engine(options: StorageOptions) -> Optional[StorageEngine]:
    """Instantiate the engine *options* describes (None for ``dict``)."""
    options = options.validate()
    if options.backend == "dict":
        return None
    if options.backend == "memory":
        return MemoryEngine()
    return LogStructuredEngine(options.path, sync=options.sync)
