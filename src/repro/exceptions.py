"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to discriminate finer-grained failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """An invalid parameter or inconsistent configuration was supplied."""


class PrivacyBudgetError(ReproError):
    """A privacy-budget invariant was violated.

    Raised by the :class:`repro.ldp.accountant.PrivacyAccountant` when a
    report would cause some user's spend inside a sliding window of ``w``
    timestamps to exceed the total budget ``epsilon``.
    """


class DomainError(ReproError):
    """A value fell outside the declared domain (e.g. unknown grid cell)."""


class DatasetError(ReproError):
    """A dataset is malformed or incompatible with the requested operation."""


class SynthesisError(ReproError):
    """The synthesizer reached an unrecoverable state."""


class ResponseLostError(ReproError):
    """A request was sent but the connection died before the response.

    Raised by :class:`repro.api.client.Client` when the server may have
    already applied a non-idempotent request (e.g. ``POST /v1/batch``)
    but the response was lost. Retrying automatically could double-apply
    reports, so the client surfaces the ambiguity instead; the caller
    must reconcile (e.g. compare ``/v1/stats`` counters) before
    resubmitting.
    """


class ShardWorkerError(ReproError):
    """A shard worker process died or broke protocol mid-round.

    Raised by the distributed shard executor's
    :class:`repro.core.distributed.ShardSocketPool` when a worker's
    channel breaks — typically because the worker process was killed —
    or a round-trip outlives its deadline, so the parent fails fast with
    the shard named instead of hanging or dying on a bare ``EOFError``.
    """
