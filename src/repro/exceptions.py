"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still being able to distinguish configuration mistakes from violations of
the distributed-computing model discovered at simulation time.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "ModelError",
    "AdmissibilityError",
    "SimulationError",
    "StaleViewError",
    "TraceUnavailableError",
    "AlgorithmError",
    "FailureDetectorError",
    "PropertyViolation",
    "AgreementViolation",
    "ValidityViolation",
    "TerminationViolation",
    "PartitionError",
    "CertificateError",
]


class ReproError(Exception):
    """Base class of all exceptions raised by the :mod:`repro` library."""


class ConfigurationError(ReproError):
    """A user-supplied parameter combination is inconsistent.

    Examples: a partition that does not cover the requested process set,
    ``k < 1``, ``f >= n`` for an algorithm that needs at least one correct
    process, or a failure-detector parameter outside ``1 <= k <= n - 1``.
    """


class ModelError(ReproError):
    """A system model was used in a way its definition does not allow."""


class AdmissibilityError(ModelError):
    """A constructed run violates the admissibility conditions of its model.

    Raised by the executor when an adversary asks for a step that the
    model forbids (for instance, letting a crashed process take a step, or
    withholding a message from a correct receiver forever in ``M_ASYNC``).
    """


class SimulationError(ReproError):
    """The simulation engine reached an internal inconsistency."""


class StaleViewError(SimulationError):
    """An adversary used a lazy view after the step it was issued for.

    The executor hands adversaries a zero-copy
    :class:`repro.simulation.scheduler.LazyAdversaryView` that reads the
    *live* execution state.  The view is only valid while the adversary's
    ``next_step`` call for that step is running; retaining it and reading
    it later would silently observe future state, so every access after
    the step raises this error instead.
    """


class TraceUnavailableError(SimulationError):
    """A run query needs trace data its recording policy did not keep.

    Runs executed under ``RecordingPolicy.DECISIONS_ONLY`` or
    ``RecordingPolicy.VERDICT_ONLY`` skip per-step event construction;
    queries that need the step events (state sequences, per-step message
    logs, ...) raise this error rather than silently returning an empty
    trace.  Re-run with ``RecordingPolicy.FULL`` to get the full trace.
    """


class AlgorithmError(ReproError):
    """An algorithm implementation broke the step contract.

    Typical causes: returning a state for a different process id, changing
    a write-once decision, or sending a message on behalf of another
    process.
    """


class FailureDetectorError(ReproError):
    """A failure-detector history violates the class it claims to satisfy."""


class PropertyViolation(ReproError):
    """Base class for violations of the k-set agreement properties.

    These exceptions double as *findings*: the impossibility benchmarks
    deliberately drive algorithms into schedules where a violation is
    expected, catch the exception and record it as the reproduced result.
    """

    def __init__(self, message: str, run=None):
        super().__init__(message)
        self.run = run


class AgreementViolation(PropertyViolation):
    """More than ``k`` distinct decision values were observed in a run."""


class ValidityViolation(PropertyViolation):
    """A process decided a value that no process proposed."""


class TerminationViolation(PropertyViolation):
    """A correct process failed to decide within the allotted schedule."""


class PartitionError(ReproError):
    """A partition construction required by a proof scenario is infeasible."""


class CertificateError(ReproError):
    """A possibility/impossibility certificate failed verification."""
