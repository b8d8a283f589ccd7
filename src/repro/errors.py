"""Common exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """An error detected by the discrete-event simulation kernel."""


class ElaborationError(SimulationError):
    """Design could not be elaborated (e.g. unbound port)."""


class DeltaOverflowError(SimulationError):
    """Too many delta cycles at one time point (combinational loop)."""


class RtosError(ReproError):
    """An error detected by the RTOS kernel."""


class TransportError(ReproError):
    """An error in the remote IPC layer."""


class ProtocolError(ReproError):
    """A violation of the virtual-tick co-simulation protocol."""


class IssError(ReproError):
    """An error raised by the instruction-set simulator."""


class FmiError(ReproError):
    """A violation of the FMI-style plugin contract (repro.fmi)."""


class FmiPluginCrashed(FmiError):
    """A subprocess plugin died mid-call (EOF/killed on the wire)."""


class FmiTimeoutError(FmiError):
    """A plugin call exceeded its step timeout and was killed."""


class FmiWireError(TransportError):
    """Malformed frame on the plugin wire (repro.fmi.wire)."""


class FarmError(ReproError):
    """An error raised by the co-simulation farm (job server)."""


class QuotaExceeded(FarmError):
    """A tenant's submission would exceed its farm quota."""


class UnknownBackendError(ReproError):
    """A differential-fuzz backend name that no scenario runs."""


class WorkloadError(ReproError):
    """A malformed workload description in plain-data form: an unknown
    key, a value of the wrong type, or a value out of range."""


class AssemblerError(IssError):
    """One or more errors raised while assembling a program.

    ``messages`` holds every collected error as ``(line, message)``
    pairs (``line`` may be None for errors without a location); the
    exception text joins them, one per line, so single-error behaviour
    is unchanged.
    """

    def __init__(self, message, messages=None):
        super().__init__(message)
        if messages is None:
            messages = [(None, str(message))]
        #: List of ``(line_number_or_None, message)`` tuples.
        self.messages = list(messages)

    @classmethod
    def from_messages(cls, messages):
        """Build one exception from collected ``(line, message)`` pairs."""
        text = "\n".join(message for _, message in messages)
        return cls(text, messages=messages)
