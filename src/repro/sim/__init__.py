"""Playback simulation: event engine, buffers, session driver."""

from .cohort import (
    CohortKernel,
    CohortResult,
    CohortSessionSummary,
)
from .decisions import Decision, Download, Wait
from .playback import PlaybackState, PlaybackTracker
from .records import (
    AbortRecord,
    BufferSample,
    DownloadRecord,
    EstimateSample,
    FailureRecord,
    ProgressSegment,
    ResultFold,
    SessionResult,
    SkipRecord,
    StallEvent,
)
from .session import (
    ActiveDownload,
    Session,
    SessionConfig,
    SessionContext,
    SessionObserver,
    simulate,
)

__all__ = [
    "AbortRecord",
    "ActiveDownload",
    "BufferSample",
    "CohortKernel",
    "CohortResult",
    "CohortSessionSummary",
    "FailureRecord",
    "Decision",
    "Download",
    "DownloadRecord",
    "EstimateSample",
    "PlaybackState",
    "PlaybackTracker",
    "ProgressSegment",
    "ResultFold",
    "Session",
    "SessionConfig",
    "SessionContext",
    "SessionObserver",
    "SessionResult",
    "SkipRecord",
    "StallEvent",
    "Wait",
    "simulate",
]
