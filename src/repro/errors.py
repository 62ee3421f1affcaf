"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so that callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ScheduleError(ReproError):
    """Raised for invalid schedule configurations (e.g. bad tile factors)."""


class WorkloadError(ReproError):
    """Raised for malformed workload definitions."""


class DeviceError(ReproError):
    """Raised for unknown devices or invalid device parameters."""


class SearchError(ReproError):
    """Raised when a search policy is misconfigured or fails."""


class CostModelError(ReproError):
    """Raised for cost-model feature/shape mismatches or untrained use."""


class DatasetError(ReproError):
    """Raised for dataset construction or lookup failures."""


class AnalysisError(ReproError):
    """Raised for static-analysis misuse: missing paths, unparseable
    sources, or unknown rule families."""


class TuningFailure(SearchError):
    """Raised when a tuner cannot produce any valid schedule.

    Mirrors the failure mode the paper reports for TLP ("fails to search
    for an available solution after fine-tuning") and TLM on unseen
    subgraphs.
    """
