"""Exception hierarchy shared across the package."""


class HsrecError(Exception):
    """Base class for all package errors."""


class DataError(HsrecError):
    """Malformed or inconsistent input data (bad JSONL line, missing field, ...)."""


class SnapshotFormatError(HsrecError):
    """Snapshot file is not readable: bad magic, version, truncation or trailer."""


class StaleIndexError(HsrecError):
    """An additive index was queried after the underlying tables changed."""


class TrainingDivergedError(HsrecError):
    """Loss became non-finite during optimization."""


class NotFittedError(HsrecError):
    """Estimator method called before ``fit``."""
