"""Exception types shared across the toolchain."""


class MockskelError(Exception):
    """Base class for all mockskel errors."""


class MalformedInputError(MockskelError):
    """A traffic recording, config file or skeleton file could not be decoded.

    ``index`` is the zero-based line (JSONL) or entry (HAR) number of the
    offending record when known.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class UnparseableUriError(MockskelError):
    """A request URI does not have the canonical absolute-URI structure."""


class UnknownAttributeError(MockskelError):
    """An attribute name is not part of the table or skeleton schema."""


class DegenerateDatasetError(MockskelError):
    """A dataset has no instances (or otherwise cannot be learned from)."""


class SchemaMismatchError(MockskelError):
    """Models or instances built against different attribute schemas were mixed."""


class SkeletonSyntaxError(MockskelError):
    """A skeleton document violates the skeleton grammar.

    ``line`` is the one-based line number of the offending line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SettingError(MockskelError, ValueError):
    """A setting has the wrong JSON type or lies outside its valid range."""
