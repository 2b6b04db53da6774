"""Exception hierarchy shared by every layoutloom module.

All domain failures derive from LayoutLoomError so the CLI can map them to a
single exit code. Programming errors (bad arguments of the wrong type) raise
the usual builtins instead.
"""


class LayoutLoomError(Exception):
    """Base class for every domain error raised by this package."""


# --- layout model -----------------------------------------------------------

class ZeroCanvas(LayoutLoomError):
    """Canvas width or height is not strictly positive."""


class ParseFailure(LayoutLoomError):
    """No canvas dimensions and no recognizable element divs were found, or
    a style number is not finite."""


class NegativeDimension(LayoutLoomError):
    """A parsed element width or height is negative."""


class EmptyLayout(LayoutLoomError):
    """An operation that needs at least one element got an empty layout."""


# --- dataset ingestion ------------------------------------------------------

class SchemaError(LayoutLoomError):
    """A record does not conform to the JSON Lines interchange schema."""


class VocabularyError(LayoutLoomError):
    """A label outside the declared vocabulary was found in strict mode."""


class EmptySplit(LayoutLoomError):
    """The requested dataset split contains no layouts."""


class FormatError(LayoutLoomError):
    """A raster file is not a valid binary PGM of a supported bit depth."""


class DimensionMismatch(LayoutLoomError):
    """Raster data does not match its declared dimensions."""


# --- retrieval --------------------------------------------------------------

class EmptyIndex(LayoutLoomError):
    """Retrieval was attempted against an index with no entries."""


class VersionMismatch(LayoutLoomError):
    """A persisted index carries an unsupported format version."""


# --- metrics ----------------------------------------------------------------

class MissingLabelStats(LayoutLoomError):
    """A generated label has no training-set area reference."""


class ZeroTrainingArea(LayoutLoomError):
    """A training-set mean area is zero, so the size ratio is undefined."""


# --- prompt engine ----------------------------------------------------------

class UnknownTemplate(LayoutLoomError):
    """No template exists for the requested (family, stage) pair."""


class UnboundPlaceholder(LayoutLoomError):
    """Rendering left one or more {{PLACEHOLDER}} tokens unresolved."""


class InvalidPayload(LayoutLoomError):
    """A constraint payload does not match the shape its kind requires."""


class EmptyExemplars(LayoutLoomError):
    """Prompt construction needs at least one exemplar layout."""


# --- LLM gateway ------------------------------------------------------------

class TransportError(LayoutLoomError):
    """A live request failed after exhausting its retry budget.

    ``retry_after`` is the wait in seconds that the backend asked for before
    the next attempt, or None when it asked for none.
    """

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class RequestRejected(LayoutLoomError):
    """The backend refused a request with a client-error status (4xx other
    than 408 and 429), which a retry of the same request cannot change."""


class ReplayMiss(LayoutLoomError):
    """Replay mode has no stored transcript for a request key."""

    def __init__(self, key: str):
        super().__init__(f"no transcript stored for key {key}")
        self.key = key


class CredentialMissing(LayoutLoomError):
    """Live mode is configured but no API credential is available."""


# --- pipeline ---------------------------------------------------------------

class NoViableCandidate(LayoutLoomError):
    """Every generated candidate failed layout extraction."""


class ConfigError(LayoutLoomError):
    """A run configuration file is malformed or incomplete."""
