"""Exception hierarchy shared across the library."""

import json


class CorkscrewError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(CorkscrewError):
    """A complex or endomorphism violates one of its structural invariants."""


class ParseError(CorkscrewError):
    """Malformed input file.  Carries a line/column when one is known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


def read_input(path: str) -> str:
    """The text of a file; an unreadable or non-UTF-8 one is a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path!r}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path!r} is not UTF-8 text: {exc.reason} "
                         f"at byte {exc.start}") from None


def _object(pairs: list) -> dict:
    """A JSON object from its (key, value) pairs; a repeated key is a
    ParseError, where ``json`` would keep only its last value."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ParseError(f"repeated key {key!r} in a JSON object")
    return doc


# built once: ``json.loads`` with a hook builds a new decoder per call
_DECODER = json.JSONDecoder(object_pairs_hook=_object)


def load_json(text: str):
    """The value of a JSON text.  Malformed text is a ParseError at its
    line and column, and so are nesting too deep for the decoder and a
    key repeated within one object."""
    try:
        if text.startswith("\ufeff"):  # the check json.loads makes
            raise json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    except RecursionError:
        raise ParseError("JSON nesting is too deep") from None


class NoInvolutionError(CorkscrewError):
    """No skew chain map squaring to the Sarkar map exists on the complex."""


class SearchCapExceeded(CorkscrewError):
    """An enumeration-backed solver hit its fixed size cap."""


class WindowUnstableError(CorkscrewError):
    """A torsion order exceeded the bound of the homology truncation
    window, whose margin is proven to dominate every one."""


class GradingParityError(CorkscrewError):
    """A numerical invariant landed on an odd grading where the -1/2
    normalisation is ambiguous."""


class ConsistencyError(CorkscrewError):
    """Two independent computation routes that must agree disagreed."""
