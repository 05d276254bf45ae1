"""Exception hierarchy shared across the package."""

import json
import math

__all__ = [
    "FlowQuboError",
    "DimensionError",
    "ModelError",
    "ReformulationError",
    "ExhaustiveLimitError",
    "SampleFormatError",
    "EnergyMismatchError",
    "SolverError",
]


class FlowQuboError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(FlowQuboError):
    """An assignment, matrix or index does not match the model size."""


class ModelError(FlowQuboError):
    """A model is malformed: unknown variables, bad senses, invalid values."""


class ReformulationError(FlowQuboError):
    """A binary program cannot be compiled into a QUBO as requested."""


class ExhaustiveLimitError(FlowQuboError):
    """An exhaustive operation was asked to enumerate more states than allowed."""


class SampleFormatError(FlowQuboError):
    """A sample file violates the expected schema."""


class EnergyMismatchError(SampleFormatError):
    """Imported energies disagree with recomputation against the given model.

    ``mismatches`` holds ``(assignment, stated, recomputed)`` triples.
    """

    def __init__(self, mismatches):
        self.mismatches = list(mismatches)
        lines = ", ".join(
            "%s: stated %r vs recomputed %r" % ("".join(map(str, a)), s, r)
            for a, s, r in self.mismatches[:5]
        )
        more = "" if len(self.mismatches) <= 5 else " (+%d more)" % (len(self.mismatches) - 5)
        super().__init__("energy mismatch beyond tolerance for %d record(s): %s%s"
                         % (len(self.mismatches), lines, more))


class SolverError(FlowQuboError):
    """A solver failed to run (as opposed to proving a model infeasible)."""


# what converting a JSON document of the wrong shape raises: a missing key, a
# list where an object belongs, a string or bool where a number belongs, an
# integer too large for a float
JSON_SHAPE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, OverflowError)


def read_json(path, error: type[FlowQuboError]):
    """Parse the JSON file at ``path``.

    A missing, unreadable or malformed file raises ``error``, so that every
    loader reports bad input as a package error rather than an OS or parser
    exception.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON indented by two, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def json_list(value) -> list:
    """``value`` if it is a JSON list.

    Anything else raises ``TypeError``, one of :data:`JSON_SHAPE_ERRORS`, so
    the loader reports malformed input; ``tuple()`` alone would read a string
    as one item per character and an object as its keys.
    """
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON list, got {type(value).__name__}")
    return value


def json_str(value) -> str:
    """``value`` if it is a JSON string; ``TypeError`` otherwise, as above."""
    if not isinstance(value, str):
        raise TypeError(f"expected a JSON string, got {type(value).__name__}")
    return value


def json_int(value) -> int:
    """``value`` if it is a JSON integer; ``TypeError`` otherwise, as above.

    ``bool`` is a subclass of ``int`` in Python, so ``true`` is refused
    explicitly, as are a float and a numeric string.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected a JSON integer, got {type(value).__name__}")
    return value


def json_float(value) -> float:
    """``value`` as a float if it is a finite JSON number.

    A bool, a string or any other non-number raises ``TypeError``, NaN or an
    infinity ``ValueError``, and an integer too large for a float
    ``OverflowError``: all of them in :data:`JSON_SHAPE_ERRORS`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {type(value).__name__}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def json_names(value) -> tuple[str, ...]:
    """A JSON list of strings as a tuple."""
    return tuple(map(json_str, json_list(value)))
