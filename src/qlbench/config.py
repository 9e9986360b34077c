"""Experiment files, and the line reader that model and ray-family files share.

One line-oriented format drives every command, so runs are archivable and
replayable.  Lines are ``key value ...``; ``#`` starts a comment.  The same
reader (:func:`parse_lines`) reads ``hidden`` model files and ``coloring``
ray-family files, so all three formats share comments, tokens, ``;`` groups,
number syntax and located errors.  Experiment-file keys:

    state z+ | state 0.6 0.8 | state angles POLAR AZIMUTH
    context z | context angles POLAR AZIMUTH | context vectors c c ; c c
    universe NAME label label ...
    atoms LABEL LABEL
    trials N        seed N (hex ok)      tol X
    target N        samples N
    family PATH | family builtin:NAME
    model PATH

Unknown keys are rejected.  Complex amplitudes are Python complex literals
without internal spaces; basis vectors are separated by a standalone ``;``.
Syntax problems (unknown keys, malformed numbers, wrong arity) and semantic
problems (non-normalized states, non-orthonormal bases, duplicate labels)
raise distinct error types, both carrying line and column, as every error
from the shared reader does.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from typing import TYPE_CHECKING, Callable, Mapping

from .errors import InvariantViolationError, PreconditionError

if TYPE_CHECKING:
    from .events import Universe
    from .hilbert import MeasurementBasis, StateVector

DEFAULT_SEED = 0xC0FFEE
DEFAULT_TOL = 1e-9
DEFAULT_TRIALS = 100_000
DEFAULT_SAMPLES = 200
MAX_TRIALS = 2**63 - 1  # numpy draws counts as signed 64-bit integers
# lattice-check builds two samples × samples boolean inclusion matrices, 100 MB
# each at this bound
MAX_SAMPLES = 10_000


class ConfigError(InvariantViolationError):
    """Problem in a line-format file, located by line and column."""

    def __init__(self, message: str, line: int, column: int, source: str = "") -> None:
        where = f"{source} line" if source else "line"
        super().__init__(f"{where} {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ConfigSyntaxError(ConfigError):
    pass


class ConfigSemanticError(ConfigError):
    pass


class ExperimentConfig:
    """The settings of one run: what an experiment file sets, defaults elsewhere."""

    __slots__ = ("state", "contexts", "universes", "atoms", "trials", "seed", "tol", "target",
                 "samples", "family", "model")

    def __init__(self) -> None:
        self.state: StateVector | None = None
        self.contexts: tuple[tuple[str, MeasurementBasis], ...] = ()
        self.universes: tuple[Universe, ...] = ()
        self.atoms: tuple[str, str] | None = None
        self.trials, self.seed, self.tol = DEFAULT_TRIALS, DEFAULT_SEED, DEFAULT_TOL
        self.target, self.samples = 0, DEFAULT_SAMPLES
        self.family: str | None = None
        self.model: str | None = None


# Number settings: (lowest, highest, message for a value below lowest).
_RANGES = {
    "trials": (1, MAX_TRIALS, "trials must be positive"),
    "seed": (0, math.inf, "seed must be >= 0"),
    "target": (0, math.inf, "target index must be >= 0"),
    "samples": (1, MAX_SAMPLES, "samples must be positive"),
    "tol": (math.ulp(0.0), sys.float_info.max, "tol must be positive"),
}


def check_setting(key: str, value):
    """Return ``value`` if it is in range for setting ``key``, else raise
    PreconditionError.  Config lines and command-line flags both come here."""
    lowest, highest, too_low = _RANGES[key]
    if not lowest <= value:
        raise PreconditionError(too_low)
    if not value <= highest:
        raise PreconditionError(f"{key} must be at most {highest!r}")
    return value


def integer(text: str) -> int:
    """An integer as config lines and flags write it: decimal, or 0x, 0o or 0b prefixed."""
    return int(text, 0)


_NUMBER_KINDS = {
    int: (integer, "integer"),
    float: (float, "number"),
    complex: (complex, "complex number"),
}


class Line:
    """One non-blank line of a line-format file with its comment dropped:
    ``tokens[0]`` is the key, the rest are its values.  Columns are worked
    out only when an error is raised."""

    __slots__ = ("source", "lineno", "text", "tokens")

    def __init__(self, source: str, lineno: int, text: str, tokens: list[str]) -> None:
        self.source, self.lineno, self.text, self.tokens = source, lineno, text, tokens

    def column(self, index: int | None) -> int:
        """1-based column of ``tokens[index]``; 1 when there is no such token."""
        if index is None or index >= len(self.tokens):
            return 1
        end = 0
        for token in self.tokens[: index + 1]:
            end = self.text.index(token, end) + len(token)
        return end - len(self.tokens[index]) + 1

    def error(self, message: str, index: int | None = None,
              kind: type[ConfigError] = ConfigSyntaxError) -> ConfigError:
        return kind(message, self.lineno, self.column(index), self.source)

    def build(self, make: Callable, *args, prefix: str = ""):
        """``make(*args)``, with a ValueError from it raised as a semantic error
        at the line's first value."""
        try:
            return make(*args)
        except ValueError as exc:
            raise self.error(prefix + str(exc), 1, ConfigSemanticError) from exc

    def need(self, count: int, what: str) -> None:
        if len(self.tokens) != count + 1:
            raise self.error(f"expected {what}", 1)

    def number(self, kind: type, index: int, text: str | None = None):
        """``tokens[index]`` (or ``text``, a part of it) as an int (base prefixes
        allowed), or as a finite float or complex."""
        convert, name = _NUMBER_KINDS[kind]
        text = self.tokens[index] if text is None else text
        try:
            value = convert(text)
        except ValueError:
            raise self.error(f"malformed {name} {text!r}", index) from None
        if kind is not int and not cmath.isfinite(value):
            raise self.error(f"non-finite {name} {text!r}", index)
        return value

    def numbers(self, kind: type, start: int = 1, stop: int | None = None) -> list:
        """``tokens[start:stop]`` as numbers, each as :meth:`number` reads it."""
        convert, _ = _NUMBER_KINDS[kind]
        try:
            values = list(map(convert, self.tokens[start:stop]))
            if kind is int or all(map(cmath.isfinite, values)):
                return values
        except ValueError:
            pass
        for index in range(start, len(self.tokens) if stop is None else stop):
            self.number(kind, index)  # raises at the first bad token
        raise AssertionError("unreachable")

    def groups(self, kind: type, start: int = 1) -> list[list]:
        """The numbers from ``tokens[start]`` on, in the non-empty groups
        that standalone ``;`` tokens separate."""
        groups = []
        for index in range(start, len(self.tokens) + 1):
            if index == len(self.tokens) or self.tokens[index] == ";":
                if index > start:
                    groups.append(self.numbers(kind, start, index))
                start = index + 1
        return groups


def format_complex(value) -> str:
    """A number as the reader reads it back: a real part alone when the
    imaginary part is zero."""
    value = complex(value)
    return repr(value.real) if value.imag == 0.0 else str(value)


def parse_lines(text: str, handlers: Mapping[str, Callable[[Line], None]],
                source: str = "") -> None:
    """Call ``handlers[key](line)`` on each non-blank line of ``text``;
    ``source`` names the format in error messages."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if not tokens:
            continue
        line = Line(source, lineno, body, tokens)
        handler = handlers.get(tokens[0])
        if handler is None:
            raise line.error(f"unknown key {tokens[0]!r}", 0)
        handler(line)


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse an experiment file; raises ConfigSyntaxError / ConfigSemanticError."""
    config = ExperimentConfig()
    anonymous = itertools.count(1)

    # hilbert (and so numpy) and events are imported by the handlers that
    # need them, so a file without state or context lines never loads numpy
    def state(line: Line) -> None:
        from .hilbert import (STATE_PRESET_NAMES, StateVector, named_state, principal_vector,
                              spin_direction_basis)

        tokens = line.tokens
        if len(tokens) == 1:
            raise line.error("state needs a preset, amplitudes, or angles")
        if tokens[1] in STATE_PRESET_NAMES:
            line.need(1, "exactly one preset name")
            config.state = named_state(tokens[1])
        elif tokens[1] == "angles":
            line.need(3, "'angles POLAR AZIMUTH'")
            basis = spin_direction_basis(*line.numbers(float, 2))
            config.state = StateVector(principal_vector(basis.frame[:, 0]))
        else:
            config.state = line.build(StateVector, line.numbers(complex))

    def context(line: Line) -> None:
        from .hilbert import AXIS_NAMES, MeasurementBasis, named_axis_basis, spin_direction_basis

        tokens = line.tokens
        if len(tokens) == 1:
            raise line.error("context needs an axis, angles, or vectors")
        if tokens[1] in AXIS_NAMES:
            line.need(1, "exactly one axis name")
            config.contexts += ((tokens[1], named_axis_basis(tokens[1])),)
        elif tokens[1] == "angles":
            line.need(3, "'angles POLAR AZIMUTH'")
            polar, azimuth = line.numbers(float, 2)
            config.contexts += ((f"dir({polar:g},{azimuth:g})",
                                 spin_direction_basis(polar, azimuth)),)
        elif tokens[1] == "vectors":
            vectors = line.groups(complex, 2)
            if not vectors:
                raise line.error("no vectors given", 1)
            name = f"basis{next(anonymous)}"
            basis = line.build(MeasurementBasis.from_vectors, vectors,
                               prefix="context vectors invalid: ")
            config.contexts += ((name, basis),)
        else:
            raise line.error(f"context must be one of {AXIS_NAMES}, 'angles', or 'vectors'", 1)

    def universe(line: Line) -> None:
        from .events import Universe

        if len(line.tokens) < 3:
            raise line.error("universe needs a name and at least one label")
        labels = tuple(line.tokens[2:])
        overlap = {o for u in config.universes for o in u.outcomes}.intersection(labels)
        if overlap:
            raise line.error(f"label(s) {sorted(overlap)} already used by another universe",
                             2, ConfigSemanticError)
        config.universes += (line.build(Universe, line.tokens[1], labels),)

    def atoms(line: Line) -> None:
        line.need(2, "exactly two atom labels")
        config.atoms = (line.tokens[1], line.tokens[2])

    def setting(line: Line) -> None:
        key = line.tokens[0]
        kind = float if key == "tol" else int
        line.need(1, f"one {_NUMBER_KINDS[kind][1]}")
        try:
            setattr(config, key, check_setting(key, line.number(kind, 1)))
        except PreconditionError as exc:
            raise line.error(str(exc), 1, ConfigSemanticError) from None

    def path(line: Line) -> None:
        key = line.tokens[0]
        if len(line.tokens) == 1:
            raise line.error("family needs a path or builtin:NAME" if key == "family"
                             else "model needs a path")
        setattr(config, key, " ".join(line.tokens[1:]))

    parse_lines(text, {"state": state, "context": context, "universe": universe, "atoms": atoms,
                       "family": path, "model": path, **dict.fromkeys(_RANGES, setting)})
    return config


def load_experiment_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_experiment_config(handle.read())
