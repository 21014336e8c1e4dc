"""Line-oriented scenario documents.

The format is a minimal `key = value` file: one pair per line, `#` starts
a comment, blank lines are ignored. Rates accept decimals ("0.4"),
percentages ("40%") and fractions ("2/5"), all converted exactly to
rationals so the end-to-end arithmetic stays rational. A rate's numerator
and denominator may have 1,000 digits each, so printed figures stay below
Python's 4,300-digit int-to-str limit.

Recognized keys: version, base_rate, hit_rate, false_alarm_rate,
population, threshold, hypothesis_label, evidence_label. The three rates
are required; everything else is optional (version defaults to 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .core import Probability, Scenario
from .freqtree import MAX_POPULATION_DIGITS

FORMAT_VERSION = 1

#: Digits a rate's reduced numerator and denominator may each have.
MAX_RATE_DIGITS = 1000
_RATE_LIMIT = 10**MAX_RATE_DIGITS
_RATE_TOO_LARGE = f"a rate may have at most {MAX_RATE_DIGITS} digits in numerator and denominator"
_POPULATION_LIMIT = 10**MAX_POPULATION_DIGITS
_BITS_PER_FIVE = math.log2(5)

_RATE_KEYS = ("base_rate", "hit_rate", "false_alarm_rate")
_KEYS = ("version",) + _RATE_KEYS + ("population", "threshold", "hypothesis_label", "evidence_label")


class ScenarioParseError(ValueError):
    """Base class for scenario-document errors; carries a 1-based line number."""

    def __init__(self, message: str, line_number: Optional[int] = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class ScenarioSyntaxError(ScenarioParseError):
    pass


class DuplicateKeyError(ScenarioParseError):
    pass


class RangeError(ScenarioParseError):
    pass


class MissingKeyError(ScenarioParseError):
    def __init__(self, key: str):
        self.key = key
        super().__init__(f"missing required key {key!r}")


@dataclass(frozen=True)
class ScenarioDocument:
    """A parsed scenario file: the scenario plus optional run parameters."""

    scenario: Scenario
    format_version: int = FORMAT_VERSION
    population: Optional[int] = None
    threshold: Optional[Probability] = None


def parse_rate(text: str) -> Fraction:
    """Convert '0.4', '40%' or '2/5' to an exact Fraction.

    Raises ValueError on anything else (including 'inf'/'nan'), and
    RangeError when the reduced numerator or denominator has more than
    MAX_RATE_DIGITS digits. Texts with more than four times that many digits
    or an exponent past it ('1e-20000') are refused before a number is built:
    int() reads that many, and format_exact never writes more for a rate.
    """
    text = text.strip()
    try:
        scale = abs(int(text.removesuffix("%").lower().partition("e")[2] or 0))
    except ValueError:  # no integer exponent (Fraction rejects the text) or too long a one
        scale = 0
    if max(scale, sum(char.isdigit() for char in text)) > 4 * MAX_RATE_DIGITS:
        raise RangeError(_RATE_TOO_LARGE)
    try:
        rate = Fraction(text[:-1].strip()) / 100 if text.endswith("%") else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rate {text!r}") from None
    if abs(rate.numerator) >= _RATE_LIMIT or rate.denominator >= _RATE_LIMIT:
        raise RangeError(_RATE_TOO_LARGE)
    return rate


def check_probability(name: str, text: str, rate: Fraction, line: Optional[int] = None) -> Probability:
    """`rate`, read from `text` for key or flag `name`, as a Probability.

    Raises RangeError naming `name` and `text` (and `line`, when given) if
    the rate lies outside [0, 1].
    """
    if not 0 <= rate <= 1:
        raise RangeError(f"{name} must be in [0, 1], got {text}", line)
    return Probability(rate)


def check_label(name: str, text: str, line: Optional[int] = None) -> str:
    """`text`, given for label key or flag `name`, if it holds no C0 control other than tab.

    XML 1.0 cannot carry most of them in an SVG, and a line break would
    split the label's line in a scenario file.
    Raises ScenarioSyntaxError naming `name` (and `line`, when given) otherwise.
    """
    for char in text:
        if char < " " and char != "\t":
            raise ScenarioSyntaxError(f"{name} may not contain the control character {char!r}", line)
    return text


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse a scenario document, validating every value at its line; a leading BOM is ignored."""
    values = {}
    lines = {}
    for number, raw in enumerate(text.removeprefix("\ufeff").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ScenarioSyntaxError(f"expected 'key = value', got {raw.rstrip()!r}", number)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ScenarioSyntaxError(f"unknown key {key!r}", number)
        if key in values:
            raise DuplicateKeyError(f"duplicate key {key!r}", number)
        if not value:
            raise ScenarioSyntaxError(f"empty value for key {key!r}", number)
        values[key] = value
        lines[key] = number

    def rate_at(key: str, value: str) -> Probability:
        try:
            rate = parse_rate(value)
        except RangeError as exc:
            raise RangeError(f"{key}: {exc}", lines[key]) from None
        except (ValueError, ZeroDivisionError):
            raise ScenarioSyntaxError(f"cannot parse {value!r} as a rate", lines[key]) from None
        return check_probability(key, value, rate, lines[key])

    def int_at(key: str, value: str) -> int:
        try:
            return int(value)
        except ValueError:
            raise ScenarioSyntaxError(f"cannot parse {value!r} as an integer", lines[key]) from None

    version = FORMAT_VERSION
    if "version" in values:
        version = int_at("version", values["version"])
        if version != FORMAT_VERSION:
            raise RangeError(
                f"unsupported format version {version}; expected {FORMAT_VERSION}", lines["version"]
            )

    for key in _RATE_KEYS:
        if key not in values:
            raise MissingKeyError(key)
    rates = {key: rate_at(key, values[key]) for key in _RATE_KEYS}

    population = None
    if "population" in values:
        population = int_at("population", values["population"])
        if population < 1:
            raise RangeError(f"population must be >= 1, got {population}", lines["population"])
        if population >= _POPULATION_LIMIT:
            raise RangeError(f"population may have at most {MAX_POPULATION_DIGITS} digits", lines["population"])

    threshold = rate_at("threshold", values["threshold"]) if "threshold" in values else None

    scenario_kwargs = {
        key: check_label(key, values[key], lines[key])
        for key in ("hypothesis_label", "evidence_label")
        if key in values
    }

    return ScenarioDocument(
        scenario=Scenario(**rates, **scenario_kwargs),
        format_version=version,
        population=population,
        threshold=threshold,
    )


def serialize_scenario(document: ScenarioDocument) -> str:
    """Canonical text form; parse_scenario(serialize_scenario(d)) == d."""
    scenario = document.scenario
    lines = [f"version = {document.format_version}"]
    for key in _RATE_KEYS:
        lines.append(f"{key} = {format_exact(getattr(scenario, key))}")
    if document.population is not None:
        lines.append(f"population = {document.population}")
    if document.threshold is not None:
        lines.append(f"threshold = {format_exact(document.threshold)}")
    lines.append(f"hypothesis_label = {scenario.hypothesis_label}")
    lines.append(f"evidence_label = {scenario.evidence_label}")
    return "\n".join(lines) + "\n"


def format_fixed(scaled: int, places: int) -> str:
    """scaled / 10**places as decimal text, without trailing zeros after the point."""
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + str(frac).zfill(places).rstrip("0")


def format_exact(value: Fraction) -> str:
    """Lossless text form: a terminating decimal when one exists, else 'p/q'."""
    denominator = value.denominator
    twos = (denominator & -denominator).bit_length() - 1
    reduced = denominator >> twos
    # 5^e has floor(e·log2(5)) + 1 bits, so the only power of five `reduced` can be is this one.
    fives = round(reduced.bit_length() / _BITS_PER_FIVE) if reduced % 5 == 0 else 0
    if reduced != 5**fives:
        return f"{value.numerator}/{denominator}"
    places = max(twos, fives)
    return format_fixed(value.numerator * 10**places // denominator, places)


def format_sig(value: Fraction) -> str:
    """Decimal form rounded to 6 significant figures (ties to even), exactly."""
    if value == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = 6
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return format(quotient.normalize(), "f")
