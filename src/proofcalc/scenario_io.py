"""Line-oriented scenario documents.

The format is a minimal `key = value` file: one pair per line, `#` starts
a comment, blank lines are ignored. Rates accept decimals ("0.4"),
percentages ("40%") and fractions ("2/5"), all converted exactly to
rationals so the end-to-end arithmetic stays rational. A rate's numerator
and denominator may have 1,000 digits each, so printed figures stay below
Python's 4,300-digit int-to-str limit.

The plain spellings, in ASCII digits, are read straight into integers:
"4", "0.4", "4." and "0.40%" (digits with an optional "." part and an
optional "%"), and "2/5" (digits over digits). Every other spelling that
`Fraction` reads goes through `Fraction(text)`: signs, exponents ("1e-3"),
underscores, whitespace inside the text ("40 %"), non-ASCII digits and "2/5%".

READERS maps each recognized key, in file-key order, to the function that
reads its value; the CLI reads each flag named after a key with the same
one. The three rates are required; everything else is optional (version
defaults to 1).
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction

from .core import (
    _POPULATION_LIMIT, MAX_POPULATION_DIGITS, RATE_NAMES, Probability, Scenario, _check_population, _reduced,
)

FORMAT_VERSION = 1

#: Digits a rate's reduced numerator and denominator may each have.
MAX_RATE_DIGITS = 1000
_RATE_LIMIT = 10**MAX_RATE_DIGITS
_RATE_TOO_LARGE = f"a rate may have at most {MAX_RATE_DIGITS} digits in numerator and denominator"
#: Digits an integer may have: past Python's default int-from-text limit, int() refuses it.
MAX_INTEGER_DIGITS = 4300
_BITS_PER_FIVE = math.log2(5)
#: A character a label may not hold: outside XML 1.0's Char production, or one of its line breaks.
#: Spelled as the four runs it holds; the complement of Char's ranges takes ten times as long to compile.
_NOT_LABEL_CHAR = re.compile(r"[\x00-\x08\n-\x1f\ud800-\udfff\ufffe\uffff]")
#: The keys whose values are display labels.
LABEL_KEYS = ("hypothesis_label", "evidence_label")


class ScenarioParseError(ValueError):
    """Base class for scenario-document errors; carries a 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
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


class ScenarioDocument(namedtuple("ScenarioDocument", ("scenario", "population", "threshold"), defaults=(None, None))):
    """A parsed scenario file: the Scenario plus optional run parameters, a population (an int) and a
    threshold (a Probability), each None when the file does not set it."""

    __slots__ = ()


def parse_rate(text: str) -> Fraction:
    """Convert '0.4', '40%' or '2/5' to a new, exact Fraction.

    Raises ValueError on anything else (including 'inf'/'nan'), and
    RangeError when the reduced numerator or denominator has more than
    MAX_RATE_DIGITS digits. Texts with more than four times that many digits
    or an exponent past it ('1e-20000') are refused before a number is built:
    int() reads that many, and format_exact never writes more for a rate.
    The range [0, 1] is not checked: read_rate checks it.
    """
    text = text.strip()
    # Only a text longer than the budget can hold more digits than it, so short ones skip the count.
    if len(text) > 4 * MAX_RATE_DIGITS and sum(char.isdigit() for char in text) > 4 * MAX_RATE_DIGITS:
        raise RangeError(_RATE_TOO_LARGE)
    rate = _plain_rate(text)
    if rate is None:
        try:
            scale = abs(int(text.removesuffix("%").lower().partition("e")[2] or 0))
        except ValueError:  # no integer exponent (Fraction rejects the text) or too long a one
            scale = 0
        if scale > 4 * MAX_RATE_DIGITS:
            raise RangeError(_RATE_TOO_LARGE)
        try:
            rate = Fraction(text[:-1].strip()) / 100 if text.endswith("%") else Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in rate {text!r}") from None
    if abs(rate._numerator) >= _RATE_LIMIT or rate._denominator >= _RATE_LIMIT:
        raise RangeError(_RATE_TOO_LARGE)
    return rate


def _plain_rate(text: str) -> Fraction | None:
    """The reduced Fraction of a plain spelling (see the module docstring), else None; ValueError for "n/0"."""
    if not text.isascii():
        return None
    body = text.removesuffix("%")
    numerator, slash, denominator = body.partition("/")
    if slash:
        if len(body) < len(text) or not (numerator.isdigit() and denominator.isdigit()):
            return None
        numerator, denominator = int(numerator), int(denominator)
        if not denominator:
            raise ValueError(f"zero denominator in rate {text!r}")
    else:
        whole, _, places = body.partition(".")
        if not (whole.isdigit() and (places.isdigit() or not places)):
            return None
        numerator, denominator = int(whole + places), 10 ** len(places) * (100 if len(body) < len(text) else 1)
    return _reduced(numerator, denominator, Fraction)


def read_rate(name: str, text: str, line: int | None = None) -> Probability:
    """The rate `text` gives for key or flag `name`, as a Probability.

    Raises RangeError when parse_rate finds it too long or it lies outside
    [0, 1], and ScenarioSyntaxError when it does not parse; each names `name`
    (and `line`, when given). The range message shows each run of whitespace
    in `text` as one space and none at its ends, so it stays on one line.
    The Fraction parse_rate builds is checked here and becomes the Probability.
    """
    try:
        rate = parse_rate(text)
    except RangeError as exc:
        raise RangeError(f"{name}: {exc}", line) from None
    except ValueError:
        raise ScenarioSyntaxError(f"{name} must be a rate such as 0.4, 40% or 2/5, got {text!r}", line) from None
    if not 0 <= rate._numerator <= rate._denominator:
        raise RangeError(f"{name} must be in [0, 1], got {' '.join(text.split())}", line)
    # parse_rate's Fraction is new and Probability adds no slots, so the checked value becomes one without a copy.
    rate.__class__ = Probability
    return rate


def read_integer(name: str, text: str, line: int | None = None, digits: int = MAX_INTEGER_DIGITS) -> int:
    """The integer `text` gives for key or flag `name`, in any spelling int() reads.

    Raises RangeError for more than `digits` digit characters, without echoing
    them, and ScenarioSyntaxError for text int() refuses; each names `name`
    (and `line`, when given).
    """
    # Only a text longer than the cap can hold more digits than it, so short ones skip the count.
    if len(text) > digits and sum(char.isdigit() for char in text) > digits:
        raise RangeError(f"{name} may have at most {digits} digits", line)
    try:
        return int(text)
    except ValueError:
        raise ScenarioSyntaxError(f"{name} must be an integer, got {text!r}", line) from None


def read_population(name: str, text: str, line: int | None = None) -> int:
    """The population `text` gives for key or flag `name`, as read_integer reads it.

    Raises RangeError naming `name` (and `line`, when given) past MAX_POPULATION_DIGITS digit characters or below 1.
    """
    population = read_integer(name, text, line, MAX_POPULATION_DIGITS)
    if population < 1:
        raise RangeError(f"{name} must be >= 1, got {population}", line)
    return population


def check_label(name: str, text: str, line: int | None = None) -> str:
    """`text`, given for label key or flag `name`, if every character is one an SVG can carry.

    That is XML 1.0's Char production without its line breaks, which would
    split the label's line in a scenario file: tab, U+0020-U+D7FF,
    U+E000-U+FFFD and U+10000 up. Lone surrogates, such as argv bytes that
    are not UTF-8, and U+FFFE/U+FFFF are refused with the C0 controls.
    Raises ScenarioSyntaxError naming `name` and the first such character
    (and `line`, when given) otherwise.
    """
    refused = _NOT_LABEL_CHAR.search(text)
    if refused is None:
        return text
    char = refused.group()
    if char < " ":
        raise ScenarioSyntaxError(f"{name} may not contain the control character {char!r}", line)
    raise ScenarioSyntaxError(f"{name} may not contain {char!r}, which XML 1.0 cannot carry", line)


#: Each scenario key, in file-key order, and the function that reads its value: reader(key or flag, text, line).
READERS = {
    "version": read_integer,
    **dict.fromkeys(RATE_NAMES, read_rate),
    "population": read_population,
    "threshold": read_rate,
    **dict.fromkeys(LABEL_KEYS, check_label),
}


def parse_scenario(text: str) -> ScenarioDocument:
    """Parse a scenario document, validating every value at its line; a leading BOM is ignored.

    Only "\n" ends a line (a "\r" before it is stripped), so line numbers are an editor's.
    """
    values = {}
    lines = {}
    for number, raw in enumerate(text.removeprefix("\ufeff").split("\n"), 1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if "=" not in line:
            raise ScenarioSyntaxError(f"expected 'key = value', got {raw.rstrip()!r}", number)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in READERS:
            raise ScenarioSyntaxError(f"unknown key {key!r}", number)
        if key in values:
            raise DuplicateKeyError(f"duplicate key {key!r}", number)
        if not value:
            raise ScenarioSyntaxError(f"empty value for key {key!r}", number)
        values[key] = value
        lines[key] = number

    if "version" in values:
        version = read_integer("version", values.pop("version"), lines["version"])
        if version != FORMAT_VERSION:
            raise RangeError(f"unsupported format version {version}; expected {FORMAT_VERSION}", lines["version"])
    for key in RATE_NAMES:
        if key not in values:
            raise MissingKeyError(key)
    read = {key: reader(key, values[key], lines[key]) for key, reader in READERS.items() if key in values}
    # Without the version and the two run parameters, what is left is the Scenario's fields: rates and labels.
    population, threshold = read.pop("population", None), read.pop("threshold", None)
    return ScenarioDocument(Scenario(**read), population, threshold)


def serialize_scenario(document: ScenarioDocument) -> str:
    """Canonical text form; parse_scenario(serialize_scenario(d)) == d.

    Raises ValueError naming the key for a value that would not read back as
    it is: a population or rate (an int or Fraction) that parse_scenario refuses,
    a label check_label refuses, an empty one, or one with whitespace at either end;
    and TypeError, as build_tree does, for a population that is not an int.
    """
    scenario = document.scenario
    for key in LABEL_KEYS:
        label = check_label(key, getattr(scenario, key))
        if not label or label != label.strip():
            raise ValueError(f"{key} must be non-empty, without whitespace at either end, got {label!r}")
    lines = [f"version = {FORMAT_VERSION}"]
    for key in RATE_NAMES:
        lines.append(f"{key} = {_rate_text(key, getattr(scenario, key))}")
    population = document.population
    if population is not None:
        if not isinstance(population, int):
            _check_population(population)  # raises its TypeError
        # Compared as an int first: str() refuses one of more than 4,300 digits without naming the key.
        if abs(population) >= _POPULATION_LIMIT:
            raise RangeError(f"population may have at most {MAX_POPULATION_DIGITS} digits")
        lines.append(f"population = {read_population('population', str(population))}")
    if document.threshold is not None:
        lines.append(f"threshold = {_rate_text('threshold', document.threshold)}")
    lines.append(f"hypothesis_label = {scenario.hypothesis_label}")
    lines.append(f"evidence_label = {scenario.evidence_label}")
    return "\n".join(lines) + "\n"


def _rate_text(key: str, rate: Fraction) -> str:
    """format_exact(rate) if read_rate reads it back for `key`, else ValueError naming `key`, for a float too."""
    if not isinstance(rate, (int, Fraction)):
        raise ValueError(f"{key} must be an int or Fraction, got {rate!r}")
    text = format_exact(rate)
    read_rate(key, text)
    return text


def format_fixed(numerator: int, denominator: int, places: int) -> str:
    """numerator/denominator >= 0 rounded to an integer, ties to even as `round` does, then / 10**places as
    decimal text without trailing zeros after the point: the rounding and the writing in one call."""
    quotient, remainder = divmod(numerator, denominator)
    whole, frac = divmod(quotient + (2 * remainder + (quotient & 1) > denominator), 10**places)
    if not frac:
        return str(whole)
    return f"{whole}." + str(frac).zfill(places).rstrip("0")


def _exact_text(numerator: int, denominator: int) -> str:
    """Lossless text of the reduced numerator/denominator (denominator > 0): a terminating decimal when one
    exists, else 'p/q'."""
    if denominator & 1 and denominator % 5:  # no factor 2 or 5, as at most grid points
        return f"{numerator}/{denominator}" if denominator > 1 else str(numerator)
    twos = (denominator & -denominator).bit_length() - 1
    reduced = denominator >> twos
    # 5^e has floor(e·log2(5)) + 1 bits, so the only power of five `reduced` can be is this one.
    fives = round(reduced.bit_length() / _BITS_PER_FIVE) if reduced % 5 == 0 else 0
    if reduced != 5**fives:
        return f"{numerator}/{denominator}"
    # The division is exact, and the value is reduced and not whole, so its last digit is not 0.
    places = max(twos, fives)
    digits = str(abs(numerator) * 10**places // denominator).zfill(places + 1)
    return f"{'-' if numerator < 0 else ''}{digits[:-places]}.{digits[-places:]}"


def _sig_text(numerator: int, denominator: int) -> str:
    """numerator/denominator (denominator > 0) rounded to 6 significant figures, ties to even, as fixed-point
    text without trailing zeros after the point: in integers alone, so no decimal context can change it."""
    if numerator <= 0:
        return "-" + _sig_text(-numerator, denominator) if numerator else "0"
    # The decimal exponent estimated from the bit lengths (log10 2 ~ 0.30103): exact or one low for values of
    # under 4,000 digits, as in Steele and White's printing of floats. The loop corrects it either way.
    exponent = (numerator.bit_length() - denominator.bit_length() - 1) * 30103 // 100000
    while True:  # one divmod, a second when the estimate was off: six digits, 10^5 <= digits < 10^6
        places = 5 - exponent
        if places >= 0:
            scale, divisor = 10**places, denominator
            digits, remainder = divmod(numerator * scale, divisor)
        else:
            scale, divisor = 1, denominator * 10**-places
            digits, remainder = divmod(numerator, divisor)
        if digits >= 1000000:
            exponent += 1
        elif digits < 100000:
            exponent -= 1
        else:
            break
    digits += 2 * remainder + (digits & 1) > divisor
    if digits < scale:  # below 1, the usual case: format_fixed's text for a whole part of 0, without its divmods
        return "0." + str(digits).zfill(places).rstrip("0")
    return format_fixed(digits, 1, max(places, 0)) + "0" * -places


def format_exact(value: Fraction) -> str:
    """Lossless text form: a terminating decimal when one exists, else 'p/q'."""
    numerator, denominator = value.as_integer_ratio()
    return _exact_text(numerator, denominator)


def format_sig(value: Fraction) -> str:
    """Decimal form rounded to 6 significant figures (ties to even), exactly."""
    numerator, denominator = value.as_integer_ratio()
    return _sig_text(numerator, denominator)
