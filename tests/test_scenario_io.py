"""Scenario documents: grammar, error reporting, serialization, formatting."""

import decimal
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofcalc import (
    DuplicateKeyError,
    MissingKeyError,
    Probability,
    RangeError,
    Scenario,
    ScenarioDocument,
    ScenarioParseError,
    ScenarioSyntaxError,
    compute_posterior,
    format_exact,
    format_sig,
    parse_rate,
    parse_scenario,
    serialize_scenario,
)
from proofcalc.scenario_io import MAX_RATE_DIGITS, format_fixed, read_rate

from cases import LONG

STANDARD = """\
# the standard bus scenario
version = 1
base_rate = 0.4
hit_rate = 80%
false_alarm_rate = 1/10
"""


def test_rates_parse_in_all_three_spellings():
    document = parse_scenario(STANDARD)
    scenario = document.scenario
    assert scenario.base_rate == Fraction(2, 5)
    assert scenario.hit_rate == Fraction(4, 5)
    assert scenario.false_alarm_rate == Fraction(1, 10)
    assert document.population is None and document.threshold is None


def test_comments_blank_lines_and_spacing_are_ignored():
    text = "\n\n  # comment\nbase_rate=0.4\n   hit_rate   =   0.8\n\nfalse_alarm_rate = 0.1\n"
    assert parse_scenario(text).scenario == Scenario(0.4, 0.8, 0.1)


def test_optional_keys_round_into_the_document():
    text = STANDARD + "population = 1000\nthreshold = 0.75\nhypothesis_label = owns a dog\nevidence_label = barks\n"
    document = parse_scenario(text)
    assert document.population == 1000
    assert document.threshold == Fraction(3, 4)
    assert document.scenario.hypothesis_label == "owns a dog"
    assert document.scenario.evidence_label == "barks"


def test_a_leading_byte_order_mark_is_ignored():
    assert parse_scenario("\ufeff" + STANDARD) == parse_scenario(STANDARD)
    keyed_first = "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\n"
    assert parse_scenario("\ufeff" + keyed_first) == parse_scenario(keyed_first)
    with pytest.raises(ScenarioSyntaxError, match="line 2: unknown key 'colour'"):
        parse_scenario("\ufeff# comment\ncolour = blue\n")
    with pytest.raises(ScenarioSyntaxError, match=r"line 1: unknown key '\\ufeffversion'"):
        parse_scenario("\ufeff\ufeffversion = 1\n")  # only one mark is stripped


def test_version_defaults_to_one_and_rejects_others():
    assert parse_scenario("base_rate=0.4\nhit_rate=0.8\nfalse_alarm_rate=0.1\n") == parse_scenario(STANDARD)
    with pytest.raises(RangeError):
        parse_scenario(STANDARD.replace("version = 1", "version = 2"))


def test_missing_rate_is_named():
    with pytest.raises(MissingKeyError) as excinfo:
        parse_scenario("base_rate = 0.4\nfalse_alarm_rate = 0.1\n")
    assert excinfo.value.key == "hit_rate"
    assert "hit_rate" in str(excinfo.value)


def test_out_of_range_rate_reports_its_line():
    text = "base_rate = 1.5\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\n"
    with pytest.raises(RangeError) as excinfo:
        parse_scenario(text)
    assert excinfo.value.line_number == 1
    assert str(excinfo.value).startswith("line 1:")


def test_duplicate_key_reports_the_second_line():
    text = "base_rate = 0.4\nbase_rate = 0.5\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\n"
    with pytest.raises(DuplicateKeyError) as excinfo:
        parse_scenario(text)
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize(
    "text",
    [
        "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\njust words\n",
        "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nmystery_key = 3\n",
        "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nthreshold =\n",
        "base_rate = 0.4\nfalse_alarm_rate = 0.1\npopulation = 50\nhit_rate = eighty\n",
    ],
    ids=["no-equals", "unknown-key", "empty-value", "unparseable-rate"],
)
def test_bad_lines_raise_syntax_errors_with_line_numbers(text):
    with pytest.raises(ScenarioSyntaxError) as excinfo:
        parse_scenario(text)
    assert excinfo.value.line_number == 4


def test_population_must_be_positive():
    with pytest.raises(RangeError) as excinfo:
        parse_scenario(STANDARD + "population = 0\n")
    assert excinfo.value.line_number == 6


def test_population_digit_cap():
    at_cap = 10**1000 - 1
    assert parse_scenario(STANDARD + f"population = {at_cap}\n").population == at_cap
    with pytest.raises(RangeError, match="^line 6: population may have at most 1000 digits$") as excinfo:
        parse_scenario(STANDARD + f"population = {at_cap + 1}\n")
    assert excinfo.value.line_number == 6


@pytest.mark.parametrize("char", ["\x00", "\x01", "\x1b", "\x1f"])
def test_a_label_with_a_control_character_names_its_line(char):
    with pytest.raises(ScenarioSyntaxError, match="^line 6: hypothesis_label may not contain") as excinfo:
        parse_scenario(STANDARD + f"hypothesis_label = a{char}b\n")
    assert excinfo.value.line_number == 6
    tabbed = parse_scenario(STANDARD + "hypothesis_label = a\tb\n")
    assert tabbed.scenario.hypothesis_label == "a\tb"


@pytest.mark.parametrize("char", ["\ufffe", "\uffff", "\ud800", "\udcff"])
def test_a_label_outside_xml_characters_names_its_line(char):
    with pytest.raises(ScenarioSyntaxError) as excinfo:
        parse_scenario(STANDARD + f"evidence_label = a{char}b\n")
    assert str(excinfo.value) == f"line 6: evidence_label may not contain {char!r}, which XML 1.0 cannot carry"


def test_labels_keep_every_xml_character_but_line_breaks():
    label = "\x7f\x80\x85\xa0\u2028\ud7ff\ue000\ufffd\U00010000\U0010ffff"
    assert parse_scenario(STANDARD + f"hypothesis_label = a{label}b\n").scenario.hypothesis_label == f"a{label}b"


def test_only_newlines_end_a_scenario_line():
    # A form feed, NEL or U+2028 stays inside its line, so the error names the line an editor shows.
    text = "base_rate = 0.4\nhit_rate = 0.8\nfalse_alarm_rate = 0.1\nhypothesis_label = a\fb\n"
    assert text.count("\n") == 4 and len(text.splitlines()) == 5
    with pytest.raises(ScenarioSyntaxError) as excinfo:
        parse_scenario(text)
    assert str(excinfo.value) == "line 4: hypothesis_label may not contain the control character '\\x0c'"
    windows = parse_scenario("base_rate = 0.4\r\nhit_rate = 0.8\r\nfalse_alarm_rate = 0.1\r\nevidence_label = a\x85b\r\n")
    assert windows.scenario.evidence_label == "a\x85b"
    with pytest.raises(ScenarioSyntaxError) as excinfo:
        parse_scenario("base_rate = 0.4\nhit_rate = 0.8\u2028\nfalse_alarm_rate = 0.1\njust words\n")
    assert excinfo.value.line_number == 4


@pytest.mark.parametrize("key", ["population", "version"])
def test_integers_past_the_int_text_limit_are_refused_without_echo(key):
    digits = "9" * 4301
    with pytest.raises(RangeError) as excinfo:
        parse_scenario(STANDARD.replace("version = 1\n", "") + f"{key} = {digits}\n")
    assert str(excinfo.value) == f"line 5: {key} may have at most {1000 if key == 'population' else 4300} digits"
    with pytest.raises(RangeError, match="^line 6: population may have at most 1000 digits$"):
        parse_scenario(STANDARD + f"population = {digits[:4300]}\n")


def test_every_parse_error_is_a_value_error():
    for exc in (ScenarioSyntaxError, DuplicateKeyError, RangeError, MissingKeyError):
        assert issubclass(exc, ScenarioParseError) and issubclass(exc, ValueError)


def test_round_trip_of_a_full_document():
    document = ScenarioDocument(
        scenario=Scenario("0.4", "0.95", "1/3", hypothesis_label="runs at night", evidence_label="has chains"),
        population=400,
        threshold=Probability("0.75"),
    )
    assert parse_scenario(serialize_scenario(document)) == document


def test_round_trip_of_random_documents():
    rng = random.Random(1306)
    for _ in range(200):
        scenario = Scenario(
            Fraction(rng.randint(0, 30), 30),
            Fraction(rng.randint(0, 24), 24),
            Fraction(rng.randint(0, 17), 17),
        )
        document = ScenarioDocument(
            scenario=scenario,
            population=rng.choice([None, rng.randint(1, 10_000)]),
            threshold=rng.choice([None, Probability(Fraction(rng.randint(0, 20), 20))]),
        )
        assert parse_scenario(serialize_scenario(document)) == document


def test_values_may_contain_equals_signs():
    text = STANDARD + "hypothesis_label = speed = distance / time\n"
    document = parse_scenario(text)
    assert document.scenario.hypothesis_label == "speed = distance / time"
    assert parse_scenario(serialize_scenario(document)) == document


@pytest.mark.parametrize("key", ["hypothesis_label", "evidence_label"])
@pytest.mark.parametrize("label", ["a\nthreshold = 0.9", "", "  padded  "])
def test_serialize_refuses_a_label_that_would_not_read_back(key, label):
    document = ScenarioDocument(Scenario("0.4", "0.8", "0.1", **{key: label}))
    with pytest.raises(ValueError, match=key):
        serialize_scenario(document)


@pytest.mark.parametrize(
    "key, error, document",
    [
        ("population", RangeError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), population=0)),
        ("population", RangeError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), population=10**1000)),
        # Past the int-to-str limit: refused by its size, not by str().
        ("population", RangeError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), population=10**5000)),
        ("population", RangeError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), population=-(10**5000))),
        # Not an int: refused with the TypeError build_tree raises, except for a bool, which str() spells as a word.
        ("population", TypeError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), population=2.5)),
        ("population", ScenarioSyntaxError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), population=True)),
        ("threshold", RangeError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), threshold=Fraction(3, 2))),
        ("threshold", ValueError, ScenarioDocument(Scenario("0.4", "0.8", "0.1"), threshold=0.5)),
        ("base_rate", RangeError, ScenarioDocument(Scenario(Fraction(1, 10**1000), "0.8", "0.1"))),
    ],
    ids=["population-0", "population-1001-digits", "population-5001-digits", "population-minus-5001-digits",
         "population-2.5", "population-True", "threshold-3/2", "threshold-float", "rate-1001-digits"],
)
def test_serialize_refuses_a_population_or_rate_that_would_not_read_back(key, error, document):
    with pytest.raises((TypeError, ValueError), match=key) as refused:
        serialize_scenario(document)
    assert refused.type is error


def test_parse_rate_grammar():
    assert parse_rate("0.4") == Fraction(2, 5)
    assert parse_rate("40%") == Fraction(2, 5)
    assert parse_rate(" 40 % ") == Fraction(2, 5)
    assert parse_rate("2/5") == Fraction(2, 5)
    assert parse_rate("95%") == Fraction(19, 20)
    for bad in ("", "eighty", "nan", "inf", "1/0", "%"):
        with pytest.raises(ValueError):
            parse_rate(bad)


def test_parse_rate_builds_a_plain_fraction_and_read_rate_the_checked_probability():
    for text in ("0.4", "3/2", "1e-3", "150%"):
        assert type(parse_rate(text)) is Fraction
    # No caller can have parse_rate build a Probability that skipped the range check.
    with pytest.raises(TypeError):
        parse_rate("3/2", cls=Probability)
    for text in ("0.4", "2/5", "40%", "4e-1"):
        rate = read_rate("rate", text)
        assert type(rate) is Probability and rate == Fraction(2, 5)


def test_probability_keeps_fractions_layout_that_read_rate_relies_on():
    # read_rate sets the class of parse_rate's new Fraction to Probability, which holds only while the two
    # layouts are the same: a field or a __dict__ on Probability would make every rate a TypeError.
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    assert Probability.__slots__ == ()
    assert "__dict__" not in dir(Probability(1, 2))
    for text in ("0.4", "2/5", "40%", "4e-1"):
        rate = read_rate("rate", text)
        assert type(rate) is Probability
        assert not hasattr(rate, "__dict__")
        assert (rate._numerator, rate._denominator) == (2, 5)


TOO_LARGE = f"a rate may have at most {MAX_RATE_DIGITS} digits in numerator and denominator"


def fraction_parse_rate(text):
    """parse_rate with every spelling read by Fraction(text): the reference its integer reader must match."""
    text = text.strip()
    try:
        scale = abs(int(text.removesuffix("%").lower().partition("e")[2] or 0))
    except ValueError:
        scale = 0
    if max(scale, sum(char.isdigit() for char in text)) > 4 * MAX_RATE_DIGITS:
        raise RangeError(TOO_LARGE)
    try:
        rate = Fraction(text[:-1].strip()) / 100 if text.endswith("%") else Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rate {text!r}") from None
    if abs(rate.numerator) >= 10**MAX_RATE_DIGITS or rate.denominator >= 10**MAX_RATE_DIGITS:
        raise RangeError(TOO_LARGE)
    return rate


def _read(parse, text):
    """What `parse` makes of `text`: the rate's type and terms, or the error's class and message."""
    try:
        rate = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return type(rate), rate.numerator, rate.denominator


def reference_read_rate(text):
    """read_rate in two steps, fraction_parse_rate and then Probability's range check: the reference for its one build."""
    try:
        rate = fraction_parse_rate(text)
    except RangeError as exc:
        raise RangeError(f"rate: {exc}") from None
    except ValueError:
        raise ScenarioSyntaxError(f"rate must be a rate such as 0.4, 40% or 2/5, got {text!r}") from None
    try:
        return Probability(rate)
    except ValueError:
        raise RangeError(f"rate must be in [0, 1], got {' '.join(text.split())}") from None


DIGITS = "0123456789"
#: Digit runs: short ones, and ones around the 4,000-digit guard with leading zeros or nines.
_DIGIT_RUNS = st.one_of(
    st.text(DIGITS, max_size=6),
    st.builds(lambda fill, count, tail: fill * count + tail,
              st.sampled_from("09"), st.integers(1995, 2005) | st.integers(3990, 4001), st.text(DIGITS, max_size=3)),
)
_PLAIN_RATES = st.one_of(
    st.builds(lambda whole, places, percent: whole + places + percent, _DIGIT_RUNS,
              st.just("") | st.just(".") | _DIGIT_RUNS.map(".".__add__), st.sampled_from(["", "%"])),
    st.builds(lambda numerator, denominator: f"{numerator}/{denominator}", _DIGIT_RUNS, _DIGIT_RUNS),
)
_OTHER_RATES = st.lists(
    st.sampled_from(["0", "4", "9", ".", "/", "%", "e", "E", "-", "+", "_", " ", "\u0664", "\u00b2", "1e-999", "2/5%"]),
    max_size=8,
).map("".join)


@settings(deadline=None)
@given(st.sampled_from(["", " ", "\t", "\u3000"]), st.one_of(_PLAIN_RATES, _OTHER_RATES), st.sampled_from(["", " "]))
@example("", "4.", "")
@example("", "007/010", "")
@example("", "1/0", "")
@example("", "0/0", "")
@example("", "12.5%", "")
@example("", "2/5%", "")
@example("", "40 %", "")
@example("", "1e-999", "")
@example("", "+0.4", "")
@example("", "1_0/2_0", "")
@example("", "\u0664", "")
@example("", "\u00b2", "")
@example("", ".5", "")
@example("", "0" * 3999 + "1", "")
@example("", "0" * 4000 + "1", "")
@example("", "1." + "0" * 3999, "")
@example("", "9" * 1001 + "/" + "9" * 1001, "")
@example("", "3/2", "")
@example("", "150%", "")
@example("", "-0.4", "")
@example("", "2" * 1001, "")  # read_rate checks the digit cap before [0, 1]
def test_parse_rate_reads_every_text_as_fraction_does(before, text, after):
    text = before + text + after
    assert _read(parse_rate, text) == _read(fraction_parse_rate, text)
    assert _read(lambda text: read_rate("rate", text), text) == _read(reference_read_rate, text)


def test_rate_size_cap():
    assert parse_rate("1e-999").denominator == 10**999  # 1000 digits: at the cap
    assert parse_rate("1e-997%").denominator == 10**999
    assert parse_rate(f"{2**3321 - 1}/{2**3321}").denominator == 2**3321
    for over in ("1e-1000", "1e-998%", "1" * 1001, f"1/{10**1000}", "1e-20000", "1e-3000000", "0e99999"):
        with pytest.raises(RangeError, match="at most 1000 digits"):
            parse_rate(over)

    # The longest decimal format_exact writes for a rate within the cap.
    at_cap = Fraction(1, 2**3321)
    assert len(format_exact(at_cap)) == 3323
    assert parse_rate(format_exact(at_cap)) == at_cap
    document = ScenarioDocument(Scenario(at_cap, 1 - at_cap, Fraction(1, 3**2095)), threshold=Probability(at_cap))
    assert parse_scenario(serialize_scenario(document)) == document


def test_a_numerator_of_ten_to_the_cap_is_refused():
    # 10^1000 - 1 has 1000 digits, the most a numerator may have; 10^1000 has one more.
    assert parse_rate("9" * MAX_RATE_DIGITS).numerator == 10**MAX_RATE_DIGITS - 1
    with pytest.raises(RangeError, match="at most 1000 digits"):
        parse_rate("1" + "0" * MAX_RATE_DIGITS)


def test_an_exponent_of_four_times_the_cap_is_the_longest_read():
    assert parse_rate(f"0e-{4 * MAX_RATE_DIGITS}") == 0
    with pytest.raises(RangeError, match="at most 1000 digits"):
        parse_rate(f"0e-{4 * MAX_RATE_DIGITS + 1}")


@pytest.mark.parametrize("text", ["+1/0", "1/0%"])
def test_a_zero_denominator_read_by_fraction_is_a_value_error(text):
    # A sign or a percent sends a slash spelling through Fraction, whose ZeroDivisionError is no ValueError.
    with pytest.raises(ValueError) as excinfo:
        parse_rate(text)
    assert str(excinfo.value) == f"zero denominator in rate {text!r}"


def test_format_exact_prefers_terminating_decimals():
    assert format_exact(Fraction(2, 5)) == "0.4"
    assert format_exact(Fraction(19, 20)) == "0.95"
    assert format_exact(Fraction(33, 100)) == "0.33"
    assert format_exact(Fraction(1, 8)) == "0.125"
    assert format_exact(Fraction(0)) == "0"
    assert format_exact(Fraction(1)) == "1"
    assert format_exact(Fraction(1, 3)) == "1/3"
    assert format_exact(Fraction(99, 166)) == "99/166"
    # Denominators with no factor 2 or 5 are written at once.
    assert format_exact(Fraction(7, 9)) == "7/9"
    assert format_exact(Fraction(5, 1)) == format_exact(5) == "5"
    assert format_exact(Fraction(-5, 1)) == "-5"
    odd = 10**999 + 1  # 1,000 digits, odd, and no multiple of 5
    assert format_exact(Fraction(1, odd)) == f"1/{odd}"
    assert format_exact(Fraction(odd - 2, odd)) == f"{odd - 2}/{odd}"


@settings(deadline=None)
@given(
    st.integers(0, 3400),
    st.integers(0, 3400),
    st.one_of(st.just(1), st.integers(3, 10**12).filter(lambda m: m % 2 and m % 5)),
    st.integers(-(10**12), 10**12),
)
@example(3337, 0, 1, 1)
@example(3321, 999, 1, 1)
@example(3400, 3400, 1, -(10**12))
@example(12, 12, 1, -7)  # -7/10^12: a negative value, twelve places deep
@example(0, 0, 1, -5)  # whole numbers: -5, and 48/16 and -375/125 once reduced
@example(4, 0, 1, 48)
@example(0, 3, 1, -375)
def test_format_exact_of_power_of_ten_factors_and_the_rest(twos, fives, rest, numerator):
    value = Fraction(numerator, 2**twos * 5**fives * rest)
    text = format_exact(value)
    assert Fraction(text) == value
    assert ("/" in text) == (rest // math.gcd(numerator, rest) > 1)  # the part of rest left after reducing


def test_format_exact_writes_the_sign_of_a_negative_decimal():
    assert format_exact(Fraction(-1, 2)) == "-0.5"
    assert format_exact(Fraction(-3, 8)) == "-0.375"
    assert format_exact(Fraction(-6, 5)) == "-1.2"
    assert format_exact(Fraction(-7, 10**12)) == "-0.000000000007"


def test_format_exact_is_lossless_under_parse_rate():
    rng = random.Random(77)
    for _ in range(500):
        denominator = rng.randint(1, 10_000)
        value = Fraction(rng.randint(0, denominator), denominator)
        assert parse_rate(format_exact(value)) == value


def test_format_sig_rounds_to_significant_digits():
    assert format_sig(Fraction(16, 19)) == "0.842105"
    assert format_sig(Fraction(8, 17)) == "0.470588"
    assert format_sig(Fraction(32, 33)) == "0.969697"
    assert format_sig(Fraction(1, 2)) == "0.5"
    assert format_sig(Fraction(2, 3)) == "0.666667"
    assert format_sig(Fraction(0)) == "0"
    assert format_sig(Fraction(1)) == "1"
    assert format_sig(Fraction(1, 1_000_000)) == "0.000001"


def test_format_sig_ties_to_even_whatever_the_callers_decimal_context():
    ties = {Fraction(1234565, 10**7): "0.123456", Fraction(1234575, 10**7): "0.123458", Fraction(9999995, 10**7): "1"}
    with decimal.localcontext() as ctx:
        ctx.prec, ctx.rounding = 2, decimal.ROUND_DOWN
        assert {value: format_sig(value) for value in ties} == ties
        assert format_sig(Fraction(16, 19)) == "0.842105"
        assert format_sig(Fraction(1, 10**2000)) == "0." + "0" * 1999 + "1"
    assert {value: format_sig(value) for value in ties} == ties


def sig6_reference(value):
    """`value` (nonzero) rounded to 6 significant figures, ties to even, as decimal text, in integers alone."""
    sign, numerator, denominator = "-" if value < 0 else "", abs(value.numerator), value.denominator
    exponent = len(str(numerator)) - len(str(denominator))  # 10^exponent <= |value| < 10^(exponent + 1)
    while numerator * 10 ** max(-exponent, 0) < denominator * 10 ** max(exponent, 0):
        exponent -= 1
    while numerator * 10 ** max(-exponent - 1, 0) >= denominator * 10 ** max(exponent + 1, 0):
        exponent += 1
    shift = exponent - 5  # the place of the sixth significant digit
    scaled_numerator, scaled_denominator = numerator * 10 ** max(-shift, 0), denominator * 10 ** max(shift, 0)
    digits, remainder = divmod(scaled_numerator, scaled_denominator)
    if 2 * remainder > scaled_denominator or (2 * remainder == scaled_denominator and digits % 2):
        digits += 1
    while digits % 10 == 0:
        digits, shift = digits // 10, shift + 1
    text = str(digits)
    if shift >= 0:
        return sign + text + "0" * shift
    if len(text) > -shift:
        return f"{sign}{text[:shift]}.{text[shift:]}"
    return f"{sign}0.{'0' * (-shift - len(text))}{text}"


#: Magnitudes from 10^-12 to 10^8: a mantissa in [1, 10] times a power of ten.
_SIG_VALUES = st.builds(
    lambda mantissa, power, negative: (-1 if negative else 1) * mantissa * Fraction(10) ** power,
    st.fractions(1, 10, max_denominator=10**9), st.integers(-12, 7), st.booleans(),
)
#: Exact ties: a six-digit figure and a half, at any of those places.
_SIG_TIES = st.builds(
    lambda digits, power, negative: (-1 if negative else 1) * Fraction(2 * digits + 1, 2) * Fraction(10) ** power,
    st.integers(10**5, 10**6 - 1), st.integers(-17, 2), st.booleans(),
)


@given(st.one_of(_SIG_VALUES, _SIG_TIES))
@example(Fraction(1, 10**6))  # str() of the Decimal still writes 0.000001
@example(Fraction(1, 10**7))  # and 1E-7 here
@example(Fraction(9999995, 10**13))  # 9.999995e-7 ties to even upward, onto 10^-6
@example(Fraction(9999985, 10**13))  # and 9.999985e-7 down, staying below it
@example(Fraction(-1234565, 10**13))
@example(Fraction(10))  # 1E+1
@example(Fraction(120000))
@example(Fraction(10**8))
@example(Fraction(-99999950))
@example(Fraction(1, 10**12))
@example(compute_posterior(Scenario(*LONG)).posterior)  # 2,998 digits over 2,998: a sweep posterior at the caps
@example(LONG[0])  # a rate at the 1,000-digit cap, where the exponent estimate is one low
@example(Fraction(10**12 - 1, 10**12))  # just below 10^0, rounded up onto it
@example(Fraction(10**12 + 1, 10**11))  # just above 10^1, where the estimate is one low
@example(Fraction(2**13321, 2**20 - 1))  # just below 10^4004, where 30103/100000 > log10(2) makes it one high
@example(Fraction(9999995, 10**7))  # 0.9999995 ties to even upward: the carry at 10^6
@example(Fraction(-16, 19))
@example(-120)  # an int
def test_format_sig_matches_an_integer_reference(value):
    assert format_sig(value) == sig6_reference(value)


@given(st.one_of(st.integers(-(10**6), 10**6), st.integers(-(10**60), 10**60)), st.integers(0, 4))
@example(0, 0)
@example(0, 4)
@example(-5, 1)
@example(10**40, 3)
@example(-120, 2)
def test_format_fixed_writes_the_scaled_value_without_trailing_zeros(scaled, places):
    text = format_fixed(abs(scaled), 1, places)
    assert Fraction(text) == Fraction(abs(scaled), 10**places)
    if "." in text:
        assert not text.endswith(("0", "."))


def fixed_reference(numerator, denominator, places):
    """round(numerator/denominator), ties to even, over 10**places: its digits, a point before the last `places`."""
    digits = str(round(Fraction(numerator, denominator))).zfill(places + 1)
    whole, frac = digits[:len(digits) - places], digits[len(digits) - places:].rstrip("0")
    return f"{whole}.{frac}" if frac else whole


@given(
    st.one_of(st.integers(0, 10**6), st.integers(0, 10**60)),
    st.one_of(st.integers(1, 1000), st.integers(1, 10**40)),
    st.integers(0, 4),
)
@example(5, 2, 1)  # 2.5 ties to the even 2: 0.2
@example(7, 2, 2)  # 3.5 ties to the even 4: 0.04
@example(10**40 + 3, 2, 3)  # a tie on an odd quotient past a float's precision, up to the even one
@example(12300, 1, 2)  # d = 1: no rounding, trailing zeros dropped
@example(5, 2, 0)
@example(25, 2, 1)
@example(1, 3, 2)  # rounds down to 0
def test_format_fixed_rounds_ties_to_even_as_a_fraction_reference(numerator, denominator, places):
    assert format_fixed(numerator, denominator, places) == fixed_reference(numerator, denominator, places)
