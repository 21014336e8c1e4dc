"""Seeded input generators for the three workloads.

Everything is drawn from one `random.Random(seed)`, so a seed names the
inputs exactly. The generator keeps each rate's exact value next to the
text it writes, which is what the checks compare against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import checks

PARAMETERS = ("base_rate", "hit_rate", "false_alarm_rate")
POPULATION_CAP = 10**6
HALF = Fraction(1, 2)

#: The seven standard bus cases of tests/cases.py (base, hit, false alarm).
FIXTURES = (
    ("b40-h80-f10", "0.4", "0.8", "0.1"),
    ("b10-h80-f10", "0.1", "0.8", "0.1"),
    ("b80-h80-f10", "0.8", "0.8", "0.1"),
    ("b40-h95-f10", "0.4", "0.95", "0.1"),
    ("b40-h95-f80", "0.4", "0.95", "0.8"),
    ("b40-h30-f60", "0.4", "0.3", "0.6"),
    ("b40-h80-f80", "0.4", "0.8", "0.8"),
)

_THRESHOLDS = (("0.9", Fraction(9, 10)), ("95%", Fraction(19, 20)), ("2/3", Fraction(2, 3)), ("0.25", Fraction(1, 4)))
_ZERO_TEXTS = ("0", "0%", "0/7")
_ONE_TEXTS = ("1", "100%", "9/9")


@dataclass(frozen=True)
class Rate:
    value: Fraction
    text: str


@dataclass(frozen=True)
class Rates:
    base: Rate
    hit: Rate
    alarm: Rate

    @property
    def values(self) -> Tuple[Fraction, Fraction, Fraction]:
        return self.base.value, self.hit.value, self.alarm.value


def _decimal(rng: random.Random, places: int) -> Rate:
    den = 10**places
    num = rng.randrange(1, den)
    return Rate(Fraction(num, den), f"0.{num:0{places}d}")


def _percent(rng: random.Random, places: int) -> Rate:
    extra = max(0, places - 2)
    num = rng.randrange(1, 100 * 10**extra)
    whole, part = divmod(num, 10**extra)
    text = f"{whole}.{part:0{extra}d}%" if extra else f"{whole}%"
    return Rate(Fraction(num, 100 * 10**extra), text)


def _fraction(rng: random.Random, max_exponent: float) -> Rate:
    den = int(10 ** rng.uniform(1, max_exponent))
    num = rng.randrange(1, den)
    return Rate(Fraction(num, den), f"{num}/{den}")


def random_rate(rng: random.Random, max_places: int) -> Rate:
    """A rate strictly inside (0, 1), written as a decimal, a percentage or a fraction."""
    places = rng.randint(1, max_places)
    form = rng.randrange(3)
    if form == 0:
        return _decimal(rng, places)
    if form == 1:
        return _percent(rng, max(2, places))
    return _fraction(rng, places)


def _special(rng: random.Random, one: bool) -> Rate:
    return Rate(Fraction(int(one)), rng.choice(_ONE_TEXTS if one else _ZERO_TEXTS))


def _random_grid(rng: random.Random, steps: int) -> List[Fraction]:
    """0, 1 and steps - 2 random interior points with denominators up to 10^12."""
    interior = set()
    while len(interior) < steps - 2:
        den = int(10 ** rng.uniform(1, 12))
        interior.add(Fraction(rng.randrange(1, den), den))
    return [Fraction(0)] + sorted(interior) + [Fraction(1)]


# --- exact-batch ---------------------------------------------------------------


@dataclass(frozen=True)
class ExactCase:
    ident: str
    document: str
    rates: Rates
    population: int
    threshold: Fraction
    sweeps: Tuple[Tuple[str, Tuple[Fraction, ...]], ...]


def _exact_rates(rng: random.Random, kind: int) -> Rates:
    if kind < 3:  # small decimal denominators, so trees can come out integral
        return Rates(*(random_rate(rng, 2) for _ in range(3)))
    base, hit, alarm = (random_rate(rng, 12) for _ in range(3))
    if kind == 8:  # a zero or one hit rate: sweeps of the false-alarm or base rate hit p(E) = 0
        hit = _special(rng, rng.random() < 0.5)
    elif kind == 9:  # perfect specificity, or the mirror image
        alarm = _special(rng, rng.random() < 0.5)
    return Rates(base, hit, alarm)


def _exact_population(rng: random.Random, rates: Rates, kind: int) -> int:
    if kind < 3:
        needed = checks.min_integral_population(*rates.values, cap=POPULATION_CAP)
        if needed is not None:
            limit = 1000 if needed <= 1000 and rng.random() < 0.6 else POPULATION_CAP
            return needed * rng.randint(1, max(1, limit // needed))
    return int(10 ** rng.uniform(2, 6))


def _document(rng: random.Random, title: str, pairs: List[Tuple[str, str]]) -> str:
    rng.shuffle(pairs)
    lines = [f"# {title}"]
    if rng.random() < 0.5:
        lines.append("version = 1")
    for key, value in pairs:
        if rng.random() < 0.2:
            lines.append("")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def exact_cases(seed: int, count: int) -> List[ExactCase]:
    rng = random.Random(f"exact-batch:{seed}")
    cases = []
    for i in range(count):
        kind = i % 10
        rates = _exact_rates(rng, kind)
        population = _exact_population(rng, rates, kind)
        pairs = [
            ("base_rate", rates.base.text),
            ("hit_rate", rates.hit.text),
            ("false_alarm_rate", rates.alarm.text),
            ("population", str(population)),
        ]
        threshold = HALF
        if rng.random() < 0.4:
            text, threshold = rng.choice(_THRESHOLDS)
            pairs.append(("threshold", text))
        if rng.random() < 0.3:
            pairs += [("hypothesis_label", "took the test drug"), ("evidence_label", "recovered")]
        sweeps = []
        for p, parameter in enumerate(PARAMETERS):
            steps = rng.randint(5, 21)
            if (i + p) % 3:  # a third of all grids, whatever the seed, have large denominators
                grid = [Fraction(k, steps - 1) for k in range(steps)]
            else:
                grid = _random_grid(rng, steps)
            sweeps.append((parameter, tuple(grid)))
        cases.append(
            ExactCase(f"s{i}", _document(rng, f"scenario s{i}", pairs), rates, population, threshold, tuple(sweeps))
        )
    return cases


# --- oracle-check ----------------------------------------------------------------


@dataclass(frozen=True)
class OracleCase:
    ident: str
    rates: Tuple[Fraction, Fraction, Fraction]
    posterior: Fraction


def _marginal(base: Fraction, hit: Fraction, alarm: Fraction) -> Fraction:
    return base * hit + (1 - base) * alarm


def oracle_cases(seed: int) -> List[OracleCase]:
    """The seven fixtures, a scenario with non-binary rates, a rare-evidence one and three decimal ones.

    Generated posteriors stay in [0.1, 0.9], so a 10^6-sample estimate has
    a standard error far from zero.
    """
    rng = random.Random(f"oracle-check:{seed}")
    rates = [(label, tuple(Fraction(text) for text in texts)) for label, *texts in FIXTURES]

    def draw(label, make, accept):
        while True:
            candidate = make()
            posterior = checks.exact_posterior(*candidate)
            if posterior is not None and Fraction(1, 10) <= posterior <= Fraction(9, 10) and accept(*candidate):
                rates.append((label, candidate))
                return

    def thirds():
        return tuple(Fraction(rng.randrange(1, d), d) for d in (rng.choice((3, 7, 9, 11, 13)) for _ in range(3)))

    def rare():
        return (Fraction(rng.randint(50, 200), 10**4), Fraction(rng.randint(20, 40), 100), Fraction(rng.randint(20, 60), 10**4))

    draw("thirds", thirds, lambda b, h, a: True)
    draw("rare", rare, lambda b, h, a: Fraction(4, 1000) <= _marginal(b, h, a) <= Fraction(9, 1000))
    for k in range(3):
        draw(f"d{k}", lambda: tuple(random_rate(rng, 4).value for _ in range(3)), lambda b, h, a: _marginal(b, h, a) >= Fraction(1, 20))
    return [OracleCase(label, r, checks.exact_posterior(*r)) for label, r in rates]


# --- cli-oneshot -------------------------------------------------------------------


@dataclass
class CliRequest:
    ident: str
    kind: str
    argv: List[str]
    expect: int
    rates: Optional[Rates] = None
    params: Dict[str, object] = field(default_factory=dict)


VALID_KINDS = ("posterior", "verdict", "tree", "svg-tree", "svg-bars", "sweep", "simulate")
CLI_REQUESTS = 40
CLI_EXIT2 = 4
CLI_EXIT3 = 2


def _rate_flags(rates: Rates) -> List[str]:
    return ["--base-rate", rates.base.text, "--hit-rate", rates.hit.text, "--false-alarm-rate", rates.alarm.text]


def _evenly(start: Fraction, stop: Fraction, steps: int) -> List[Fraction]:
    if steps == 1:
        return [start]
    return [start + k * (stop - start) / (steps - 1) for k in range(steps)]


def cli_requests(seed: int) -> Tuple[List[CliRequest], Dict[str, str]]:
    """A shuffled mix: CLI_REQUESTS - 6 valid requests over VALID_KINDS, 4 exiting 2, 2 exiting 3.

    Returns the requests and the scenario files (name -> text) that some
    of them read. Output paths are relative to the directory the requests
    run in, so argv and outputs do not depend on where that is.
    """
    rng = random.Random(f"cli-oneshot:{seed}")
    files: Dict[str, str] = {}
    requests = []

    def source(i: int, rates: Rates) -> List[str]:
        """Inline flags, or (a third of the time) a scenario file carrying the rates."""
        if rng.random() < 1 / 3:
            name = f"scn{i}.scenario"
            pairs = [("base_rate", rates.base.text), ("hit_rate", rates.hit.text), ("false_alarm_rate", rates.alarm.text)]
            files[name] = _document(rng, f"request {i}", pairs)
            return ["--scenario", name]
        return _rate_flags(rates)

    valid = CLI_REQUESTS - CLI_EXIT2 - CLI_EXIT3
    for i in range(valid):
        kind = VALID_KINDS[i % len(VALID_KINDS)]
        rates = Rates(*(random_rate(rng, 4) for _ in range(3)))
        params: Dict[str, object] = {}
        tail: List[str] = []
        if kind == "verdict":
            params["threshold"] = HALF
            if rng.random() < 0.5:
                text, params["threshold"] = rng.choice(_THRESHOLDS)
                tail = ["--threshold", text]
        elif kind in ("tree", "svg-tree"):
            population = rng.choice((100, 100, 1000, rng.randint(1, 10**5)))
            params["population"] = population
            if population != 100:
                tail = ["--population", str(population)]
            params["rounding"] = "largest-remainder"
            if rng.random() < 0.3:
                params["rounding"] = "exact-rational"
                tail += ["--rounding", "exact-rational"]
        elif kind == "sweep":
            if rng.random() < 0.3:
                rates = Rates(rates.base, rates.hit, _special(rng, False))
                start, stop = Rate(Fraction(0), "0"), Rate(Fraction(1), "100%")
            else:
                start, stop = sorted((random_rate(rng, 3) for _ in range(2)), key=lambda r: r.value)
            steps = rng.randint(2, 11)
            if start.value == stop.value:
                steps = 1
            params.update(param=rng.choice(PARAMETERS), grid=_evenly(start.value, stop.value, steps))
            tail = ["--param", params["param"], "--from", start.text, "--to", stop.text, "--steps", str(steps)]
        elif kind == "simulate":
            params.update(samples=rng.randint(1000, 10**4), seed=rng.randrange(2**32))
            tail = ["--samples", str(params["samples"]), "--seed", str(params["seed"])]
        if kind in ("svg-tree", "svg-bars", "sweep"):
            params["out"] = f"out{i}.{'csv' if kind == 'sweep' else 'svg'}"
            tail += ["--out", params["out"]]
        command = ["render", "--format", kind] if kind.startswith("svg") else [kind]
        requests.append(CliRequest(f"r{i}", kind, command + source(i, rates) + tail, 0, rates, params))

    for j in range(CLI_EXIT2):
        i = valid + j
        rates = Rates(*(random_rate(rng, 3) for _ in range(3)))
        command = [rng.choice(("posterior", "verdict", "tree"))]
        flags = _rate_flags(rates)
        spot = rng.choice((1, 3, 5))
        if j % 4 == 0:
            flags[spot] = rng.choice(("1.25", "120%", "7/5"))
        elif j % 4 == 1:
            flags[spot] = rng.choice(("abc", "0.4.1", "1/0"))
        elif j % 4 == 2:
            del flags[4:6]
        else:
            name = f"scn{i}.scenario"
            files[name] = f"base_rate = {rates.base.text}\nhit_rate = 140%\nfalse_alarm_rate = {rates.alarm.text}\n"
            flags = ["--scenario", name]
        requests.append(CliRequest(f"r{i}", command[0], command + flags, 2))

    for j in range(CLI_EXIT3):
        i = valid + CLI_EXIT2 + j
        if j % 2 == 0:
            rates = Rates(random_rate(rng, 3), _special(rng, False), _special(rng, False))
        else:
            rates = Rates(_special(rng, True), _special(rng, False), random_rate(rng, 3))
        kind = rng.choice(("posterior", "verdict", "simulate"))
        requests.append(CliRequest(f"r{i}", kind, [kind] + _rate_flags(rates), 3, rates))

    rng.shuffle(requests)
    return requests, files
