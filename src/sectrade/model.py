"""Market instances, their canonical ranking, and instance-family generators.

A market has n buyers (agent ids 1..n) and one seller (agent id n+1).
Each agent carries a price: an int, a float, a ``fractions.Fraction``
(exact pipelines keep Fractions end to end), or a numpy integer or
floating value, which the instance keeps as the Python number it holds.
Any other type, bools included, raises ``InvalidInstanceError``, as do
negative and non-finite prices and a long double, which no Python float
holds.

An instance keeps its other prices as given.  When numpy holds every buyer
price exactly, it also keeps them as one array, ``buyer_array``: int64
when all are Python ints within int64, float64 when all are floats, or
float64 for ints and floats mixed whose largest magnitude is below 2**53
(every int up to there is a float64).  The array is validated in one
vectorized pass and drives the ranking and the Monte Carlo market; as
each of its comparisons is Python's own, they come out as from the
prices themselves.  Any other vector (Fractions, larger ints) is
checked, ranked and converted price by price.

Ties are resolved by one universal rule used everywhere in the package:
agents are ordered by (price descending, agent index ascending).  The
seller carries the largest index, so it loses every price tie to a buyer.
``canonicalize`` realises the rule with a stable sort of the buyers by
price alone; ``tiebreak_key`` is the key the policies compare, a tuple
whose natural ordering is the same rule, with larger keys ranking higher.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, repeat
from numbers import Real
from operator import mul

import numpy as np

from .errors import InvalidInstanceError, SizeCapError

Price = int | float | Fraction
# concrete types: an isinstance against numbers.Real costs ~1 us per price
_PRICE_TYPES = (int, float, Fraction, np.integer, np.floating)


def check_size(owner: str, name: str, value, least: int = 1,
               cap: int | None = None) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer of at
    least ``least`` (numpy integers count, bools and floats do not), and
    ``SizeCapError`` when it exceeds ``cap``.  Callers check before they
    allocate anything of size ``value``."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least):
        raise ValueError(f"{owner} needs an integer {name} >= {least}, "
                         f"got {value!r}")
    if cap is not None and value > cap:
        raise SizeCapError(f"{owner} capped at {name}={cap}, got {value}")
    return int(value)


def check_real(owner: str, name: str, value) -> float:
    """``value`` as a Python float; ``ValueError`` unless a real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{owner} needs a real {name}, got {value!r}")
    return float(value)


def tiebreak_key(price: Price, agent_index: int) -> tuple:
    """Comparison key for the universal tie-break: higher key = higher rank."""
    return (price, -agent_index)


def _plain(p):
    """A numpy integer or floating price as the Python number it holds (a
    long double, which none holds, as itself); any other value as it is."""
    return p.item() if isinstance(p, (np.integer, np.floating)) else p


def _check_price(p: Price, what: str) -> None:
    if isinstance(p, bool) or not isinstance(p, _PRICE_TYPES):
        raise InvalidInstanceError(f"{what} must be a number, got {p!r}")
    if isinstance(p, np.floating) and type(p.item()) is not float:
        raise InvalidInstanceError(
            f"{what} must fit a Python float, got {p!r}")
    if not isinstance(p, (int, Fraction)) and not math.isfinite(p):
        raise InvalidInstanceError(f"{what} must be finite, got {p!r}")
    if p < 0:
        raise InvalidInstanceError(f"{what} must be >= 0, got {p!r}")


@dataclass(frozen=True)
class Instance:
    """Raw market instance: buyer price vector plus the seller's price."""

    buyer_prices: tuple
    seller_price: Price
    #: the buyer prices as an int64 or float64 array when it holds each of
    #: them exactly (``_price_array``), else None; kept out of ==, hash
    #: and repr, which read the prices themselves
    buyer_array: np.ndarray | None = field(default=None, compare=False,
                                           repr=False)

    def __init__(self, buyer_prices, seller_price):
        given = buyers = tuple(buyer_prices)
        if len(buyers) < 1:
            raise InvalidInstanceError("need at least one buyer")
        kinds = set(map(type, buyers))
        if any(issubclass(k, np.generic) for k in kinds):
            buyers = tuple(map(_plain, buyers))
            kinds = set(map(type, buyers))
        array = _price_array(buyers, kinds)
        # the array flags its bad prices in one pass; without one, every
        # price is checked; errors name the price as given
        bad = (range(len(buyers)) if array is None
               else np.flatnonzero(~((array >= 0) & (array < math.inf))))
        for k in bad:
            _check_price(given[k], f"buyer price #{k + 1}")
        _check_price(seller_price, "seller price")
        seller_price = _plain(seller_price)
        object.__setattr__(self, "buyer_prices", buyers)
        object.__setattr__(self, "seller_price", seller_price)
        object.__setattr__(self, "buyer_array", array)

    @property
    def n(self) -> int:
        return len(self.buyer_prices)

    @property
    def seller_id(self) -> int:
        return self.n + 1

    def to_json_dict(self) -> dict:
        return {
            "buyer_prices": [_price_to_json(p) for p in self.buyer_prices],
            "seller_price": _price_to_json(self.seller_price),
        }

    def digest(self) -> str:
        """Stable hex digest of the instance contents: the SHA-256 of
        ``to_json_dict`` as sorted-key JSON.  json writes the int and float
        prices itself (1 and 1.0 stay distinct) and asks
        ``_price_to_json`` only for the Fractions."""
        blob = json.dumps({"buyer_prices": self.buyer_prices,
                           "seller_price": self.seller_price},
                          sort_keys=True, default=_price_to_json).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _price_array(buyers: tuple, kinds: set) -> np.ndarray | None:
    """The prices, whose types are ``kinds``, as one array when numpy holds
    each exactly: all Python ints within int64 (int64), all floats, or a
    mix of the two whose largest magnitude is below 2**53 (float64).  None
    for any other vector: Fractions, larger ints, bools, non-numbers."""
    if not kinds <= {int, float}:
        return None
    try:
        array = np.fromiter(buyers, np.float64 if float in kinds
                            else np.int64, len(buyers))
    except OverflowError:  # an int beyond int64, or beyond float64
        return None
    if len(kinds) == 2 and not np.abs(array).max() < 2 ** 53:
        return None
    return array


def _price_to_json(p: Price):
    return f"{p.numerator}/{p.denominator}" if isinstance(p, Fraction) else p


def _fraction(text: str) -> Fraction:
    # Fraction expands an exponent into an exact integer first, at a cost
    # that grows with the exponent, so a large one is rejected before it runs
    cap = GEOMETRIC_DIGITS_CAP
    exp = re.search(r"e[-+]?([\d_]+)\s*\Z", text, re.IGNORECASE)
    digits = exp[1].replace("_", "").lstrip("0") if exp else ""
    if len(digits) > len(str(cap)) or int(digits or 0) > cap:
        raise InvalidInstanceError(f"price {text!r} has an exponent past {cap}")
    # and int() refuses a longer run of digits (underscores join a run)
    if any(len(run) - run.count("_") > cap
           for run in re.findall(r"\d+(?:_\d+)*", text)):
        raise InvalidInstanceError(
            f"price {text[:20]!r}... has more than {cap} digits")
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise InvalidInstanceError(f"zero denominator in {text!r}") from None
    big = max(abs(value.numerator), value.denominator)
    if big.bit_length() > 3 * cap and big >= 10 ** cap:
        raise InvalidInstanceError(f"price {text!r} has more than {cap} digits")
    return value


def _price_from_json(v):
    return _fraction(v) if isinstance(v, str) else v


def load_instance(source) -> Instance:
    """Build an Instance from a dict or an instance spec.

    A spec is read as inline JSON when its first non-blank character is
    ``{`` or ``[``, else as a family spec (``parse_family_spec``) when a
    known family name precedes its first ``:``, else as a JSON file path.
    The JSON schema is ``{"buyer_prices": [num|"p/q", ...], "seller_price":
    num|"p/q"}``; string prices are parsed as exact fractions.  Any other
    document raises ``InvalidInstanceError``.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        name, colon, _ = text.partition(":")
        if text.lstrip().startswith(("{", "[")):
            blob = text
        elif colon and name in _FAMILIES:
            return parse_family_spec(text)
        else:
            with open(text) as fh:
                blob = fh.read()
        try:
            doc = json.loads(blob)
        except RecursionError:
            raise InvalidInstanceError(
                "instance JSON nests too deeply") from None
    if not (isinstance(doc, dict)
            and isinstance(doc.get("buyer_prices", []), list)):
        raise InvalidInstanceError(
            'an instance is a JSON object whose "buyer_prices" is a list')
    try:
        buyers = [_price_from_json(v) for v in doc["buyer_prices"]]
        seller = _price_from_json(doc["seller_price"])
    except KeyError as exc:
        raise InvalidInstanceError(f"missing field {exc}") from exc
    return Instance(buyers, seller)


@dataclass(frozen=True)
class RankedInstance:
    """Canonical ranking of an instance's buyers under the universal tie-break.

    ``sorted_buyer_prices[r]`` is the price of the rank-(r+1) buyer,
    ``original_index_of_rank[r]`` its raw agent id, and ``mu`` counts the
    buyers ranked strictly above the seller.
    """

    sorted_buyer_prices: tuple
    original_index_of_rank: tuple
    mu: int


def rank_buyers(instance: Instance) -> tuple[np.ndarray, int]:
    """Buyer indices (0-based) from rank 1 down, as an intp array, and mu.

    A stable sort of the buyers by price alone, descending, keeps equal
    prices in ascending id order, which is ``tiebreak_key``'s order.  With
    a ``buyer_array`` that sort is one stable ``argsort`` of the negated
    array, whose comparisons are Python's own because the array is exact.
    The seller loses every tie, so mu counts the buyers priced at or above
    it, by Python's ``>=``: over the ranking they are a prefix, whose end
    a bisection finds.
    """
    prices, seller = instance.buyer_prices, instance.seller_price
    if instance.buyer_array is None:
        order = np.array(sorted(range(instance.n), key=prices.__getitem__,
                                reverse=True), dtype=np.intp)
    else:
        order = np.argsort(-instance.buyer_array, kind="stable")
    return order, bisect_left(order, True,
                              key=lambda b: not prices[b] >= seller)


def canonicalize(instance: Instance) -> RankedInstance:
    """Rank the buyers under the universal tie-break and count mu
    (``rank_buyers``)."""
    order, mu = rank_buyers(instance)
    prices = np.fromiter(instance.buyer_prices, dtype=object,
                         count=instance.n)  # references, not copies
    return RankedInstance(
        sorted_buyer_prices=tuple(prices[order].tolist()),
        original_index_of_rank=tuple((order + 1).tolist()),
        mu=mu,
    )


@dataclass(frozen=True)
class ArrivalSample:
    """One arrival order of the n+1 agents, with their arrival times.

    ``order[p]`` is the agent id arriving in slot p (0-based position),
    ``times`` are the matching strictly increasing arrival times in [0,1].
    """

    order: tuple
    times: tuple

    @property
    def size(self) -> int:
        return len(self.order)


@dataclass(frozen=True)
class Thresholds:
    """Pair of time thresholds with 0 <= t1 <= t2 <= 1, kept as floats."""

    t1: float
    t2: float

    def __post_init__(self):
        for name in ("t1", "t2"):
            value = check_real("Thresholds", name, getattr(self, name))
            object.__setattr__(self, name, value)
        if not (0.0 <= self.t1 <= self.t2 <= 1.0):
            raise ValueError(f"need 0 <= t1 <= t2 <= 1, got ({self.t1}, {self.t2})")


@dataclass(frozen=True)
class TradeOutcome:
    """Result of one episode: final holder, realized welfare, and the
    deal/pass flag per arrival.

    holder is 0 when the intermediary is stuck with the item (welfare 0),
    otherwise the agent id holding the item at the end.
    """

    holder: int
    welfare: Price
    decisions: tuple


#: Largest n of a generated family instance.  Building one and simulating
#: it peaks at about 92 B per buyer for int prices and 142 B for float
#: ones (tracemalloc, ``gen_instance`` plus 256 alg1 trials at n = 1e5).
FAMILY_CAP = 10**7
#: Most decimal digits of the denominator of a Fraction-ratio geometric
#: price, and of a string price's exponent, numerator and denominator:
#: Python's default int-to-str limit, which ``Instance.digest`` meets.
GEOMETRIC_DIGITS_CAP = 4300
# family name -> the parameters it takes
_FAMILIES = {"spike": ("n",), "flat_k": ("n", "k"), "seller_spike": ("n",),
             "geometric": ("n", "r")}


def gen_instance(family: str, **params) -> Instance:
    """Named instance families used throughout the test battery.

    spike(n):        buyers (1, 0, ..., 0), seller 0
    flat_k(n, k):    top k buyers at 1, the rest and the seller at 0
    seller_spike(n): all buyers 0, seller 1
    geometric(n, r): seller 0, buyers r**0 and then each the one before times
                     r; a Fraction r caps r**(n-1) at GEOMETRIC_DIGITS_CAP digits
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"choose from {tuple(_FAMILIES)}")
    keys = _FAMILIES[family]
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ValueError(f"{family} takes only {', '.join(keys)}; unknown "
                         f"parameter {', '.join(unknown)}")
    missing = [k for k in keys if k not in params]
    if missing:
        raise ValueError(f"{family} needs parameter {', '.join(missing)}")
    n = check_size(family, "n", params["n"], cap=FAMILY_CAP)
    if family == "spike":
        return Instance((1,) + (0,) * (n - 1), 0)
    if family == "flat_k":
        k = check_size(family, "k", params["k"])
        if k > n:
            raise ValueError(f"need k <= n, got k={k}, n={n}")
        return Instance((1,) * k + (0,) * (n - k), 0)
    if family == "seller_spike":
        return Instance((0,) * n, 1)
    r = params["r"]
    if not (0 < r < 1):
        raise ValueError(f"need ratio in (0,1), got {r}")
    if isinstance(r, Fraction):
        # the largest m with denominator**m below 10**GEOMETRIC_DIGITS_CAP,
        # down from one past the float estimate, which may be one too low
        q, top = r.denominator, 10 ** GEOMETRIC_DIGITS_CAP
        m = int(GEOMETRIC_DIGITS_CAP / math.log10(q)) + 1
        while q ** m >= top:
            m -= 1
        check_size(family, "n", n, cap=m + 1)
    return Instance(tuple(accumulate(repeat(r, n - 1), mul, initial=r ** 0)), 0)


def parse_family_spec(spec: str) -> Instance:
    """Parse the inline ``family:key=value,...`` syntax, e.g. ``flat_k:n=10,k=3``."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            key = key.strip()
            if key in params:
                raise ValueError(f"repeated family parameter {key!r}")
            parse = (int if key in ("n", "k")
                     else _fraction if "/" in val else float)
            try:
                params[key] = parse(val)
            except InvalidInstanceError:  # a zero denominator names itself
                raise
            except ValueError:
                raise ValueError(f"bad family parameter {item!r}") from None
    return gen_instance(name.strip(), **params)
