"""Market instances, arrival sampling, and instance-family generators.

A market has n buyers (agent ids 1..n) and one seller (agent id n+1).
Each agent carries a price; prices may be ints, floats, or
``fractions.Fraction`` (exact pipelines keep Fractions end to end).

Ties are resolved by one universal rule used everywhere in the package:
agents are ordered by (price descending, agent index ascending).  The
seller carries the largest index, so it loses every price tie to a buyer.
``canonicalize`` realises the rule with a stable sort of the buyers by
price alone; ``tiebreak_key`` is the key the policies compare, a tuple
whose natural ordering is the same rule, with larger keys ranking higher.

Randomness is pinned to numpy's Philox counter-based generator so that
every sampled quantity is reproducible across platforms and worker counts;
see :mod:`sectrade.simulate` for the stream-split rule.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInstanceError, SizeCapError

Price = int | float | Fraction


def tiebreak_key(price: Price, agent_index: int) -> tuple:
    """Comparison key for the universal tie-break: higher key = higher rank."""
    return (price, -agent_index)


def _check_price(p: Price, what: str) -> None:
    if isinstance(p, (bool, np.bool_)):
        raise InvalidInstanceError(f"{what} must be a number, got {p!r}")
    if not isinstance(p, (int, Fraction)) and not math.isfinite(p):
        raise InvalidInstanceError(f"{what} must be finite, got {p!r}")
    if p < 0:
        raise InvalidInstanceError(f"{what} must be >= 0, got {p!r}")


@dataclass(frozen=True)
class Instance:
    """Raw market instance: buyer price vector plus the seller's price."""

    buyer_prices: tuple
    seller_price: Price

    def __init__(self, buyer_prices, seller_price):
        buyers = tuple(buyer_prices)
        if len(buyers) < 1:
            raise InvalidInstanceError("need at least one buyer")
        for k, p in enumerate(buyers):
            _check_price(p, f"buyer price #{k + 1}")
        _check_price(seller_price, "seller price")
        object.__setattr__(self, "buyer_prices", buyers)
        object.__setattr__(self, "seller_price", seller_price)

    @property
    def n(self) -> int:
        return len(self.buyer_prices)

    @property
    def seller_id(self) -> int:
        return self.n + 1

    def price_of(self, agent_id: int) -> Price:
        """Price of agent ``agent_id`` (buyers 1..n, seller n+1)."""
        if agent_id == self.seller_id:
            return self.seller_price
        return self.buyer_prices[agent_id - 1]

    def to_json_dict(self) -> dict:
        return {
            "buyer_prices": [_price_to_json(p) for p in self.buyer_prices],
            "seller_price": _price_to_json(self.seller_price),
        }

    def digest(self) -> str:
        """Stable hex digest of the instance contents."""
        blob = json.dumps(self.to_json_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _price_to_json(p: Price):
    if isinstance(p, Fraction):
        return f"{p.numerator}/{p.denominator}"
    return p


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise InvalidInstanceError(f"zero denominator in {text!r}") from None


def _price_from_json(v) -> Price:
    if isinstance(v, str):
        return _fraction(v)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise InvalidInstanceError(f"bad price value {v!r}")
    return v


def load_instance(source) -> Instance:
    """Build an Instance from a dict, JSON text (``{``/``[`` first) or a path.

    The JSON schema is ``{"buyer_prices": [num|"p/q", ...], "seller_price":
    num|"p/q"}``; string prices are parsed as exact fractions.  Any other
    document raises ``InvalidInstanceError``.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if text.lstrip().startswith(("{", "[")):
            doc = json.loads(text)
        else:
            with open(text) as fh:
                doc = json.load(fh)
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


def canonicalize(instance: Instance) -> RankedInstance:
    """Rank the buyers under the universal tie-break and count mu.

    Python's sort stays stable under ``reverse=True``, so sorting the buyer
    ids by price alone keeps equal prices in ascending id order, which is
    ``tiebreak_key``'s order.  The seller loses every tie, so mu counts the
    buyers priced at or above it.
    """
    prices = instance.buyer_prices
    ranked = sorted(range(instance.n), key=prices.__getitem__, reverse=True)
    seller = instance.seller_price
    return RankedInstance(
        sorted_buyer_prices=tuple(prices[b] for b in ranked),
        original_index_of_rank=tuple(b + 1 for b in ranked),
        mu=sum(1 for p in prices if p >= seller),
    )


@dataclass(frozen=True)
class ArrivalSample:
    """One arrival draw: a uniform agent permutation with sorted times.

    ``order[p]`` is the agent id arriving in slot p (0-based position),
    ``times`` are the matching strictly increasing arrival times in [0,1].
    """

    order: tuple
    times: tuple

    @property
    def size(self) -> int:
        return len(self.order)


def sample_arrival(n: int, rng: np.random.Generator) -> ArrivalSample:
    """Draw n+1 iid uniform arrival times, one per agent, and sort.

    The induced ranking is a uniform permutation of the n+1 agents and the
    sorted draw gives their arrival times, so one set of uniforms yields
    both pieces.  Identical generator state gives an identical sample.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    u = rng.random(n + 1)
    perm = np.argsort(u, kind="stable")
    return ArrivalSample(
        order=tuple(int(a) + 1 for a in perm),
        times=tuple(float(t) for t in u[perm]),
    )


@dataclass(frozen=True)
class Thresholds:
    """Pair of time thresholds with 0 <= t1 <= t2 <= 1."""

    t1: float
    t2: float

    def __post_init__(self):
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


#: Largest n of a generated family instance (about 144 B per buyer to simulate).
FAMILY_CAP = 10**7
# family name -> the parameters it takes
_FAMILIES = {"spike": ("n",), "flat_k": ("n", "k"), "seller_spike": ("n",),
             "geometric": ("n", "r")}


def gen_instance(family: str, **params) -> Instance:
    """Named instance families used throughout the test battery.

    spike(n):        buyers (1, 0, ..., 0), seller 0
    flat_k(n, k):    top k buyers at 1, the rest and the seller at 0
    seller_spike(n): all buyers 0, seller 1
    geometric(n, r): buyer i priced r**(i-1), seller 0
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
    for key in ("n", "k"):
        val = params.get(key, 0)
        if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
            raise ValueError(f"{family} needs an integer {key}, got {val!r}")
    n = int(params["n"])
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > FAMILY_CAP:
        raise SizeCapError(f"family instances capped at n={FAMILY_CAP}, "
                           f"got {n}")
    if family == "spike":
        return Instance((1,) + (0,) * (n - 1), 0)
    if family == "flat_k":
        k = int(params["k"])
        if not (1 <= k <= n):
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        return Instance((1,) * k + (0,) * (n - k), 0)
    if family == "seller_spike":
        return Instance((0,) * n, 1)
    r = params["r"]
    if not (0 < r < 1):
        raise ValueError(f"need ratio in (0,1), got {r}")
    return Instance(tuple(r ** i for i in range(n)), 0)


def parse_family_spec(spec: str) -> Instance:
    """Parse the inline ``family:key=value,...`` syntax, e.g. ``flat_k:n=10,k=3``."""
    name, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not val:
                raise ValueError(f"bad family parameter {item!r}")
            key = key.strip()
            if key in params:
                raise ValueError(f"repeated family parameter {key!r}")
            if key in ("n", "k"):
                params[key] = int(val)
            elif "/" in val:
                params[key] = _fraction(val)
            else:
                params[key] = float(val)
    return gen_instance(name.strip(), **params)
