import hashlib
import json
import math
import re
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectrade.benchmarks import strong_opt
from sectrade.errors import InvalidInstanceError, SizeCapError
from sectrade.exact import (alg2_holder_prob, alg3_pi_parts, alg3_report,
                            delta_gap_closed_form, delta_mu, unimodality_f)
from sectrade.lp import (build_strong_primal, build_weak_primal,
                         strong_dual_certificate, weak_dual_certificate)
from sectrade.model import (Instance, RankedInstance, Thresholds,
                            _check_price, canonicalize, gen_instance,
                            load_instance, parse_family_spec, tiebreak_key)
from sectrade.oracle import enumerate_alg2_exact, enumerate_weak_opt_exact
from sectrade.simulate import _market, _Market, simulate

TH = Thresholds(0.296151, 0.805018)
SPIKE3 = Instance((1, 0, 0), 0)
# every library entry point that takes a size, called with that size
SIZED = {
    "simulate_trials": lambda v: simulate("alg1", SPIKE3, v, seed=1),
    "simulate_workers": lambda v: simulate("alg1", SPIKE3, 10, 1, workers=v),
    "delta_mu": lambda v: delta_mu(v),
    "delta_gap_closed_form": lambda v: delta_gap_closed_form(v),
    "alg2_holder_prob_i": lambda v: alg2_holder_prob(v, 3),
    "alg2_holder_prob_mu": lambda v: alg2_holder_prob(1, v),
    "alg3_pi_parts_i": lambda v: alg3_pi_parts(v, 3, TH),
    "alg3_pi_parts_n": lambda v: alg3_pi_parts(1, v, TH),
    "alg3_report": lambda v: alg3_report(v, TH),
    "unimodality_f": lambda v: unimodality_f(v, TH),
    "build_strong_primal": lambda v: build_strong_primal(v),
    "build_weak_primal": lambda v: build_weak_primal(v),
    "strong_dual_certificate": lambda v: strong_dual_certificate(v),
    "weak_dual_certificate": lambda v: weak_dual_certificate(v, 0.97, 0.03),
}


def _ref_canonicalize(instance):
    """canonicalize as it was before the stable price-only sort: a sort on
    ``tiebreak_key`` tuples, and mu counted by comparing every buyer's key
    with the seller's.  Returns (sorted prices, ids by rank, mu)."""
    n = instance.n
    ranked_ids = sorted(range(1, n + 1),
                        key=lambda b: tiebreak_key(instance.buyer_prices[b - 1], b),
                        reverse=True)
    seller_key = tiebreak_key(instance.seller_price, instance.seller_id)
    mu = sum(1 for b in ranked_ids
             if tiebreak_key(instance.buyer_prices[b - 1], b) > seller_key)
    return (tuple(instance.buyer_prices[b - 1] for b in ranked_ids),
            tuple(ranked_ids), mu)


def _ref_check_prices(buyers, seller):
    """Instance's price check before the array path: every price in turn."""
    if len(buyers) < 1:
        raise InvalidInstanceError("need at least one buyer")
    for k, p in enumerate(buyers):
        _check_price(p, f"buyer price #{k + 1}")
    _check_price(seller, "seller price")


def _ref_sorted_canonicalize(instance):
    """canonicalize before the array path: Python's stable sort of the
    buyer ids by price alone, and mu counted over every buyer."""
    prices = instance.buyer_prices
    ranked = sorted(range(instance.n), key=prices.__getitem__, reverse=True)
    seller = instance.seller_price
    return RankedInstance(
        sorted_buyer_prices=tuple(prices[b] for b in ranked),
        original_index_of_rank=tuple(b + 1 for b in ranked),
        mu=sum(1 for p in prices if p >= seller),
    )


def _ref_market(instance):
    """simulate._market before the array path: per-buyer floats and lists
    over the reference ranking."""
    ranked = _ref_sorted_canonicalize(instance)
    n = instance.n
    prices = np.zeros(n + 2)
    prices[1:n + 1] = [float(p) for p in instance.buyer_prices]
    prices[n + 1] = float(instance.seller_price)
    buyer_cols = [b - 1 for b in ranked.original_index_of_rank]
    strength_cols = np.array(buyer_cols[:ranked.mu] + [n] + buyer_cols[ranked.mu:],
                             dtype=np.int64)
    return _Market(n=n, prices=prices,
                   strength_cols=strength_cols,
                   seller_strength_pos=ranked.mu,
                   seller_price=float(instance.seller_price))


def _ref_digest(instance):
    """Instance.digest before the array path: ``to_json_dict`` price by
    price.  It passed numpy scalars to json unchanged, which raised
    TypeError for every one but np.float64."""
    def to_json(p):
        if isinstance(p, Fraction):
            return f"{p.numerator}/{p.denominator}"
        return p
    doc = {"buyer_prices": [to_json(p) for p in instance.buyer_prices],
           "seller_price": to_json(instance.seller_price)}
    blob = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _plain(p):
    """A numpy scalar as the Python number it holds."""
    return p.item() if isinstance(p, np.generic) else p


# ints around 2**53 (where float64 stops holding every int) and past int64
_INT_PRICE = st.one_of(st.integers(0, 4), st.sampled_from(
    [2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63, 2**64 + 1]))
_FLOAT_PRICE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, float(2**53), float(2**53 + 4),
                     1e30]),
    st.floats(0, 4, allow_nan=False))
_FRACTION_PRICE = st.builds(Fraction, st.integers(0, 8), st.integers(1, 4))
_NUMPY_PRICE = st.sampled_from([np.int64(2), np.uint8(1), np.int32(0),
                                np.float64(0.5), np.float64(-0.0),
                                np.float32(0.5), np.float32(1.0),
                                np.float32(0.1), np.float16(0.1)])
_BAD_PRICE = st.sampled_from([-1, -0.5, -0.0 - 1e-300, math.nan, math.inf,
                              -math.inf, True, np.float64("nan")])
_ANY_PRICE = st.one_of(_INT_PRICE, _FLOAT_PRICE, _FRACTION_PRICE,
                       _NUMPY_PRICE)


@st.composite
def _price_vector(draw):
    """Buyer prices of one kind (ints, floats, int/float mixed, or any
    kind), with now and then one or two bad prices among them."""
    kind = draw(st.sampled_from([_INT_PRICE, _FLOAT_PRICE,
                                 st.one_of(_INT_PRICE, _FLOAT_PRICE),
                                 _ANY_PRICE]))
    buyers = draw(st.lists(kind, min_size=1, max_size=9))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        k = draw(st.integers(0, len(buyers) - 1))
        buyers[k] = draw(_BAD_PRICE)
    return buyers


@st.composite
def _mixed_price(draw):
    """A price k/2 for k = 0..4 as a float, np.float64 or Fraction, or, when
    whole, also as an int or np.int64: equal values in mixed types."""
    k = draw(st.integers(0, 4))
    kinds = [float, np.float64, Fraction] + ([int, np.int64] if k % 2 == 0 else [])
    kind = draw(st.sampled_from(kinds))
    return Fraction(k, 2) if kind is Fraction else kind(k / 2)


class TestCanonicalize:
    def test_distinct_prices(self):
        ranked = canonicalize(Instance((3, 5, 1), 2))
        assert ranked.sorted_buyer_prices == (5, 3, 1)
        assert ranked.original_index_of_rank == (2, 1, 3)
        assert ranked.mu == 2

    def test_price_ties_break_by_index(self):
        ranked = canonicalize(Instance((1, 1), 1))
        # buyers beat the seller on index, and buyer 1 beats buyer 2
        assert ranked.original_index_of_rank == (1, 2)
        assert ranked.mu == 2

    def test_all_buyers_below_seller(self):
        assert canonicalize(Instance((0, 0, 0), 1)).mu == 0

    def test_empty_buyer_list_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance((), 1)

    def test_bad_prices_rejected(self):
        with pytest.raises(InvalidInstanceError):
            Instance((1, -2), 0)
        with pytest.raises(InvalidInstanceError):
            Instance((1, math.inf), 0)

    @pytest.mark.parametrize("price", [np.float32("nan"), np.float32("inf"),
                                       np.float64("nan"), -math.inf])
    def test_non_finite_numpy_prices_rejected(self, price):
        with pytest.raises(InvalidInstanceError):
            Instance((1, price), 0)
        with pytest.raises(InvalidInstanceError):
            Instance((1,), price)

    @pytest.mark.parametrize("price", [True, False, np.True_])
    def test_bool_prices_rejected(self, price):
        with pytest.raises(InvalidInstanceError):
            Instance((price, 2), 0)
        with pytest.raises(InvalidInstanceError):
            Instance((1,), price)

    @pytest.mark.parametrize("price", [None, "1", [1], 1j, Decimal("1"),
                                       np.bool_(True)])
    def test_non_number_prices_rejected(self, price):
        with pytest.raises(InvalidInstanceError, match="must be a number"):
            Instance((price, 2), 0)
        with pytest.raises(InvalidInstanceError, match="must be a number"):
            Instance((1,), price)

    def test_int_float_fraction_prices_accepted(self):
        inst = Instance((3, 0.5, Fraction(1, 3), 10 ** 400), Fraction(1, 8))
        assert inst.buyer_prices == (3, 0.5, Fraction(1, 3), 10 ** 400)

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=7),
           st.integers(0, 6))
    @settings(max_examples=200, deadline=None)
    def test_rank_order_and_mu(self, buyers, seller):
        ranked = canonicalize(Instance(tuple(buyers), seller))
        prices = ranked.sorted_buyer_prices
        assert sorted(prices, reverse=True) == list(prices)
        # equal prices keep ascending raw index
        for r in range(len(prices) - 1):
            if prices[r] == prices[r + 1]:
                assert (ranked.original_index_of_rank[r]
                        < ranked.original_index_of_rank[r + 1])
        assert ranked.mu == sum(1 for p in buyers if p >= seller)

    @given(st.lists(_mixed_price(), min_size=1, max_size=8), _mixed_price())
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_key_reference(self, buyers, seller):
        inst = Instance(buyers, seller)
        ranked = canonicalize(inst)
        prices, ids, mu = _ref_canonicalize(inst)
        assert ranked.original_index_of_rank == ids
        assert type(ranked.mu) is int and ranked.mu == mu
        assert [type(p) for p in ranked.sorted_buyer_prices] == [type(p) for p in prices]
        assert ranked.sorted_buyer_prices == prices
        # the old strong_opt read the top of the ranking; max keeps the
        # first maximum, so both return the same object (a numpy seller
        # price is kept as the Python number it holds)
        assert strong_opt(inst) is max(prices[0], inst.seller_price)


class TestArrayPath:
    """The array-native instance layer against the per-price code it
    replaced (the ``_ref_*`` copies above)."""

    @given(_price_vector(), st.one_of(_ANY_PRICE, _BAD_PRICE))
    @settings(max_examples=400, deadline=None)
    def test_matches_per_price_reference(self, buyers, seller):
        try:
            _ref_check_prices(buyers, seller)
        except InvalidInstanceError as exc:
            with pytest.raises(InvalidInstanceError) as got:
                Instance(buyers, seller)
            assert str(got.value) == str(exc)
            return
        inst = Instance(buyers, seller)
        # numpy scalars are kept as the Python numbers they hold
        for got, given in zip(inst.buyer_prices + (inst.seller_price,),
                              buyers + [seller]):
            assert type(got) is type(_plain(given)) and got == _plain(given)
        if inst.buyer_array is not None:  # it holds every price exactly
            assert all(a == b for a, b in zip(inst.buyer_array.tolist(),
                                              buyers))
        ranked, want = canonicalize(inst), _ref_sorted_canonicalize(inst)
        assert ranked.original_index_of_rank == want.original_index_of_rank
        assert type(ranked.mu) is int and ranked.mu == want.mu
        assert all(a is b for a, b in zip(ranked.sorted_buyer_prices,
                                          want.sorted_buyer_prices))
        assert len(ranked.sorted_buyer_prices) == inst.n
        mk, ref = _market(inst), _ref_market(inst)
        assert mk.prices.tobytes() == ref.prices.tobytes()
        assert mk.strength_cols.dtype == ref.strength_cols.dtype
        assert mk.strength_cols.tolist() == ref.strength_cols.tolist()
        assert mk.seller_strength_pos == ref.seller_strength_pos
        assert mk.seller_price == ref.seller_price
        # the reference raised on numpy scalars other than np.float64;
        # they now digest as the Python numbers they hold
        assert inst.digest() == _ref_digest(
            Instance([_plain(p) for p in buyers], _plain(seller)))

    def test_exact_ranking_above_two_to_the_53(self):
        # float64 rounds 2**53 + 1 to 2**53: the mixed vector keeps the
        # tuple path and ranks by Python's exact comparison
        inst = Instance((float(2**53), 2**53 + 1), 0)
        assert inst.buyer_array is None
        assert canonicalize(inst).original_index_of_rank == (2, 1)

    def test_mu_compares_exactly_with_the_seller(self):
        # the int64 array holds 2**53 + 3, which float64 rounds to the
        # seller's 2**53 + 4
        inst = Instance((2**53 + 3,), float(2**53 + 4))
        assert inst.buyer_array is not None
        assert canonicalize(inst).mu == 0
        assert _market(inst).seller_strength_pos == 0

    @pytest.mark.parametrize("negative", [-1, -1.0])
    def test_first_bad_price_named(self, negative):
        buyers = [0.5] * 10**5
        buyers[70_000], buyers[80_000] = negative, math.nan
        with pytest.raises(InvalidInstanceError) as exc:
            Instance(buyers, 0)
        assert str(exc.value) == f"buyer price #70001 must be >= 0, got {negative}"

    def test_array_stays_out_of_eq_hash_repr(self):
        a, b = Instance((1, 2.0), 0), Instance((1, 2.0), 0)
        assert a.buyer_array is not b.buyer_array
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "Instance(buyer_prices=(1, 2.0), seller_price=0)"
        assert a.digest() != Instance((1.0, 2.0), 0).digest()

    def test_numpy_scalar_prices(self):
        inst = Instance((np.int64(3), np.float32(0.5)), np.uint8(0))
        assert inst.digest() == Instance((3, 0.5), 0).digest()
        rep = simulate("alg1", inst, 100, seed=1)
        assert rep.instance_digest == inst.digest()


class TestNumpyScalarPrices:
    """A numpy integer or floating price becomes the Python number it
    holds when the instance is built."""

    def test_float32_seller_compares_as_its_float64_value(self):
        # float(np.float32(0.1)) is 0.10000000149..., above the buyer's 0.1
        inst = Instance((0.1,), np.float32(0.1))
        assert type(inst.seller_price) is float
        assert canonicalize(inst).mu == 0
        assert _market(inst).seller_strength_pos == 0

    def test_float32_buyer_against_a_huge_seller(self):
        # no cast of 1e300 to float32 (an overflow warning, an error here)
        inst = Instance((np.float32(0.5),), 1e300)
        assert inst.buyer_prices == (0.5,) and inst.buyer_array is not None
        assert canonicalize(inst).mu == 0

    def test_long_double_rejected(self):
        price = np.longdouble(1.5)
        if type(price.item()) is float:  # long double is float64 here
            assert Instance((price, 1.0), 0).buyer_prices == (1.5, 1.0)
            return
        with pytest.raises(InvalidInstanceError,
                           match="buyer price #1 must fit a Python float"):
            Instance((price, 1.0), 0)
        with pytest.raises(InvalidInstanceError,
                           match="seller price must fit a Python float"):
            Instance((1.0,), price)

    def test_oracles_take_numpy_integers(self):
        numpy_inst = Instance((np.int64(3), np.int32(1)), np.int64(2))
        inst = Instance((3, 1), 2)
        assert numpy_inst == inst
        assert enumerate_alg2_exact(numpy_inst) == enumerate_alg2_exact(inst)
        assert (enumerate_weak_opt_exact(numpy_inst)
                == enumerate_weak_opt_exact(inst))

    def test_all_int_and_all_float_vectors_kept_as_given(self):
        buyers = (1, 2, 3)
        assert Instance(buyers, 0).buyer_prices is buyers
        buyers = (0.5, 1.5)
        assert Instance(buyers, 0).buyer_prices is buyers


class TestSampleArrival:
    """The arrival model: n+1 iid uniform times, one per agent, sorted."""

    def test_invariants(self):
        u = np.random.default_rng(0).random(3)
        order = np.argsort(u, kind="stable")
        times = u[order].tolist()
        assert len(times) == 3
        assert all(0.0 <= t <= 1.0 for t in times)
        assert times == sorted(times)
        assert sorted((order + 1).tolist()) == [1, 2, 3]

    def test_seller_first_frequency(self):
        # P(seller arrives first) = 1/3 at n = 2; binomial 3-sigma band
        trials = 10 ** 6
        rng = np.random.default_rng(2024)
        u = rng.random((trials, 3))
        seller_first = (u[:, 2] < u[:, 0]) & (u[:, 2] < u[:, 1])
        p_hat = seller_first.mean()
        sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
        assert abs(p_hat - 1 / 3) < 3 * sigma

    def test_position_marginals(self):
        # every agent is uniform over positions
        trials = 60_000
        rng = np.random.default_rng(7)
        counts = np.zeros((4, 4))
        u = rng.random((trials, 4))
        order = np.argsort(u, axis=1)
        for pos in range(4):
            for agent in range(4):
                counts[agent, pos] = np.sum(order[:, pos] == agent)
        freq = counts / trials
        sigma = math.sqrt(0.25 * 0.75 / trials)
        assert np.all(np.abs(freq - 0.25) < 4 * sigma)


class TestGenerators:
    def test_spike(self):
        inst = gen_instance("spike", n=3)
        assert inst.buyer_prices == (1, 0, 0)
        assert inst.seller_price == 0

    def test_flat_k(self):
        inst = gen_instance("flat_k", n=4, k=2)
        assert inst.buyer_prices == (1, 1, 0, 0)
        assert inst.seller_price == 0

    def test_seller_spike(self):
        inst = gen_instance("seller_spike", n=2)
        assert inst.buyer_prices == (0, 0)
        assert inst.seller_price == 1

    def test_geometric(self):
        inst = gen_instance("geometric", n=3, r=Fraction(1, 2))
        assert inst.buyer_prices == (1, Fraction(1, 2), Fraction(1, 4))
        # a float ratio is one running product: each price is exactly the
        # one before times r, one IEEE multiply, and no libm pow
        prices = gen_instance("geometric", n=1000, r=0.99).buyer_prices
        assert type(prices[0]) is float and prices[0] == 1.0
        assert all(b == a * 0.99 for a, b in zip(prices, prices[1:]))
        # a Fraction ratio gives the exact powers
        r = Fraction(1, 3)
        prices = gen_instance("geometric", n=50, r=r).buyer_prices
        assert type(prices[0]) is Fraction and prices[0] == 1
        assert prices == tuple(r ** i for i in range(50))

    def test_fraction_ratio_capped_by_denominator_digits(self):
        r = Fraction(1, 10 ** 100)
        inst = gen_instance("geometric", n=43, r=r)
        assert inst.buyer_prices[-1] == r ** 42
        assert len(inst.digest()) == 16
        with pytest.raises(SizeCapError, match="capped at n=43, got 44"):
            gen_instance("geometric", n=44, r=r)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            gen_instance("flat_k", n=3, k=4)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            gen_instance("geometric", n=3, r=1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family 'ring'; choose"):
            gen_instance("ring", n=3)

    def test_family_spec_parsing(self):
        inst = parse_family_spec("flat_k:n=10,k=3")
        assert inst.buyer_prices == (1,) * 3 + (0,) * 7

    @pytest.mark.parametrize("family,params", [
        ("spike", {"n": 3, "zz": 1}),
        ("seller_spike", {"n": 3, "k": 1}),
        ("flat_k", {"n": 3, "k": 1, "r": 0.5}),
        ("geometric", {"n": 3, "r": 0.5, "k": 2}),
    ])
    def test_unknown_key_rejected(self, family, params):
        with pytest.raises(ValueError, match="unknown parameter"):
            gen_instance(family, **params)

    @pytest.mark.parametrize("family,params,missing", [
        ("spike", {}, "n"),
        ("flat_k", {"n": 3}, "k"),
        ("geometric", {"r": 0.5}, "n"),
    ])
    def test_missing_key_named(self, family, params, missing):
        with pytest.raises(ValueError, match=f"needs parameter {missing}$"):
            gen_instance(family, **params)

    @pytest.mark.parametrize("family,params,key", [
        ("flat_k", {"n": 3, "k": 1.5}, "k"),
        ("spike", {"n": 2.9}, "n"),
        ("spike", {"n": True}, "n"),
        ("flat_k", {"n": 3, "k": True}, "k"),
        ("geometric", {"n": 3.0, "r": 0.5}, "n"),
        ("seller_spike", {"n": "4"}, "n"),
    ])
    def test_non_integer_size_rejected(self, family, params, key):
        with pytest.raises(ValueError, match=f"needs an integer {key}"):
            gen_instance(family, **params)

    def test_numpy_integer_sizes_accepted(self):
        inst = gen_instance("flat_k", n=np.int64(4), k=np.int32(2))
        assert inst == gen_instance("flat_k", n=4, k=2)

    def test_zero_denominator_parameter(self):
        with pytest.raises(InvalidInstanceError, match="zero denominator"):
            parse_family_spec("geometric:n=3,r=1/0")


class TestSizeArguments:
    @pytest.mark.parametrize("entry,bad", [
        ("simulate_trials", True),
        ("simulate_workers", 1.0),
        ("delta_mu", 2.5),
        ("delta_gap_closed_form", 2.5),
        ("alg2_holder_prob_i", True),
        ("alg2_holder_prob_mu", 1.5),
        ("alg3_pi_parts_i", True),
        ("alg3_pi_parts_n", 2.5),
        ("alg3_report", 2.5),
        ("unimodality_f", 3.5),
        ("build_strong_primal", 2.5),
        ("build_weak_primal", 3.0),
        ("strong_dual_certificate", 10.5),
        ("weak_dual_certificate", 10.5),
    ])
    def test_non_integer_rejected(self, entry, bad):
        with pytest.raises(ValueError, match="needs an integer"):
            SIZED[entry](bad)

    @pytest.mark.parametrize("entry", sorted(SIZED))
    def test_numpy_integer_accepted(self, entry):
        # repr also tells a stored np.int64(3) from 3
        assert repr(SIZED[entry](np.int64(3))) == repr(SIZED[entry](3))

    def test_simulate_trials_written_as_int(self):
        report = simulate("alg1", SPIKE3, np.int32(7), 1)
        doc = json.loads(json.dumps(report.to_json_dict(), sort_keys=True,
                                    indent=2))
        assert type(doc["trials"]) is int and doc["trials"] == 7

    @pytest.mark.parametrize("entry,low,least", [
        ("delta_mu", 0, 1), ("unimodality_f", 1, 2),
        ("strong_dual_certificate", 1, 2), ("alg3_pi_parts_n", 0, 1),
        ("alg2_holder_prob_mu", 0, 1), ("build_weak_primal", 0, 1),
    ])
    def test_lower_bound_named(self, entry, low, least):
        with pytest.raises(ValueError, match=f" >= {least}, got {low}$"):
            SIZED[entry](low)


class TestInstanceJson:
    def test_round_trip_with_fractions(self):
        inst = Instance((1, Fraction(1, 2)), Fraction(1, 4))
        doc = inst.to_json_dict()
        assert doc == {"buyer_prices": [1, "1/2"], "seller_price": "1/4"}
        again = load_instance(doc)
        assert again.buyer_prices == inst.buyer_prices
        assert again.seller_price == inst.seller_price

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"buyer_prices": [2, 1], "seller_price": 0.5}))
        inst = load_instance(str(path))
        assert inst.buyer_prices == (2, 1)
        assert inst.seller_price == 0.5

    def test_spec_grammar(self, tmp_path, monkeypatch):
        # inline JSON first, then a known family name before ":", then a path
        assert (load_instance('{"buyer_prices": [1], "seller_price": 0}')
                == Instance((1,), 0))
        assert (load_instance("flat_k:n=10,k=3")
                == parse_family_spec("flat_k:n=10,k=3"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "market:n=3").write_text(
            json.dumps({"buyer_prices": [2], "seller_price": 1}))
        assert load_instance("market:n=3") == Instance((2,), 1)
        with pytest.raises(FileNotFoundError):
            load_instance("spike")  # no ":", so a path

    def test_zero_denominator_price(self):
        with pytest.raises(InvalidInstanceError, match="zero denominator"):
            load_instance({"buyer_prices": [1], "seller_price": "1/0"})

    def test_missing_field(self):
        with pytest.raises(InvalidInstanceError):
            load_instance({"buyer_prices": [1]})

    @pytest.mark.parametrize("text,message", [
        ("1e-999999999", "has an exponent past 4300"),
        ("1e-5000", "has an exponent past 4300"),
        ("1e-4300", "has more than 4300 digits"),
        ("9" * 4000 + "e1000", "has more than 4300 digits"),
    ])
    def test_huge_price_string(self, text, message):
        # Fraction expands an exponent into an exact integer (minutes for
        # the first), and Instance.digest writes no 4301-digit integer
        began = time.perf_counter()
        with pytest.raises(InvalidInstanceError,
                           match=re.escape(f"price {text!r} {message}")):
            load_instance({"buyer_prices": [1], "seller_price": text})
        assert time.perf_counter() - began < 0.5

    @pytest.mark.parametrize("text", [
        "1" * 5000, "1/" + "3" * 4301, "0." + "1" * 4301, "1_" * 4300 + "1",
    ])
    def test_digit_run_past_the_cap(self, text):
        # int() would refuse the run with its own message, naming no price
        with pytest.raises(InvalidInstanceError, match=re.escape(
                f"price {text[:20]!r}... has more than 4300 digits")):
            load_instance({"buyer_prices": [1], "seller_price": text})

    def test_family_parameter_errors_keep_their_wording(self):
        # a size goes through int(), a ratio with "/" through the price rule
        for item in ("r=x/y", "r=1/2/3", "r=1e5000/2", "n=" + "1" * 5000):
            with pytest.raises(ValueError, match=re.escape(
                    f"bad family parameter {item!r}")):
                parse_family_spec(f"geometric:{item}")
        ratio = "1/" + "3" * 5000
        with pytest.raises(InvalidInstanceError, match=re.escape(
                f"price {ratio[:20]!r}... has more than 4300 digits")):
            parse_family_spec(f"geometric:n=3,r={ratio}")

    def test_price_string_at_the_digit_cap(self):
        inst = load_instance({"buyer_prices": ["1e-4299", "1e4299"],
                              "seller_price": "1E+4_299"})
        assert inst.buyer_prices == (Fraction(1, 10**4299), 10**4299)
        assert inst.seller_price == 10**4299
        inst = load_instance({"buyer_prices": ["9" * 4300, "1_" * 4299 + "1"],
                              "seller_price": "1/" + "7" * 4300})
        assert inst.buyer_prices == (10**4300 - 1, (10**4300 - 1) // 9)
        assert len(inst.digest()) == 16

    def test_deeply_nested_file(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text("[" * 3000 + "]" * 3000)
        with pytest.raises(InvalidInstanceError, match="nests too deeply"):
            load_instance(str(path))

    def test_digest_stable(self):
        a = Instance((1, 2), 0).digest()
        b = Instance((1, 2), 0).digest()
        c = Instance((2, 1), 0).digest()
        assert a == b != c


class TestThresholds:
    def test_valid(self):
        th = Thresholds(0.2, 0.7)
        assert (th.t1, th.t2) == (0.2, 0.7)

    @pytest.mark.parametrize("t1,t2", [(-0.1, 0.5), (0.6, 0.5), (0.5, 1.2)])
    def test_invalid(self, t1, t2):
        with pytest.raises(ValueError):
            Thresholds(t1, t2)

    @pytest.mark.parametrize("t1,t2", [(True, True), (0.2, True), ("0.2", 0.7),
                                       (None, 0.7), (0.2, 0.7j),
                                       (Decimal("0.2"), 0.7)])
    def test_non_real_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="Thresholds needs a real t[12]"):
            Thresholds(t1, t2)

    def test_kept_as_floats(self):
        th = Thresholds(np.float32(0.3), Fraction(4, 5))
        assert type(th.t1) is float and type(th.t2) is float
        assert (th.t1, th.t2) == (float(np.float32(0.3)), 0.8)
        json.dumps(alg3_report(3, th).to_json_dict())
        assert Thresholds(0, 1) == Thresholds(0.0, 1.0)
