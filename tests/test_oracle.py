from fractions import Fraction

import numpy as np
import pytest

from sectrade.benchmarks import weak_opt_expected
from sectrade.errors import SizeCapError
from sectrade.exact import alg2_holder_prob
from sectrade.model import Instance, canonicalize, gen_instance
from sectrade.oracle import (_int_instance, enumerate_alg2_exact,
                             enumerate_weak_opt_exact)


def random_rational_instance(rng, max_n=6):
    n = int(rng.integers(1, max_n + 1))
    buyers = tuple(Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 9)))
                   for _ in range(n))
    seller = Fraction(int(rng.integers(0, 12)), int(rng.integers(1, 9)))
    return Instance(buyers, seller)


# primes, so that prices over distinct ones have pairwise-coprime
# denominators; five of them multiply past 2**63
PRIMES = (10007, 10009, 10037, 10039, 10061, 10067, 10069)


def coprime_tie_instance(rng):
    """5 or 6 buyers over distinct prime denominators, and a seller tied
    with one of them: the lcm of the denominators passes 2**63."""
    n = int(rng.integers(5, 7))
    buyers = []
    for d in rng.choice(PRIMES, n, replace=False).tolist():
        k = int(rng.integers(1, 3 * d))
        buyers.append(Fraction(k + (k % d == 0), d))
    return Instance(tuple(buyers), buyers[int(rng.integers(n))])


class TestWeakOptEnumeration:
    def test_worked_example(self):
        inst = Instance((1, Fraction(1, 2)), Fraction(1, 4))
        assert enumerate_weak_opt_exact(inst) == Fraction(2, 3)

    def test_spike(self):
        assert enumerate_weak_opt_exact(gen_instance("spike", n=3)) == Fraction(1, 2)

    def test_flat_k(self):
        inst = gen_instance("flat_k", n=3, k=2)
        assert enumerate_weak_opt_exact(inst) == Fraction(2, 3)

    def test_equals_closed_form_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            inst = random_rational_instance(rng)
            assert enumerate_weak_opt_exact(inst) == weak_opt_expected(inst)

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_weak_opt_exact(gen_instance("spike", n=8))


class TestIntegerScaling:
    def test_big_denominators_match_closed_forms(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            inst = coprime_tie_instance(rng)
            scaled, scale = _int_instance(inst)
            assert scale > 2 ** 63 and scaled.buyer_array is None
            assert enumerate_weak_opt_exact(inst) == weak_opt_expected(inst)
            ranked = canonicalize(inst)
            dist = enumerate_alg2_exact(inst)
            for i in range(1, ranked.mu + 1):
                assert dist.prob_of_rank(i) == alg2_holder_prob(i, ranked.mu).p
            assert sum(dist.holder_prob.values()) == 1
            price = (0, *inst.buyer_prices, inst.seller_price)
            assert dist.expected_welfare == sum(
                p * price[h] for h, p in dist.holder_prob.items() if h)

    def test_distribution_keeps_the_given_prices(self):
        inst = Instance((Fraction(1, 3), 2, 1.0, Fraction(5, 7)),
                        Fraction(1, 3))
        dist = enumerate_alg2_exact(inst)
        exact = Instance(tuple(map(Fraction, inst.buyer_prices)),
                         Fraction(inst.seller_price))
        assert dist.instance == exact


class TestAlg2Enumeration:
    def test_worked_example(self):
        dist = enumerate_alg2_exact(Instance((1, Fraction(1, 2)), 0))
        assert dist.prob_of_rank(1) == Fraction(1, 4)
        assert dist.prob_of_rank(2) == Fraction(1, 12)

    @pytest.mark.parametrize("rank", [0, -1, 4])
    def test_rank_out_of_range(self, rank):
        dist = enumerate_alg2_exact(Instance((1, Fraction(1, 2),
                                              Fraction(1, 4)), 0))
        with pytest.raises(ValueError, match="1 <= rank <= 3"):
            dist.prob_of_rank(rank)

    def test_seller_spike(self):
        dist = enumerate_alg2_exact(gen_instance("seller_spike", n=2))
        assert dist.holder_prob[3] == Fraction(1, 2)   # seller keeps
        assert dist.holder_prob[0] == Fraction(1, 2)   # stuck intermediary
        assert dist.expected_welfare == Fraction(1, 2)

    def test_holder_law_matches_closed_form_on_families(self):
        instances = []
        for n in range(1, 6):
            instances.append(gen_instance("spike", n=n))
            instances.append(gen_instance("geometric", n=n, r=Fraction(1, 2)))
            for k in range(1, n + 1):
                instances.append(gen_instance("flat_k", n=n, k=k))
        for inst in instances:
            ranked = canonicalize(inst)
            dist = enumerate_alg2_exact(inst)
            for i in range(1, ranked.mu + 1):
                assert dist.prob_of_rank(i) == alg2_holder_prob(i, ranked.mu).p

    def test_below_seller_probability_halves(self):
        # P(final welfare < seller price) = 1/2 whenever some buyer beats
        # the seller: only the stuck intermediary ends below it
        rng = np.random.default_rng(77)
        for _ in range(15):
            inst = random_rational_instance(rng, max_n=4)
            ranked = canonicalize(inst)
            if ranked.mu == 0 or inst.seller_price == 0:
                continue
            dist = enumerate_alg2_exact(inst)
            assert dist.holder_prob.get(0, Fraction(0)) == Fraction(1, 2)

    def test_denominators_divide_twice_factorial(self):
        import math
        inst = gen_instance("geometric", n=4, r=Fraction(1, 3))
        dist = enumerate_alg2_exact(inst)
        bound = 2 * math.factorial(5)
        for prob in dist.holder_prob.values():
            assert bound % prob.denominator == 0

    def test_weak_ratio_exactly_two_on_families(self):
        for family, params in (("spike", {"n": 5}),
                               ("flat_k", {"n": 5, "k": 3}),
                               ("seller_spike", {"n": 4}),
                               ("geometric", {"n": 4, "r": Fraction(1, 2)})):
            inst = gen_instance(family, **params)
            opt = enumerate_weak_opt_exact(inst)
            alg = enumerate_alg2_exact(inst).expected_welfare
            assert opt == 2 * alg

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_alg2_exact(gen_instance("spike", n=7))

    def test_float_prices_rejected_unless_integral(self):
        with pytest.raises(ValueError):
            enumerate_alg2_exact(Instance((0.3, 1.0), 0))
        dist = enumerate_alg2_exact(Instance((2.0, 1.0), 0))
        assert dist.prob_of_rank(1) == Fraction(1, 4)
