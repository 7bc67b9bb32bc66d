"""Online-trading lab for secretary-style markets.

One seller and n buyers arrive in uniformly random order; an intermediary
that can buy once and sell once tries to leave the item with the
highest-priced agent.  The package implements the three online policies
for this market, their exact success probabilities (closed form and
quadrature), exhaustive rational oracles for small n, LP dual
certificates for the matching impossibility bounds, and a seeded
Monte Carlo harness that ties everything together.
"""

from .benchmarks import strong_opt, weak_opt_expected, weak_opt_given_order
from .exact import (Alg3ExactReport, MonotonicityThresholds,
                    StrongExactReport, UnimodalityReport, alg2_holder_prob,
                    alg3_p1_limit, alg3_p2_limit, alg3_pi_finite,
                    alg3_pi_parts, alg3_ratio, alg3_report, alg3_sale_prob,
                    delta_limit, delta_limit_quadrature, delta_mu,
                    mono_thresholds, optimize_thresholds, strong_ratio_limit,
                    unimodality_f)
from .lp import (LinearProgram, PrimalSolution, StrongDualCertificate,
                 WeakDualCertificate, build_strong_primal, build_weak_primal,
                 simplex_solve, strong_dual_certificate,
                 verify_dual_feasibility, weak_dual_certificate)
from .model import (ArrivalSample, Instance, RankedInstance, Thresholds,
                    TradeOutcome, canonicalize, gen_instance, load_instance)
from .oracle import (Alg2Distribution, enumerate_alg2_exact,
                     enumerate_weak_opt_exact)
from .policies import (PolicyEvent, PolicyState, alg1_step, alg2_step,
                       alg3_step, make_policy, run_episode)
from .simulate import SimulationReport

# ``sectrade.simulate`` stays the module: import the function itself with
# ``from sectrade.simulate import simulate``.

__version__ = "0.1.0"

__all__ = [
    "Alg2Distribution", "Alg3ExactReport", "ArrivalSample", "Instance",
    "LinearProgram", "MonotonicityThresholds", "PolicyEvent", "PolicyState",
    "PrimalSolution", "RankedInstance", "SimulationReport",
    "StrongDualCertificate", "StrongExactReport", "Thresholds",
    "TradeOutcome", "UnimodalityReport", "WeakDualCertificate",
    "alg1_step", "alg2_step", "alg2_holder_prob", "alg3_p1_limit",
    "alg3_p2_limit", "alg3_pi_finite", "alg3_pi_parts", "alg3_ratio",
    "alg3_report", "alg3_sale_prob", "alg3_step", "build_strong_primal",
    "build_weak_primal", "canonicalize", "delta_limit",
    "delta_limit_quadrature", "delta_mu", "enumerate_alg2_exact",
    "enumerate_weak_opt_exact", "gen_instance", "load_instance",
    "make_policy", "mono_thresholds", "optimize_thresholds", "run_episode",
    "simplex_solve", "strong_dual_certificate", "strong_opt",
    "strong_ratio_limit", "unimodality_f", "verify_dual_feasibility",
    "weak_dual_certificate", "weak_opt_expected", "weak_opt_given_order",
]
