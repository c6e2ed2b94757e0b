"""Exact-arithmetic laboratory for market-clearing auction mechanisms.

Winner determination, the Walrasian price lattice, four payment rules over
the shared declared-welfare-maximizing allocation, and an equilibrium
analysis layer (exposure factors, grid Nash checks, welfare-ratio search),
all over exact rationals.
"""

from .money import INFINITY, format_money, parse_money
from .valuations import (
    Additive,
    Oxs,
    Tabular,
    UnitDemand,
    Valuation,
    Xos,
    budget_additive,
    demand_set,
    is_gross_substitutes,
    is_monotone_normalized,
    is_submodular,
    marginal_value,
    sample_valuation,
    valuation_from_json,
    valuation_to_json,
    xos_supporting_clause,
)
from .welfare import (
    Allocation,
    BidProfile,
    assignment_value,
    welfare_marginal,
    welfare_max,
    welfare_value,
)
from .walrasian import (
    IterationCapExceeded,
    TatonnementResult,
    WalrasianCertificate,
    max_walrasian_prices,
    min_walrasian_prices,
    tatonnement,
    verify_walrasian_equilibrium,
)
from .mechanisms import (
    MechanismOutcome,
    PaymentRule,
    allocate_declared,
    check_payment_ordering,
    run_mechanism,
    search_vcg_english_inversion,
    utility,
)
from .analysis import (
    BidGrid,
    EnumerationBudgetExceeded,
    Instance,
    NashReport,
    PoaReport,
    best_response_dynamics,
    construct_efficient_profile,
    exposure_factor_bound,
    half_clause_deviation,
    marginal_sum_bound,
    poa_search,
    smoothness_certificate,
    vcg_deviation_certificate,
    verify_nash,
)
from .instancefile import (
    InstanceFormatError,
    eval_money_expr,
    instance_from_dict,
    instance_to_dict,
    load_fixture,
    load_instance,
)

__version__ = "0.1.0"
