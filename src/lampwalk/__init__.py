"""Random walks on products of lamplighter groups at desk scale.

The package builds the level schedules that couple two lamplighter factors
through switcher elements and skew-box Folner sets, samples the induced
heavy-tailed walk, verifies the finitary structure (switchers, unique window
decompositions, record stabilization) by exact enumeration and certified
bounds, reads tail freeness off the group law once a tail shows an entry at
a translate's membership level, and bounds the marginal TV displacement.
"""

__version__ = "0.1.0"

from .groups import (
    AbelianControlElement,
    GroupDescriptor,
    LamplighterElement,
    ProductElement,
    abelian_control_group,
    decode,
    encode,
    enumerate_elements,
    inverse,
    lamplighter_group,
    multiply,
    product_group,
    word_ball,
)
from .setalg import (
    BoundCertificate,
    ExplicitSet,
    SkewBox,
    certify,
    certify_power,
    certify_product,
    explicit,
    folner_for,
    power_set,
    product_set,
    skewbox_overlap,
    symmetrize,
    verify_folner,
)
from .switchers import (
    SwitcherReport,
    analytic_switcher,
    find_switcher_bfs,
    is_superswitcher,
    is_switcher,
)
from .construction import Config, Construction, Level
from .sampling import (
    CoupledStep,
    KDistribution,
    Trajectory,
    pmf_eval,
    sample_x,
    sample_y,
    walk,
)
from .analysis import (
    Decomposition,
    RecordReport,
    TailSequence,
    analyze_records,
    check_nontriviality_conditions,
    decompose_oracle,
    decompose_tracked,
    detect_stabilization,
    freeness_test,
    p_map,
    rank_tracked,
    tau_extract,
)
from .tvbound import (
    SparsePMF,
    TVBoundReport,
    certified_marginal_bound,
    convolve,
    exact_marginal,
    tv,
)
