"""Low-rank intensity matrix recovery from Poisson-count observations."""

__version__ = "0.1.0"

from .core import (
    FeasibleRegion,
    MembershipReport,
    ObservationSet,
    membership,
    mse_per_entry,
    nuclear_norm,
    validate_region,
)
from .likelihood import (
    gradient,
    hellinger_mse_floor,
    hellinger_sq,
    hellinger_sq_matrix,
    kl,
    lipschitz_constant,
    neg_log_likelihood,
)
from .projections import (
    ProjectionReport,
    alternating_projection,
    project_box,
    project_nuclear_ball,
    svt,
)
from .solvers import (
    SolverConfig,
    SolverReport,
    init_matrix,
    solve,
    solve_apg,
    solve_pg,
    solve_pmlsv,
)
from .bounds import (
    BoundConstants,
    BoundReport,
    lower_bound,
    poisson_tail_threshold,
    tail_bound,
    upper_bound,
)
from .synth import (
    SynthesisSpec,
    TrialResult,
    make_low_rank,
    poisson_tail_check,
    run_trial,
    sample_mask,
    sample_poisson,
    sweep_m,
    verify_lemmas,
)
from .imaging import (
    ImageRecovery,
    PatchLayout,
    patchify,
    read_image,
    recover_image,
    unpatchify,
    write_image,
)
