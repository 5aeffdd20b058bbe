"""Simulator and analysis toolkit for a QKD protocol whose receiver encodes
in the photon's path and measures with an untrusted single-photon Bell-state
analyzer.

The library is organized bottom-up:

- qstate:   tiny complex linear algebra (pure states, density matrices)
- encoding: BB84 polarization states, the path-encoding network, and the
            virtual-protocol identities behind the security argument
- bsm:      ideal and mode-network Bell measurement, the click table, the
            sift rule and the per-detector routes
- channel:  Poisson photon statistics and lossy fiber
- rates:    analytic yields, secret key rate, intensity optimization,
            distance sweeps, and the two-detector reference system
- session:  vectorized Monte Carlo of full protocol runs
- verify:   the model consistency checks
- cli:      batch front end (``ddiqkd`` command)
"""

from .bsm import (
    click_table,
    ideal_bsm_distribution,
    mode_network_distribution,
    theory_table,
)
from .channel import poisson_pn, transmittance
from .encoding import (
    ALICE_SETTINGS,
    PATH_SETTINGS,
    Basis,
    Bb84Setting,
    PathSetting,
    VirtualSource,
    bb84_state,
    hybrid_bell_expand,
    rho_alice,
    rho_bob,
)
from .qstate import DensityMatrix, PureState, max_trace_distance, trace_distance
from .rates import (
    KeyRateCurve,
    RateParams,
    SecurityRegime,
    YieldTable,
    bb84_reference_rate,
    key_rate,
    keyrate_curve,
    optimize_mu,
    security_regime,
    yield_table,
)
from .session import SessionParams, SessionReport, run_session

__version__ = "0.1.0"
