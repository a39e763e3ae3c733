"""Repeatable classical one-time-pad over simulated single-photon qubits.

A photon channel simulator that samples each attack's exact law, the six-step
pad-reuse crypto session, pluggable eavesdropping attacks, and the
information-theoretic bounds that limit what an individual attack can learn.
"""

from .adversary import AttackModel, IndividualUTB, InterceptResend, NoAttack
from .analysis import (
    PoleError,
    d_of_theta,
    empirical_mutual_information,
    epsilon_tilde_min,
    i0_bound,
    i1_bound,
    phi,
    small_dm_linear_bound,
    sweep_theta,
)
from .kernels import Basis, cell_probabilities
from .keystore import PadKey, generate_pad, load_pad
from .protocol import (
    ErrorReport,
    PadExhaustedError,
    SessionConfig,
    SessionTranscript,
    run_lineage,
    run_session,
)
from .rng import make_rng, role_seed

__version__ = "0.1.0"
