"""Repeatable classical one-time-pad over simulated single-photon qubits.

An exact 1-2 qubit simulator, the six-step pad-reuse crypto session, pluggable
eavesdropping attacks, and the information-theoretic bounds that limit what an
individual attack can learn.
"""

from .adversary import (
    AttackModel,
    EveRecord,
    IndividualUTB,
    InterceptResend,
    IRStrategy,
    KnownPlaintext,
    NoAttack,
    attack_photon,
    intercept_resend,
    known_plaintext_infer,
    utb_intercept,
)
from .analysis import (
    ErrorSubset,
    d_of_theta,
    empirical_error_rate,
    empirical_mutual_information,
    epsilon_tilde_min,
    i0_bound,
    i1_bound,
    joint_counts,
    phi,
    run_photon_batch,
    small_dm_linear_bound,
    sweep_theta,
)
from .errors import PadExhaustedError, PoleError, ProtocolViolationError
from .keystore import (
    BasisKeySequence,
    PadKey,
    draw_basis_keys,
    generate_pad,
    load_pad,
    recycle_pad,
    save_pad,
)
from .protocol import (
    ErrorReport,
    ModifiedMessage,
    SessionConfig,
    SessionTranscript,
    build_modified_message,
    eavesdrop_check,
    run_session,
)
from .quantum import (
    Basis,
    BasisKeyPair,
    EncodingOp,
    KET_D,
    KET_H,
    KET_U,
    KET_V,
    StateVector,
    apply_encoding,
    measure,
    measure_photon_of_joint,
    state_from_basis_key,
    states_equal_up_to_phase,
    utb_apply,
)
from .rng import make_rng, role_seed

__version__ = "0.1.0"
