"""Cascaded two-system quantum dynamics with wave-packet transformation.

Subpackages by concern:

* hilbert    -- dense operator algebra on small Hilbert spaces
* cascade    -- Lindblad generators and master-equation integration
* trajectory -- Monte-Carlo wave-function unraveling
* wavepacket -- envelopes, the reversing transformation, time maps
* transfer   -- single-excitation state-transfer experiment
* cli        -- config-driven experiments with CSV/SVG artifacts
"""

from .cascade import (
    CascadeModel,
    IntegrationAbort,
    MasterRun,
    build_h0,
    build_h_eff,
    build_h_ex,
    build_jump_operator,
    integrate_master,
)
from .trajectory import TrajectoryConfig, ensemble_average
from .transfer import (
    TransferResult,
    drive_system2,
    emit_envelope,
    transfer_experiment,
)
from .wavepacket import (
    Envelope,
    PhaseTag,
    TransformSpec,
    apply_u_time_domain,
    derive_transform_params,
    time_map,
    time_map_inverse,
)

__version__ = "0.1.0"
