"""fwcsim: fiber-wireless fronthaul simulator.

Quantifies how BBoF/IFoF/RFoF optical fronthauls (attenuation, chromatic
dispersion fading, noise, per-node power) interact with UDN and cell-free
wireless throughput under a total power budget, plus mixed digital-optical
(true time-delay) beamforming for distributed arrays.
"""

from .beamform import (
    ArrayGeometry,
    BeamformerSpec,
    beam_squint_direction,
    coherent_within_symbol,
    mixed_beamformer,
    peak_directions,
    phase_only_weights,
    sync_delays,
    ttd_weights,
)
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    DegenerateChannelError,
    FwcError,
    InfeasibleBudgetError,
    NoRealBeamError,
    NullSentinelError,
    UndefinedModelError,
    ValidationError,
)
from .geometry import (
    distance_matrix,
    generate_layout,
    udn_association,
)
from .optics import (
    FiberParams,
    Scheme,
    SchemeParams,
    attenuation_db,
    dcf_compensation_length,
    dispersion_fading_db,
    fronthaul_snr_db,
    null_lengths,
    recovery_lengths,
)
from .power import (
    PowerBreakdown,
    PowerParams,
    crossover_length,
    pa_input_power,
    solve_tx_power,
    system_power,
)
from .sweeps import (
    run_beam_pattern,
    run_dispersion_sweep,
    run_power_sweep,
    run_throughput_sweep,
)
from .wireless import (
    ChannelModel,
    OverheadModel,
    bbof_per_rap_cap_bps,
    cellfree_sinr_components,
    combine_fronthaul_noise,
    draw_channels,
    sinr_from_components,
    sum_throughput,
    udn_sinr_components,
)

__version__ = "0.1.0"
