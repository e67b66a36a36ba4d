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
    peak_directions,
    phase_only_weights,
    ttd_weights,
)
from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    FwcError,
    InfeasibleBudgetError,
    NoRealBeamError,
    NullSentinelError,
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
    fiber_axis,
    fronthaul_snr_db,
)
from .power import (
    PowerParams,
    crossover_length,
    pa_input_power,
    solve_tx_power,
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
