"""Clustered statistical mmWave MIMO channel simulator.

Seeded generation of static and time-variant wideband channel tensors for
planar arrays, with link-level spectral-efficiency evaluation under
eigen-beamforming and LMMSE reception.
"""

from .arrays import ArrayPair, PlanarArray, steering_vector
from .channel import (
    ChannelRealization,
    ClusterRealization,
    LosComponent,
    SampledChannel,
    realize_channel,
    sample_channel,
    total_tap_energy,
)
from .config import ScenarioConfig, parse_config, serialize_config, thermal_noise_variance
from .geometry import (
    SPEED_OF_LIGHT,
    LinkGeometry,
    LosGeometry,
    RayAngles,
    clip_cluster_distance,
    los_geometry,
    ray_path_length,
)
from .link import (
    BeamformerPair,
    CdfResult,
    LinkConfig,
    LinkResult,
    StackedModel,
    achievable_rate,
    build_stacked_model,
    design_beamformers,
    lmmse_operator,
    run_cdf_experiment,
)
from .propagation import (
    SCENARIOS,
    PathLossParams,
    draw_los,
    los_probability,
    path_loss_db,
    sample_shadow_fading,
    scenario_parameters,
)
from .pulse import PulseSpec, end_to_end_pulse
from .sampling import (
    RngStream,
    ar1_complex_sequence,
    sample_cluster_count,
    sample_complex_gain,
    sample_laplacian,
    sample_ray_count,
)
from .timevariant import (
    MobilitySpec,
    TimeVariantChannel,
    default_gain_correlation,
    doppler_shift,
    evolve_channel,
)

__version__ = "0.1.0"
