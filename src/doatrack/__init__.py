"""Sound-source localization and tracking toolkit.

Microphone-array DOA estimation (GCC-PHAT, SRP-PHAT, MUSIC,
pseudo-intensity; each takes a recording's `Blocks` and returns one array
with a row per block, NaN where it skipped a block), azimuth tracking
(Kalman and particle filter; wrapped Kalman per track), a free-field scene
simulator, and an evaluation harness with gated association,
detection/latency/fragmentation measures, and OSPA.
"""

__version__ = "0.1.0"

from .geometry import (ArrayGeometry, DegenerateGeometryError, Doa, Pose,
                       Trajectory, TrajectoryError, doa_to_unit_vector, get_array_preset,
                       global_to_local, identity_pose, interpolate_pose,
                       sample_trajectory, static_trajectory, unit_vector_to_doa,
                       wrap_angle)
from .sigproc import (Blocks, CrossSpectrum, MultichannelAudio, Stft, block_cross_spectra,
                      cross_power_spectrum, frame_energies, frame_signal, pair_cross_spectra)
from .localize import (BlockTdoas, DoaEstimate, DoaGrid, NoSignalError, TdoaEstimate,
                       UnsupportedGeometryError, azimuth_grid, expected_tdoa,
                       farfield_pair_tdoa, gcc_phat, music_spectrum,
                       pseudo_intensity, srp_phat, tdoa_to_azimuth)
from .assignment import gated_assignment, min_cost_assignment
from .track import (FilterDivergenceError, ParticleSet, PfParams, TrackerConfig,
                    TrackState, WrappedMixture, kf_predict, kf_update, pf_step,
                    systematic_resample, track_lifecycle, wrapped_kf_predict,
                    wrapped_kf_update)
from .simulate import Scene, SceneConfig, SourceConfig, synthesize, task_preset
from .evaluate import (MetricsReport, OspaParams, Submission, VapTable,
                       align_vaps, angular_errors, compute_metrics,
                       detect_fragmentation, evaluate_submission,
                       gate_and_associate, ospa, ospa_series)
from .corpus_io import (CorpusFormatError, RecordingBundle, bundle_from_scene,
                        read_recording, read_submission, write_recording,
                        write_submission)
