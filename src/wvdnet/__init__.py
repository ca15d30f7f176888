"""Audio classification through quadratic time-frequency images.

Pipeline: channel averaging, anti-alias decimation, analytic transform,
lag-windowed quadratic time-frequency image, bilinear resize, min-max
normalization, then a small from-scratch CNN. See the CLI (`wvdnet`) for the
end-to-end commands.
"""

from .analytic import ComplexSignal, analytic_signal
from .config import RunConfig, build_config, config_hash
from .datasets import (
    ArrayStore,
    ClipRecord,
    DatasetManifest,
    decode_wav,
    load_manifest,
    load_store,
    preprocess_dataset,
    read_wav,
    split_indices,
)
from .errors import ConfigError, DataError
from .evaluation import (
    EvalReport,
    StreamPrediction,
    compute_report,
    evaluate,
    render_report,
    stream_infer,
)
from .neuralnet import (
    Network,
    NetworkConfig,
    TrainConfig,
    load_checkpoint,
    predict,
    reference_config,
    save_checkpoint,
    softmax_cross_entropy,
    train,
)
from .pipeline import clip_to_image, working_rate_hz
from .signal_core import (
    Signal,
    average_channels,
    decimate,
    design_lowpass,
    pad_or_truncate,
    snap_decimation_rate,
)
from .tfd import (
    LagWindow,
    TFDImage,
    hamming_lag_window,
    image_from_csv,
    image_to_csv,
    image_to_png_bytes,
    normalize_image,
    pseudo_wvd,
    rectangular_lag_window,
    resize_bilinear,
    wvd,
    wvd_time_marginal,
)

__version__ = "0.1.0"
