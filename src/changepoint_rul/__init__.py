"""Device-level degradation change-point detection and RUL estimation.

Workflow: parse multivariate sensor logs, monitor each device's local
temporal dynamics through canonical-variate statistics against KDE control
limits, locate the cycle where degradation permanently sets in, derive
piecewise RUL labels from it, and train a windowed LSTM regressor on them.
"""

from .cmapss import (
    EngineSeries,
    RulTarget,
    SensorSelection,
    apply_selection,
    load_rul_targets,
    parse_cmapss_file,
    select_sensors,
)
from .config import PipelineConfig, default_config, load_config
from .cva import (
    CvaModel,
    LaggedMatrices,
    Standardizer,
    apply_standardizer,
    build_lagged_matrices,
    build_past_matrix,
    fit_cva,
    fit_standardizer,
    project,
)
from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    IntegrityError,
    NumericError,
    ParseError,
    PipelineError,
    ShapeError,
)
from .labeling import (
    RulLabelSpec,
    WindowedDataset,
    piecewise_rul_labels,
    pooled_standardizer,
    sliding_windows,
    trailing_window,
)
from .lstm import (
    LstmRegressor,
    TrainConfig,
    adam_step,
    init_regressor,
    load_checkpoint,
    loss_and_gradients,
    predict,
    predict_batch,
    rmsprop_step,
    save_checkpoint,
    train,
)
from .metrics import (
    EvalReport,
    evaluate_predictions,
    format_metrics_row,
    rmse,
    score_function,
    score_term,
)
from .monitoring import (
    ChangePointResult,
    MonitorModel,
    StatisticSeries,
    compute_lambda,
    compute_statistics,
    detect_change_point,
    fit_device_monitor,
    kde_control_limit,
    statistic_trace,
    validate_normal_window,
)
from .pipeline import run_detect, run_evaluate, run_sweep, run_train
from .streaming import StreamMonitor, run_monitor

__version__ = "0.1.0"
