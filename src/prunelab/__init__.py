"""prunelab: a desk-scale laboratory for lottery-ticket pruning experiments."""

__version__ = "0.1.0"

from .checks import (
    CHECK_NAMES,
    corrupt_both,
    corrupt_labels,
    corrupt_pixels,
    half_dataset,
    rearrange_mask_layerwise,
    shuffle_unmasked_weights,
)
from .data import DataSplit, Dataset, load_dataset, synthetic_blobs
from .engine import (
    backward,
    forward_logits,
    forward_loss,
    hessian_vector_product,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DatasetError,
    DegenerateGradientError,
    DomainError,
    EmptyNetworkError,
    InfeasibleSparsityError,
    NumericsError,
    PrunelabError,
    TrainingDivergedError,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    config_hash,
    emit_report,
    load_config,
    parse_rows,
    run_experiment,
    summarize,
)
from .models import (
    ArchFamily,
    LayerSpec,
    LayeredParams,
    accuracy,
    build_network,
    layer_sizes,
    preset_specs,
)
from .pipelines import (
    CellResult,
    Ticket,
    TrainConfig,
    TrainResult,
    apply_structural_check,
    build_ticket,
    learning_rate_at,
    load_ticket,
    replay_ticket,
    run_cell,
    save_ticket,
    score_batch,
    train,
)
from .pruning import (
    Mask,
    ScoreMap,
    full_mask,
    grasp_scores,
    keep_ratios,
    magnitude_scores,
    mask_from_scores_global,
    mask_from_scores_layerwise,
    random_mask_from_schedule,
    snip_scores,
    sparsity,
)
from .schedules import (
    KeepRatioSchedule,
    schedule_by_name,
    smart_ratio,
    smart_raw_weights,
)
