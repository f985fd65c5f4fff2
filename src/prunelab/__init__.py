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
    finite_diff_gradient,
    forward_logits,
    forward_loss,
    hessian_vector_product,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DatasetError,
    DegenerateGradientError,
    DegenerateStepError,
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
    predict,
    preset_specs,
)
from .pipelines import (
    CellResult,
    Checkpoint,
    SuiteReport,
    Ticket,
    TrainConfig,
    TrainResult,
    apply_structural_check,
    best_accuracy,
    build_ticket,
    iterative_magnitude_prune,
    learning_rate_at,
    load_checkpoint,
    load_ticket,
    make_hybrid_ticket,
    make_initial_ticket,
    make_lr_rewind_ticket,
    make_lt_ticket,
    make_random_ticket,
    make_weight_rewind_ticket,
    replay_ticket,
    rewind_weights,
    run_cell,
    run_sanity_suite,
    save_checkpoint,
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
    ablation_schedule,
    extract_schedule,
    schedule_by_name,
    smart_ratio,
    smart_raw_weights,
)
