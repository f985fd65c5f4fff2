"""Outside-in span tracer for prunelab's public functions.

Each target names a public function as "<module>.<function>".  Installing a
target wraps the function object and puts the wrapper in place of that exact
object in every prunelab module that holds it, so both
`pipelines.forward_loss` (a from-import) and `engine.forward_loss` (a module
attribute) are traced.  prunelab's own files are not changed.  A target that
no longer exists is reported in `absent` instead of failing.

Spans live in memory as [target, parent, start_ns, end_ns, note] and are
summarised once the traced grid has finished.
"""

from __future__ import annotations

import importlib
import sys
import time

# Traced public functions, by layer.  Names that the planned pipelines
# refactor folds away or deletes are deliberately absent.
TARGETS = (
    "engine.forward_loss",
    "engine.backward",
    "engine.forward_logits",
    "engine.hessian_vector_product",
    "pipelines.train",
    "pipelines.build_ticket",
    "pipelines.run_cell",
    "pipelines.apply_structural_check",
    "checks.apply_data_check",
    "checks.rearrange_mask_layerwise",
    "checks.shuffle_unmasked_weights",
    "pruning.snip_scores",
    "pruning.grasp_scores",
    "pruning.magnitude_scores",
    "pruning.mask_from_scores_global",
    "pruning.mask_from_scores_layerwise",
    "pruning.random_mask_from_schedule",
    "schedules.smart_ratio",
    "schedules.schedule_by_name",
    "models.build_network",
    "models.accuracy",
    "data.load_dataset",
    "harness.run_experiment",
)
CELL = "pipelines.run_cell"
TICKET = "pipelines.build_ticket"
TRAIN = "pipelines.train"
FORWARD_LOSS = "engine.forward_loss"

# Per-call notes: the ticket kind of a cell, the batch size of a loss.
NOTES = {
    CELL: lambda args, kwargs: args[0] if args else kwargs["kind"],
    FORWARD_LOSS: lambda args, kwargs: len(args[2] if len(args) > 2 else kwargs["samples"]),
}

# Cell stages.  A span's self time counts towards the stage of its nearest
# ancestor-or-self that has one, so stages never overlap; `train` is
# pretraining inside build_ticket and retraining elsewhere.
STAGE_OF = {
    "checks.apply_data_check": "check",
    "checks.rearrange_mask_layerwise": "check",
    "checks.shuffle_unmasked_weights": "check",
    "pipelines.apply_structural_check": "check",
    "pruning.snip_scores": "score",
    "pruning.grasp_scores": "score",
    "pruning.magnitude_scores": "score",
    "pruning.mask_from_scores_global": "mask",
    "pruning.mask_from_scores_layerwise": "mask",
    "pruning.random_mask_from_schedule": "mask",
    "schedules.smart_ratio": "mask",
    "schedules.schedule_by_name": "mask",
    "models.accuracy": "eval",
}
STAGES = ("check", "score", "mask", "pretrain", "retrain", "eval")


def replace_everywhere(original, replacement, package="prunelab"):
    """Point every name bound to `original` in the package's modules at `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans = []
        self.absent = []
        self._stack = []

    def install(self):
        for i, target in enumerate(self.targets):
            module_name, func_name = target.rsplit(".", 1)
            try:
                module = importlib.import_module(f"prunelab.{module_name}")
            except ImportError:
                self.absent.append(target)
                continue
            func = getattr(module, func_name, None)
            if not callable(func):
                self.absent.append(target)
                continue
            replace_everywhere(func, self._wrap(i, func, NOTES.get(target)))
        return self

    def _wrap(self, target_id, func, note):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            try:
                noted = note(args, kwargs) if note else None
            except (LookupError, TypeError):  # a changed signature loses the note only
                noted = None
            span = [target_id, stack[-1] if stack else -1, 0, 0, noted]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        traced.__wrapped__ = func
        return traced

    def cells(self):
        """(ticket kind, start_ns, end_ns) of every run_cell call, in order."""
        if CELL not in self.targets:
            return []
        cell = self.targets.index(CELL)
        return [(s[4], s[2], s[3]) for s in self.spans if s[0] == cell]

    def summary(self):
        """Per-target calls and self time, train steps, loss samples and stage times.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent, so it is never negative.
        """
        names = self.targets
        n = len(self.spans)
        child_ns = [0] * n
        for s in self.spans:
            if s[1] >= 0:
                child_ns[s[1]] += s[3] - s[2]
        calls = dict.fromkeys(names, 0)
        self_ns = dict.fromkeys(names, 0)
        stage_ns = dict.fromkeys(STAGES, 0)
        cell_ns = steps = samples = 0
        in_cell = [False] * n
        in_ticket = [False] * n
        stage = [None] * n
        for i, (target, parent, start, end, note) in enumerate(self.spans):
            name = names[target]
            own = end - start - child_ns[i]
            calls[name] += 1
            self_ns[name] += own
            up = parent >= 0
            in_cell[i] = name == CELL or (up and in_cell[parent])
            in_ticket[i] = name == TICKET or (up and in_ticket[parent])
            if name == TRAIN:
                stage[i] = "pretrain" if in_ticket[i] else "retrain"
            else:
                stage[i] = STAGE_OF.get(name) or (stage[parent] if up else None)
            if name == CELL:
                cell_ns += end - start
            if name == FORWARD_LOSS:
                samples += note or 0
                if up and names[self.spans[parent][0]] == TRAIN:
                    steps += 1
            if in_cell[i] and stage[i]:
                stage_ns[stage[i]] += own
        return {
            "calls": calls,
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "stage_s": {k: v / 1e9 for k, v in stage_ns.items()},
            "cell_s": cell_ns / 1e9,
            "train_steps": steps,
            "loss_samples": samples,
        }
