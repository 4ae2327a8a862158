"""Model fitting: minibatch Adam with early stopping, plus the two-axis
sensitivity search.

Routing and weight updates interleave at batch granularity: every
forward pass reruns the routing iterations, and Adam applies one update
per minibatch from gradients of the squared-error loss.  Training
optimizes labels divided by ``label_scale`` (the rul ceiling, by
default), which keeps the loss surface well scaled; reported losses are
in the scaled space and predictions are unscaled on the way out.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import network
from .evaluation import rmse, scoring_function
from .features import FrameBatch, sequence_index
from .optim import Adam
from .tensor import Tensor, backward

__all__ = [
    "TrainConfig",
    "TrainReport",
    "build_sequences",
    "split_unit_ids",
    "train",
    "GridCell",
    "GridResult",
    "sensitivity_grid",
]

log = logging.getLogger("slowcaps.training")


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 64
    learning_rate: float = 1e-3
    patience: int = 10
    min_delta: float = 1e-4
    validation_fraction: float = 0.1
    label_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        problems = []
        if self.epochs < 1:
            problems.append(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            problems.append(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate < 0:
            problems.append("learning_rate must be >= 0")
        if self.patience < 1:
            problems.append("patience must be >= 1")
        if self.min_delta < 0:
            problems.append("min_delta must be >= 0")
        if not 0.0 < self.validation_fraction < 1.0:
            problems.append("validation_fraction must be in (0, 1)")
        if self.label_scale <= 0:
            problems.append("label_scale must be positive")
        if problems:
            raise ValueError("invalid train config: " + "; ".join(problems))


@dataclass
class TrainReport:
    """Per-epoch losses (scaled-label MSE) and stopping bookkeeping."""

    train_loss: list[float]
    val_loss: list[float]
    best_epoch: int
    stopped_early: bool
    parameter_count: int
    train_sequences: int
    val_sequences: int
    label_scale: float


def build_sequences(
    frames: np.ndarray,
    labels: np.ndarray,
    unit_ids: np.ndarray,
    length: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack the ``features.sequence_index`` runs of frames; each sample
    is labeled by its final frame."""
    idx = sequence_index(unit_ids, length)
    ends = idx[:, -1]
    return np.asarray(frames)[idx], np.asarray(labels)[ends], np.asarray(unit_ids)[ends]


def split_unit_ids(
    unit_ids: list,
    fraction: float,
    rng: np.random.Generator,
) -> tuple[list, list]:
    """Shuffle unit ids and hold out round(fraction * n), at least one."""
    uids = list(unit_ids)
    if len(uids) < 2:
        raise ValueError("need at least two units to split off validation")
    n_val = int(round(fraction * len(uids)))
    n_val = min(max(n_val, 1), len(uids) - 1)
    order = rng.permutation(len(uids))
    val = {uids[i] for i in order[:n_val]}
    return [u for u in uids if u not in val], [u for u in uids if u in val]


def _split_sequences(unit_ids, length: int, val_set) -> tuple[np.ndarray, np.ndarray]:
    """``features.sequence_index`` split into (training, validation) rows
    by the unit of each sequence's final frame."""
    idx = sequence_index(unit_ids, length)
    in_val = np.asarray([u in val_set for u in np.asarray(unit_ids)[idx[:, -1]]])
    return idx[~in_val], idx[in_val]


def _forward_loss(frames, index, y_scaled, params, config, mode, rng):
    """Scaled-label MSE of the sequences ``index`` picks from ``frames``;
    votes and routing run once per distinct frame, and the stages before
    them once per distinct patch."""
    pred, _ = network.model_forward(frames, params, config, mode=mode, rng=rng, index=index)
    return network.mse_loss(pred, y_scaled)


def train(
    config: network.ModelConfig,
    batch: FrameBatch,
    cfg: TrainConfig,
    val_units: list | None = None,
) -> tuple[dict[str, Tensor], TrainReport]:
    """Fit the model on a frame batch; returns best-validation parameters.

    The validation split holds out whole units so no frame of a unit
    appears on both sides.  Early stopping watches validation MSE with
    the configured patience and minimum improvement, and the parameters
    from the best validation epoch are returned regardless of where
    training stopped.  Everything is driven by ``cfg.seed``: repeated
    calls are bit-identical.
    """
    root = np.random.SeedSequence(cfg.seed)
    ss_init, ss_split, ss_shuffle, ss_dropout = root.spawn(4)
    units = batch.units()
    if val_units is None:
        _, val_units = split_unit_ids(
            units, cfg.validation_fraction, np.random.default_rng(ss_split)
        )
    val_set = set(val_units)
    train_units = [u for u in units if u not in val_set]
    if not train_units or not val_set:
        raise ValueError("unit split left one side empty")

    idx_tr, idx_va = _split_sequences(batch.unit_ids, config.sequence_length, val_set)
    if idx_tr.shape[0] == 0 or idx_va.shape[0] == 0:
        raise ValueError("training or validation side has no sequences")
    ys_tr = batch.labels[idx_tr[:, -1]] / cfg.label_scale
    ys_va = batch.labels[idx_va[:, -1]] / cfg.label_scale

    params = network.init_parameters(config, np.random.default_rng(ss_init))
    adam = Adam(params, lr=cfg.learning_rate)
    shuffle_rng = np.random.default_rng(ss_shuffle)
    dropout_rng = np.random.default_rng(ss_dropout)

    train_losses: list[float] = []
    val_losses: list[float] = []
    best_val = np.inf
    best_epoch = 0
    best_snapshot = {k: t.data.copy() for k, t in params.items()}
    stale = 0
    stopped_early = False
    n_tr = ys_tr.size
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n_tr)
        sse = 0.0
        for lo in range(0, n_tr, cfg.batch_size):
            sel = order[lo : lo + cfg.batch_size]
            try:
                loss = _forward_loss(batch.frames, idx_tr[sel], ys_tr[sel], params,
                                     config, "train", dropout_rng)
                adam.zero_grad()
                backward(loss)
                adam.step()
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"training diverged at epoch {epoch}, batch {lo // cfg.batch_size}: {exc}"
                ) from None
            sse += loss.item() * sel.size
        train_losses.append(sse / n_tr)
        d = network.predict(batch.frames, params, config, index=idx_va) - ys_va
        val_mse = float(d @ d) / ys_va.size
        val_losses.append(val_mse)
        if val_mse < best_val - cfg.min_delta:
            best_val = val_mse
            best_epoch = epoch
            best_snapshot = {k: t.data.copy() for k, t in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                stopped_early = True
                log.info("early stop at epoch %d (best epoch %d)", epoch, best_epoch)
                break
    for k, t in params.items():
        t.data[...] = best_snapshot[k]
    report = TrainReport(
        train_loss=train_losses,
        val_loss=val_losses,
        best_epoch=best_epoch,
        stopped_early=stopped_early,
        parameter_count=network.parameter_count(params),
        train_sequences=int(n_tr),
        val_sequences=int(ys_va.size),
        label_scale=cfg.label_scale,
    )
    return params, report


@dataclass
class GridCell:
    conv_filters: int
    lstm_units: int
    rmse: float
    score: float
    seed: int
    best_epoch: int


@dataclass
class GridResult:
    best: GridCell
    cells: list[GridCell] = field(default_factory=list)


def _cell_seed(base_seed: int, filters: int, units: int) -> int:
    return int(np.random.SeedSequence([base_seed, filters, units]).generate_state(1)[0])


def sensitivity_grid(
    filter_candidates,
    unit_candidates,
    batch: FrameBatch,
    config_for: Callable[[int, int], network.ModelConfig],
    cfg: TrainConfig,
    explore: str = "greedy",
) -> GridResult:
    """Two-axis search over convolution filters and LSTM width.

    ``config_for(filters, lstm_units)`` supplies each cell's model; the
    cell's row and seed keep the candidate values even where the config
    adjusts them (say, bumping filters to a multiple of the capsule
    dimension).  Candidate lists are scanned in order (customarily
    multiples of 8 starting at 8).  Each cell trains from a seed derived
    from the base seed and the cell coordinates, always against the same
    validation units, and is scored by validation RMSE with the
    prognostics score as tie-break.  In greedy mode an axis stops
    extending as soon as a step fails to improve: within a row, the next
    LSTM width must beat the row's best; a new filter row must beat the
    global best.  ``explore="full"`` evaluates every cell.
    """
    filters = [int(f) for f in filter_candidates]
    lstm_units = [int(u) for u in unit_candidates]
    if not filters or not lstm_units:
        raise ValueError("candidate lists must be nonempty")
    if explore not in ("greedy", "full"):
        raise ValueError(f"unknown exploration mode {explore!r}")
    split_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xA5]))
    _, val_units = split_unit_ids(batch.units(), cfg.validation_fraction, split_rng)
    val_set = set(val_units)

    def run_cell(f: int, u: int) -> GridCell:
        config = config_for(f, u)
        _, idx_va = _split_sequences(batch.unit_ids, config.sequence_length, val_set)
        y_va = batch.labels[idx_va[:, -1]]
        seed = _cell_seed(cfg.seed, f, u)
        cell_cfg = replace(cfg, seed=seed)
        params, report = train(config, batch, cell_cfg, val_units=val_units)
        preds = network.predict(batch.frames, params, config, cfg.label_scale,
                                index=idx_va)
        return GridCell(
            conv_filters=f, lstm_units=u,
            rmse=rmse(preds, y_va),
            score=scoring_function(preds, y_va),
            seed=seed, best_epoch=report.best_epoch,
        )

    cells: list[GridCell] = []
    best: GridCell | None = None
    for f in filters:
        row_best: GridCell | None = None
        row_improved_global = False
        for u in lstm_units:
            cell = run_cell(f, u)
            cells.append(cell)
            if _better(cell, best):
                best = cell
                row_improved_global = True
            if row_best is None or _better(cell, row_best):
                row_best = cell
            elif explore == "greedy":
                # this width did not improve the row; stop extending it
                break
        if explore == "greedy" and not row_improved_global:
            # a whole row without global improvement ends the filter axis
            break
    assert best is not None
    return GridResult(best=best, cells=cells)


def _better(a: GridCell, b: GridCell | None) -> bool:
    if b is None:
        return True
    if a.rmse != b.rmse:
        return a.rmse < b.rmse
    return a.score < b.score
