"""Adam training loop: seeded shuffles, stepped lr decay, CSV logging.

Everything downstream of (seed, config, data) is deterministic: the same
run produces byte-identical logs and checkpoints. Loss must stay finite;
a NaN aborts with the offending epoch/batch identified rather than
silently poisoning the parameters. Every forward computes in float32,
after Micikevicius et al. 2018, "Mixed precision training": each step
records its tape in float32 on float32 copies of the float64 master
parameters, and Adam casts each float32 gradient to float64 before it
updates the float64 moments and masters. Checkpoints and logged
metrics stay float64.

`train_runs` is the one route from a dataset directory to trained runs,
for the CLI, the byte guard and the ablation protocol (`PROTOCOL`).
"""

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .backbone import ModelConfig, PansharpenModel, save_checkpoint
from .data import load_sample, read_manifest, split_ids
from .errors import ConfigurationError, DimensionError, NumericError
from .metrics import psnr
from .tensor import Tensor, as_tensor


# The four-variant ablation behind acceptance criterion 8: each variant
# trains once per seed on one dataset. Its numbers are cached in
# tests/_ablation/result.json, which is reused while the protocol stored
# there equals this dict.
PROTOCOL = {
    "data_seed": 11,
    "count": 544,
    "H": 64,
    "W": 64,
    "bands": 4,
    "test_count": 32,
    "channels": 16,
    "blocks": 4,
    "epochs": 60,
    "batch_size": 16,
    "lr0": 2e-3,
    "halve_every": 150,
    "seeds": [0, 1, 2],
    "variants": ["baseline", "ifw", "cfw", "adwm"],
}

# the settings that every run of one `train_runs` call shares
RUN_SETTINGS = ("channels", "blocks", "epochs", "lr0", "halve_every", "batch_size")


@dataclass
class TrainConfig:
    epochs: int
    lr0: float = 2e-3
    halve_every: int = 150
    batch_size: int = 16   # 64 reproduces the reference setting; 16 fits desk runs
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.lr0 > 0 and np.isfinite(self.lr0)):
            raise ConfigurationError(f"lr0 must be positive and finite, got {self.lr0}")
        if self.halve_every < 1:
            raise ConfigurationError(
                f"halve_every must be >= 1, got {self.halve_every}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )


def lr_at(epoch, cfg):
    """Stepped decay, a pure function of the 1-based epoch index."""
    return cfg.lr0 * 0.5 ** (epoch // cfg.halve_every)


def l1_loss(pred, gt):
    return (as_tensor(pred) - as_tensor(gt)).abs().mean()


# ----------------------------------------------------------------------
# Adam

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def init_adam(params):
    return {
        "t": 0,
        "m": [np.zeros_like(p.data) for p in params],
        "v": [np.zeros_like(p.data) for p in params],
    }


def adam_step(params, grads, state, lr):
    """One bias-corrected update in place; returns the advanced state.

    Each gradient is cast to float64 first, so a float32 gradient updates
    the float64 moments and parameters as its float64 value would."""
    if len(params) != len(grads):
        raise ConfigurationError(
            f"{len(params)} parameters but {len(grads)} gradients"
        )
    t = state["t"] + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        g = np.asarray(g, dtype=np.float64)
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    state["t"] = t
    return state


# ----------------------------------------------------------------------
# batching and evaluation

def _assemble(pairs):
    if len({(s.pan.shape, s.lrms.shape, s.gt.shape) for s in pairs}) > 1:
        listing = "; ".join(f"{s.id} {s.pan.shape} {s.lrms.shape} {s.gt.shape}"
                            for s in pairs)
        raise DimensionError(f"batch mixes sample shapes (pan, lrms, gt): {listing}")
    # float32, the dtype a step computes in: a float64 gt would upcast
    # the loss and with it the whole backward
    pan, lrms, gt = (Tensor(np.stack([getattr(s, name) for s in pairs], dtype=np.float32))
                     for name in ("pan", "lrms", "gt"))
    return pan, lrms, gt


@contextmanager
def _grad_flags(params, flag):
    """Set every parameter's requires_grad for the block, then restore
    the previous flags however the block ends."""
    saved = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = flag
    try:
        yield
    finally:
        for p, r in zip(params, saved):
            p.requires_grad = r


def evaluate_psnr(model, pairs):
    """Mean PSNR over pairs with gradient tracking switched off, so each
    forward records no tape and computes in float32."""
    with _grad_flags(model.params(), False):
        vals = [psnr(s.gt, model.forward(s.pan, s.lrms).data) for s in pairs]
    return float(np.mean(vals))


@dataclass
class TrainResult:
    log_path: str
    best_path: str
    final_path: str
    best_val_psnr: float
    history: list = field(default_factory=list)


def train(model, train_pairs, val_pairs, cfg, out_dir):
    """Run the full loop; streams train_log.csv, writes best/final checkpoints."""
    if not train_pairs:
        raise ConfigurationError("training set is empty")
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.csv")
    best_path = os.path.join(out_dir, "checkpoint_best.ckpt")
    final_path = os.path.join(out_dir, "checkpoint_final.ckpt")

    params = model.params()
    state = init_adam(params)
    rng = np.random.default_rng(cfg.seed)
    best = -np.inf
    history = []

    # each epoch's row is flushed as it ends: a run that stops keeps them
    with open(log_path, "w") as log, _grad_flags(params, True):
        log.write("epoch,lr,train_l1,val_psnr\n")
        for epoch in range(1, cfg.epochs + 1):
            lr = lr_at(epoch, cfg)
            order = rng.permutation(len(train_pairs))
            total_abs = 0.0
            total_n = 0
            for b0 in range(0, len(order), cfg.batch_size):
                batch_idx = order[b0:b0 + cfg.batch_size]
                batch = [train_pairs[i] for i in batch_idx]
                pan, lrms, gt = _assemble(batch)
                model.zero_grad()
                loss = l1_loss(model.forward(pan, lrms), gt)
                if not np.isfinite(loss.data):
                    ids = ",".join(s.id for s in batch)
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, "
                        f"batch {b0 // cfg.batch_size} (samples {ids}); aborting"
                    )
                loss.backward()
                grads = [p.grad if p.grad is not None else np.zeros_like(p.data)
                         for p in params]
                adam_step(params, grads, state, lr)
                total_abs += float(loss.data) * gt.data.size
                total_n += gt.data.size
            train_l1 = total_abs / total_n
            val_psnr = evaluate_psnr(model, val_pairs) if val_pairs else float("nan")
            if val_psnr > best:  # False for NaN, and so without val_pairs
                best = val_psnr
                save_checkpoint(best_path, model)
            history.append(
                {"epoch": epoch, "lr": lr, "train_l1": train_l1, "val_psnr": val_psnr}
            )
            log.write(f"{epoch},{lr:.10g},{train_l1:.10g},{val_psnr:.10g}\n")
            log.flush()

    save_checkpoint(final_path, model)
    # no epoch saved a best (no validation set, or no finite PSNR), so the
    # final model is the best: a file left by an earlier run must not stand
    if best == -np.inf:
        save_checkpoint(best_path, model)
        best = float("nan")
    return TrainResult(
        log_path=log_path, best_path=best_path, final_path=final_path,
        best_val_psnr=float(best), history=history,
    )


def train_runs(data_dir, test_count, runs, settings):
    """Train each run on one read of the dataset at `data_dir`.

    `runs` maps each run's directory to (its ModelConfig fields besides
    bands, channels and blocks, its seed); `settings` maps each name in
    RUN_SETTINGS to the value all runs share. Every run's configs are
    built, and so checked, before any sample is read: the band count
    comes from manifest.txt. The dataset is then read and split once,
    holding out `test_count` samples, and the runs train in order.
    Yields (ModelConfig, TrainResult) as each run ends.
    """
    shared = dict(settings)
    model_shared = {"channels": shared.pop("channels"), "blocks": shared.pop("blocks")}
    train_cfgs = [TrainConfig(seed=seed, **shared) for _, seed in runs.values()]
    rows = read_manifest(data_dir)
    model_cfgs = [ModelConfig(bands=rows[0]["c"], **model_shared, **fields)
                  for fields, _ in runs.values()]
    train_ids, val_ids = split_ids([r["id"] for r in rows], test_count)
    pairs = {r["id"]: load_sample(data_dir, r["id"]) for r in rows}
    train_pairs, val_pairs = ([pairs[i] for i in ids] for ids in (train_ids, val_ids))
    for out_dir, cfg, tcfg in zip(runs, model_cfgs, train_cfgs):
        yield cfg, train(PansharpenModel(cfg, seed=tcfg.seed), train_pairs,
                         val_pairs, tcfg, out_dir)
