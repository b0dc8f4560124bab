"""Training over the trainable subset only: optimizers, train and eval loops, grad check.

The frozen backbone never receives grads (its params opt out of the
graph), so a step can only move tuner + head weights. Metrics are emitted
as one JSON object per line.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .backbone import ConfigError, ModelGraph, trainable_parameters
from .tensor import GradientError, cross_entropy


@dataclass
class TrainConfig:
    optimizer: str = "adamw"
    lr: float = 1e-3
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    schedule: str = "cosine"
    label_smoothing: float = 0.0

    def __post_init__(self):
        for name in ("lr", "weight_decay", "momentum"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.lr < 0:
            raise ValueError(f"lr must be nonnegative, got {self.lr}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label smoothing must be in [0,1), got {self.label_smoothing}")
        if self.optimizer not in ("adamw", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.schedule not in ("constant", "cosine"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or parameter."""


def quiet_overflow():
    """No numpy overflow warnings: DivergenceError reports a diverging run."""
    return np.errstate(over="ignore", invalid="ignore")


class Optimizer:
    """Holds per-parameter state for the trainable set only."""

    def __init__(self, params, cfg: TrainConfig):
        self.params = list(params)  # (name, Parameter)
        self.cfg = cfg
        self.step_count = 0
        self.state = {name: self._init_state(p) for name, p in self.params}

    def zero_grad(self):
        for _, p in self.params:
            p.grad = None

    def step(self, lr: float):
        self.step_count += 1
        for name, p in self.params:
            if p.grad is None:
                raise GradientError(f"the loss never reached trainable parameter {name!r}")
            self._update(name, p, lr)

    def _init_state(self, p):
        raise NotImplementedError

    def _update(self, name, p, lr):
        raise NotImplementedError


class SGD(Optimizer):
    def _init_state(self, p):
        return {"v": np.zeros_like(p.data)}

    def _update(self, name, p, lr):
        g = p.grad + self.cfg.weight_decay * p.data
        v = self.state[name]["v"]
        v *= self.cfg.momentum
        v += g
        p.data -= lr * v


class AdamW(Optimizer):
    eps = 1e-8

    def _init_state(self, p):
        return {"m": np.zeros_like(p.data), "v": np.zeros_like(p.data)}

    def _update(self, name, p, lr):
        cfg, t = self.cfg, self.step_count
        m, v = self.state[name]["m"], self.state[name]["v"]
        m *= cfg.beta1
        m += (1 - cfg.beta1) * p.grad
        v *= cfg.beta2
        v += (1 - cfg.beta2) * p.grad**2
        m_hat = m / (1 - cfg.beta1**t)
        v_hat = v / (1 - cfg.beta2**t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + self.eps) + cfg.weight_decay * p.data)


def make_optimizer(model: ModelGraph, cfg: TrainConfig) -> Optimizer:
    params = trainable_parameters(model)
    return AdamW(params, cfg) if cfg.optimizer == "adamw" else SGD(params, cfg)


def lr_at(cfg: TrainConfig, step: int, total_steps: int) -> float:
    if cfg.schedule == "constant" or total_steps <= 1:
        return cfg.lr
    return cfg.lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, total_steps - 1)))


def _batches(n: int, batch_size: int, rng: np.random.Generator | None):
    order = np.arange(n) if rng is None else rng.permutation(n)
    for lo in range(0, n, batch_size):
        yield order[lo : lo + batch_size]


def check_dataset(model: ModelGraph, dataset) -> None:
    """Raise ConfigError unless the dataset's image shape and class count are the model's."""
    cfg = model.cfg
    shape = (cfg.in_channels, cfg.image_size, cfg.image_size)
    if dataset.images.shape[1:] != shape:
        raise ConfigError(f"dataset images are {dataset.images.shape[1:]}, model expects {shape}")
    if dataset.num_classes != cfg.num_classes:
        raise ConfigError(f"dataset has {dataset.num_classes} classes, model has {cfg.num_classes}")


def train(
    model: ModelGraph,
    dataset,
    cfg: TrainConfig,
    metrics_path=None,
    eval_dataset=None,
    quiet: bool = False,
):
    """Optimize trainable params; returns the per-epoch metrics history."""
    check_dataset(model, dataset)
    opt = make_optimizer(model, cfg)
    rng = np.random.default_rng(cfg.seed)
    n = len(dataset.labels)
    steps_per_epoch = math.ceil(n / cfg.batch_size)
    total_steps = steps_per_epoch * cfg.epochs
    history = []
    step = 0
    sink = open(metrics_path, "w") if metrics_path else None

    def emit(split, loss, accuracy):  # one epoch record, timed from the epoch's start
        record = {"epoch": epoch, "split": split, "loss": loss, "accuracy": accuracy,
                  "elapsed_sec": time.monotonic() - t0}
        history.append(record)
        line = json.dumps(record)
        if not quiet:
            print(line)
        if sink:
            sink.write(line + "\n")

    try:
        for epoch in range(cfg.epochs):
            t0 = time.monotonic()
            model.training = True
            loss_sum = 0.0
            correct = 0
            for i, idx in enumerate(_batches(n, cfg.batch_size, rng)):
                loss, n_correct = _train_step(
                    model, opt, dataset.images[idx], dataset.labels[idx], cfg.label_smoothing,
                    lr_at(cfg, step, total_steps), f"epoch {epoch}, step {i}",
                )
                step += 1
                loss_sum += loss * len(idx)
                correct += n_correct
            emit("train", loss_sum / n, correct / n)
            if eval_dataset is not None:
                acc, mean_loss = evaluate(model, eval_dataset, cfg.batch_size)
                emit("eval", mean_loss, acc)
    finally:
        if sink:
            sink.close()
    model.training = False
    for name, p in opt.params:  # the last step's update is checked by no later loss
        if not np.isfinite(p.data).all():
            raise DivergenceError(f"training diverged: {name!r} is non-finite after the last step")
    return history


def _train_step(model, opt, images, labels, smoothing: float, lr: float, where: str):
    """One optimizer step -> (loss value, correct count).

    Its graph lives only in this frame, and the last step's grads go before its
    forward. A non-finite loss raises DivergenceError naming ``where`` before any
    update; that error, not numpy's overflow warnings, reports a diverging run.
    """
    with quiet_overflow():
        opt.zero_grad()
        logits = model(images)
        loss = cross_entropy(logits, labels, smoothing)
        if not math.isfinite(loss.item()):
            raise DivergenceError(f"training diverged: loss is {loss.item()} at {where}")
        loss.backward()
        opt.step(lr)
    return loss.item(), int((logits.data.argmax(axis=-1) == labels).sum())


def evaluate(model: ModelGraph, dataset, batch_size: int = 64):
    """(accuracy, mean loss) with ``model.training`` off, recording no graph; deterministic.

    Whole batches run up to two at a time on worker threads, and their
    losses and correct counts are added in batch order, so the result does
    not depend on the worker count.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded only by a command that evaluates

    check_dataset(model, dataset)
    n = len(dataset.labels)
    if n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    model.training = False

    def run(idx):
        with quiet_overflow():  # numpy's error state is per thread
            logits = model(dataset.images[idx])  # widened to float64 at the patch cut
            labels = dataset.labels[idx]
            loss = cross_entropy(logits, labels).item() * len(idx)
        return loss, int((logits.data.argmax(axis=-1) == labels).sum())

    # A second batch keeps the other core busy while numpy's elementwise
    # kernels run on one thread. The cap of two bounds memory at two batches
    # in flight, whatever the core count. macOS and Windows have no
    # ``os.sched_getaffinity``.
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(2, cores)
    loss_sum = 0.0
    correct = 0
    # no_grad is a process-wide switch, so it is set once around every worker
    with T.no_grad(), ThreadPoolExecutor(workers) as pool:
        for loss, n_correct in pool.map(run, _batches(n, batch_size, rng=None)):
            loss_sum += loss
            correct += n_correct
    return correct / n, loss_sum / n


def grad_check(model: ModelGraph, images, labels, eps: float = 1e-5, tol: float = 1e-4):
    """Backward vs central differences, per trainable tensor.

    Returns (report, all_pass) where report maps parameter name to
    {"rel_err", "pass"}. Intended for small configs only.
    """
    labels = np.asarray(labels)

    def loss_value(_param) -> float:
        with T.no_grad():
            return cross_entropy(model(images), labels).item()

    report = {}
    all_pass = True
    with quiet_overflow():  # a non-finite loss raises GradientError, not numpy's warnings
        logits = model(images)
        loss = cross_entropy(logits, labels)
        if not math.isfinite(loss.item()):
            raise GradientError("non-finite loss in grad check")
        params = trainable_parameters(model)
        loss.backward()
        autodiff = {name: p.grad.copy() for name, p in params}
        for name, p in params:
            fd = T.finite_diff_grad(loss_value, p, h=eps)
            err = T.rel_error(autodiff[name], fd)
            ok = err < tol
            all_pass &= ok
            report[name] = {"rel_err": err, "pass": ok}
    return report, all_pass
