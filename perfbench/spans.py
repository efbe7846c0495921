"""In-memory span tracer wrapped around the package from the outside.

The tracer never edits the package. It swaps module-level functions and
class methods that the package looks up at call time for timing
wrappers, and it wraps the backward closures those calls leave on the
tape so that backward time is charged to the layer whose forward
created the node. `uninstall` restores every original.

A span is (name, start, end, parent, arm, child_time). A span's self
time is its duration minus the time covered by its direct children; one
thread runs everything, so children never overlap.
"""

import contextlib
import os
import time

import numpy as np

from adwm import backbone, cacw, cli, data, diagnostics, tensor, trainer, weighting
from adwm.diagnostics import count_flops

LAYERS = ("tensor", "backbone", "weighting", "cacw", "trainer", "data",
          "metrics", "diagnostics", "cli")
ARMS = ("baseline", "ifw", "cfw", "adwm")
GENERATORS = ("cacw", "pool", "attention", "pca")

_F8 = 8  # bytes per float64


class Span:
    __slots__ = ("name", "start", "end", "parent", "arm", "child_time")

    def __init__(self, name, start, parent, arm):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.arm = arm
        self.child_time = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child_time


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self.step_ms = []
        self.tape = []  # (nodes, bytes) walked from each loss
        self.active = True
        self._stack = []
        self._arm = None
        self._step_start = None
        self._patches = []

    # ------------------------------------------------------------------
    # recording

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        s = Span(name, time.perf_counter(), parent, self._arm)
        self._stack.append(s)
        try:
            yield
        except Exception:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += s.duration
            self.spans.append(s)

    def count(self, key, n):
        if self.active:
            self.counts[key] = self.counts.get(key, 0) + n

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side checks without recording them."""
        saved, self.active = self.active, False
        try:
            yield
        finally:
            self.active = saved

    def clear(self):
        self.spans.clear()
        self.counts.clear()
        self.errors = {layer: 0 for layer in LAYERS}
        self.step_ms.clear()
        self.tape.clear()

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _timed_closure(self, fn, name, after=None):
        arm = self._arm

        def timed():
            if not self.active:
                return fn()
            saved, self._arm = self._arm, arm
            try:
                with self.span(name):
                    fn()
                if after is not None:
                    after()
            finally:
                self._arm = saved
        timed.traced = True
        return timed

    def label_backward(self, outputs, stop, name):
        """Time the backward of every tape node between `outputs` and `stop`."""
        stop_ids = {id(t) for t in stop}
        seen = set()
        todo = list(outputs)
        while todo:
            t = todo.pop()
            if id(t) in seen or id(t) in stop_ids:
                continue
            seen.add(id(t))
            fn = t._backward_fn
            if fn is not None and not getattr(fn, "traced", False):
                t._backward_fn = self._timed_closure(fn, name)
            todo.extend(t._parents)

    # ------------------------------------------------------------------
    # patching

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        self._install_tensor()
        self._install_backbone()
        self._install_weighting()
        self._install_cacw()
        self._install_trainer()
        w = self.wrap
        self._patch(data, "build_dataset", w(data.build_dataset, "data.build"))
        self._patch(data, "write_tensor", self._counted_write(data.write_tensor))
        self._patch(data, "read_tensor", self._counted_read(data.read_tensor))
        self._patch(cli, "evaluate_reference",
                    w(cli.evaluate_reference, "metrics.reference"))
        self._patch(cli, "evaluate_noreference",
                    w(cli.evaluate_noreference, "metrics.noreference"))
        self._patch(diagnostics, "layer_spectra",
                    w(diagnostics.layer_spectra, "diagnostics.spectra"))
        self._patch(diagnostics, "weight_trace",
                    w(diagnostics.weight_trace, "diagnostics.weight_trace"))
        self._patch(diagnostics, "svg_heatmap",
                    w(diagnostics.svg_heatmap, "diagnostics.svg"))
        self._patch(diagnostics, "svg_line_plot",
                    w(diagnostics.svg_line_plot, "diagnostics.svg"))
        self._patch(cli, "main", w(cli.main, "cli.main"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _install_tensor(self):
        conv = backbone.conv2d
        tracer = self

        def conv2d(x, k, padding=1):
            with tracer.span("tensor.conv2d.fwd"):
                out = conv(x, k, padding)
            if not tracer.active:
                return out
            cout, cin, kh, kw = k.shape
            b = x.shape[0] if x.ndim == 4 else 1
            hw = x.shape[-2] * x.shape[-1]
            macs = cout * cin * kh * kw * b * hw
            cols = cin * kh * kw * b * hw
            x_n, y_n, w_n = b * cin * hw, b * cout * hw, k.data.size
            xp_n = b * cin * (x.shape[-2] + 2 * padding) * (x.shape[-1] + 2 * padding)
            tracer.count("conv.calls", 1)
            tracer.count("conv.macs", macs)
            # padded copy, patch matrix written then read, weights, output
            tracer.count("conv.bytes", _F8 * (x_n + xp_n + 2 * cols + w_n + y_n))
            if out._backward_fn is not None:
                grads = int(k.requires_grad) + int(x.requires_grad)
                # per product: gradient copy, rebuilt patch matrix, weights, result
                bwd_bytes = _F8 * (
                    2 * y_n
                    + (2 * cols + w_n if k.requires_grad else 0)
                    + (2 * cout * kh * kw * b * hw + w_n + x_n if x.requires_grad else 0)
                )

                def after():
                    tracer.count("conv.macs", grads * macs)
                    tracer.count("conv.bytes", bwd_bytes)

                out._backward_fn = tracer._timed_closure(
                    out._backward_fn, "tensor.conv2d.bwd", after)
            return out

        self._patch(backbone, "conv2d", conv2d)

        backward = tensor.Tensor.backward

        def traced_backward(loss):
            if tracer.active:
                tracer.tape.append(_walk_tape(loss))
            with tracer.span("tensor.backward"):
                return backward(loss)

        self._patch(tensor.Tensor, "backward", traced_backward)

    def _install_backbone(self):
        forward = backbone.PansharpenModel.forward
        tracer = self

        def traced_forward(model, pan, lrms, *args, **kwargs):
            shape = np.shape(pan.data) if isinstance(pan, tensor.Tensor) else np.shape(pan)
            batched = len(shape) == 3
            saved, tracer._arm = tracer._arm, model.config.variant
            try:
                name = "backbone.forward" if batched else "backbone.forward_b1"
                with tracer.span(name):
                    out = forward(model, pan, lrms, *args, **kwargs)
            finally:
                tracer._arm = saved
            if tracer.active and (model.ifw is not None or model.cfw is not None):
                cfg = model.config
                wcfg = cfg.weighting_config()
                H, W = shape[-2:]
                f = count_flops(H, W, cfg.channels, cfg.blocks,
                                d_ifw=wcfg.ifw_d, d_cfw=wcfg.cfw_d)
                macs = 0
                if model.ifw is not None:
                    macs += f.ifw_cov + f.ifw_mlp + f.ifw_gate
                if model.cfw is not None:
                    macs += f.cfw_cov + f.cfw_mlp + f.cfw_combine
                b = shape[0] if batched else 1
                tracer.count(f"weighting.macs.{cfg.variant}", b * macs)
            return out

        self._patch(backbone.PansharpenModel, "forward", traced_forward)

        save = self._counted_checkpoint(backbone.save_checkpoint, "backbone.checkpoint_save")
        load = self._counted_checkpoint(backbone.load_checkpoint, "backbone.checkpoint_load")
        self._patch(backbone, "save_checkpoint", save)
        self._patch(backbone, "load_checkpoint", load)
        self._patch(cli, "load_checkpoint", load)
        self._patch(trainer, "save_checkpoint", self.wrap(save, "trainer.checkpoint"))

    def _counted_checkpoint(self, fn, name):
        tracer = self

        def traced(path, *args, **kwargs):
            with tracer.span(name):
                out = fn(path, *args, **kwargs)
            tracer.count("checkpoint.bytes", os.path.getsize(path))
            return out
        return traced

    def _counted_write(self, fn):
        tracer = self

        def traced(path, t, *args, **kwargs):
            out = fn(path, t, *args, **kwargs)
            tracer.count("data.bytes_written", os.path.getsize(path))
            return out
        return traced

    def _counted_read(self, fn):
        tracer = self

        def traced(path):
            with tracer.span("data.read"):
                out = fn(path)
            tracer.count("data.bytes_read", os.path.getsize(path))
            return out
        return traced

    def _install_weighting(self):
        tracer = self
        ifw_apply = weighting.ifw_apply
        cfw_apply = weighting.cfw_apply

        def traced_ifw(generator, F_i):
            with tracer.span("weighting.ifw.fwd"):
                gated, alpha = ifw_apply(generator, F_i)
            if tracer.active:
                tracer.label_backward([gated, alpha], [F_i], "weighting.ifw.bwd")
            return gated, alpha

        def traced_cfw(generator, F, F_tilde, *args, **kwargs):
            with tracer.span("weighting.cfw.fwd"):
                out, beta = cfw_apply(generator, F, F_tilde, *args, **kwargs)
            if tracer.active:
                tracer.label_backward([out, beta], list(F) + list(F_tilde),
                                      "weighting.cfw.bwd")
            return out, beta

        for module in (weighting, backbone):
            self._patch(module, "ifw_apply", traced_ifw)
            self._patch(module, "cfw_apply", traced_cfw)

    def _install_cacw(self):
        for gen in GENERATORS:
            cls = cacw.WEIGHT_GENERATORS[gen]
            self._patch(cls, "forward", self.wrap(cls.forward, f"cacw.{gen}.fwd"))
        tracer = self
        eig = cacw.pca_eigendecompose

        def traced_eig(*args, **kwargs):
            tracer.count("cacw.eig_calls", 1)
            with tracer.span("cacw.eig"):
                return eig(*args, **kwargs)

        self._patch(cacw, "pca_eigendecompose", traced_eig)
        self._patch(diagnostics, "pca_eigendecompose", traced_eig)

    def _install_trainer(self):
        tracer = self
        assemble = trainer._assemble
        adam_step = trainer.adam_step

        def traced_assemble(pairs):
            tracer._step_start = time.perf_counter()
            with tracer.span("trainer.batch_wait"):
                return assemble(pairs)

        def traced_adam(*args, **kwargs):
            with tracer.span("trainer.adam"):
                out = adam_step(*args, **kwargs)
            if tracer.active and tracer._step_start is not None:
                tracer.step_ms.append(1e3 * (time.perf_counter() - tracer._step_start))
                tracer._step_start = None
            return out

        self._patch(trainer, "_assemble", traced_assemble)
        self._patch(trainer, "adam_step", traced_adam)
        self._patch(trainer, "l1_loss", self.wrap(trainer.l1_loss, "trainer.loss"))
        self._patch(trainer, "evaluate_psnr",
                    self.wrap(trainer.evaluate_psnr, "trainer.validation"))
        train = self.wrap(trainer.train, "trainer.train")
        self._patch(trainer, "train", train)
        self._patch(cli, "train", train)

    # ------------------------------------------------------------------
    # derived metrics

    def summary(self, rounds):
        """Per-layer metrics, each per round of the workload unless named otherwise."""
        total = {}
        self_time = {}
        by_arm = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + s.duration
            self_time[s.name] = self_time.get(s.name, 0.0) + s.self_time
            if s.name.startswith("weighting.") and s.arm is not None:
                key = (s.name, s.arm)
                by_arm[key] = by_arm.get(key, 0.0) + s.duration

        def ms(name):
            return 1e3 * total.get(name, 0.0) / rounds

        def self_ms(name):
            return 1e3 * self_time.get(name, 0.0) / rounds

        def per_round(key):
            return self.counts.get(key, 0) / rounds

        m = {
            "tensor.conv2d.fwd_ms": ms("tensor.conv2d.fwd"),
            "tensor.conv2d.bwd_ms": ms("tensor.conv2d.bwd"),
            "tensor.conv2d.calls": per_round("conv.calls"),
            "tensor.conv2d.gmac": per_round("conv.macs") / 1e9,
            "tensor.conv2d.mb_moved": per_round("conv.bytes") / 1e6,
            "tensor.backward.self_ms": self_ms("tensor.backward"),
            "tensor.tape_nodes": max((n for n, _ in self.tape), default=0),
            "tensor.tape_mb": max((b for _, b in self.tape), default=0) / 1e6,
            "backbone.forward_ms": ms("backbone.forward"),
            "backbone.forward_b1_ms": ms("backbone.forward_b1"),
            "backbone.self_ms": self_ms("backbone.forward") + self_ms("backbone.forward_b1"),
            "backbone.checkpoint_save_ms": ms("backbone.checkpoint_save"),
            "backbone.checkpoint_load_ms": ms("backbone.checkpoint_load"),
            "backbone.checkpoint_bytes": per_round("checkpoint.bytes"),
        }
        for level in ("ifw", "cfw"):
            for phase in ("fwd", "bwd"):
                name = f"weighting.{level}.{phase}"
                m[f"{name}_ms"] = ms(name)
                for arm in ARMS:
                    m[f"{name}_ms.{arm}"] = 1e3 * by_arm.get((name, arm), 0.0) / rounds
        m["weighting.macs"] = sum(per_round(f"weighting.macs.{arm}") for arm in ARMS)
        for arm in ARMS:
            m[f"weighting.macs.{arm}"] = per_round(f"weighting.macs.{arm}")
        for gen in GENERATORS:
            m[f"cacw.{gen}.fwd_ms"] = ms(f"cacw.{gen}.fwd")
        m["cacw.eig_ms"] = ms("cacw.eig")
        m["cacw.eig_calls"] = per_round("cacw.eig_calls")
        steps = sorted(self.step_ms)
        m["trainer.step_ms.p50"] = _quantile(steps, 0.5)
        m["trainer.step_ms.p90"] = _quantile(steps, 0.9)
        m["trainer.step_ms.n"] = len(steps)
        m["trainer.steps"] = len(steps) / rounds
        for part in ("batch_wait", "loss", "adam", "validation", "checkpoint"):
            m[f"trainer.{part}_ms"] = ms(f"trainer.{part}")
        m["data.read_ms"] = ms("data.read")
        m["data.bytes_read"] = per_round("data.bytes_read")
        m["metrics.reference_ms"] = ms("metrics.reference")
        m["metrics.noreference_ms"] = ms("metrics.noreference")
        m["diagnostics.spectra_ms"] = ms("diagnostics.spectra")
        m["diagnostics.weight_trace_ms"] = ms("diagnostics.weight_trace")
        m["diagnostics.svg_ms"] = ms("diagnostics.svg")
        m["cli.self_ms"] = self_ms("cli.main")
        for layer in LAYERS:
            m[f"{layer}.errors"] = self.errors[layer]
        return m

    def build_summary(self):
        """Set-up metrics of the data layer, for the set-up traced so far."""
        return {
            "data.build_ms": 1e3 * sum(s.duration for s in self.spans
                                       if s.name == "data.build"),
            "data.bytes_written": self.counts.get("data.bytes_written", 0),
        }

    def span_layers(self):
        return sorted({s.name.split(".", 1)[0] for s in self.spans})

    def dump(self):
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            {"name": s.name, "start": s.start, "end": s.end, "arm": s.arm,
             "parent": index.get(id(s.parent))}
            for s in self.spans
        ]


def _walk_tape(loss):
    """(node count, bytes of node data) reachable from a loss."""
    seen = set()
    todo = [loss]
    nbytes = 0
    while todo:
        t = todo.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        nbytes += t.data.nbytes
        todo.extend(t._parents)
    return len(seen), nbytes


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    return float(np.quantile(sorted_vals, q))
