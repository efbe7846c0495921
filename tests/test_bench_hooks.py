"""The benchmark's span tracer patches package attributes by name.

Installing it here makes a renamed or moved hook fail the unit suite,
not only a traced benchmark run.
"""

import importlib.util
import os

import numpy as np

from adwm import weighting
from adwm.backbone import ModelConfig, PansharpenModel

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_install_and_uninstall():
    original = weighting.ifw_apply
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        model = PansharpenModel(ModelConfig(bands=2, channels=4, blocks=2,
                                            variant="adwm"))
        rng = np.random.default_rng(0)
        model.forward(rng.random((8, 8)), rng.random((2, 2, 2)))
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"weighting.ifw.fwd", "weighting.cfw.fwd", "cacw.cacw.fwd"} <= names
    assert weighting.ifw_apply is original


def test_tracer_times_conv_backward_on_batched_model():
    # the tracer reaches conv2d through the backbone module attribute and
    # wraps the zero-argument backward closure each conv leaves on the tape
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        model = PansharpenModel(ModelConfig(bands=2, channels=4, blocks=2,
                                            variant="adwm"))
        for p in model.params():
            p.requires_grad = True
        rng = np.random.default_rng(1)
        out = model.forward(rng.random((3, 8, 8)), rng.random((3, 2, 2, 2)))
        (out * out).mean().backward()
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    convs = 2 + 2 * model.config.blocks
    assert tracer.counts["conv.calls"] == convs
    assert names.count("tensor.conv2d.fwd") == convs
    assert names.count("tensor.conv2d.bwd") == convs
    assert "tensor.backward" in names
    assert all(p.grad is not None for p in (model.enc_w, model.dec_w))
