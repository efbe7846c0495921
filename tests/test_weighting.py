import numpy as np
import pytest

from adwm import (
    ConfigurationError,
    DegenerateSampleError,
    DimensionError,
    Tensor,
    gradcheck,
    softmax,
)
from adwm.cacw import CacwModule
from adwm.weighting import (
    AdwmConfig,
    adwm_forward,
    adwm_param_count,
    aggregate,
    cfw_apply,
    ifw_apply,
    make_adwm_modules,
    weighted_sum,
)


def randomized_modules(config, seed=0):
    """Modules with non-zero heads so weights actually vary."""
    modules = make_adwm_modules(config, seed=seed)
    rng = np.random.default_rng(seed + 123)
    for m in modules["ifw"] + [modules["cfw"]]:
        m.W2.data[:] = rng.standard_normal(m.W2.shape) * 0.5
        m.b2.data[:] = rng.standard_normal(m.b2.shape) * 0.1
    return modules


def identity_modules(config, seed=0):
    """Modules whose heads emit identity weights: gates of exactly 1.0
    (sigmoid(40) rounds to 1) and equal layer scores."""
    modules = randomized_modules(config, seed=seed)
    for m in modules["ifw"]:
        m.W2.data[:] = 0.0
        m.b2.data[:] = 40.0
    modules["cfw"].W2.data[:] = 0.0
    modules["cfw"].b2.data[:] = 0.7
    return modules


# ----------------------------------------------------------------------
# IFW

def test_ifw_identity_gate():
    rng = np.random.default_rng(0)
    f = rng.standard_normal((4, 5, 5))
    gen = CacwModule(n=4, seed=0)

    gated, alpha = ifw_apply(gen, Tensor(f))
    forced = f * np.ones(4).reshape(4, 1, 1)
    assert gated.shape == (4, 5, 5)
    # with an honest ones-gate the map must be exactly preserved
    assert np.array_equal(Tensor(f).data * np.ones((4, 1, 1)), forced)
    # zero-head module gives 0.5 gates
    assert np.allclose(alpha.data, 0.5)
    assert np.array_equal(gated.data, 0.5 * f)


def test_ifw_gradcheck():
    rng = np.random.default_rng(1)
    config = AdwmConfig(n_layers=1, channels=4)
    gen = randomized_modules(config, seed=1)["ifw"][0]
    f = Tensor(rng.standard_normal((4, 6, 6)))

    def fn(x, *params):
        gated, _ = ifw_apply(gen, x)
        return (gated * gated).sum()

    err = gradcheck(fn, [f] + gen.params())
    assert err < 1e-4


def test_ifw_duplicate_channels_equal_gates():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((4, 6, 6))
    f[1] = f[3]
    config = AdwmConfig(n_layers=1, channels=4)
    gen = randomized_modules(config, seed=2)["ifw"][0]
    _, alpha = ifw_apply(gen, Tensor(f))
    assert abs(alpha.data[1] - alpha.data[3]) < 1e-9


def test_ifw_rejects_single_pixel():
    gen = CacwModule(n=3, seed=0)
    with pytest.raises(DegenerateSampleError):
        ifw_apply(gen, Tensor(np.ones((3, 1, 1))))


def test_ifw_rescale_invariance_of_gates():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((5, 8, 8)) + 1.0
    config = AdwmConfig(n_layers=1, channels=5)
    gen = randomized_modules(config, seed=3)["ifw"][0]
    _, a1 = ifw_apply(gen, Tensor(f))
    gated10, a10 = ifw_apply(gen, Tensor(10.0 * f))
    assert np.abs(a1.data - a10.data).max() < 1e-6
    # the gated map itself scales linearly
    gated1, _ = ifw_apply(gen, Tensor(f))
    assert np.allclose(gated10.data, 10.0 * gated1.data, rtol=1e-6)


def test_ifw_batched_matches_per_sample():
    rng = np.random.default_rng(4)
    f = rng.standard_normal((3, 4, 6, 6))
    config = AdwmConfig(n_layers=1, channels=4)
    gen = randomized_modules(config, seed=4)["ifw"][0]
    gated, alpha = ifw_apply(gen, Tensor(f))
    for b in range(3):
        g1, a1 = ifw_apply(gen, Tensor(f[b]))
        assert np.allclose(gated.data[b], g1.data, atol=1e-12)
        assert np.allclose(alpha.data[b], a1.data, atol=1e-12)


# ----------------------------------------------------------------------
# CFW

def stack_of(rng, n, c=4, h=5, w=5, batch=None):
    shape = (c, h, w) if batch is None else (batch, c, h, w)
    return [Tensor(rng.standard_normal(shape)) for _ in range(n)]


def test_cfw_identical_maps_give_first_map():
    rng = np.random.default_rng(5)
    f = Tensor(rng.standard_normal((4, 5, 5)))
    config = AdwmConfig(n_layers=3, channels=4)
    cfw = randomized_modules(config, seed=5)["cfw"]
    out, _ = cfw_apply(cfw, [f, f, f], [f, f, f])
    assert np.allclose(out.data, f.data, atol=1e-12)


def test_cfw_single_layer_passthrough():
    rng = np.random.default_rng(6)
    f = Tensor(rng.standard_normal((4, 5, 5)))
    config = AdwmConfig(n_layers=1, channels=4)
    cfw = randomized_modules(config, seed=6)["cfw"]
    out, beta = cfw_apply(cfw, [f], [f])
    assert np.allclose(softmax(Tensor(beta.data)).data, [1.0])
    assert np.allclose(out.data, f.data, atol=1e-15)


def test_cfw_pointwise_equals_matrix_form():
    # the pointwise tape op against the combination as one numpy matrix
    # product: softmax row times the (N, CHW) stack of gated maps
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 9))
        c = int(rng.integers(2, 17))
        config = AdwmConfig(n_layers=n, channels=c)
        cfw = randomized_modules(config, seed=trial)["cfw"]
        F = stack_of(rng, n, c=c)
        Ft = stack_of(rng, n, c=c)
        out, beta = cfw_apply(cfw, F, Ft)
        w = softmax(Tensor(beta.data)).data
        matrix = (w @ np.stack([f.data.reshape(-1) for f in Ft])).reshape(out.shape)
        assert np.abs(out.data - matrix).max() < 1e-9


def test_cfw_softmax_sums_to_one():
    rng = np.random.default_rng(8)
    for trial in range(20):
        n = int(rng.integers(1, 7))
        config = AdwmConfig(n_layers=n, channels=4)
        cfw = randomized_modules(config, seed=100 + trial)["cfw"]
        F = stack_of(rng, n)
        _, beta = cfw_apply(cfw, F, F)
        w = softmax(Tensor(beta.data)).data
        assert abs(w.sum() - 1.0) <= 1e-12


def test_cfw_weights_come_from_unweighted_stack():
    rng = np.random.default_rng(9)
    config = AdwmConfig(n_layers=3, channels=4)
    cfw = randomized_modules(config, seed=9)["cfw"]
    F = stack_of(rng, 3)
    Ft_a = stack_of(rng, 3)
    Ft_b = stack_of(rng, 3)
    _, beta_a = cfw_apply(cfw, F, Ft_a)
    _, beta_b = cfw_apply(cfw, F, Ft_b)
    # scores depend on F only, not on the gated maps being combined
    assert np.array_equal(beta_a.data, beta_b.data)


def test_cfw_degenerate_errors():
    config = AdwmConfig(n_layers=2, channels=4)
    cfw = make_adwm_modules(config)["cfw"]
    with pytest.raises(DimensionError):
        cfw_apply(cfw, [], [])
    one_channel = [Tensor(np.ones((1, 4, 4))), Tensor(np.ones((1, 4, 4)))]
    with pytest.raises(DegenerateSampleError):
        cfw_apply(cfw, one_channel, one_channel)


def test_cfw_gradcheck():
    rng = np.random.default_rng(10)
    config = AdwmConfig(n_layers=3, channels=4)
    cfw = randomized_modules(config, seed=10)["cfw"]

    def fn(a, b, c, *params):
        out, _ = cfw_apply(cfw, [a, b, c], [a, b, c])
        return (out * out).sum()

    for batch in (None, 2):
        F = stack_of(rng, 3, h=4, w=4, batch=batch)
        err = gradcheck(fn, list(F) + cfw.params())
        assert err < 1e-4


# ----------------------------------------------------------------------
# full mechanism

def test_adwm_zero_heads_closed_form():
    # freshly built modules have zero heads: 0.5 gates and uniform layer
    # weights, so the output is (0.5 / N) * sum of the maps
    rng = np.random.default_rng(11)
    config = AdwmConfig(n_layers=3, channels=4)
    modules = make_adwm_modules(config, seed=11)
    F = stack_of(rng, 3)
    out = adwm_forward(config, modules, F)
    expect = 0.5 / 3 * sum(f.data for f in F)
    assert np.allclose(out.data, expect, atol=1e-12)


def test_adwm_identity_reduction_bit_exact():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5):
        config = AdwmConfig(n_layers=n, channels=4)
        modules = identity_modules(config, seed=n)
        for batch in (None, 2):
            F = stack_of(rng, n, batch=batch)
            forced = adwm_forward(config, modules, F)
            baseline, _, _ = aggregate(F)
            assert np.array_equal(forced.data, baseline.data)


def test_aggregate_levels_off_is_uniform_mean():
    rng = np.random.default_rng(17)
    F = stack_of(rng, 3)
    fused, alphas, beta = aggregate(F)
    assert alphas is None and beta is None
    expect = F[0].data * (1.0 / 3)
    for f in F[1:]:
        expect = expect + f.data * (1.0 / 3)
    assert np.array_equal(fused.data, expect)


def test_weighted_sum_rejects_mismatched_stacks():
    rng = np.random.default_rng(18)
    F = stack_of(rng, 2, batch=3)
    with pytest.raises(DimensionError):
        weighted_sum([])
    with pytest.raises(DimensionError):
        weighted_sum([F[0], Tensor(np.ones((3, 4, 5, 4)))])
    with pytest.raises(DimensionError):
        weighted_sum(F, Tensor(np.full(2, 0.5)))  # batched maps need (B, N)
    with pytest.raises(DimensionError):
        weighted_sum(F, Tensor(np.full((3, 3), 1 / 3)))


def test_adwm_gradcheck_end_to_end():
    rng = np.random.default_rng(13)
    config = AdwmConfig(n_layers=3, channels=4)
    modules = randomized_modules(config, seed=13)
    F = stack_of(rng, 3, h=6, w=6)
    all_params = []
    for m in modules["ifw"]:
        all_params.extend(m.params())
    all_params.extend(modules["cfw"].params())

    def fn(a, b, c, *params):
        out = adwm_forward(config, modules, [a, b, c])
        return (out * out).sum()

    err = gradcheck(fn, list(F) + all_params)
    assert err < 1e-4


def test_adwm_output_shape_contract():
    rng = np.random.default_rng(14)
    for n, c, h, w in [(1, 2, 4, 4), (4, 8, 6, 5), (2, 3, 2, 7)]:
        config = AdwmConfig(n_layers=n, channels=c)
        modules = make_adwm_modules(config)
        F = stack_of(rng, n, c=c, h=h, w=w)
        out = adwm_forward(config, modules, F)
        assert out.shape == (c, h, w)


def test_adwm_batched_matches_per_sample():
    rng = np.random.default_rng(15)
    config = AdwmConfig(n_layers=2, channels=4)
    modules = randomized_modules(config, seed=15)
    F = stack_of(rng, 2, batch=3)
    out = adwm_forward(config, modules, F)
    for b in range(3):
        single = adwm_forward(config, modules, [Tensor(f.data[b]) for f in F])
        assert np.allclose(out.data[b], single.data, atol=1e-12)


def test_share_ifw_reuses_one_generator():
    config = AdwmConfig(n_layers=4, channels=6, share_ifw=True)
    modules = make_adwm_modules(config)
    assert len({id(m) for m in modules["ifw"]}) == 1
    shared = adwm_param_count(config)
    per_layer = adwm_param_count(AdwmConfig(n_layers=4, channels=6))
    ifw_single = modules["ifw"][0].param_count()
    assert per_layer - shared == 3 * ifw_single


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AdwmConfig(n_layers=0, channels=4)
    with pytest.raises(ConfigurationError):
        AdwmConfig(n_layers=2, channels=4, ifw_d_fraction=0.0)
    with pytest.raises(ConfigurationError):
        AdwmConfig(n_layers=2, channels=4, generator="nope")


def test_aggregate_single_layer_is_gated_input():
    rng = np.random.default_rng(16)
    config = AdwmConfig(n_layers=1, channels=4)
    modules = randomized_modules(config, seed=16)
    x = Tensor(rng.standard_normal((4, 5, 5)))
    out, _, _ = aggregate([x], modules["ifw"], modules["cfw"])
    # N=1: softmax weight is 1, so the output is just the gated input
    _, alpha = ifw_apply(modules["ifw"][0], x)
    expect = x.data * alpha.data.reshape(4, 1, 1)
    assert np.allclose(out.data, expect, atol=1e-12)


def test_adwm_param_count_arithmetic():
    config = AdwmConfig(n_layers=3, channels=8)
    modules = make_adwm_modules(config)
    d_ifw = config.ifw_d
    d_cfw = config.cfw_d
    expect = 3 * (d_ifw * 8 + 2 * d_ifw + 1) + (d_cfw * 3 + 2 * d_cfw + 1)
    assert adwm_param_count(config) == expect
    params = [p for m in modules["ifw"] + [modules["cfw"]] for p in m.params()]
    assert sum(p.size for p in params) == expect
