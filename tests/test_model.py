"""Config validation, forward-pass contracts, loss decomposition, ablations."""

import weakref
from dataclasses import replace
from fnmatch import fnmatch

import numpy as np
import pytest

from mlf import model as model_module
from mlf.autograd import ShapeError, backward, mse
from mlf.encoder import EncoderBlock, SppHead
from mlf.model import (
    ABLATION_FLAGS,
    ConfigError,
    MlfConfig,
    apply_ablation,
    build_model,
    mlf_loss,
    period_geometries,
    seed_streams,
)
from mlf.squeeze import reconstruction_loss

from conftest import regime_config

TOY = MlfConfig(
    period_lengths=(4, 8),
    horizon=2,
    n_patches=4,
    squeeze_factor=2,
    d_model=4,
    n_heads=2,
    n_blocks=2,
    d_ff=8,
    conv_filters=4,
)


def toy_windows(batch=3, seed=0, cfg=TOY):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((batch, n)) for n in cfg.period_lengths]


# -- config -----------------------------------------------------------------


def test_config_defaults_match_contract():
    cfg = MlfConfig(period_lengths=(96,), horizon=24)
    assert cfg.n_patches == 64
    assert cfg.squeeze_factor in (2, 4, 8)
    assert cfg.learning_rate == 1e-4
    assert cfg.batch_size == 128
    assert cfg.epochs == 30
    assert cfg.ff_width == 2 * cfg.d_model


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(period_lengths=(), horizon=1), "period_lengths"),
        (dict(period_lengths=(8, 8), horizon=1), "strictly increasing"),
        (dict(period_lengths=(8,), horizon=0), "horizon"),
        (dict(period_lengths=(8,), horizon=1, squeeze_factor=3), "squeeze_factor"),
        (dict(period_lengths=(8,), horizon=1, n_patches=10, squeeze_factor=4), "divisible"),
        (dict(period_lengths=(8,), horizon=1, d_model=6, n_heads=4), "n_heads"),
        (dict(period_lengths=(8,), horizon=1, n_blocks=0), "n_blocks"),
        (dict(period_lengths=(4, 8), horizon=1, use_map=False), "too short for fixed patching"),
        (dict(period_lengths=5, horizon=1), "period_lengths must be a list of integers, got 5"),
        (dict(period_lengths=(8,), horizon="x"), "horizon must be an integer, got 'x'"),
        (dict(period_lengths=(8,), horizon=1, epochs=1.5), "epochs must be an integer, got 1.5"),
        (dict(period_lengths=(8,), horizon=1, use_lwi=1), "use_lwi must be true or false"),
        (dict(period_lengths=(1,), horizon=1), "the longest >= 2"),
        (dict(period_lengths=(8,), horizon=1, learning_rate=10**400), "learning_rate must be a finite number"),
        (dict(period_lengths=(8,), horizon=1, conv_filters=0), "model.conv_filters must be >= 1, got 0"),
        (dict(period_lengths=(8,), horizon=1, conv_filters=-1), "model.conv_filters must be >= 1, got -1"),
        (dict(period_lengths=(8,), horizon=1, grad_clip=-1.0), "model.grad_clip must be >= 0, got -1.0"),
        (dict(period_lengths=(8,), horizon=1, max_steps=-1), "model.max_steps must be >= 0, got -1"),
        (dict(period_lengths=(8,), horizon=1, d_ff=-4), "model.d_ff must be >= 0, got -4"),
        (dict(period_lengths=(8,), horizon=1, epochs=-1), "model.epochs must be >= 0, got -1"),
        (dict(period_lengths=(8,), horizon=1, learning_rate=-1e-3), "model.learning_rate must be >= 0, got -0.001"),
        (dict(period_lengths=(8,), horizon=1, n_patches=1, squeeze_factor=1), "model.n_patches must be >= 2, got 1"),
        (dict(period_lengths=(4, 7, 24), horizon=1, use_map=False), "period_lengths .4, 7. too short"),
        (dict(period_lengths=(8,), horizon=1, batch_size=0), "model.batch_size must be >= 1, got 0"),
        (dict(period_lengths=(8,), horizon=1, n_heads=0), "positive multiple of n_heads .0."),
        (dict(period_lengths=(8,), horizon=1, n_patches=4, squeeze_factor=8), "n_patches .4. must be divisible"),
        (dict(period_lengths=(0, 8), horizon=1), "model.period_lengths must be positive"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        MlfConfig(**kwargs)


def test_config_round_trip_and_unknown_fields():
    d = TOY.to_dict()
    assert MlfConfig.from_dict(d) == TOY
    with pytest.raises(ConfigError, match=r"^model has unknown key\(s\): \['banana'\]$"):
        MlfConfig.from_dict(dict(d, banana=1))
    with pytest.raises(ConfigError, match="period_lengths"):
        MlfConfig.from_dict({"horizon": 2})


def test_geometries_adaptive_vs_fixed():
    assert [g.n_patches for g in period_geometries(TOY)] == [4, 4]
    assert build_model(TOY).block_sizes == [2, 2]
    cfg = MlfConfig(period_lengths=(16, 32), horizon=1, n_patches=4, squeeze_factor=2, d_model=4,
                    n_heads=2, n_blocks=1, conv_filters=2, use_map=False)
    fixed = period_geometries(cfg)
    assert [g.n_patches for g in fixed] == [2, 4]
    assert fixed[0].patch_len == 16 and fixed[0].stride == 8
    assert build_model(cfg).block_sizes == [1, 2]


# -- forward ---------------------------------------------------------------------


def test_forward_shapes_full_trace():
    cfg = MlfConfig(
        period_lengths=(5, 10, 30, 60, 120, 150),
        horizon=5,
        n_patches=64,
        squeeze_factor=8,
        d_model=16,
        n_heads=4,
        n_blocks=3,
        conv_filters=4,
    )
    model = build_model(cfg, seed=0)
    windows = toy_windows(2, 1, cfg)
    bundle = model.forward(windows, training=True, collect_attention=True)
    assert bundle.forecast.shape == (2, 5)
    assert len(bundle.period_forecasts) == 6
    assert bundle.att.shape == (2, 6, 5)
    assert bundle.attention_scores[0].shape == (4, 2, 48, 48)  # 6 periods x 8 tokens
    assert model.token_ranges[-1] == (40, 48)
    for s, geom in enumerate(model.geometries):
        assert bundle.raw_patches[s].shape == (2, geom.patch_len, 64)
        assert bundle.reconstructions[s].shape == bundle.raw_patches[s].shape


def test_forward_zero_parameters_zero_forecast():
    model = build_model(TOY, seed=0)
    for p in model.params.values():
        p.data[...] = 0.0
    bundle = model.forward(toy_windows(), training=False)
    assert np.allclose(bundle.forecast.data, 0.0)


def test_forward_smallest_degenerate_config():
    cfg = MlfConfig(
        period_lengths=(6,),
        horizon=3,
        n_patches=2,
        squeeze_factor=1,
        d_model=2,
        n_heads=1,
        n_blocks=1,
        conv_filters=2,
    )
    model = build_model(cfg, seed=0)
    bundle = model.forward(toy_windows(2, 2, cfg), training=True)
    assert bundle.forecast.shape == (2, 3)


def test_forward_rejects_bad_windows():
    model = build_model(TOY, seed=0)
    with pytest.raises(ShapeError, match="expected 2 period windows"):
        model.forward(toy_windows()[:1], training=False)
    bad = toy_windows()
    bad[1] = bad[1][:, :-1]
    with pytest.raises(ShapeError, match="period 1 window"):
        model.forward(bad, training=False)


# -- loss -------------------------------------------------------------------------


def test_loss_decomposes_into_terms():
    model = build_model(TOY, seed=0)
    windows = toy_windows()
    target = np.random.default_rng(3).standard_normal((3, 2))
    bundle = model.forward(windows, training=True)
    parts = mlf_loss(bundle, target)
    assert float(parts.total.data) == pytest.approx(parts.forecast_term + parts.reconstruction_term)
    bare = mlf_loss(bundle, target, use_reconstruction=False)
    assert float(bare.total.data) == pytest.approx(parts.forecast_term)
    assert bare.reconstruction_term == 0.0
    ablated = build_model(apply_ablation(TOY, "reconstruction_loss"), seed=0).forward(windows, training=True)
    assert ablated.reconstructions == ablated.raw_patches == []
    assert mlf_loss(ablated, target).reconstruction_term == 0.0


def test_loss_zero_when_everything_perfect():
    model = build_model(TOY, seed=0)
    windows = toy_windows()
    bundle = model.forward(windows, training=True)
    # Force perfection: target equals the forecast, reconstructions equal raws.
    bundle.reconstructions = bundle.raw_patches
    parts = mlf_loss(bundle, bundle.forecast.data.copy())
    assert float(parts.total.data) == pytest.approx(0.0, abs=1e-15)


def test_loss_hand_arithmetic():
    # Forecast MSE 1 plus reconstruction terms (2, 4)/2 -> total 4.
    from mlf.autograd import Tensor
    from mlf.model import ForecastBundle

    bundle = ForecastBundle(
        forecast=Tensor(np.array([[1.0, 3.0]])),
        period_forecasts=[],
        att=None,
        reconstructions=[Tensor(np.full((1, 1, 2), np.sqrt(2.0))), Tensor(np.full((1, 1, 2), 2.0))],
        raw_patches=[Tensor(np.zeros((1, 1, 2))), Tensor(np.zeros((1, 1, 2)))],
    )
    parts = mlf_loss(bundle, np.array([[0.0, 2.0]]))
    assert float(parts.total.data) == pytest.approx(4.0)


def test_block_average_and_reconstruction_term_equal_the_left_to_right_loop(monkeypatch):
    def loop_mean(terms):  # the sum-then-scale that `autograd.average` replaced
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return (1.0 / len(terms)) * total

    head_forecasts, run_head = [], SppHead.__call__

    def record_head(self, block):
        out = run_head(self, block)
        head_forecasts.append(out[0])
        return out

    monkeypatch.setattr(SppHead, "__call__", record_head)
    cfg = replace(TOY, period_lengths=(4, 8, 16), n_blocks=3)
    bundle = build_model(cfg, seed=0).forward(toy_windows(cfg=cfg), training=True)
    n = cfg.n_periods
    for s, forecast in enumerate(bundle.period_forecasts):
        assert np.array_equal(forecast.data, loop_mean(head_forecasts[s::n]).data)
    terms = [mse(rec, ref) for rec, ref in zip(bundle.reconstructions, bundle.raw_patches)]
    recon = reconstruction_loss(bundle.reconstructions, bundle.raw_patches)
    assert np.array_equal(recon.data, loop_mean(terms).data)


def test_the_inference_forward_frees_its_temporaries(monkeypatch):
    """Every period's embedding is dead when the first block starts, and the
    block's q, k and v are dead when its feed-forward runs."""
    embedded, heads, dead = [], [], {}
    run_embed, run_heads, run_block = model_module.embed, EncoderBlock._heads, EncoderBlock.__call__

    def record_embed(*args):
        out = run_embed(*args)
        embedded.append(weakref.ref(out.data))
        return out

    def record_heads(self, w, x):
        out = run_heads(self, w, x)
        heads.append(weakref.ref(out.data))
        return out

    def enter_block(self, x, **kwargs):
        dead.setdefault("embedded", [ref() is None for ref in embedded])
        return run_block(self, x, **kwargs)

    monkeypatch.setattr(model_module, "embed", record_embed)
    monkeypatch.setattr(EncoderBlock, "_heads", record_heads)
    monkeypatch.setattr(EncoderBlock, "__call__", enter_block)
    cfg = regime_config()
    model = build_model(cfg, seed=0)
    first, run_ff_in = model.blocks[0], model.blocks[0].ff_in

    def enter_ff(u):
        dead.setdefault("qkv", [ref() is None for ref in heads])
        return run_ff_in(u)

    first.ff_in = enter_ff
    model.forward(toy_windows(batch=16, cfg=cfg), training=False)
    assert dead == {"embedded": [True] * cfg.n_periods, "qkv": [True] * 3}


# -- ablation switches -------------------------------------------------------------


def test_apply_ablation_flags():
    assert apply_ablation(TOY, "irf").use_irf is False
    assert apply_ablation(TOY, "lwi").use_lwi is False
    assert apply_ablation(TOY, "ma").use_attention is False
    assert apply_ablation(TOY, "reconstruction_loss").use_reconstruction_loss is False
    with pytest.raises(ConfigError, match="unknown ablation flag"):
        apply_ablation(TOY, "bogus")


def test_no_attention_variant_runs_and_differs():
    windows = toy_windows(2, 4)
    base = build_model(TOY, seed=1).forward(windows, training=False)
    noma = build_model(apply_ablation(TOY, "ma"), seed=1).forward(windows, training=False)
    assert noma.forecast.shape == base.forecast.shape
    assert not np.allclose(base.forecast.data, noma.forecast.data)


def test_no_lwi_variant_uses_plain_mean():
    windows = toy_windows(2, 5)
    model = build_model(apply_ablation(TOY, "lwi"), seed=1)
    bundle = model.forward(windows, training=False)
    assert bundle.att is None
    stacked = np.mean([f.data for f in bundle.period_forecasts], axis=0)
    assert np.allclose(bundle.forecast.data, stacked)


def test_no_map_variant_runs_with_uneven_patch_counts():
    cfg = MlfConfig(
        period_lengths=(16, 32, 64),
        horizon=2,
        n_patches=8,
        squeeze_factor=2,
        d_model=4,
        n_heads=2,
        n_blocks=2,
        conv_filters=2,
        use_map=False,
    )
    model = build_model(cfg, seed=0)
    counts = [g.n_patches for g in model.geometries]
    assert counts == [2, 4, 8]  # grows with window length
    windows = toy_windows(3, 6, cfg)
    bundle = model.forward(windows, training=True)
    assert bundle.forecast.shape == (3, 2)
    sizes = [b - a for a, b in model.token_ranges]
    assert sizes == [1, 2, 4]


# -- gradient coverage -------------------------------------------------------------

# Tensors a variant does not build, as name patterns: what its forward never
# reads. The base config and the adaptive-patching ablation build every stage.
NOT_BUILT = {
    None: (),
    "irf": ("*.redundancy.*",),
    "lwi": ("lwi.*",),
    "map": (),
    "ma": ("block?.w[qkvo]", "block?.bn_*", "block?.ff_*"),
    "reconstruction_loss": ("squeeze.dec.*",),
}


def built_by(names, flag):
    """Of base's `names`, those that the `flag` variant builds."""
    return {name for name in names if not any(fnmatch(name, pat) for pat in NOT_BUILT[flag])}


@pytest.mark.parametrize("flag", [None, *ABLATION_FLAGS])
def test_one_step_gradient_coverage(flag):
    """Every parameter of every variant gets a gradient from one training backward."""
    cfg = replace(TOY, period_lengths=(8, 16)) if flag == "map" else TOY
    if flag is not None:
        cfg = apply_ablation(cfg, flag)
    model = build_model(cfg, seed=0)
    bundle = model.forward(toy_windows(3, 0, cfg), training=True)
    target = np.random.default_rng(1).standard_normal((3, cfg.horizon))
    backward(mlf_loss(bundle, target, use_reconstruction=cfg.use_reconstruction_loss).total)
    assert [name for name, p in model.params.items() if p.grad is None] == []
    assert built_by(model.params, flag) == set(model.params)


# Tensors and parameters of the paper-default model, by variant.
PAPER_CENSUS = {None: (102, 1_690_210), "irf": (94, 639_586), "lwi": (94, 1_302_898), "ma": (66, 1_590_562),
                "reconstruction_loss": (78, 1_662_352)}


def test_paper_default_parameter_count():
    cfg = MlfConfig(period_lengths=(96, 192, 336), horizon=24)
    for flag, (tensors, size) in PAPER_CENSUS.items():
        model = build_model(cfg if flag is None else apply_ablation(cfg, flag), seed=0)
        assert (len(model.params), sum(p.size for p in model.params.values())) == (tensors, size), flag
        redundancy = sorted({name.rsplit(".", 2)[0] for name in model.params if ".redundancy." in name})
        heads = [] if flag == "irf" else ["block0.spp.p0", "block0.spp.p1", "block1.spp.p0", "block1.spp.p1"]
        assert redundancy == heads, flag


# -- seeding ---------------------------------------------------------------------


def test_seed_streams_are_independent_and_reproducible():
    init_a, shuffle_a = seed_streams(123)
    init_b, shuffle_b = seed_streams(123)
    assert init_a.standard_normal(5) == pytest.approx(init_b.standard_normal(5))
    assert shuffle_a.standard_normal(5) == pytest.approx(shuffle_b.standard_normal(5))
    init_c, _ = seed_streams(124)
    assert not np.allclose(seed_streams(123)[0].standard_normal(5), init_c.standard_normal(5))


def test_same_seed_same_parameters_across_ablations():
    """Each variant that switches a stage off holds base's tensors minus those
    it does not build, each bit-equal to base's: a switched-off stage still
    spends its draws. The adaptive-patching ablation changes every patch
    shape, so it shares no initial weights with base."""
    base = build_model(TOY, seed=7).state_arrays()
    switched_off = [flag for flag in ABLATION_FLAGS if NOT_BUILT[flag]]
    assert set(ABLATION_FLAGS) - set(switched_off) == {"map"}
    for flag in switched_off:
        variant = build_model(apply_ablation(TOY, flag), seed=7).state_arrays()
        assert set(variant) == built_by(base, flag) != set(base), flag
        for name, array in variant.items():
            assert np.array_equal(array, base[name]), (flag, name)
