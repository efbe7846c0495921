"""Command-line entry point.

Subcommands: gen-data, train, eval, diagnose, compare-weighting (alias
compare), gradcheck. Exit codes: 0 success, 2 usage or configuration
error or a named path the command cannot read or write, 3 numeric
failure. A flat `key = value` file passed via --config
can stand in for any flag set; explicit flags win over file values.
"""

import argparse
import errno
import io
import os
import shutil
import sys

import numpy as np

from . import diagnostics
from .backbone import VARIANTS, ModelConfig, PansharpenModel, load_checkpoint
from .cacw import WEIGHT_GENERATORS
from .data import build_dataset, degrade_bands, load_sample, read_manifest
from .errors import AdwmError, NumericError, UsageError
from .metrics import evaluate_noreference, evaluate_reference, write_report_csv
from .tensor import (
    Tensor,
    _node,
    bias_act,
    channel_scale,
    concat,
    conv2d,
    gradcheck,
    softmax,
    spatial_mean,
    stack,
)
# train stays importable from here because the perfbench span tracer
# patches it on this module as well; the commands train through train_runs
from .trainer import RUN_SETTINGS, TrainConfig, train, train_runs  # noqa: F401
from .weighting import adwm_param_count

VARIANT_CHOICES = VARIANTS + ("all",)


# ----------------------------------------------------------------------
# config file support

def _read_config_file(path):
    if not os.path.isfile(path):
        raise UsageError(f"config file {path} does not exist")
    with open(path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise UsageError(f"config file {path} is not UTF-8: {e.reason} "
                         f"(at byte offset {e.start})") from None
    out = {}
    # newline=None splits lines as reading the file in text mode does
    for ln, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key = value, got {line!r}")
        k, v = line.split("=", 1)
        out[k.strip().replace("-", "_")] = v.strip()
    return out


def _parse_bool(raw):
    low = raw.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot read {raw!r} as a boolean")


def _config_tokens(args):
    """The --config file's entries as flag tokens for the command's parser."""
    actions = {a.dest: a for a in args._subparser._actions
               if a.option_strings and a.dest != "help"}
    tokens = []
    for key, raw in _read_config_file(args.config).items():
        if key == "config":
            continue
        action = actions.get(key)
        if action is None:
            raise UsageError(f"config file sets unknown option {key!r}")
        flag = action.option_strings[-1]
        if isinstance(action, argparse._StoreTrueAction):
            try:
                tokens += [flag] if _parse_bool(raw) else []
            except ValueError as e:
                raise UsageError(f"config value {key}={raw!r}: {e}")
        elif action.nargs == 2:
            tokens += [flag] + raw.replace(",", " ").split()
        else:
            tokens.append(f"{flag}={raw}")
    return tokens


def _check_required(args):
    missing = [
        name for name in getattr(args, "required_flags", ())
        if getattr(args, name) is None
    ]
    if missing:
        flags = ", ".join("--" + m.replace("_", "-") for m in missing)
        raise UsageError(f"missing required option(s): {flags}")


# ----------------------------------------------------------------------
# shared helpers

def _check_writable(path):
    """Raise the OSError that writing the file `path` would, before any work
    whose result goes there is done. Creates nothing."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK) or (
            os.path.exists(path) and not os.access(path, os.W_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _fractions(raw):
    """--d-frac as a list of floats: one number, or several comma-separated."""
    try:
        return [float(x) for x in str(raw).split(",")]
    except ValueError:
        raise UsageError(f"--d-frac takes comma-separated numbers, got {raw!r}") from None


def _train_runs(args, runs):
    """train_runs over the command's dataset and shared settings."""
    return train_runs(args.data, args.test_count, runs,
                      {name: getattr(args, name) for name in RUN_SETTINGS})


# ----------------------------------------------------------------------
# subcommands

def cmd_gen_data(args):
    manifest = build_dataset(
        args.seed, args.count, args.size[0], args.size[1], args.bands, args.out
    )
    print(manifest)
    return 0


def cmd_train(args):
    fracs = _fractions(args.d_frac)
    if len(fracs) != 1:
        raise UsageError(f"train takes one --d-frac value, got {args.d_frac!r}")
    if args.log and args.variant == "all":
        raise UsageError(
            "--log takes one variant's log; with --variant all each arm's "
            "log is at OUT/<variant>/train_log.csv"
        )
    if args.log:
        _check_writable(args.log)
    variants = VARIANTS if args.variant == "all" else [args.variant]
    runs = {
        os.path.join(args.out, v) if args.variant == "all" else args.out:
            ({"variant": v, "d_fraction": fracs[0], "generator": args.generator},
             args.seed)
        for v in variants
    }
    for cfg, result in _train_runs(args, runs):
        print(f"{cfg.variant}: best_val_psnr={result.best_val_psnr:.4f} "
              f"final={result.final_path}")
        if args.log:
            shutil.copyfile(result.log_path, args.log)
            print(args.log)
    return 0


def cmd_eval(args):
    _check_writable(args.report)
    model = load_checkpoint(args.model)
    rows = read_manifest(args.data)
    if rows[0]["c"] != model.config.bands:
        raise UsageError(
            f"dataset has {rows[0]['c']} bands but the checkpoint was "
            f"trained with {model.config.bands}"
        )
    report_rows = []
    for row in rows:
        s = load_sample(args.data, row["id"])
        pred = model.forward(s.pan, s.lrms).data
        m = {"id": s.id}
        m.update(evaluate_reference(s.gt, pred))
        if args.full_res:
            pan_low = degrade_bands(s.pan[:, :, None])[:, :, 0]
            m.update(evaluate_noreference(pred, s.lrms, s.pan, pan_low))
        report_rows.append(m)
    write_report_csv(
        args.report, report_rows,
        metadata={"dataset": args.data, "model": args.model,
                  "variant": model.config.variant},
    )
    means = {
        k: float(np.mean([r[k] for r in report_rows]))
        for k in report_rows[0] if k != "id"
    }
    print(args.report)
    print(" ".join(f"{k}={v:.4f}" for k, v in means.items()))
    return 0


def cmd_diagnose(args):
    model = load_checkpoint(args.model)
    rows = read_manifest(args.data)
    probe = load_sample(args.data, args.sample or rows[0]["id"])
    os.makedirs(args.out, exist_ok=True)

    # only the weights dict is kept: the fused image is freed before the
    # spectra start
    weights = model.forward(probe.pan, probe.lrms, return_weights=True)[1]
    entries = diagnostics.layer_spectra(weights)
    scree_rows = []
    entropy_rows = []
    series = []
    for e in entries:
        diagnostics.svg_heatmap(
            os.path.join(args.out, f"covariance_layer{e['layer']}.svg"),
            e["covariance"],
            title=f"channel covariance, block {e['layer']}",
        )
        for idx, v in enumerate(e["scree"]):
            scree_rows.append((e["layer"], idx, float(v)))
        entropy_rows.append((e["layer"], float(e["entropy"])))
        series.append(
            (f"block {e['layer']}", list(range(len(e["scree"]))),
             [float(v) for v in e["scree"]])
        )
    diagnostics.write_rows_csv(
        os.path.join(args.out, "scree.csv"), ["layer", "index", "value"], scree_rows
    )
    diagnostics.write_rows_csv(
        os.path.join(args.out, "entropy.csv"), ["layer", "entropy"], entropy_rows
    )
    diagnostics.svg_line_plot(
        os.path.join(args.out, "scree.svg"), series, title="eigenvalue spectra"
    )

    if model.ifw is not None or model.cfw is not None:
        trace = diagnostics.weight_trace(weights)
        diagnostics.write_rows_csv(
            os.path.join(args.out, "weight_trace.csv"),
            ["epoch", "layer", "index", "weight"], trace,
        )

    H, W = probe.pan.shape
    cfg = model.config
    f = diagnostics.count_flops(H, W, cfg.channels, cfg.blocks,
                                d_fraction=cfg.d_fraction)
    diagnostics.write_rows_csv(
        os.path.join(args.out, "flops.csv"), ["component", "count"],
        sorted(f.as_dict().items()),
    )
    print(args.out)
    return 0


def cmd_compare(args):
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError(f"--methods names no weighting method, got {args.methods!r}")
    for m in methods:
        if m not in WEIGHT_GENERATORS:
            raise UsageError(
                f"unknown weighting method {m!r}; "
                f"choose from {sorted(WEIGHT_GENERATORS)}"
            )
    if len(set(methods)) != len(methods):
        raise UsageError(f"--methods names a method twice, got {args.methods!r}")
    fracs = _fractions(args.d_frac)
    # each run's directory is named by the fraction's label
    if len({f"{frac:g}" for frac in fracs}) != len(fracs):
        raise UsageError(
            f"--d-frac names one run directory twice, got {args.d_frac!r}")
    runs = {
        os.path.join(args.out, f"{method}_d{frac:g}"):
            ({"variant": "adwm", "d_fraction": frac, "generator": method}, args.seed)
        for method in methods for frac in fracs
    }

    # the flops column counts at the dataset's pan size
    H, W = (read_manifest(args.data)[0][k] for k in ("H", "W"))
    lines = [
        "# params column counts the weighting modules only",
        "# flops column is the dual-level weighting multiply count "
        "(covariance + mlp + gate + combine) at these dimensions",
        "method,d_frac,params,flops,psnr",
    ]
    for cfg, result in _train_runs(args, runs):
        params = adwm_param_count(cfg.weighting_config())
        flops = diagnostics.count_flops(
            H, W, cfg.channels, cfg.blocks, d_fraction=cfg.d_fraction
        ).total
        lines.append(f"{cfg.generator},{cfg.d_fraction:g},{params},{flops},"
                     f"{result.best_val_psnr:.10g}")
        print(lines[-1])
    csv_path = os.path.join(args.out, "comparison.csv")
    with open(csv_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    print(csv_path)
    return 0


def _gradcheck_suite(seed, corrupt=False):
    """Per-op finite-difference verification; returns [(name, err)]."""
    from .cacw import (AttentionWeights, CacwModule, PcaWeights, PoolWeights, cacw_forward,
                       centered_gram, compute_covariance, normalize_covariance)
    from .weighting import AdwmConfig, _channel_observations, aggregate, make_adwm_modules
    from .backbone import upsample_bilinear

    rng = np.random.default_rng(seed)

    def t(*shape):
        return Tensor(rng.standard_normal(shape))

    fixed_k = t(2, 2, 3, 3)
    proj33 = t(3, 3)
    cases = [
        ("add", lambda: gradcheck(lambda a, b: (a + b).sum(), [t(3, 4), t(3, 4)])),
        ("mul", lambda: gradcheck(lambda a, b: (a * b).sum(), [t(3, 4), t(3, 4)])),
        ("div", lambda: gradcheck(
            lambda a, b: (a / b).sum(),
            [t(3, 3), Tensor(rng.standard_normal((3, 3)) + 3.0)])),
        ("matmul", lambda: gradcheck(lambda a, b: (a @ b).sum(), [t(3, 4), t(4, 2)])),
        ("conv2d", lambda: gradcheck(
            lambda x, k: conv2d(x, k).sum(), [t(5, 5, 2), fixed_k])),
        ("leaky_relu", lambda: gradcheck(lambda a: a.leaky_relu().sum(), t(4, 4))),
        # bias_act writes over its input, so it gets a fresh copy of a
        ("bias_act", lambda: gradcheck(
            lambda a, b: (bias_act(a * 1.0, b, leaky=True) * a).sum(),
            [t(2, 3, 3, 2), t(2)])),
        ("bias_act_linear", lambda: gradcheck(
            lambda a, b: (bias_act(a * 1.0, b) * a).sum(), [t(3, 3, 2), t(2)])),
        ("bias_act_residual", lambda: gradcheck(
            lambda a, b, f: (bias_act(a * 1.0, b, residual=f) * f).sum(),
            [t(2, 3, 3, 2), t(2), t(2, 3, 3, 2)])),
        ("channel_scale", lambda: gradcheck(
            lambda a, b: (channel_scale(a, b) * a).sum(), [t(2, 3, 3, 2), t(2, 2)])),
        ("sigmoid", lambda: gradcheck(lambda a: a.sigmoid().sum(), t(4, 4))),
        ("sqrt", lambda: gradcheck(
            lambda a: a.sqrt().sum(), Tensor(rng.random((4, 4)) + 0.5))),
        ("abs", lambda: gradcheck(lambda a: a.abs().sum(), t(4, 4))),
        ("sum", lambda: gradcheck(lambda a: (a.sum(axis=0) * proj33).sum(),
                                  t(4, 3, 3))),
        ("mean", lambda: gradcheck(lambda a: a.mean().sum(), t(4, 4))),
        ("reshape", lambda: gradcheck(lambda a: a.reshape(2, 6).abs().sum(),
                                      t(3, 4))),
        ("transpose", lambda: gradcheck(lambda a: (a.T * a.T).sum(), t(3, 4))),
        ("diagonal", lambda: gradcheck(lambda a: a.diagonal().sum(), t(4, 4))),
        ("softmax", lambda: gradcheck(lambda a: (softmax(a) * proj33).sum(),
                                      t(3, 3))),
        ("spatial_mean", lambda: gradcheck(
            lambda a: spatial_mean(a).sum(), t(3, 4, 4))),
        ("concat", lambda: gradcheck(
            lambda a, b: concat([a, b], axis=0).abs().sum(), [t(2, 3), t(1, 3)])),
        ("stack", lambda: gradcheck(
            lambda a, b: stack([a, b], axis=0).abs().sum(), [t(2, 3), t(2, 3)])),
        ("upsample", lambda: gradcheck(
            lambda a: upsample_bilinear(a, 2).abs().sum(), t(3, 3, 2))),
        ("covariance", lambda: gradcheck(
            lambda X: compute_covariance(X).abs().sum(), t(8, 3))),
        ("correlation", lambda: gradcheck(
            lambda X: normalize_covariance(compute_covariance(X)).abs().sum(),
            t(8, 3))),
        ("centered_gram", lambda: gradcheck(
            lambda X: (centered_gram(X) * proj33).sum(), t(2, 8, 3))),
    ]

    results = []
    for name, fn in cases:
        results.append((name, float(fn())))

    mod = CacwModule(4, seed=seed)
    for p in mod.params():
        p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
    X = t(10, 4)
    probe = [X] + mod.params()
    results.append((
        "weight_generator",
        float(gradcheck(lambda x, *_: cacw_forward(mod, x).sum(), probe)),
    ))

    # the Gram's second caller
    att = AttentionWeights(4, seed=seed)
    for p in att.params():
        p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
    X = t(10, 4)
    results.append((
        "attention_weights",
        float(gradcheck(lambda x, *_: att.forward(x).sum(), [X] + att.params())),
    ))

    # the pool generator's column means, through the observations' reshape
    # of a batch of maps and through the head
    pool = PoolWeights(4, seed=seed)
    for p in pool.params():
        p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
    F = t(2, 3, 3, 4)
    results.append((
        "pool_weights",
        float(gradcheck(lambda f, *_: pool.forward(_channel_observations(f)).sum(),
                        [F] + pool.params())),
    ))

    # the PCA generator's head only: its eigenbasis is a constant by design
    pca = PcaWeights(4, seed=seed)
    for p in pca.params():
        p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
    X = t(10, 4)
    results.append((
        "pca_weights",
        float(gradcheck(lambda *_: pca.forward(X).sum(), pca.params())),
    ))

    wcfg = AdwmConfig(n_layers=2, channels=3)
    modules = make_adwm_modules(wcfg, seed=seed)
    for gen in modules["ifw"] + [modules["cfw"]]:
        for p in gen.params():
            p.data[...] = 0.3 * rng.standard_normal(p.data.shape)
    feats = [t(3, 3, 3), t(3, 3, 3)]
    wparams = [p for gen in modules["ifw"] + [modules["cfw"]] for p in gen.params()]
    results.append((
        "dual_level_weighting",
        float(gradcheck(
            lambda *_: aggregate(feats, modules["ifw"], modules["cfw"])[0].abs().sum(),
            [feats[0], feats[1]] + wparams)),
    ))

    model = PansharpenModel(
        ModelConfig(bands=2, channels=3, blocks=2, variant="adwm"), seed=seed
    )
    mrng = np.random.default_rng(seed + 1)
    for p in model.params():
        p.data[...] = 0.1 * mrng.standard_normal(p.data.shape)
    pan = mrng.random((8, 8))
    lrms = Tensor(mrng.random((2, 2, 2)))
    mproj = Tensor(mrng.standard_normal((8, 8, 2)))
    mparams = [lrms, model.enc_w, model.blocks[0]["w1"], model.dec_w,
               model.ifw[0].W2, model.cfw.W1]
    results.append((
        "model_end_to_end",
        float(gradcheck(
            lambda lt, *_: (model.forward(pan, lt) * mproj).sum(), mparams)),
    ))

    if corrupt:
        def bad_square(x):
            def backward(g):
                x._accumulate(1.9 * x.data * g)  # wrong factor, on purpose

            return _node(x.data * x.data, (x,), backward)

        results.append(
            ("corrupted_square", float(gradcheck(lambda a: bad_square(a).sum(),
                                                 t(3, 3))))
        )
    return results


def cmd_gradcheck(args):
    results = _gradcheck_suite(args.seed, corrupt=args.corrupt)
    worst = 0.0
    for name, err in results:
        print(f"{name}: {err:.3e}")
        worst = max(worst, err)
    if worst >= 1e-4:
        raise NumericError(f"gradient verification failed, worst error {worst:.3e}")
    print(f"all gradients verified, worst error {worst:.3e}")
    return 0


# ----------------------------------------------------------------------
# parser

def _seed(raw):
    """--seed's type: a non-negative integer, the seeds numpy accepts."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {raw!r}")
    return int(raw)


def _add_common_train_flags(p):
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--d-frac", dest="d_frac", default=str(ModelConfig.d_fraction))
    p.add_argument("--channels", type=int, default=ModelConfig.channels)
    p.add_argument("--blocks", type=int, default=ModelConfig.blocks)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr0", type=float, default=TrainConfig.lr0)
    p.add_argument("--halve-every", type=int, default=TrainConfig.halve_every)
    p.add_argument("--test-count", type=int, default=32)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="adwm",
        description="correlation-weighted pansharpening experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def new_command(name, fn, required, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--config", help="flat key = value file; flags override")
        p.set_defaults(fn=fn, _subparser=p, required_flags=required)
        return p

    p = new_command("gen-data", cmd_gen_data, ("out", "count", "size"),
                    help="write a synthetic dataset")
    p.add_argument("--out")
    p.add_argument("--count", type=int)
    p.add_argument("--size", type=int, nargs=2, metavar=("H", "W"))
    p.add_argument("--bands", type=int, default=4)
    p.add_argument("--seed", type=_seed, default=0)

    p = new_command("train", cmd_train, ("data", "out"),
                    help="train one variant or all four")
    p.add_argument("--variant", choices=VARIANT_CHOICES, default="adwm")
    p.add_argument("--out", help="run directory")
    p.add_argument("--log", help="also copy the log CSV here (one variant only)")
    p.add_argument("--generator", default=ModelConfig.generator,
                   choices=sorted(WEIGHT_GENERATORS))
    _add_common_train_flags(p)

    p = new_command("eval", cmd_eval, ("model", "data", "report"),
                    help="metrics report for a checkpoint")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--report")
    p.add_argument("--full-res", action="store_true", dest="full_res")

    p = new_command("diagnose", cmd_diagnose, ("model", "data", "out"),
                    help="redundancy and weight artifacts")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--out")
    p.add_argument("--sample", help="probe sample id (default: first)")

    p = new_command("compare-weighting", cmd_compare, ("data", "out"),
                    aliases=["compare"],
                    help="sweep weight generators and reduction fractions")
    p.add_argument("--methods", default="cacw")
    p.add_argument("--out")
    _add_common_train_flags(p)

    p = new_command("gradcheck", cmd_gradcheck, (),
                    help="finite-difference verification")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="inject a wrong backward rule; must fail")
    return ap


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            # file entries go ahead of the command line's own flags, so a
            # flag given there wins by position
            at = argv.index(args.command) + 1
            args = ap.parse_args(argv[:at] + _config_tokens(args) + argv[at:])
        _check_required(args)
        return args.fn(args)
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except AdwmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        # a path the user named, or one under it, that cannot be read or
        # written as the command needs: missing, a directory, a file
        if e.filename is None:
            raise
        print(f"error: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
