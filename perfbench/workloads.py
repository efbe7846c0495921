"""The three benchmark workloads.

Each workload is one closed-loop client: it sets up its inputs from the
seed, then runs rounds back to back, each round starting when the last
one ends. A round calls the package only through its public entry points
(`trainer.train`, `cli.main`, `load_checkpoint`, `PansharpenModel.forward`
and the metrics and diagnostics functions), always as module attributes
so that the tracer's wrappers see the calls.

Every workload counts operations it attempted and operations that
failed. An operation is a training run, an evaluated tile or a diagnose
call; one that raises or fails its correctness check is a failed one.
"""

import contextlib
import io
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from adwm import backbone, cli, data, diagnostics, metrics, trainer

ARMS = ("baseline", "ifw", "cfw", "adwm")
METHODS = ("cacw", "pool", "attention", "pca")
D_FRAC = 0.8

# the ablation protocol in tests/ablation_protocol.py: 512 training
# samples, 60 epochs, 3 seeds per arm
PROTOCOL_SAMPLES = 512 * 60 * 3

PSNR_TOL_DB = 1e-9      # checkpoint recompute is the same float64 arithmetic
REPORT_RTOL = 1e-8      # report values are written with 10 significant digits


@dataclass(frozen=True)
class Sizes:
    size: int           # training patch edge, pixels
    bands: int
    channels: int
    blocks: int
    batch: int
    n_train: int
    n_val: int
    epochs: int
    compare_epochs: int
    tile: int           # full-resolution tile edge, pixels
    tile_bands: int
    tiles: int
    probes: int


# protocol shape: B=16, 64x64, 4 bands, C=16, N=4; one validation forward
# per optimizer step, as in the protocol (32 steps and 32 held-out
# samples per epoch)
FULL = Sizes(size=64, bands=4, channels=16, blocks=4, batch=16, n_train=16,
             n_val=1, epochs=2, compare_epochs=1, tile=256, tile_bands=8,
             tiles=4, probes=2)
SMOKE = Sizes(size=16, bands=4, channels=4, blocks=2, batch=2, n_train=2,
              n_val=1, epochs=2, compare_epochs=1, tile=32, tile_bands=8,
              tiles=2, probes=1)


def _quiet_main(argv):
    """cli.main with its stdout captured, so ours stays a clean report."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _finite(x):
    return isinstance(x, float) and math.isfinite(x)


def _csv_rows(path):
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


class Workload:
    name = ""
    layers = ()  # layers whose spans the traced run must show

    def __init__(self, seed, sizes, root):
        self.seed = seed
        self.sizes = sizes
        self.root = root
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.times = {}       # operation kind -> wall seconds of each one
        self.round_time = 0.0

    def timed(self, kind, fn, *args):
        """Run one operation and record its wall time; checks stay outside."""
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        self.times.setdefault(kind, []).append(dt)
        self.round_time += dt
        return out

    def median_s(self, kind):
        """Median time of one kind of operation; NaN when none succeeded."""
        values = self.times.get(kind)
        return statistics.median(values) if values else math.nan

    def fail(self, n, why):
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def setup(self, where):
        """Generate this seed's inputs under `where`; they become current."""
        raise NotImplementedError

    def run_round(self, tracer):
        """One round of operations; `round_time` sums their wall times."""
        raise NotImplementedError

    def metrics(self):
        """(samples per second, {name: (value, unit)}) after the measured rounds."""
        raise NotImplementedError


class TrainProtocol(Workload):
    name = "train_protocol"
    layers = ("tensor", "backbone", "weighting", "cacw", "trainer", "data")

    def __init__(self, *args):
        super().__init__(*args)
        self.psnr = {}

    def setup(self, where):
        s = self.sizes
        d = os.path.join(where, "data")
        data.build_dataset(self.seed, s.n_train + s.n_val, s.size, s.size,
                           s.bands, d)
        pairs = data.load_dataset(d)
        train_ids, val_ids = data.split_ids([p.id for p in pairs], s.n_val)
        by_id = {p.id: p for p in pairs}
        self.train_pairs = [by_id[i] for i in train_ids]
        self.val_pairs = [by_id[i] for i in val_ids]

    def run_round(self, tracer):
        s = self.sizes
        for arm in ARMS:
            self.attempted += 1
            cfg = backbone.ModelConfig(bands=s.bands, channels=s.channels,
                                       blocks=s.blocks, variant=arm,
                                       generator="cacw")
            model = backbone.PansharpenModel(cfg, seed=self.seed)
            tcfg = trainer.TrainConfig(epochs=s.epochs, batch_size=s.batch,
                                       seed=self.seed)
            out = os.path.join(self.root, "runs", arm)
            try:
                result = self.timed(arm, trainer.train, model, self.train_pairs,
                                    self.val_pairs, tcfg, out)
            except Exception as e:  # a failed run is counted, not fatal
                self.fail(1, f"{arm}: train raised {e!r}")
                continue
            with tracer.paused():
                self._check(arm, result)

    def _check(self, arm, result):
        best = result.best_val_psnr
        if not _finite(best):
            return self.fail(1, f"{arm}: best_val_psnr {best!r} is not finite")
        if arm in self.psnr and self.psnr[arm] != best:
            return self.fail(1, f"{arm}: round repeated with psnr {best} != "
                                f"{self.psnr[arm]}")
        self.psnr.setdefault(arm, best)
        model = backbone.load_checkpoint(result.best_path)
        for p in model.params():
            p.requires_grad = False
        again = float(np.mean([metrics.psnr(v.gt, model.forward(v.pan, v.lrms).data)
                               for v in self.val_pairs]))
        if abs(again - best) > PSNR_TOL_DB:
            return self.fail(1, f"{arm}: checkpoint psnr {again} != logged {best}")
        with open(result.log_path) as f:
            rows = len(f.read().splitlines()) - 1
        if rows != self.sizes.epochs:
            return self.fail(1, f"{arm}: train_log.csv has {rows} rows for "
                                f"{self.sizes.epochs} epochs")

    def metrics(self):
        per_arm = self.sizes.n_train * self.sizes.epochs
        arm_s = {arm: self.median_s(arm) for arm in ARMS}
        samples_per_s = per_arm * len(arm_s) / sum(arm_s.values())
        psnr = float(np.mean(list(self.psnr.values()))) if self.psnr else math.nan
        projected = sum(t / per_arm * PROTOCOL_SAMPLES for t in arm_s.values())
        named = {
            "train_samples_per_s": (samples_per_s, "1/s"),
            "train_val_psnr_db": (psnr, "dB"),
            "protocol_projected_s": (projected, "s"),
        }
        for arm, t in arm_s.items():
            named[f"train_s.{arm}"] = (t, "s")
        return samples_per_s, named


class CompareSweep(Workload):
    name = "compare_sweep"
    layers = ("tensor", "backbone", "weighting", "cacw", "trainer", "data", "cli")

    def __init__(self, *args):
        super().__init__(*args)
        self.psnr = math.nan

    def setup(self, where):
        s = self.sizes
        self.data_dir = os.path.join(where, "data")
        data.build_dataset(self.seed, s.n_train + s.n_val, s.size, s.size,
                           s.bands, self.data_dir)

    def run_round(self, tracer):
        s = self.sizes
        out = fresh_dir(os.path.join(self.root, "compare"))
        argv = ["compare", "--data", self.data_dir, "--methods", ",".join(METHODS),
                "--d-frac", D_FRAC, "--epochs", s.compare_epochs,
                "--channels", s.channels, "--blocks", s.blocks,
                "--batch-size", s.batch, "--test-count", s.n_val,
                "--seed", self.seed, "--out", out]
        self.attempted += len(METHODS)
        try:
            rc = self.timed("sweep", _quiet_main, argv)
        except Exception as e:
            return self.fail(len(METHODS), f"compare raised {e!r}")
        if rc != 0:
            return self.fail(len(METHODS), f"compare exited {rc}")
        with tracer.paused():
            self._check(os.path.join(out, "comparison.csv"))

    def _check(self, csv_path):
        s = self.sizes
        rows = _csv_rows(csv_path)
        if [r["method"] for r in rows] != list(METHODS):
            return self.fail(len(METHODS), "comparison.csv rows are "
                                           f"{[r['method'] for r in rows]}")
        rows = {r["method"]: r for r in rows}
        flops = diagnostics.count_flops(s.size, s.size, s.channels, s.blocks,
                                        d_fraction=D_FRAC).total
        psnr = []
        for m in METHODS:
            r = rows[m]
            if int(r["flops"]) != flops:
                self.fail(1, f"{m}: flops {r['flops']} != count_flops {flops}")
            elif not math.isfinite(float(r["psnr"])):
                self.fail(1, f"{m}: psnr {r['psnr']} is not finite")
            else:
                psnr.append(float(r["psnr"]))
        if psnr and math.isnan(self.psnr):
            self.psnr = float(np.mean(psnr))

    def metrics(self):
        s = self.sizes
        samples = len(METHODS) * s.n_train * s.compare_epochs
        samples_per_s = samples / self.median_s("sweep")
        named = {
            "compare_samples_per_s": (samples_per_s, "1/s"),
            "compare_val_psnr_db": (self.psnr, "dB"),
        }
        return samples_per_s, named


class EvalFullres(Workload):
    name = "eval_fullres"
    layers = ("tensor", "backbone", "weighting", "cacw", "data", "metrics",
              "diagnostics", "cli")

    def __init__(self, *args):
        super().__init__(*args)
        self.report = None
        self.psnr = math.nan

    def setup(self, where):
        s = self.sizes
        self.data_dir = os.path.join(where, "tiles")
        data.build_dataset(self.seed, s.tiles, s.tile, s.tile, s.tile_bands,
                           self.data_dir)
        cfg = backbone.ModelConfig(bands=s.tile_bands, channels=s.channels,
                                   blocks=s.blocks, variant="adwm")
        model = backbone.PansharpenModel(cfg, seed=self.seed)
        rng = np.random.default_rng([self.seed, 1])
        for p in model.params():
            # small enough to keep the fused image near the bilinear one,
            # large enough that the decoder and every gate do real work
            p.data += 0.002 * rng.standard_normal(p.data.shape)
        self.ckpt = os.path.join(where, "model.ckpt")
        backbone.save_checkpoint(self.ckpt, model)
        self.ids = [r["id"] for r in data.read_manifest(self.data_dir)]

    def run_round(self, tracer):
        s = self.sizes
        report = os.path.join(self.root, "report.csv")
        self.attempted += s.tiles
        try:
            rc = self.timed("eval", _quiet_main,
                            ["eval", "--model", self.ckpt, "--data", self.data_dir,
                             "--report", report, "--full-res"])
        except Exception as e:
            rc = repr(e)
        if rc != 0:
            self.fail(s.tiles, f"eval failed: {rc}")
        else:
            with tracer.paused():
                self._check_report(report)
        for i in range(s.probes):
            self.attempted += 1
            out = fresh_dir(os.path.join(self.root, f"diagnose{i}"))
            try:
                rc = self.timed("diagnose", _quiet_main,
                                ["diagnose", "--model", self.ckpt, "--data",
                                 self.data_dir, "--out", out,
                                 "--sample", self.ids[i % len(self.ids)]])
            except Exception as e:
                rc = repr(e)
            if rc != 0:
                self.fail(1, f"diagnose failed: {rc}")
                continue
            for f in ("scree.csv", "entropy.csv", "weight_trace.csv"):
                path = os.path.join(out, f)
                if not os.path.isfile(path) or len(_csv_rows(path)) == 0:
                    self.fail(1, f"diagnose wrote no rows to {f}")
                    break

    def _check_report(self, path):
        with open(path) as f:
            # the metadata comments name the input paths, the rows must repeat
            text = [ln for ln in f if not ln.startswith("#")]
        rows = [r for r in _csv_rows(path) if r["id"] != "mean"]
        if self.report is not None:
            if text != self.report:
                self.fail(len(rows), "report differs from the first round's")
            return
        self.report = text
        if len(rows) != self.sizes.tiles:
            self.fail(self.sizes.tiles, f"report has {len(rows)} tile rows")
            return
        model = backbone.load_checkpoint(self.ckpt)
        scale = model.config.scale
        for row in rows[:2]:
            pair = data.load_sample(self.data_dir, row["id"])
            pred = model.forward(pair.pan, pair.lrms).data
            pan_low = data.blur_bands(pair.pan[:, :, None])[::scale, ::scale, 0]
            direct = metrics.evaluate_reference(pair.gt, pred)
            direct.update(metrics.evaluate_noreference(pred, pair.lrms, pair.pan,
                                                       pan_low))
            for k, v in direct.items():
                if not math.isclose(float(row[k]), v, rel_tol=REPORT_RTOL,
                                    abs_tol=1e-12):
                    self.fail(1, f"{row['id']}: report {k}={row[k]} but direct "
                                 f"call gives {v!r}")
                    break
        self.psnr = float(np.mean([float(r["psnr"]) for r in rows]))

    def metrics(self):
        eval_per_s = self.sizes.tiles / self.median_s("eval")
        probes_per_s = 1.0 / self.median_s("diagnose")
        named = {
            "eval_samples_per_s": (eval_per_s, "1/s"),
            "diagnose_probes_per_s": (probes_per_s, "1/s"),
            "eval_psnr_db": (self.psnr, "dB"),
        }
        return eval_per_s, named


WORKLOADS = {w.name: w for w in (TrainProtocol, CompareSweep, EvalFullres)}
