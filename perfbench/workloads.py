"""The benchmark workloads, their output checks and their metrics.

Every workload is a closed loop in one process, one image at a time, and
calls only names exported by the top-level proxdenoise package:

  denoise-local     read_image -> network_forward -> write_image with the
                    full-scale local models; inputs alternate a 512x512
                    gray image and a 256x256 color image.
  denoise-nonlocal  the same path with the full-scale nonlocal models;
                    inputs alternate 128x128 gray and 96x96 color.
  train-local       make_dataset + manifest_images at set-up, then
                    train_full (one greedy epoch per stage, one joint
                    epoch) + save_checkpoint per round, on 180x180 crops.

No trained weights exist, so each model is init_network(arch, seed=0)
saved as a checkpoint.  A run sets up (timed in fresh interpreters for
setup_s), runs the noise-ball checks of the denoise inputs (which also
warm up every layer), one untimed round under tracemalloc for
peak_mem_mb, and then timed rounds until the time is up.  Output checks
run outside the timed region; an operation that fails one counts against
ok_frac.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import proxdenoise as pd

from . import WORKLOADS, inputs
from .tracing import PER_LAYER, ROUND, Tracer

SIGMA = 25.0
SETUP_REPEATS = 9
EPOCHS = 1  # per training phase: each greedy stage, then the joint pass
BATCH_SIZE = 4
SOURCES = 3  # with make_dataset's default val fraction 0.2: 2 train crops + 1 held out
# the slack `proxdenoise eval` allows on the noise-ball check
BALL_SLACK = 16.0 * float(np.finfo(np.float32).eps)

END_TO_END = (
    ("setup_s", "s"),
    ("mpix_per_s", "Mpix/s"),
    ("peak_mem_mb", "MB"),
    ("psnr_db", "dB"),
    ("ok_frac", "frac"),
)


@dataclass(frozen=True)
class Slot:
    name: str
    size: int  # square side in pixels
    channels: int
    content: int  # seed of the fixed clean image


@dataclass(frozen=True)
class TrainSpec:
    crop: int
    source: int  # side of the square source images make_dataset crops


DENOISE_SLOTS = {
    False: (Slot("gray", 512, 1, 1), Slot("color", 256, 3, 2)),
    True: (Slot("gray", 24, 1, 1), Slot("color", 20, 3, 2)),
}
NONLOCAL_SLOTS = {
    False: (Slot("gray", 128, 1, 3), Slot("color", 96, 3, 4)),
    True: (Slot("gray", 24, 1, 3), Slot("color", 20, 3, 4)),
}
TRAIN_SPEC = {False: TrainSpec(crop=180, source=200), True: TrainSpec(crop=24, source=28)}


def architecture(variant, channels, smoke):
    if smoke:
        return pd.desk_architecture(variant, stages=2, channels=channels, filters=6,
                                    kernel=(3, 3), window=(7, 7), group_size=4)
    if channels == 1:
        return pd.grayscale_architecture(variant)
    return pd.color_architecture(variant)


# ------------------------------------------------------------------ checks


def output_ok(out, shape):
    """A denoised image must have the input's shape, be finite and lie in [0, 255]."""
    out = np.asarray(out)
    return (out.shape == shape and bool(np.all(np.isfinite(out)))
            and float(out.min()) >= 0.0 and float(out.max()) <= 255.0)


def inside_noise_balls(trace):
    """Every stage's residual norm must sit inside its ball, as `eval` checks."""
    return all(dist <= radius * (1.0 + BALL_SLACK) for dist, radius in trace)


def psnr_db(out, clean):
    err = np.asarray(out, dtype=np.float64) - np.asarray(clean, dtype=np.float64)
    return 10.0 * math.log10(255.0 ** 2 / float(np.mean(err * err)))


# ------------------------------------------------------------------ set-up

_PROBE = """
import sys
import proxdenoise
kind, *args = sys.argv[1:]
if kind == "denoise":
    for path in args:
        proxdenoise.load_checkpoint(path)
else:
    src, out, crop, seed = args
    manifest = proxdenoise.make_dataset(src, out, crop=int(crop), seed=int(seed))
    proxdenoise.manifest_images(proxdenoise.load_manifest(manifest), "train")
"""


def setup_seconds(src_dir, args):
    """Median wall time of a fresh interpreter that imports proxdenoise and
    does the workload's set-up."""
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    times = []
    for k in range(SETUP_REPEATS):
        argv = [a.replace("{k}", str(k)) for a in args]
        start = time.perf_counter()
        # no timeout: with one, subprocess polls the child with sleeps of up
        # to 50 ms, which would round this measurement to that step
        subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """State of one benchmark run: where it writes and what it measured."""

    def __init__(self, seed, seconds, trace, smoke, root, work):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.root = root
        self.work = work
        self.tracer = Tracer() if trace else None
        self.attempted = 0
        self.failed = 0
        self.metrics = {}
        self.notes = {}
        self.rounds = []  # phase labels of the timed rounds

    def phase(self, label):
        if self.tracer is not None:
            self.tracer.phase = label

    def timed_rounds(self, round_fn):
        """Call round_fn until the run's time is up; returns per-round results."""
        results = []
        deadline = time.perf_counter() + self.seconds
        while not results or time.perf_counter() < deadline:
            label = f"round{len(results)}"
            self.phase(label)
            if self.tracer is not None:
                results.append(self.tracer.span(ROUND, round_fn))
            else:
                results.append(round_fn())
        self.phase("check")
        self.rounds = [f"round{k}" for k in range(len(results))]
        return results

    def peak_mem_mb(self, round_fn):
        """tracemalloc peak of one untimed pass; skipped in traced runs."""
        if self.trace:
            return
        tracemalloc.start()
        try:
            round_fn()
            self.metrics["peak_mem_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


# --------------------------------------------------------------- denoising


def run_denoise(run, variant):
    slots = (DENOISE_SLOTS if variant == "local" else NONLOCAL_SLOTS)[run.smoke]
    clean, noisy_files, out_files, models = {}, {}, {}, {}
    for k, slot in enumerate(slots):
        img = inputs.clean_image(slot.content, slot.size, slot.size, slot.channels)
        clean[slot.name] = img
        ext = "pgm" if slot.channels == 1 else "ppm"
        noisy_files[slot.name] = run.work / f"noisy-{slot.name}.{ext}"
        out_files[slot.name] = run.work / f"out-{slot.name}.{ext}"
        inputs.write_netpbm(noisy_files[slot.name], inputs.add_noise(img, SIGMA, run.seed, k))
        models[slot.name] = run.work / f"model-{slot.name}.ckpt"
        pd.save_checkpoint(models[slot.name],
                           pd.init_network(architecture(variant, slot.channels, run.smoke), seed=0))
    if not run.trace:
        run.metrics["setup_s"] = setup_seconds(
            run.root / "src", ["denoise", *(str(p) for p in models.values())])

    if run.tracer is not None:
        run.tracer.install()
        run.tracer.calibrate()
    params = {name: pd.load_checkpoint(path) for name, path in models.items()}

    # noise-ball check per input; it also warms up every layer
    run.phase("check")
    ball_ok = {}
    for slot in slots:
        y = pd.read_image(noisy_files[slot.name])
        ball_ok[slot.name] = inside_noise_balls(pd.noise_estimate_trace(y, SIGMA, params[slot.name]))

    def one_round():
        times, outs = [], []
        for slot in slots:
            # a fresh file: on ext4, overwriting a written file flushes it on close
            out_files[slot.name].unlink(missing_ok=True)
            start = time.perf_counter()
            y = pd.read_image(noisy_files[slot.name])
            out = pd.network_forward(y, SIGMA, params[slot.name])
            pd.write_image(out_files[slot.name], out)
            times.append(time.perf_counter() - start)
            outs.append(out)
        return times, outs

    run.peak_mem_mb(one_round)
    results = run.timed_rounds(one_round)

    reference = results[0][1]
    for _, outs in results:
        for slot, out, ref in zip(slots, outs, reference):
            ok = (ball_ok[slot.name] and output_ok(out, clean[slot.name].shape)
                  and np.array_equal(out, ref))  # the same input must give the same output
            run.attempted += 1
            run.failed += 0 if ok else 1

    pixels = sum(slot.size * slot.size for slot in slots)
    median_times = [statistics.median(times[k] for times, _ in results) for k in range(len(slots))]
    run.metrics["mpix_per_s"] = pixels / sum(median_times) / 1e6
    run.metrics["psnr_db"] = statistics.fmean(
        psnr_db(out, clean[slot.name]) for slot, out in zip(slots, reference))
    run.notes["rounds"] = len(results)
    run.notes["round_s"] = [sum(times) for times, _ in results]


# ----------------------------------------------------------------- training


def run_train(run):
    spec = TRAIN_SPEC[run.smoke]
    src_dir = run.work / "sources"
    src_dir.mkdir()
    for k in range(SOURCES):
        img = inputs.clean_image(10 + k, spec.source, spec.source, 1)
        inputs.write_netpbm(src_dir / f"source{k}.pgm", img)
    if not run.trace:
        run.metrics["setup_s"] = setup_seconds(
            run.root / "src",
            ["train", str(src_dir), str(run.work / "setup{k}"), str(spec.crop), str(run.seed)])

    if run.tracer is not None:
        run.tracer.install()
        run.tracer.calibrate()
    manifest = pd.load_manifest(pd.make_dataset(src_dir, run.work / "data", crop=spec.crop,
                                                seed=run.seed))
    images = pd.manifest_images(manifest, "train")
    val = pd.manifest_images(manifest, "val")
    arch = architecture("local", 1, run.smoke)
    config = pd.TrainConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, noise_grid=(SIGMA,),
                            seed=run.seed)
    ckpt = run.work / "trained.ckpt"

    def one_round():
        ckpt.unlink(missing_ok=True)  # see run_denoise
        start = time.perf_counter()
        params, log = pd.train_full(images, arch, config)
        pd.save_checkpoint(ckpt, params)
        elapsed = time.perf_counter() - start
        return elapsed, log, ckpt.read_bytes(), params

    run.peak_mem_mb(one_round)
    results = run.timed_rounds(one_round)

    # the trained model must keep every stage inside its noise ball
    first_params = results[0][3]
    ball_ok = all(
        inside_noise_balls(pd.noise_estimate_trace(inputs.add_noise(x, SIGMA, run.seed, 100 + k),
                                                   SIGMA, first_params))
        for k, x in enumerate(val))
    samples = len(images) * (arch.stages + 1) * EPOCHS  # greedy per stage + joint
    for _, log, blob, _ in results:
        ok = (ball_ok and all(math.isfinite(v) for v in log)
              and roundtrip_ok(blob, run.work)
              and blob == results[0][2])  # the same config and seed give the same checkpoint
        run.attempted += samples
        run.failed += 0 if ok else samples

    crop_mpix = spec.crop * spec.crop / 1e6
    run.metrics["mpix_per_s"] = samples * crop_mpix / statistics.median(r[0] for r in results)
    # mean joint-epoch PSNR of the outputs: the negated train loss
    run.metrics["psnr_db"] = -results[0][1][-1] / len(images)
    run.notes["rounds"] = len(results)
    run.notes["round_s"] = [r[0] for r in results]
    run.notes["train_samples_per_s"] = samples / statistics.median(r[0] for r in results)
    run.notes["train_loss_db"] = results[0][1][-1] / len(images)


def roundtrip_ok(blob, work):
    """Loading a saved checkpoint and saving it again must give the same bytes."""
    saved, resaved = work / "check.ckpt", work / "resaved.ckpt"
    resaved.unlink(missing_ok=True)
    saved.write_bytes(blob)
    pd.save_checkpoint(resaved, pd.load_checkpoint(saved))
    return resaved.read_bytes() == blob


# ---------------------------------------------------------------- the run


def execute(workload, seed, seconds, trace, smoke, root):
    """Run one workload; returns (result line dict, notes dict)."""
    work = root / ".perfbench_work" / f"{workload}-s{seed}-t{int(trace)}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(seed, seconds, trace, smoke, root, work)
    try:
        if workload == "train-local":
            run_train(run)
        else:
            run_denoise(run, workload.split("-")[1])
    finally:
        if run.tracer is not None:
            run.tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        values = run.tracer.metrics(run.rounds)
        units = {name: unit for name, unit, _ in PER_LAYER}
        run.notes["absent"] = run.tracer.absent_metrics()
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload}-s{seed}.json"
        trace_path.write_text(json.dumps({"workload": workload, "seed": seed,
                                          "metrics": values, **run.tracer.dump()}))
        run.notes["trace_file"] = str(trace_path.relative_to(root))
    else:
        run.metrics["ok_frac"] = 1.0 - run.failed / run.attempted
        values = run.metrics
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": metrics}
    return result, run.notes
