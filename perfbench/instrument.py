"""Layer wrappers for the traced run, and the per-layer metrics read from them.

`install` wraps the public functions of sensor_io, tactile_image, augment,
model, continual and evaluate that the workloads reach, replacing each name
in every taclearn module that binds it. Conv blocks are told apart by their
output-channel count, read from a freshly built backend, so the mapping
follows the model's architecture rather than a list kept here. The conv
FLOP and im2col byte counts are computed from tensor shapes, not measured.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path

from spans import Patcher, Tracer, self_times

# (name, unit, better) for every per-layer metric; the benchmark reports all of them.
PER_LAYER = [
    ("augment.random_augment.self_s", "s", "lower"),
    ("augment.random_augment.calls", "count", "lower"),
    ("tactile_image.images_built", "count", "lower"),
    ("tactile_image.prepare_for_model.self_s", "s", "lower"),
    ("tactile_image.prepare_for_model.calls", "count", "lower"),
    ("model.prepare_batch.self_s", "s", "lower"),
    *[(f"model.block{i}.{d}_s", "s", "lower") for d in ("fwd", "bwd") for i in range(4)],
    ("model.conv.flops", "flop-computed", "lower"),
    ("model.conv.cols_bytes", "bytes-computed", "lower"),
    ("model.forward.calls", "count", "lower"),
    ("model.backward.calls", "count", "lower"),
    ("model.sgd_step.self_s", "s", "lower"),
    ("model.embed_images.images", "count", "lower"),
    ("model.checkpoint_io.self_s", "s", "lower"),
    ("sensor_io.load_manifest_streams.self_s", "s", "lower"),
    ("sensor_io.load_manifest_streams.bytes", "bytes", "lower"),
    ("sensor_io.generate_synthetic.self_s", "s", "lower"),
    ("sensor_io.generate_synthetic.calls", "count", "lower"),
    ("tactile_image.normalize.self_s", "s", "lower"),
    ("continual.herding_order.self_s", "s", "lower"),
    ("continual.herding_order.rows", "count", "lower"),
    ("continual.rls_update.self_s", "s", "lower"),
    ("continual.rls_update.samples", "count", "lower"),
    ("continual.ridge_solve.self_s", "s", "lower"),
    ("continual.ridge_solve.calls", "count", "lower"),
    ("continual.fine_tune.self_s", "s", "lower"),
    ("evaluate.sweep.self_s", "s", "lower"),
    ("evaluate.predict.images", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

def _len_count(key, arg=1):
    return lambda result, args, kwargs: {key: len(args[arg])}


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every traced layer; `patcher.restore()` undoes all of it."""
    from taclearn import augment, continual, evaluate, sensor_io, tactile_image
    from taclearn.model import backend, layers, train

    blocks = {w.shape[0]: (i, w[0].size) for i, w in enumerate(backend.ConvNetBackend().weights)}

    def conv_name(direction):
        def name(first, second, *rest, **kwargs):
            c_out = second.shape[0] if direction == "fwd" else first.shape[1]
            return f"model.block{blocks[c_out][0]}.{direction}"
        return name

    def conv_forward_counts(result, args, kwargs):
        out = result[0]
        n, c_out, out_h, out_w = out.shape
        k = blocks[c_out][1]
        return {"model.conv.flops": 2 * n * c_out * k * out_h * out_w,
                "model.conv.cols_bytes": n * k * out_h * out_w * out.itemsize}

    def conv_backward_counts(result, args, kwargs):
        n, c_out, out_h, out_w = args[0].shape
        # dW and dX are one GEMM each, both the size of the forward GEMM.
        return {"model.conv.flops": 4 * n * c_out * blocks[c_out][1] * out_h * out_w}

    def manifest_bytes(result, args, kwargs):
        manifest, _ = result
        base = Path(args[0]).parent
        return {"sensor_io.load_manifest_streams.bytes":
                sum((base / e.path).stat().st_size for e in manifest.entries)}

    def sweep_images(result, args, kwargs):
        return {"evaluate.predict.images": len(args[1]) * len(args[3])}

    functions = [
        (sensor_io.generate_synthetic, "sensor_io.generate_synthetic", None),
        (sensor_io.load_manifest_streams, "sensor_io.load_manifest_streams", manifest_bytes),
        (tactile_image.normalize, "tactile_image.normalize", None),
        (tactile_image.prepare_for_model, "tactile_image.prepare_for_model", None),
        (augment.random_augment, "augment.random_augment", None),
        (train.prepare_batch, "model.prepare_batch", None),
        (train.embed_images, "model.embed_images", _len_count("model.embed_images.images")),
        (train.sgd_step, "model.sgd_step", None),
        (backend.save_checkpoint, "model.checkpoint_io", None),
        (backend.load_checkpoint, "model.checkpoint_io", None),
        (continual.herding_order, "continual.herding_order",
         lambda result, args, kwargs: {"continual.herding_order.rows": len(args[0])}),
        (continual.rls_update, "continual.rls_update", _len_count("continual.rls_update.samples", 2)),
        (continual.ridge_solve, "continual.ridge_solve", None),
        (continual.fine_tune, "continual.fine_tune", None),
        (evaluate.noise_sweep, "evaluate.sweep", sweep_images),
        (evaluate.speed_sweep, "evaluate.sweep", sweep_images),
        (evaluate.length_sweep, "evaluate.sweep", sweep_images),
    ]
    for fn, name, count in functions:
        patcher.replace(fn, tracer.traced(fn, name, count))
    patcher.replace(layers.conv_forward,
                    tracer.traced(layers.conv_forward, conv_name("fwd"), conv_forward_counts))
    patcher.replace(layers.conv_backward,
                    tracer.traced(layers.conv_backward, conv_name("bwd"), conv_backward_counts))
    net = backend.ConvNetBackend
    patcher.replace_attr(net, "forward", tracer.traced(net.forward, "model.forward"))
    patcher.replace_attr(net, "backward", tracer.traced(net.backward, "model.backward"))
    image = tactile_image.TactileImage
    patcher.replace_attr(image, "__post_init__",
                         tracer.counted(image.__post_init__, "tactile_image.images_built"))


def metrics(tracer: Tracer, untraced_wall: float, traced_wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced replay, plus every span's total self time.

    Both walls are measured around the replays' CLI calls, independently of
    the spans. The replay runs each CLI command under a root span named
    ``cli``, so ``cli.self_s`` is the time no layer span covers, and the self
    times of all spans should add up to ``trace.wall_s``.
    """
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span.name] += own
        calls[span.name] += 1
    values = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name == "trace.wall_s":
            values[name] = traced_wall
        elif name == "trace.overhead_frac":
            values[name] = traced_wall / untraced_wall - 1.0
        elif field == "calls":
            values[name] = calls[base]
        elif field == "self_s":
            values[name] = self_s[base]
        elif field in ("fwd_s", "bwd_s"):
            values[name] = self_s[f"{base}.{field[:-2]}"]
        else:
            values[name] = tracer.counts.get(name, 0)
    return values, dict(self_s)
