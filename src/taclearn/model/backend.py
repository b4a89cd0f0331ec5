"""Convolutional embedding backend and checkpoint serialization.

The backend is a stack of stride-2 conv+ReLU blocks followed by global
average pooling, so any input above the minimum spatial size maps to a
fixed-length embedding. It stands in for a large pretrained vision encoder:
train it once on one dataset, then reuse the checkpoint as the frozen
embedding model for transfer and continual-learning experiments.

Checkpoints are a `TACM` file: magic, u32 version, u32 header length, a
UTF-8 text header describing the architecture / heads / metadata, then all
parameters as little-endian float32 in header order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from ..prng import Prng
from . import layers

_CKPT_MAGIC = b"TACM"
_CKPT_VERSION = 1

DEFAULT_WIDTHS = (16, 32, 64, 128)
MIN_INPUT = 8  # below this the stride-2 stack sees mostly padding


@dataclass
class LinearHead:
    """Dense classification head: logits = emb @ weights + bias."""

    weights: np.ndarray  # (d, C)
    bias: np.ndarray  # (C,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.shape != (self.weights.shape[1],):
            raise ValidationError(
                f"head shapes disagree: weights {self.weights.shape}, bias {self.bias.shape}"
            )
        if not (np.isfinite(self.weights).all() and np.isfinite(self.bias).all()):
            raise ValidationError("head parameters must be finite")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    def logits(self, emb: np.ndarray) -> np.ndarray:
        if emb.shape[-1] != self.in_dim:
            raise ValidationError(
                f"embedding dim {emb.shape[-1]} does not match head input {self.in_dim}"
            )
        return layers.linear_forward(np.atleast_2d(emb), self.weights, self.bias)

    def clone(self) -> "LinearHead":
        return LinearHead(self.weights.copy(), self.bias.copy())

    @classmethod
    def zeros(cls, in_dim: int, out_dim: int) -> "LinearHead":
        return cls(np.zeros((in_dim, out_dim)), np.zeros(out_dim))


class ConvNetBackend:
    """Size-agnostic conv encoder; embed(x) has fixed length for any valid x.

    `embed_images` and training resize every image to `input_width` (None
    keeps its width), which checkpoints store as ``meta input_width``."""

    def __init__(self, in_channels: int = 3, widths=DEFAULT_WIDTHS, kernel: int = 3,
                 stride: int = 2, seed: int = 0, input_width: int | None = None):
        if not widths:
            raise ValidationError("backend needs at least one conv block")
        self.in_channels = in_channels
        self.widths = tuple(int(w) for w in widths)
        self.kernel = kernel
        self.stride = stride
        self.input_width = input_width
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        rng = Prng(seed).spawn(0)
        c_in = in_channels
        for i, c_out in enumerate(self.widths):
            fan_in = c_in * kernel * kernel
            limit = np.sqrt(6.0 / fan_in)
            w = rng.uniform(-limit, limit, size=(c_out, c_in, kernel, kernel))
            self.weights.append(np.asarray(w))
            self.biases.append(np.zeros(c_out))
            c_in = c_out

    @property
    def input_width(self) -> int | None:
        return self._input_width

    @input_width.setter
    def input_width(self, width) -> None:
        # load_checkpoint refuses any other stored width
        if width is not None and (isinstance(width, bool) or not isinstance(width, (int, np.integer))
                                  or width < 1):
            raise ValidationError(f"input_width must be an integer >= 1 or None, got {width!r}")
        self._input_width = None if width is None else int(width)

    @property
    def embed_dim(self) -> int:
        return self.widths[-1]

    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def num_params(self) -> int:
        return sum(p.size for p in self.params())

    def get_flat(self) -> np.ndarray:
        return np.concatenate([p.ravel() for p in self.params()])

    def set_flat(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.num_params(),):
            raise ValidationError(
                f"flat parameter vector has {vec.size} entries, expected {self.num_params()}"
            )
        offset = 0
        for p in self.params():
            p[...] = vec[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def clone(self) -> "ConvNetBackend":
        other = ConvNetBackend(self.in_channels, self.widths, self.kernel, self.stride,
                               input_width=self.input_width)
        other.set_flat(self.get_flat())
        return other

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        """(N, H, W) planes, each fed to every input channel as one read-only
        view (conv_forward copies its input), or (N, in_channels, H, W) input.
        float32 input stays float32; any other input becomes float64."""
        x = np.asarray(x)
        x = x if x.dtype == np.float32 else x.astype(np.float64, copy=False)
        if x.ndim not in (3, 4) or (x.ndim == 4 and x.shape[1] != self.in_channels):
            raise ValidationError(
                f"expected (N, H, W) planes or (N, {self.in_channels}, H, W) input, "
                f"got shape {x.shape}"
            )
        if x.shape[-2] < MIN_INPUT or x.shape[-1] < MIN_INPUT:
            raise ValidationError(
                f"input {x.shape[-2]}x{x.shape[-1]} below minimum {MIN_INPUT}x{MIN_INPUT}"
            )
        if not np.isfinite(x).all():
            raise ValidationError("backend input contains non-finite values")
        if x.ndim == 3:
            x = np.broadcast_to(x[:, None], (len(x), self.in_channels, *x.shape[1:]))
        return x

    def forward(self, x: np.ndarray, keep_cache: bool = True):
        """Returns (embeddings (N, d), cache for backward), computed in the
        input's dtype (see `_check_input`).

        With `keep_cache=False` the pass is forward-only: the cache is None,
        so each block's padded input and columns are freed when it returns.
        """
        x = self._check_input(x)
        caches = []
        h = x
        for w, b in zip(self.weights, self.biases):
            h, conv_cache = layers.conv_forward(h, w, b, self.stride, pad=self.kernel // 2,
                                                keep_cache=keep_cache)
            # ReLU in place on the fresh GEMM output; its output is positive
            # exactly where its input is, so it is also backward's mask
            np.maximum(h, 0.0, out=h)
            if keep_cache:
                caches.append((conv_cache, h))
        emb, gap_shape = layers.gap_forward(h)
        return emb, (caches, gap_shape) if keep_cache else None

    def backward(self, demb: np.ndarray, cache):
        """float64 gradients for every parameter, aligned with params(),
        computed in the forward pass's dtype. Consumes `cache`: each block's
        columns and mask are dropped once used."""
        caches, gap_shape = cache
        dh = layers.gap_backward(demb.astype(caches[-1][1].dtype, copy=False), gap_shape)
        grads: list[np.ndarray] = []
        for i in reversed(range(len(caches))):
            conv_cache, mask = caches.pop()
            dh = layers.relu_backward(dh, mask)
            # nothing upstream of block 0 takes a gradient
            dh, dw, db = layers.conv_backward(dh, conv_cache, input_grad=i > 0)
            grads.append(db.astype(np.float64, copy=False))
            grads.append(dw.astype(np.float64, copy=False))
        grads.reverse()
        return grads

    def embed_batch(self, x: np.ndarray) -> np.ndarray:
        """Embeddings (N, d) from a forward-only pass, which keeps no cache."""
        return self.forward(x, keep_cache=False)[0]

    def arch_header(self) -> str:
        widths = ",".join(str(w) for w in self.widths)
        return f"backend in={self.in_channels} kernel={self.kernel} stride={self.stride} widths={widths}"

    @classmethod
    def from_arch_header(cls, line: str, num_params: int) -> "ConvNetBackend":
        """The backend `line` describes, checked to hold `num_params` parameters
        before any of them is allocated."""
        try:
            fields = dict(part.split("=", 1) for part in line.split()[1:])
            widths = tuple(int(w) for w in fields["widths"].split(","))
            in_channels, kernel = int(fields["in"]), int(fields["kernel"])
            stride = int(fields["stride"])
        except (KeyError, ValueError, IndexError):
            raise ValidationError(f"bad backend descriptor: {line!r}") from None
        if min(in_channels, kernel, stride, *widths) < 1:
            raise ValidationError(f"bad backend descriptor: {line!r}")
        described = sum(c_out * (c_in * kernel * kernel + 1)
                        for c_in, c_out in zip((in_channels,) + widths, widths))
        if described != num_params:
            raise ValidationError(
                f"backend descriptor {line!r} describes {described} parameters, "
                f"{num_params} are stored for it"
            )
        return cls(in_channels, widths, kernel, stride)


@dataclass
class Checkpoint:
    """A backend plus named heads and free-form string metadata; `meta`
    holds no ``input_width``, which is saved from the backend's."""

    backend: ConvNetBackend
    heads: dict[str, LinearHead] = field(default_factory=dict)
    meta: dict[str, str] = field(default_factory=dict)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    header_lines = [ckpt.backend.arch_header()]
    flat_parts = [ckpt.backend.get_flat()]
    for name, head in ckpt.heads.items():
        if any(ch.isspace() for ch in name):
            raise ValidationError(f"head name may not contain whitespace: {name!r}")
        header_lines.append(f"head {name} {head.in_dim} {head.out_dim}")
        flat_parts.append(head.weights.ravel())
        flat_parts.append(head.bias.ravel())
    if "input_width" in ckpt.meta:
        raise ValidationError("the input width is the backend's input_width, not a meta entry")
    meta = dict(ckpt.meta)
    if ckpt.backend.input_width is not None:
        meta["input_width"] = str(ckpt.backend.input_width)
    for key, value in meta.items():
        if any(ch.isspace() for ch in key) or "\n" in value:
            raise ValidationError(f"bad meta entry {key!r}")
        header_lines.append(f"meta {key} {value}")
    header = ("\n".join(header_lines) + "\n").encode("utf-8")
    flat = np.concatenate(flat_parts).astype("<f4")
    if not np.isfinite(flat).all():  # also float64 values that overflow float32
        raise ValidationError("checkpoint parameters must be finite in float32")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", _CKPT_MAGIC, _CKPT_VERSION, len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", flat.size))
        fh.write(flat.tobytes())


def load_checkpoint(path) -> Checkpoint:
    if not Path(path).is_file():
        raise ValidationError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != _CKPT_MAGIC:
        raise ValidationError(f"{path}: not a taclearn checkpoint")
    _, version, header_len = struct.unpack("<4sII", raw[:12])
    if version != _CKPT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {version}")
    offset = 12 + header_len
    if offset + 4 > len(raw):
        raise ValidationError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = raw[12:offset].decode("utf-8").splitlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: checkpoint header is not UTF-8") from None
    (n_params,) = struct.unpack_from("<I", raw, offset)
    payload_bytes = len(raw) - (offset + 4)
    if payload_bytes != 4 * n_params:
        raise ValidationError(
            f"{path}: header declares {n_params} parameters but {payload_bytes} payload bytes follow"
        )
    flat = np.frombuffer(raw, dtype="<f4", offset=offset + 4).astype(np.float64)

    backend_line = None
    head_specs: list[tuple[str, int, int]] = []
    meta: dict[str, str] = {}
    for line in header:
        if not line.strip():
            continue
        kind = line.split()[0]
        try:
            if kind == "backend":
                backend_line = line
            elif kind == "head":
                _, name, d, c = line.split()
                if int(d) < 1 or int(c) < 1:
                    raise ValueError
                head_specs.append((name, int(d), int(c)))
            elif kind == "meta":
                _, key, value = line.split(" ", 2)
                meta[key] = value
            else:
                raise ValidationError(f"{path}: unknown header line {line!r}")
        except ValueError:
            raise ValidationError(f"{path}: bad header line {line!r}") from None
    if backend_line is None:
        raise ValidationError(f"{path}: checkpoint has no backend descriptor")
    width = meta.pop("input_width", None)
    if width is not None and not (width.isdecimal() and int(width) >= 1):
        raise ValidationError(
            f"{path}: checkpoint input_width must be a positive integer, got {width!r}")

    pos = flat.size - sum(d * c + c for _, d, c in head_specs)
    try:
        backend = ConvNetBackend.from_arch_header(backend_line, pos)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    if not np.isfinite(flat).all():
        raise ValidationError(f"{path}: checkpoint parameters must be finite")
    backend.set_flat(flat[:pos])
    backend.input_width = None if width is None else int(width)
    heads: dict[str, LinearHead] = {}
    for name, d, c in head_specs:
        w = flat[pos : pos + d * c].reshape(d, c)
        pos += d * c
        b = flat[pos : pos + c]
        pos += c
        heads[name] = LinearHead(w.copy(), b.copy())
    return Checkpoint(backend=backend, heads=heads, meta=meta)
