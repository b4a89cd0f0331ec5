"""Run one taclearn CLI command as a user would, and report its phase clocks.

    python3 perfbench/child.py STATS_JSON <taclearn arguments...>

Imports taclearn from ``src/`` of the current directory and calls its CLI
entry point. Before that it adds three light hooks, each a handful of clock
reads per call, never per image:

- the first call into ``ConvNetBackend.forward`` stamps the end of set-up;
  the hook then removes itself;
- ``model.train._train_loop`` is timed and its samples counted
  (images x epochs: every one goes through forward, backward and SGD);
- ``embed_images`` is timed and its images counted (forward only).

Clock values are ``time.monotonic()``, which is one clock for all processes,
so the caller can subtract its own spawn time. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from spans import Patcher
    from taclearn import cli
    from taclearn.model import backend, train

    stats = {"first_forward": None, "train_s": 0.0, "train_samples": 0,
             "embed_s": 0.0, "embed_images": 0}
    net = backend.ConvNetBackend
    forward = net.forward

    def first_forward(self, *args, **kwargs):
        stats["first_forward"] = time.monotonic()
        net.forward = forward
        return forward(self, *args, **kwargs)

    train_loop, embed_images = train._train_loop, train.embed_images

    def timed_train_loop(images, targets, cfg, *args, **kwargs):
        start = time.monotonic()
        try:
            return train_loop(images, targets, cfg, *args, **kwargs)
        finally:
            stats["train_s"] += time.monotonic() - start
            stats["train_samples"] += len(images) * cfg.epochs

    def timed_embed_images(backend_, images, *args, **kwargs):
        start = time.monotonic()
        try:
            return embed_images(backend_, images, *args, **kwargs)
        finally:
            stats["embed_s"] += time.monotonic() - start
            stats["embed_images"] += len(images)

    with Patcher("taclearn") as patcher:
        patcher.replace_attr(net, "forward", first_forward)
        patcher.replace(train_loop, timed_train_loop)
        patcher.replace(embed_images, timed_embed_images)
        code = cli.main(argv)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
