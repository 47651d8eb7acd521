"""End-to-end walkthrough: build a network, fuse it, segment a synthetic
street scene, and write the label map plus a colorized overlay.

Run from the repository root:  python3 demos/segment_image.py
"""

import argparse
import pathlib

import numpy as np

from enetcpu import (
    argmax_labels,
    build_enet,
    execute,
    init_weights,
    optimize,
    plan_buffers,
    save_colormap,
    save_labelmap,
    save_ppm,
)


def synthetic_scene(h, w, seed=0):
    """A toy street scene: sky gradient, road wedge, and a few boxes."""
    rng = np.random.default_rng(seed)
    img = np.zeros((3, h, w), dtype=np.float32)
    sky = np.linspace(0.9, 0.4, h, dtype=np.float32)[:, None]
    img[2] = sky                      # blue fades toward the horizon
    img[0] = sky * 0.5
    img[1] = sky * 0.7
    yy, xx = np.mgrid[0:h, 0:w]
    road = yy > h * 0.55 + 0.08 * np.abs(xx - w / 2)
    img[:, road] = 0.35               # gray asphalt
    for _ in range(6):                # buildings and obstacles
        y0 = int(rng.integers(0, h // 2))
        x0 = int(rng.integers(0, w - 8))
        bh = int(rng.integers(6, h // 3))
        bw = int(rng.integers(6, 20))
        color = rng.random(3).astype(np.float32) * 0.6 + 0.2
        img[:, y0:y0 + bh, x0:x0 + bw] = color[:, None, None]
    img += rng.normal(0.0, 0.01, img.shape).astype(np.float32)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--classes", type=int, default=8)
    ap.add_argument("--size", type=int, default=128, help="square input size")
    ap.add_argument("--out-dir", default="demo_out")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    print(f"building the network for {args.classes} classes "
          f"at 3x{args.size}x{args.size} ...")
    g = build_enet(args.classes, args.size, args.size)
    store = init_weights(g, seed=42)
    print(f"  {len(g.nodes)} graph nodes, "
          f"{sum(v.size for v in store.values()):,} parameters")

    g, store, report = optimize(g, store)
    print(f"  optimize: {report.summary()}")

    img = synthetic_scene(args.size, args.size)
    save_ppm(img, out / "scene.ppm")

    plan = plan_buffers(g)
    print(f"value buffer: {plan.peak_bytes / 1e6:.1f} MB "
          f"(vs {plan.no_reuse_bytes / 1e6:.1f} MB without reuse)")
    print(f"frame peak (plan): {plan.frame_peak_bytes / 1e6:.1f} MB "
          f"(values, window codes and convolution scratch held at once, "
          f"the logits included)")

    logits = execute(g, store, img, plan)
    labels = argmax_labels(logits)
    save_labelmap(labels, out / "labels.pgm")

    # deterministic palette so repeated runs produce identical files
    rng = np.random.default_rng(7)
    palette = {c: tuple(int(v) for v in rng.integers(0, 256, 3))
               for c in range(args.classes)}
    save_colormap(labels, palette, out / "labels_color.ppm")

    hist = np.bincount(labels.ravel(), minlength=args.classes)
    print("class histogram over the output:")
    for c, n in enumerate(hist):
        share = n / labels.size
        print(f"  class {c}: {n:6d} px ({share:5.1%})")
    print(f"wrote {out / 'scene.ppm'}, {out / 'labels.pgm'}, "
          f"{out / 'labels_color.ppm'}")


if __name__ == "__main__":
    main()
