"""Command-line entry points.

Subcommands: generate (synthetic dataset), run (experiment from config),
score (checkpoint over a pool), refine (weak-label one image), report
(correlation regeneration from logs).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, segmenter, selection, weaklabeler
from .core import ProbMap, image_from_pgm, load_dataset, mask_to_pgm, read_pgm, save_dataset
from .harness import SyntheticSpec


def _cmd_generate(args) -> int:
    spec = SyntheticSpec(
        n_samples=args.n,
        image_size=args.size,
        shape=args.shape,
        noise_level=args.noise,
        occlusion_prob=args.occlusion,
        seed=args.seed,
    )
    samples = harness.generate_synthetic(spec)
    save_dataset(args.out, samples)
    print(f"wrote {len(samples)} samples under {args.out}")
    return 0


def _cmd_run(args) -> int:
    cfg = harness.parse_config(args.config)
    cfg = harness.with_keys(cfg, {"seed": args.seed, "output.dir": args.out})
    results = harness.run_experiment(cfg)
    for name, result in results.items():
        final = result.records[-1].test_dsc if result.records else result.base_test_dsc
        print(f"{name}: base_dsc={result.base_test_dsc:.4f} "
              f"final_dsc={final:.4f} iterations={len(result.records)}")
    print(f"reports under {cfg.output_dir}")
    return 0


def _cmd_score(args) -> int:
    params = segmenter.load_params(args.checkpoint)
    samples = load_dataset(args.data)
    harness.check_ids(samples, args.data)
    rows = []
    for s in samples:
        pred = segmenter.predict(params, s.image)
        rows.append((0, selection.score_sample(pred, s.id), "none"))
    harness.write_scores_csv(args.out, rows)
    print(f"scored {len(rows)} samples into {args.out}")
    return 0


def _cmd_refine(args) -> int:
    image = image_from_pgm(args.image)
    prob = ProbMap(read_pgm(args.prob).astype(np.float64) / 255.0)
    if prob.values.shape != image.values.shape:
        (ph, pw), (ih, iw) = prob.values.shape, image.values.shape
        raise ValueError(f"{args.prob}: the map is {pw}x{ph} but the image {args.image} is {iw}x{ih}")
    ensemble = weaklabeler.load_ensemble(args.ensemble)
    mask = weaklabeler.refine(ensemble, image, prob)
    mask_to_pgm(args.out, mask)
    print(f"wrote refined mask to {args.out}")
    return 0


def _cmd_report(args) -> int:
    pairs = harness.read_correlation_pairs(args.pairs)
    coeff = harness.report_correlation(pairs, args.out)
    print(f"rank correlation over {len(pairs)} pairs: {coeff:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="activeseg",
        description="Active-learning engine for binary image segmentation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec = harness.default_experiment().dataset
    g = sub.add_parser("generate", help="write a synthetic PGM dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, default=spec.n_samples)
    g.add_argument("--size", type=int, default=spec.image_size)
    g.add_argument("--shape", choices=harness.SHAPE_KINDS, default=spec.shape)
    g.add_argument("--noise", type=float, default=spec.noise_level)
    g.add_argument("--occlusion", type=float, default=spec.occlusion_prob)
    g.add_argument("--seed", type=int, default=spec.seed)
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("run", help="run an experiment from a config file")
    r.add_argument("--config", required=True)
    r.add_argument("--out", default=None)
    r.add_argument("--seed", type=int, default=None)
    r.set_defaults(func=_cmd_run)

    s = sub.add_parser("score", help="score a dataset with a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--data", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_score)

    f = sub.add_parser("refine", help="weak-label one image with an ensemble snapshot")
    f.add_argument("--image", required=True)
    f.add_argument("--prob", required=True, help="probability map as an 8-bit PGM (v/255)")
    f.add_argument("--ensemble", required=True)
    f.add_argument("--out", required=True)
    f.set_defaults(func=_cmd_refine)

    p = sub.add_parser("report", help="regenerate the correlation report from a pairs CSV")
    p.add_argument("--pairs", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
