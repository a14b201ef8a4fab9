"""Command-line driver: mesh generation, smoothing, quality reporting and
oscillation-model data export.

Exit codes: 0 success, 1 usage error, 2 I/O or parse error (a file without
elements among them) or a facet shared by more than two elements, 3 the
smoothed mesh still contains invalid elements (the mesh is written
regardless).
`getme smooth` pins the detected domain boundary of a file without boundary
flags.
"""

import argparse
import sys

import numpy as np

from .errors import GetmeError, InvalidTopology, ParseError
from .generators import KINDS, GeneratorSpec, generate
from .geometry import AdaptiveParams
from .io import FORMATS, _codec, read_mesh, write_mesh
from .mesh import Mesh, detect_boundary, validate
from .oscillator import (
    compare_discrete_continuous,
    is_convergent,
    spectrum,
    write_comparison_csv,
)
from .quality import mesh_quality
from .smoothing import (
    GUARD_NONE,
    GUARD_RESET,
    SmootherConfig,
    adaptive_config,
    smart_laplace,
    smooth,
)

SMOOTHERS = ("getme", "getme-adaptive", "smart-laplace")


def _parse_seed(text):
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be a decimal or 0x-prefixed integer, got {text!r}"
        ) from None


def _parse_triangle(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "triangle must be six comma-separated numbers x0,y0,x1,y1,x2,y2"
        )
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return np.array(values).reshape(3, 2)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="getme",
        description="Mesh smoothing by regularizing element transformations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("smooth", help="smooth a mesh file")
    p.add_argument("--in", dest="infile", required=True, metavar="F")
    p.add_argument("--out", dest="outfile", required=True, metavar="F")
    p.add_argument("--smoother", required=True, choices=SMOOTHERS)
    p.add_argument("--alpha0", type=float)
    p.add_argument("--alpha1", type=float)
    p.add_argument("--inner", type=int)
    p.add_argument("--max-iter", type=int,
                   default=SmootherConfig.max_iterations)
    p.add_argument("--error-bound", type=float,
                   default=SmootherConfig.error_bound)
    p.add_argument("--guard", choices=(GUARD_RESET, GUARD_NONE),
                   default=SmootherConfig.guard)
    p.add_argument("--report", metavar="F.json")
    p.add_argument("--format", choices=FORMATS)

    p = sub.add_parser("quality", help="report mesh quality")
    p.add_argument("--in", dest="infile", required=True, metavar="F")
    p.add_argument("--report", metavar="F.json")
    p.add_argument("--format", choices=FORMATS)

    p = sub.add_parser("generate", help="build a parametric test mesh")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--resolution", type=int, default=GeneratorSpec.resolution)
    p.add_argument("--jitter", type=float, default=GeneratorSpec.jitter)
    p.add_argument("--seed", type=_parse_seed, default=GeneratorSpec.seed)
    p.add_argument("--out", dest="outfile", required=True, metavar="F")
    p.add_argument("--format", choices=FORMATS)

    p = sub.add_parser("ode-compare",
                       help="discrete vs continuous radius table")
    p.add_argument("--triangle", type=_parse_triangle, required=True,
                   metavar="x0,y0,x1,y1,x2,y2")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", dest="outfile", required=True, metavar="F.csv")

    p = sub.add_parser("spectrum", help="eigenvalues of the radius system")
    p.add_argument("--alpha0", type=float, required=True)
    p.add_argument("--alpha1", type=float, required=True)

    return parser


def _write_report(report, path):
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(report.to_json(indent=2) + "\n")


def _cmd_smooth(args):
    _codec(args.outfile, args.format)   # an unusable --out fails first
    if (args.alpha0 is None) != (args.alpha1 is None):
        raise GetmeError("--alpha0 and --alpha1 must be given together")
    settings = dict(inner_iterations=args.inner, max_iterations=args.max_iter,
                    error_bound=args.error_bound, guard=args.guard)
    if args.alpha0 is not None:
        settings["params"] = AdaptiveParams(args.alpha0, args.alpha1)
    cfg = SmootherConfig(**settings)   # checked before the input is read
    if args.smoother != "smart-laplace":   # SmartLaplace ignores the gains
        cfg.params.require_transform_valid()
    mesh = read_mesh(args.infile, args.format)
    if args.smoother == "getme-adaptive":   # its preset needs the element type
        cfg = adaptive_config(mesh.element_type, **settings)
    if not mesh.boundary_given:
        mesh = Mesh(mesh.vertices, mesh.elements, mesh.element_type,
                    detect_boundary(mesh))
        print(f"note: {args.infile} has no boundary flags; pinning the "
              f"{mesh.boundary_mask.sum()} vertices of its domain boundary",
              file=sys.stderr)
    if mesh.boundary_mask.all():
        print("note: every vertex is pinned, so none moves", file=sys.stderr)
    smoother = smart_laplace if args.smoother == "smart-laplace" else smooth
    result = smoother(mesh, cfg)
    write_mesh(result.mesh, args.outfile, args.format)
    _write_report(result.report, args.report)
    print(
        f"smoothed {len(mesh.elements)} {mesh.element_type.value} elements in "
        f"{result.iterations_run} iterations: mean quality "
        f"{result.report.iteration_trace[0][1]:.6f} -> {result.report.mean:.6f}"
    )
    invalid = validate(result.mesh)
    if invalid:
        print(f"warning: {len(invalid)} invalid elements remain "
              f"(indices {invalid[:10]}{'...' if len(invalid) > 10 else ''})",
              file=sys.stderr)
        return 3
    return 0


def _cmd_quality(args):
    mesh = read_mesh(args.infile, args.format)
    report = mesh_quality(mesh)
    _write_report(report, args.report)
    print(report.to_json(indent=2))
    return 0


def _cmd_generate(args):
    _codec(args.outfile, args.format)
    spec = GeneratorSpec(args.kind, resolution=args.resolution,
                         jitter=args.jitter, seed=args.seed)
    mesh = generate(spec)
    write_mesh(mesh, args.outfile, args.format)
    print(f"wrote {len(mesh.vertices)} vertices, {len(mesh.elements)} "
          f"{mesh.element_type.value} elements to {args.outfile}")
    return 0


def _cmd_ode_compare(args):
    if args.steps < 0:
        raise GetmeError("--steps must be non-negative")
    rows = compare_discrete_continuous(args.triangle, args.steps)
    with open(args.outfile, "w", encoding="ascii") as fh:
        write_comparison_csv(rows, fh)
    print(f"wrote {len(rows)} rows to {args.outfile}")
    return 0


def _cmd_spectrum(args):
    params = AdaptiveParams(args.alpha0, args.alpha1)
    spec = spectrum(params)
    verdict = "convergent" if is_convergent(params) else "divergent"
    print(f"lambda0 = {spec.lambda0:.15g}")
    print(f"lambda1,2 = {spec.lambda12_real:.15g} "
          f"+- {spec.lambda12_imag:.15g} i")
    print(verdict)
    return 0


_COMMANDS = {
    "smooth": _cmd_smooth,
    "quality": _cmd_quality,
    "generate": _cmd_generate,
    "ode-compare": _cmd_ode_compare,
    "spectrum": _cmd_spectrum,
}


def run(argv=None):
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.subcommand](args)
    except (ParseError, InvalidTopology, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GetmeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
