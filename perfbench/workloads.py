"""The benchmark's workloads: inputs built from a seed, the operations of one
pass, and the check of every operation's output.

The getme entry points are called through this module's own names
(``smooth``, ``cli_run``, ...), so a traced run can rebind them like any
other layer boundary.
"""

import contextlib
import hashlib
import io as textio
import json
import os
import re
from functools import partial

import numpy as np

from getme.cli import run as cli_run
from getme.generators import GeneratorSpec, generate
from getme.io import read_mesh, write_mesh
from getme.mesh import validate
from getme.quality import mesh_quality
from getme.smoothing import adaptive_config, smart_laplace, smooth

DEFAULT_SEED = 7


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


def outcome(elements, quality=None, inverted=0, smoothing=None, fingerprint=""):
    """What the benchmark keeps of one checked operation.  ``smoothing`` is
    ``(iterations, guard_events, vertices)`` for smoothing operations and is
    compared against the stored reference."""
    return {
        "elements": elements,
        "quality": quality,
        "inverted": inverted,
        "smoothing": smoothing,
        "fingerprint": fingerprint,
    }


def check_smoothed(before, after):
    """Connectivity kept, coordinates finite, boundary bit-identical.
    Returns the number of inverted or degenerate output elements."""
    if not np.array_equal(after.elements, before.elements):
        raise CheckFailed("element connectivity changed")
    if not np.all(np.isfinite(after.vertices)):
        raise CheckFailed("non-finite vertex coordinates")
    fixed = before.boundary_mask
    if after.vertices[fixed].tobytes() != before.vertices[fixed].tobytes():
        raise CheckFailed("a boundary vertex moved")
    return len(validate(after))


# ---------------------------------------------------------------------------
# Smoothing workloads: generated meshes through the library smoothers
# ---------------------------------------------------------------------------


SMOOTHERS = {
    "smooth": lambda mesh: smooth(mesh),
    "adaptive": lambda mesh: smooth(mesh, adaptive_config(mesh.element_type)),
    "smart_laplace": lambda mesh: smart_laplace(mesh),
}


class SmoothingWorkload:
    """Each mesh ``(label, kind, resolution, jitter, seed_offset)`` is run
    through each named smoother in ``SMOOTHERS``.  The mesh is generated with
    the workload seed plus ``seed_offset``, so several meshes of one kind
    can differ in their jitter."""

    def __init__(self, meshes, smoothers):
        self.meshes = meshes
        self.smoothers = smoothers

    def setup(self, seed, workdir):
        return {
            label: generate(GeneratorSpec(kind, res, jitter, seed + offset))
            for label, kind, res, jitter, offset in self.meshes
        }

    def ops(self, inputs):
        return [
            (f"{label}/{name}", lambda m=inputs[label], f=SMOOTHERS[name]: f(m))
            for label, *_ in self.meshes
            for name in self.smoothers
        ]

    def check(self, key, inputs, result):
        before = inputs[key.split("/")[0]]
        inverted = check_smoothed(before, result.mesh)
        guard = int(sum(result.guard_resets))
        report = result.report
        return outcome(
            len(before.elements), (report.mean, report.min), inverted,
            (result.iterations_run, guard, result.mesh.vertices),
            digest(result.mesh.vertices, result.iterations_run,
                   result.guard_resets, report.mean, report.min),
        )


# ---------------------------------------------------------------------------
# IO workload: files through the command line and the library readers
# ---------------------------------------------------------------------------


def run_cli(argv):
    """``getme`` command line in this process; returns (exit code, stdout)."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_run(argv)
    return code, out.getvalue()


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class IoWorkload:
    """``generate`` each mesh to Medit and VTK, ``quality --in`` on each
    file, ``smooth`` a desk quad file, and a library read/write round trip.

    A file whose bytes were already checked in this run is not parsed
    again: the same bytes give the same mesh.
    """

    def __init__(self, meshes, smooth_input, round_trip):
        self.meshes = meshes
        self.smooth_input = smooth_input
        self.round_trip = round_trip
        self._expected = {}
        self._checked = {}

    def _paths(self, workdir):
        return {
            (label, ext): os.path.join(workdir, f"{label}.{ext}")
            for label, *_ in self.meshes
            for ext in ("mesh", "vtk")
        }

    def setup(self, seed, workdir):
        label, kind, res, jitter = self.smooth_input
        source = os.path.join(workdir, f"{label}.mesh")
        write_mesh(generate(GeneratorSpec(kind, res, jitter, seed)), source)
        return {"seed": seed, "workdir": workdir, "smooth_in": source,
                "paths": self._paths(workdir)}

    def ops(self, inputs):
        paths, seed = inputs["paths"], inputs["seed"]
        ops = []
        for label, kind, res, jitter in self.meshes:
            for ext in ("mesh", "vtk"):
                argv = ["generate", "--kind", kind, "--resolution", str(res),
                        "--jitter", repr(jitter), "--seed", str(seed),
                        "--out", paths[label, ext]]
                ops.append((f"{label}.{ext}/generate",
                            lambda argv=argv: run_cli(argv)))
        for (label, ext), path in paths.items():
            ops.append((f"{label}.{ext}/quality",
                        lambda path=path: run_cli(["quality", "--in", path])))
        smoothed = os.path.join(inputs["workdir"], "smoothed.mesh")
        argv = ["smooth", "--in", inputs["smooth_in"], "--smoother", "getme",
                "--out", smoothed]
        ops.append((f"{self.smooth_input[0]}/cli-smooth",
                    lambda: run_cli(argv)))
        src = paths[self.round_trip]
        copy = os.path.join(inputs["workdir"], "round-trip.mesh")
        ops.append((f"{self.round_trip[0]}.{self.round_trip[1]}/round-trip",
                    lambda: self._round_trip(src, copy)))
        return ops

    @staticmethod
    def _round_trip(src, dst):
        mesh = read_mesh(src)
        write_mesh(mesh, dst)
        return mesh, dst

    def expected(self, label, seed):
        """The library's mesh for ``label`` and its quality report."""
        key = (label, seed)
        if key not in self._expected:
            _, kind, res, jitter = next(m for m in self.meshes if m[0] == label)
            mesh = generate(GeneratorSpec(kind, res, jitter, seed))
            self._expected[key] = (mesh, mesh_quality(mesh))
        return self._expected[key]

    def _read_checked(self, path, expected):
        """Read ``path`` once per distinct content and compare it with
        ``expected``; returns the file digest."""
        sha = file_digest(path)
        if self._checked.get(path) != sha:
            if read_mesh(path) != expected:
                raise CheckFailed(f"{os.path.basename(path)} does not read "
                                  "back as the generated mesh")
            self._checked[path] = sha
        return sha

    def check(self, key, inputs, result):
        target, action = key.split("/")
        seed = inputs["seed"]
        if action == "round-trip":
            mesh, copy = result
            label = target.split(".")[0]
            expected, _ = self.expected(label, seed)
            if mesh != expected:
                raise CheckFailed("read_mesh differs from the generated mesh")
            if read_mesh(copy) != mesh:
                raise CheckFailed("read(write(m)) != m")
            return outcome(len(mesh.elements), fingerprint=file_digest(copy))
        code, text = result
        if action == "cli-smooth":
            return self._check_cli_smooth(inputs, code, text)
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        label, ext = target.split(".")
        expected, report = self.expected(label, seed)
        path = inputs["paths"][label, ext]
        if action == "generate":
            return outcome(len(expected.elements),
                           fingerprint=self._read_checked(path, expected))
        printed = json.loads(text)
        if (printed["mean"], printed["min"]) != (report.mean, report.min):
            raise CheckFailed("quality --in disagrees with mesh_quality")
        return outcome(len(expected.elements), (report.mean, report.min),
                       fingerprint=digest(text))

    def _check_cli_smooth(self, inputs, code, text):
        match = re.search(r"in (\d+) iterations", text)
        if code not in (0, 3) or not match:
            raise CheckFailed(f"exit code {code}")
        before = read_mesh(inputs["smooth_in"])
        after = read_mesh(os.path.join(inputs["workdir"], "smoothed.mesh"))
        inverted = check_smoothed(before, after)
        if (code == 3) != (inverted > 0):
            raise CheckFailed(f"exit code {code} with {inverted} invalid "
                              "elements")
        report = mesh_quality(after)
        iterations = int(match.group(1))
        return outcome(
            len(after.elements), (report.mean, report.min), inverted,
            (iterations, None, after.vertices),
            digest(after.vertices, iterations, text),
        )


# ---------------------------------------------------------------------------
# Layer boundaries rebound in a traced run
# ---------------------------------------------------------------------------


def _rows(args, kwargs, result, info):
    tris = args[0]
    info["rows"] = tris.shape[0] if tris.ndim == 3 else 1


def _read_bytes(args, kwargs, result, info):
    info["bytes"] = len(args[0])


def _written_bytes(args, kwargs, result, info):
    # write_mesh opens a fresh file, so the position is the byte count.
    info["bytes"] = args[1].tell()


def _smooth_counts(args, kwargs, result, info):
    iterations = result.iterations_run
    info["iterations"] = iterations
    info["guard_events"] = int(sum(result.guard_resets))
    info["element_iterations"] = len(args[0].elements) * iterations


def _laplace_counts(args, kwargs, result, info):
    iterations = result.iterations_run
    info["iterations"] = iterations
    info["vertex_visits"] = int((~args[0].boundary_mask).sum()) * iterations


def layer_bindings():
    """``(module, attribute, span name, measure)`` for every name a getme
    layer imports from another layer, and for this module's own calls."""
    import sys

    import getme.cli
    import getme.generators
    import getme.io
    import getme.smoothing

    here = sys.modules[__name__]
    smoothing, cli = getme.smoothing, getme.cli
    return [
        (smoothing, "transform_triangles", "geometry.transform_triangles", _rows),
        (smoothing, "rescale_areas", "geometry.rescale_areas", None),
        (smoothing, "hex_face_barycenters", "geometry.hex_face_barycenters",
         None),
        (smoothing, "element_signed_measures", "mesh.element_signed_measures",
         None),
        (smoothing, "hex_corner_dets", "mesh.hex_corner_dets", None),
        (smoothing, "element_qualities", "quality.element_qualities", None),
        (cli, "read_mesh", "io.read_mesh", None),
        (cli, "write_mesh", "io.write_mesh", None),
        (cli, "generate", "generators.generate", None),
        (cli, "smooth", "smoothing.smooth", _smooth_counts),
        (cli, "smart_laplace", "smoothing.smart_laplace", _laplace_counts),
        (cli, "mesh_quality", "quality.mesh_quality", None),
        (cli, "validate", "mesh.validate", None),
        (getme.generators, "validate", "mesh.validate", None),
        (getme.generators, "detect_boundary", "mesh.detect_boundary", None),
        (getme.io, "read_medit", "io.read_medit", _read_bytes),
        (getme.io, "read_vtk", "io.read_vtk", _read_bytes),
        (getme.io, "write_medit", "io.write_medit", _written_bytes),
        (getme.io, "write_vtk", "io.write_vtk", _written_bytes),
        (here, "smooth", "smoothing.smooth", _smooth_counts),
        (here, "smart_laplace", "smoothing.smart_laplace", _laplace_counts),
        (here, "generate", "generators.generate", None),
        (here, "read_mesh", "io.read_mesh", None),
        (here, "write_mesh", "io.write_mesh", None),
        (here, "cli_run", "cli.run", None),
    ]


# Mesh sizes keep every call under about half a second on a 2-core host,
# so each call is sampled 10 to 30 times in a run and its fastest sample
# repeats; see README.md for the reasons behind each workload.  Each entry
# builds a fresh workload, so no state is shared between runs.
WORKLOADS = {
    "desk": partial(
        SmoothingWorkload,
        [("tri20", "jittered-square-tri", 20, 0.4, 0),
         ("quad10", "quad-grid-with-hole", 10, 0.3, 0),
         ("tet8", "cube-tet", 8, 0.45, 0),
         ("hex10", "cube-hex", 10, 0.35, 0)],
        ("smooth", "adaptive", "smart_laplace"),
    ),
    "disk-guard": partial(
        SmoothingWorkload,
        [(f"disk8s{k}", "disk-tri", 8, 0.3, 1000 * k) for k in range(4)],
        ("smooth", "smart_laplace"),
    ),
    "io": partial(
        IoWorkload,
        [("tet12", "cube-tet", 12, 0.3),
         ("hex12", "cube-hex", 12, 0.2),
         ("tri56", "jittered-square-tri", 56, 0.4)],
        smooth_input=("quad10", "quad-grid-with-hole", 10, 0.3),
        round_trip=("tet12", "vtk"),
    ),
}
