"""Arithmetic of the benchmark: medians and spreads of samples, ratios, and
the per-layer metrics of one traced pass."""

import statistics


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First and third quartile, as ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def ratio(numerator, denominator):
    """``numerator / denominator``, or 0 when there is nothing to divide."""
    return numerator / denominator if denominator else 0.0


def fail_ratio(failed, attempted):
    return ratio(failed, attempted)


def accept_ratio(guard_events, element_iterations):
    """Share of element images the orientation guard let through."""
    return 1.0 - ratio(guard_events, element_iterations)


def pass_wall(op_samples):
    """Wall time of one pass: the sum over operations of each operation's
    fastest sample.  Other tenants of a shared host slow some samples by up
    to half for a second or more; the fastest sample of each operation
    repeats from run to run far better than the median does."""
    return sum(min(samples) for samples in op_samples.values())


#: Per-layer metrics taken from the spans of one traced pass:
#: name -> (unit, better, "count" if it must repeat exactly else "time").
#: BENCHMARK.json lists the same names, plus the ones in RUN_METRICS.
LAYER_METRICS = {
    "smoothing.smooth.s": ("s", "lower", "time"),
    "smoothing.smooth.self_s": ("s", "lower", "time"),
    "smoothing.smooth.iterations": ("count", "lower", "count"),
    "smoothing.smooth.ms_per_iter": ("ms", "lower", "time"),
    "smoothing.smooth.guard_events": ("count", "lower", "count"),
    "smoothing.smooth.accept_ratio": ("1", "higher", "count"),
    "smoothing.smart_laplace.s": ("s", "lower", "time"),
    "smoothing.smart_laplace.self_s": ("s", "lower", "time"),
    "smoothing.smart_laplace.iterations": ("count", "lower", "count"),
    "smoothing.smart_laplace.vertex_visits_per_s": ("1/s", "higher", "time"),
    "geometry.transform_triangles.calls": ("count", "lower", "count"),
    "geometry.transform_triangles.s": ("s", "lower", "time"),
    "geometry.transform_triangles.rows_per_s": ("1/s", "higher", "time"),
    "geometry.rescale_areas.calls": ("count", "lower", "count"),
    "geometry.rescale_areas.s": ("s", "lower", "time"),
    "geometry.hex_face_barycenters.s": ("s", "lower", "time"),
    "mesh.element_signed_measures.calls": ("count", "lower", "count"),
    "mesh.element_signed_measures.s": ("s", "lower", "time"),
    "mesh.hex_corner_dets.calls": ("count", "lower", "count"),
    "mesh.hex_corner_dets.s": ("s", "lower", "time"),
    "mesh.validate.calls": ("count", "lower", "count"),
    "mesh.validate.s": ("s", "lower", "time"),
    "mesh.detect_boundary.s": ("s", "lower", "time"),
    "quality.element_qualities.calls": ("count", "lower", "count"),
    "quality.element_qualities.s": ("s", "lower", "time"),
    "quality.mesh_quality.s": ("s", "lower", "time"),
    "generators.generate.calls": ("count", "lower", "count"),
    "generators.generate.s": ("s", "lower", "time"),
    "generators.jitter_rounds": ("count", "lower", "count"),
    "io.read_medit.s": ("s", "lower", "time"),
    "io.read_vtk.s": ("s", "lower", "time"),
    "io.write_medit.s": ("s", "lower", "time"),
    "io.write_vtk.s": ("s", "lower", "time"),
    "io.read_MBps": ("MB/s", "higher", "time"),
    "io.write_MBps": ("MB/s", "higher", "time"),
    "io.bytes_written": ("B", "lower", "count"),
    "cli.run.calls": ("count", "lower", "count"),
    "cli.run.s": ("s", "lower", "time"),
    "cli.run.self_s": ("s", "lower", "time"),
}

#: Per-layer metrics that come from the whole traced run, not one pass.
RUN_METRICS = {
    "trace.overhead_ratio": ("1", "lower"),
    "smoothing.output_dev_max": ("1", "lower"),
    "smoothing.ref_iterations_diff": ("count", "lower"),
    "smoothing.ref_quality_dev": ("1", "lower"),
    "quality_min": ("1", "higher"),
    "inverted_out": ("count", "lower"),
    "fail_ratio": ("1", "lower"),
}


def layer_metrics(totals):
    """Per-layer metrics of one traced pass from ``spans.aggregate``."""

    def get(name, key="s"):
        return totals.get(name, {}).get(key, 0)

    out = {}
    for name in ("smoothing.smooth", "smoothing.smart_laplace", "cli.run"):
        out[f"{name}.s"] = get(name)
        out[f"{name}.self_s"] = get(name, "self_s")
    for name in ("smoothing.smooth", "smoothing.smart_laplace"):
        out[f"{name}.iterations"] = get(name, "iterations")
    for name in ("geometry.transform_triangles", "geometry.rescale_areas",
                 "mesh.element_signed_measures", "mesh.hex_corner_dets",
                 "mesh.validate", "quality.element_qualities",
                 "generators.generate", "cli.run"):
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name)
    for name in ("geometry.hex_face_barycenters", "mesh.detect_boundary",
                 "quality.mesh_quality", "io.read_medit", "io.read_vtk",
                 "io.write_medit", "io.write_vtk"):
        out[f"{name}.s"] = get(name)

    smooth_iterations = out["smoothing.smooth.iterations"]
    out["smoothing.smooth.ms_per_iter"] = ratio(
        1000.0 * out["smoothing.smooth.s"], smooth_iterations)
    out["smoothing.smooth.guard_events"] = get("smoothing.smooth",
                                               "guard_events")
    out["smoothing.smooth.accept_ratio"] = accept_ratio(
        out["smoothing.smooth.guard_events"],
        get("smoothing.smooth", "element_iterations"))
    out["smoothing.smart_laplace.vertex_visits_per_s"] = ratio(
        get("smoothing.smart_laplace", "vertex_visits"),
        out["smoothing.smart_laplace.s"])
    out["geometry.transform_triangles.rows_per_s"] = ratio(
        get("geometry.transform_triangles", "rows"),
        out["geometry.transform_triangles.s"])
    out["generators.jitter_rounds"] = ratio(
        get("generators.generate>mesh.validate", "calls"),
        out["generators.generate.calls"])
    read_bytes = get("io.read_medit", "bytes") + get("io.read_vtk", "bytes")
    written = get("io.write_medit", "bytes") + get("io.write_vtk", "bytes")
    out["io.read_MBps"] = ratio(
        read_bytes / 1e6, out["io.read_medit.s"] + out["io.read_vtk.s"])
    out["io.write_MBps"] = ratio(
        written / 1e6, out["io.write_medit.s"] + out["io.write_vtk.s"])
    out["io.bytes_written"] = written
    return out


def combine_passes(per_pass):
    """One value per layer metric over several traced passes: counts must
    repeat exactly and are taken once, times are the median.  Returns the
    metrics and the names of counts that differed between passes."""
    combined, unsteady = {}, []
    for name, (_, _, kind) in LAYER_METRICS.items():
        values = [metrics[name] for metrics in per_pass]
        if kind == "count":
            if any(v != values[0] for v in values):
                unsteady.append(name)
            combined[name] = values[0]
        else:
            combined[name] = median(values)
    return combined, unsteady
