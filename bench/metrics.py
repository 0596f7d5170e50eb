"""Names and units of the benchmark's metrics, as BENCHMARK.json lists them."""

END_TO_END = [
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# The pipelines the workloads run; each gets a cli.scenario.<pipeline>.s span.
PIPELINES = (
    "interior-rd",
    "nondegeneracy",
    "rotate-fix",
    "sweep-1d",
    "interior-1d",
    "erdos-demo",
    "distance-demo",
)

# (name, unit) of every per-layer metric, in the order they are printed.
LAYER_METRICS = [
    ("nested_rd.refine_cells.s", "s"),
    ("nested_rd.cells", "count"),
    ("nested_rd.children.self_s", "s"),
    ("nested_rd.components", "count"),
    ("nested_rd.component_yield", "ratio"),
    ("nested_rd.not_shrinking", "count"),
    ("nested_rd.d_min.calls", "count"),
    ("nested_rd.selection_yield", "ratio"),
    ("nested_rd.kappa_ratios.s", "s"),
    ("nested_rd.kappa_ratios.calls", "count"),
    ("nested_rd.cell_pairs", "count"),
    ("nested_rd.verify_certificate.s", "s"),
    ("nested_rd.cell_image_box.s", "s"),
    ("nested_rd.cell_image_box.calls", "count"),
    ("nested_rd.rotation_search.s", "s"),
    ("containment_rd.find_chain_rd.s", "s"),
    ("containment_rd.find_chain_rd.calls", "count"),
    ("containment1d.find_chain.s", "s"),
    ("containment1d.find_chain.calls", "count"),
    ("containment1d.check_dominance.s", "s"),
    ("containment1d.check_dominance.calls", "count"),
    ("cantor1d.affine_image.s", "s"),
    ("cantor1d.affine_image.calls", "count"),
    ("cantor1d.canonical_json.s", "s"),
    ("cantor1d.canonical_json.bytes", "bytes"),
    ("dyadic.root_bounds.s", "s"),
    ("dyadic.root_bounds.calls", "count"),
    ("dyadic.iroot_floor.s", "s"),
    ("applications.verify_H_interior.self_s", "s"),
    ("applications.erdos_obstruction.self_s", "s"),
    ("cli.run_scenario.self_s", "s"),
    *((f"cli.scenario.{p}.s", "s") for p in PIPELINES),
    ("src.lines", "lines"),
    ("trace.overhead_s", "s"),
]

# Per-layer metrics that come from the whole traced run, not from one pass.
RUN_METRICS = ("src.lines", "trace.overhead_s")

