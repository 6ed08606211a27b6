"""Names and units of the benchmark's metrics and its fixed check counts."""

# checks per cold run of each workload; a run that attempts another number
# fails instead of reporting a time
EXPECTED_CHECKS = {
    "full": {"transfer-oracles": 403, "weyl-cosets": 877, "gl-shadow": 53,
             "q-quotients": 209},
    "tiny": {"transfer-oracles": 64, "weyl-cosets": 89, "gl-shadow": 12,
             "q-quotients": 31},
}
WORKLOADS = tuple(EXPECTED_CHECKS["full"])

# Timings are calibrated: scaled by REF_SECONDS over the time of a fixed
# reference slice (bench_worker.reference_slice) measured while they run,
# so they read as seconds at the speed where that slice takes REF_SECONDS.
# On a shared core the raw time of one case set varies by up to a factor
# of two within minutes; the calibrated time by a few percent.
REF_SECONDS = 0.001

END_TO_END = {"wall_s": "s", "max_case_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("algebra", "transfer", "weylcomb", "finitegl", "epfun")

# span names whose self time is a per-layer metric
SELF_TIMES = [
    "algebra.QScalar", "algebra.SymPoly.expand", "algebra.SymPoly.from_expansion",
    "algebra.SymPoly.mul", "algebra.schur", "algebra.qcount",
    "transfer.transfer_sym", "transfer.substitution_image", "transfer.image_schur",
    "transfer.image_e", "transfer.surjectivity_witness",
    "weylcomb.proper_levi_vanishing", "weylcomb.min_double_coset_reps",
    "weylcomb.restriction_support", "weylcomb.f_g_table",
    "finitegl.parabolic_trivial_ind", "finitegl.dl_character", "finitegl.classes",
    "finitegl.ind_conjugate_identity_exhaustive",
    "epfun.to_one_basis", "epfun.to_e_basis", "epfun.f_J", "epfun.shadow",
    "epfun.weyl_averaged_dl",
]
PER_LAYER = {f"{name}.self_s": "s" for name in SELF_TIMES}
PER_LAYER.update({
    "algebra.QScalar.ops": "count",
    "algebra.QScalar.laurent_share": "ratio",
    "algebra.QScalar.quotient_ops": "count",
    "algebra.QScalar.quotient_share": "ratio",
    "algebra.QScalar.quotient_s": "s",
    "transfer.transfer_sym.monomials": "count",
    "weylcomb.min_double_coset_reps.calls": "count",
    "weylcomb.min_double_coset_reps.repeat_share": "ratio",
    "weylcomb.double_cosets": "count",
    "weylcomb.perm_mul.calls": "count",
    "weylcomb.refusals": "count",
    "finitegl.parabolic_trivial_ind.calls": "count",
    "finitegl.parabolic_trivial_ind.repeat_share": "ratio",
    "finitegl.in_rowspace.calls": "count",
    "finitegl.classes.count": "count",
    "finitegl.mat_mul.calls": "count",
    "finitegl.refusals": "count",
})
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({
    "bench.loop.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_ratio": "ratio",
})


