"""Table III — ObjectRunner vs ExAlg vs RoadRunner (Pc/Pp per domain).

The reproduction target is the published *ordering*: OR dominates both
baselines on precision-for-correctness in every domain, ExAlg generally
beats RoadRunner, and RoadRunner collapses on the "too regular" book and
publication lists (Pc ~ 0 with a large partial mass).
"""

from benchmarks.harness import (
    BENCH_SCALE,
    DOMAIN_ORDER,
    PAPER_TABLE3,
    domain_metrics,
)
from repro.eval.report import render_comparison_table

SYSTEMS = ("objectrunner", "exalg", "roadrunner")

#: EXPERIMENTS.md's Table III, measured at scale 0.1: per domain, Pc and
#: Pp in percent for ObjectRunner, ExAlg and RoadRunner, in that order.
#: The baselines read the same prepared pages as ObjectRunner, so a
#: change to page preparation can move them too.
MEASURED_TABLE3 = {
    "concerts": (79.3, 79.3, 34.1, 34.1, 34.1, 34.1),
    "albums": (74.5, 100.0, 74.5, 92.3, 7.7, 7.7),
    "books": (74.7, 74.7, 74.7, 74.7, 0.0, 70.6),
    "publications": (67.9, 76.6, 65.6, 65.6, 19.4, 70.8),
    "cars": (65.3, 100.0, 65.3, 86.1, 65.3, 78.1),
}


def test_table3_system_comparison(benchmark):
    def run_all():
        return {name: domain_metrics(name) for name in SYSTEMS}

    metrics_by_system = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(
        render_comparison_table(
            f"TABLE III (scale={BENCH_SCALE}) — Pc / Pp per system and domain",
            metrics_by_system,
            paper_rows=PAPER_TABLE3,
        )
    )

    by_domain = {
        system: {m.domain: m for m in metrics}
        for system, metrics in metrics_by_system.items()
    }
    for domain in DOMAIN_ORDER:
        ours = by_domain["objectrunner"][domain]
        exalg = by_domain["exalg"][domain]
        roadrunner = by_domain["roadrunner"][domain]
        # ObjectRunner never loses on correctness (the paper's headline).
        assert ours.precision_correct >= exalg.precision_correct - 1e-9, domain
        assert ours.precision_correct >= roadrunner.precision_correct - 1e-9, domain
    # RoadRunner collapses on the too-regular list domains: low Pc and a
    # wide Pc/Pp gap (objects extracted, but split over separate fields).
    # The per-record optional attributes in our pages hand RoadRunner a
    # little repetition evidence real pages would also give it, so the
    # bound is "collapses", not "exactly zero".
    for domain in ("books", "publications"):
        roadrunner = by_domain["roadrunner"][domain]
        ours = by_domain["objectrunner"][domain]
        assert roadrunner.precision_correct <= 0.3, domain
        assert ours.precision_correct - roadrunner.precision_correct >= 0.4, domain
    # ObjectRunner's overall margin over RoadRunner is large (paper: ~60%).
    our_mean = sum(
        by_domain["objectrunner"][d].precision_correct for d in DOMAIN_ORDER
    ) / len(DOMAIN_ORDER)
    rr_mean = sum(
        by_domain["roadrunner"][d].precision_correct for d in DOMAIN_ORDER
    ) / len(DOMAIN_ORDER)
    assert our_mean - rr_mean >= 0.3

    if BENCH_SCALE == 0.1:
        # The figures themselves are pinned at the scale EXPERIMENTS.md
        # reports; a change that moves them updates both and says why.
        measured = {
            domain: tuple(
                round(100.0 * value, 1)
                for system in SYSTEMS
                for value in (
                    by_domain[system][domain].precision_correct,
                    by_domain[system][domain].precision_partial,
                )
            )
            for domain in DOMAIN_ORDER
        }
        assert measured == MEASURED_TABLE3
