"""Table II — SOD-based vs random page-sample selection (Pc/Pp per domain).

The paper shows that selecting the wrapper-training sample by annotation
scores (Algorithm 1) beats a random sample.  At small sample budgets the
effect is strongest, so this bench uses a tight sample size relative to
the page count.
"""

from benchmarks.harness import (
    BENCH_SCALE,
    DOMAIN_ORDER,
    PAPER_TABLE2,
    domain_spec,
    grade_source,
    make_system,
    pages_for,
    source_for,
)
from repro.core import RunParams
from repro.datasets import catalog_entries
from repro.eval import aggregate_domain
from repro.eval.report import render_comparison_table

#: A small sample budget makes sample *choice* matter.
SAMPLE_SIZE = 6

#: EXPERIMENTS.md's Table II, measured at scale 0.1: per domain, the
#: SOD-based Pc and Pp, then the random Pc and Pp, in percent.  This is
#: the only bench whose sample budget is below the page count, so the
#: only one where Algorithm 1's candidate narrowing picks the sample.
MEASURED_TABLE2 = {
    "concerts": (79.3, 79.3, 69.0, 69.0),
    "albums": (74.5, 100.0, 74.5, 100.0),
    "books": (74.7, 74.7, 74.7, 74.7),
    "publications": (67.9, 76.6, 67.9, 76.6),
    "cars": (65.3, 100.0, 65.3, 100.0),
}


def _run_mode(sod_based: bool):
    params = RunParams(
        sample_size=SAMPLE_SIZE,
        sod_based_sampling=sod_based,
        enforce_alpha=False,
    )
    metrics = []
    entries = [
        entry
        for entry in catalog_entries(scale=BENCH_SCALE)
        if not entry.paper.discarded
    ]
    for domain_name in DOMAIN_ORDER:
        evaluations = []
        for entry in entries:
            if entry.spec.domain != domain_name:
                continue
            domain = domain_spec(domain_name)
            source = source_for(entry)
            pages = pages_for(entry)
            system = make_system("objectrunner", entry, params=params)
            output = system.run(entry.spec.name, pages, domain.sod)
            evaluations.append(grade_source(domain, source.gold, output))
        metrics.append(
            aggregate_domain(
                domain_name,
                "sod-based" if sod_based else "random",
                evaluations,
            )
        )
    return metrics


def test_table2_sample_selection(benchmark):
    def run_both():
        return {
            "sod-based": _run_mode(True),
            "random": _run_mode(False),
        }

    metrics = benchmark.pedantic(run_both, rounds=1, iterations=1)
    paper_rows = {
        domain: {
            "sod-based": PAPER_TABLE2[domain][0],
            "random": PAPER_TABLE2[domain][1],
        }
        for domain in DOMAIN_ORDER
    }
    print()
    print(
        render_comparison_table(
            f"TABLE II (scale={BENCH_SCALE}, sample={SAMPLE_SIZE}) — "
            "SOD-based vs random sampling",
            metrics,
            paper_rows=paper_rows,
        )
    )

    sod_based = {m.domain: m for m in metrics["sod-based"]}
    random = {m.domain: m for m in metrics["random"]}
    # SOD-based selection never loses, and wins overall (the paper's claim).
    wins = 0
    for domain in DOMAIN_ORDER:
        assert (
            sod_based[domain].precision_correct
            >= random[domain].precision_correct - 0.05
        ), domain
        if sod_based[domain].precision_correct > random[domain].precision_correct:
            wins += 1
    total_sod = sum(sod_based[d].precision_correct for d in DOMAIN_ORDER)
    total_random = sum(random[d].precision_correct for d in DOMAIN_ORDER)
    assert total_sod >= total_random

    if BENCH_SCALE == 0.1:
        # The figures themselves are pinned at the scale EXPERIMENTS.md
        # reports; a change that moves them updates both and says why.
        measured = {
            domain: tuple(
                round(100.0 * value, 1)
                for value in (
                    sod_based[domain].precision_correct,
                    sod_based[domain].precision_partial,
                    random[domain].precision_correct,
                    random[domain].precision_partial,
                )
            )
            for domain in DOMAIN_ORDER
        }
        assert measured == MEASURED_TABLE2
