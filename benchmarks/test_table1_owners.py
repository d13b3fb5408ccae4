"""Table 1 — largest clusters of porn sites grouped by parent company."""

from conftest import scaled

from repro.core.mapmerge import map_owners
from repro.core.owners import discover_owners, normalize_company
from repro.reporting.tables import render_table1


def test_table1_owners(benchmark, study, paper, reporter):
    policy_texts = {
        inspection.domain: inspection.policy.text
        for inspection in study.inspections()
        if inspection.reachable and inspection.policy.link_found
        and inspection.policy.fetched_ok
    }
    # The <head> evidence is per visit, so one map over the whole log
    # gives what the study merges from per-site partials.
    head_organizations = dict(map_owners(study.porn_log().visits)["heads"])
    report = benchmark.pedantic(
        lambda: discover_owners(
            policy_texts=policy_texts,
            head_organizations=head_organizations,
            cert_lookup=study.universe.certificate_for,
        ),
        rounds=1, iterations=1,
    )

    reporter.row("companies identified", 24, len(report.clusters))
    reporter.row("sites attributed to companies", scaled(286),
                 report.attributed_sites)
    reporter.row("TF-IDF candidate pairs rejected by verification",
                 "(manual step)", report.rejected_pairs)
    reporter.text(render_table1(report, study.best_rank, top_n=15))

    # Every paper cluster with >= 2 scaled sites must be recovered.
    recovered = {normalize_company(cluster.company)
                 for cluster in report.clusters}
    for company, count, _, _ in paper.owner_clusters[:10]:
        if scaled(count) >= 2:
            assert normalize_company(company) in recovered, company
    # MindGeek's flagship stays pornhub.com.
    mindgeek = next(c for c in report.clusters
                    if normalize_company(c.company) == "mindgeek")
    flagship, rank = mindgeek.most_popular(study.best_rank)
    assert flagship == "pornhub.com"
