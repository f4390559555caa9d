"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper table — these quantify the contribution of each model
component on the Prop-30 analogue:

- the lexicon prior (α) and the social-graph term (β) of Eq. (1),
- the Section-7 guided (semi-supervised) regularization extension.
"""


from repro.core.offline import OfflineTriClustering
from repro.core.regularizers import GraphSmoothness, GuidedLabels, PriorCloseness
from repro.core.unified import UnifiedTriClustering
from repro.eval.metrics import clustering_accuracy
from repro.eval.protocol import sample_labeled_indices
from repro.experiments.datasets import load_dataset
from repro.experiments.reporting import format_table, write_result


def run_ablations(config):
    bundle = load_dataset("prop30", config)
    graph = bundle.graph
    tweet_truth = bundle.corpus.tweet_labels()
    user_truth = bundle.corpus.user_labels()

    rows = []

    def score(name, result):
        rows.append(
            [
                name,
                clustering_accuracy(result.tweet_sentiments(), tweet_truth),
                clustering_accuracy(result.user_sentiments(), user_truth),
            ]
        )
        return rows[-1]

    def offline(**kwargs):
        defaults = dict(
            alpha=0.05, beta=0.8,
            max_iterations=config.max_iterations, seed=config.solver_seed,
        )
        defaults.update(kwargs)
        return OfflineTriClustering(**defaults).fit(graph)

    score("full model (α=0.05, β=0.8)", offline())
    score("no lexicon prior (α=0)", offline(alpha=0.0))
    score("no social graph (β=0)", offline(beta=0.0))
    score("neither (α=0, β=0)", offline(alpha=0.0, beta=0.0))

    seeds = sample_labeled_indices(user_truth, 0.10, seed=config.seed)
    guided = UnifiedTriClustering(
        regularizers=[
            PriorCloseness("sf", graph.sf0, 0.05),
            GraphSmoothness("su", graph.user_graph.adjacency, 0.8),
            GuidedLabels("su", seeds, user_truth[seeds], 3, weight=5.0),
        ],
        max_iterations=config.max_iterations,
        seed=config.solver_seed,
    ).fit(graph)
    score("guided (+10% user labels)", guided)
    return rows


def test_ablations(benchmark, config):
    rows = benchmark.pedantic(run_ablations, args=(config,), rounds=1, iterations=1)
    text = format_table(
        ["Variant", "Tweet acc", "User acc"],
        rows,
        title="Ablations (prop30): contribution of each component",
    )
    path = write_result("ablations", text)
    print(f"\n{text}\nwritten: {path}")

    by_name = {row[0]: row for row in rows}
    full = by_name["full model (α=0.05, β=0.8)"]
    bare = by_name["neither (α=0, β=0)"]
    # The regularizers must not hurt materially, and user-level accuracy
    # should benefit from the social graph (the paper's core claim for β).
    assert full[1] >= bare[1] - 0.10
    no_graph = by_name["no social graph (β=0)"]
    assert full[2] >= no_graph[2] - 0.10
    for row in rows:
        assert 0.0 <= row[1] <= 1.0 and 0.0 <= row[2] <= 1.0
