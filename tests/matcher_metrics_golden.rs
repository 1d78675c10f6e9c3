//! Matcher-population goldens: the end-of-run `MatcherMetrics` counters
//! of fixed workloads. `per_rule_work` drives metrics-driven
//! copy-and-constrain, and `beta_tokens`/`negative_counts` are what the
//! trace and metrics sinks report, so a change to the match layer's
//! internal representation must leave every one of these numbers as it
//! was.

use parulel::prelude::*;
use parulel::workloads::{self, Scenario};

fn describe(m: &parulel::rmatch::MatcherMetrics) -> String {
    format!(
        "beta_tokens={} negative_counts={} alpha_wmes={} conflict_set={} per_rule_work={:?}",
        m.beta_tokens, m.negative_counts, m.alpha_wmes, m.conflict_set, m.per_rule_work
    )
}

/// The counters after the third cycle (conflict set still populated) and
/// at the end of the run.
fn samples(s: &dyn Scenario, matcher: MatcherKind) -> [String; 2] {
    let mut e = ParallelEngine::new(
        s.program(),
        s.initial_wm(),
        EngineOptions {
            matcher,
            ..Default::default()
        },
    );
    for _ in 0..3 {
        assert!(e.step().unwrap(), "{} ended before cycle 3", s.name());
    }
    let third = describe(&e.matcher_metrics());
    e.run().unwrap();
    [third, describe(&e.matcher_metrics())]
}

/// closure(128, 240, seed 8); partitioning over two workers must report
/// the same totals as the monolithic network.
const CLOSURE: [&str; 2] = [
    "beta_tokens=6098 negative_counts=3178 alpha_wmes=4962 conflict_set=1426 per_rule_work=[(0, 1974), (1, 10512)]",
    "beta_tokens=58277 negative_counts=37946 alpha_wmes=61473 conflict_set=0 per_rule_work=[(0, 20811), (1, 98939)]",
];

/// market(480, 16, seed 8).
const MARKET: [&str; 2] = [
    "beta_tokens=4813 negative_counts=0 alpha_wmes=864 conflict_set=4381 per_rule_work=[(0, 10058)]",
    "beta_tokens=248 negative_counts=0 alpha_wmes=496 conflict_set=0 per_rule_work=[(0, 744)]",
];

#[test]
fn closure_under_rete() {
    assert_eq!(
        samples(&workloads::Closure::new(128, 240, 8), MatcherKind::Rete),
        CLOSURE
    );
}

#[test]
fn closure_under_partitioned_rete() {
    assert_eq!(
        samples(
            &workloads::Closure::new(128, 240, 8),
            MatcherKind::PartitionedRete(2)
        ),
        CLOSURE
    );
}

#[test]
fn market_under_rete() {
    assert_eq!(
        samples(&workloads::Market::new(480, 16, 8), MatcherKind::Rete),
        MARKET
    );
}
