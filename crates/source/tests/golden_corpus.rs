//! Golden-corpus acceptance for the Drain-style template miner: a
//! checked-in 500-line synthetic service log must mine to a pinned
//! template set with pinned distinct-text counts, and journal replay of
//! the same corpus must reproduce the miner bit-for-bit.
//!
//! The corpus (`data/service_500.log`) is frozen; regenerating it would
//! invalidate the pins below on purpose — the point is that mining is
//! deterministic across releases.

use logr_source::{Featurizer, SourceConfig, TemplateConfig, TemplateMiner};

const CORPUS: &str = include_str!("data/service_500.log");

fn mine(corpus: &str) -> TemplateMiner {
    let mut miner = TemplateMiner::new(TemplateConfig::default());
    for line in corpus.lines() {
        let branches = miner.featurize(line);
        assert_eq!(branches.len(), 1, "service lines featurize to one branch: {line}");
    }
    miner
}

/// The pinned golden result: (creation-time template text, distinct
/// texts matched), in mining order.
const GOLDEN: &[(&str, u64)] = &[
    ("cache: evicted <*> keys from shard <*>", 58),
    ("auth: user <*> failed password from <*>", 47),
    ("net: connection reset by <*>", 50),
    ("db: slow query <*> ms on shard <*>", 56),
    ("disk: wrote segment <*> in <*> ms", 44),
    ("http: GET <*> -> <*> in <*> ms", 58),
    ("job: backup <*> completed in <*> s", 49),
    ("gc: pause <*> ms heap <*> mb", 54),
    ("auth: user <*> logged in from <*>", 45),
    ("http: POST <*> -> <*> in <*> ms", 38),
];

#[test]
fn golden_corpus_mines_to_the_pinned_template_set() {
    let miner = mine(CORPUS);
    let stats: Vec<(String, u64)> =
        miner.template_stats().into_iter().map(|(t, n)| (t.to_owned(), n)).collect();
    let golden: Vec<(String, u64)> = GOLDEN.iter().map(|(t, n)| ((*t).to_owned(), *n)).collect();
    assert_eq!(stats, golden, "template set or counts drifted from the golden pin");
    assert_eq!(miner.distinct_records() as u64, GOLDEN.iter().map(|(_, n)| n).sum::<u64>());
}

#[test]
fn journal_replay_reproduces_the_golden_miner_exactly() {
    let mined = mine(CORPUS);
    let journal = mined.export_journal();

    let mut replayed = TemplateMiner::new(TemplateConfig::default());
    replayed.replay(&journal).expect("journal replays clean");
    assert_eq!(replayed.template_stats(), mined.template_stats());
    assert_eq!(replayed.export_journal(), journal, "replay must reproduce the journal bytes");

    // Replay is idempotent and increment concatenation equals the full
    // journal — the properties the delta log depends on.
    replayed.replay(&journal).expect("second replay is a no-op");
    assert_eq!(replayed.template_stats(), mined.template_stats());
}

#[test]
fn golden_corpus_features_flow_through_the_config_seam() {
    let mut featurizer = SourceConfig::template().featurizer();
    let total: usize = CORPUS.lines().map(|line| featurizer.featurize(line).len()).sum();
    assert_eq!(total, 500, "every line must featurize");
    assert_eq!(featurizer.kind(), "template");
}
