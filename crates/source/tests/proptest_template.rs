//! Property: the mined template set is invariant under the concrete
//! parameter values. A corpus whose lines keep their shapes but draw
//! fresh numbers, IPs, user ids, and paths every run must always mine to
//! the same creation-time template texts — parameters are what templates
//! abstract over, so no choice of parameter may split or merge one. And
//! whatever the draws, every distinct text keeps its first-sight features
//! through later wildcard promotions and through journal replay.

use logr_source::{FeatureBranch, Featurizer, TemplateConfig, TemplateMiner};
use proptest::prelude::*;

/// One line of every shape, with the parameter draws spliced in. The
/// shapes match `data/service_500.log`; the values never do.
fn corpus(params: &Params) -> Vec<String> {
    let Params { user, octet, item, ms, shard, heap, seg } = params;
    vec![
        format!("auth: user u{user} logged in from 10.0.{octet}.{octet}"),
        format!("auth: user u{user} failed password from 203.0.113.{octet}"),
        format!("http: GET /api/v1/items/{item} -> 200 in {ms} ms"),
        format!("http: POST /api/v1/orders -> 201 in {ms} ms"),
        format!("db: slow query {ms} ms on shard {shard}"),
        format!("cache: evicted {item} keys from shard {shard}"),
        format!("gc: pause {ms} ms heap {heap} mb"),
        format!("disk: wrote segment /var/data/seg-{seg}.db in {ms} ms"),
        format!("net: connection reset by 10.1.{octet}.{octet}"),
        format!("job: backup {item:08x}-{ms:04x}-{shard:04x}-{user:04x}-{heap:012x} completed in {ms} s"),
    ]
}

#[derive(Debug, Clone)]
struct Params {
    user: u32,
    octet: u8,
    item: u32,
    ms: u32,
    shard: u8,
    heap: u32,
    seg: u32,
}

fn arb_params() -> impl Strategy<Value = Params> {
    (any::<u32>(), any::<u8>(), any::<u32>(), 0u32..0xffff, any::<u8>(), any::<u32>(), any::<u32>())
        .prop_map(|(user, octet, item, ms, shard, heap, seg)| Params {
            user,
            octet,
            item,
            ms,
            shard,
            heap,
            seg,
        })
}

fn template_texts(lines: &[String]) -> Vec<String> {
    let mut miner = TemplateMiner::new(TemplateConfig::default());
    for line in lines {
        miner.featurize(line);
    }
    miner.template_texts().into_iter().map(str::to_owned).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn template_set_is_invariant_under_parameter_values(a in arb_params(), b in arb_params()) {
        let mined_a = template_texts(&corpus(&a));
        let mined_b = template_texts(&corpus(&b));
        prop_assert_eq!(&mined_a, &mined_b, "parameter draws must not change the template set");
        // And repeating every line many times changes nothing either —
        // multiplicity is frequency, not shape.
        let repeated: Vec<String> =
            corpus(&a).into_iter().flat_map(|l| std::iter::repeat_n(l, 3)).collect();
        prop_assert_eq!(&mined_a, &template_texts(&repeated));
    }

    #[test]
    fn journal_replay_is_deterministic_for_any_draw(
        draws in prop::collection::vec(arb_params(), 2..6),
    ) {
        // Several draws, interleaved line by line, plus a line whose
        // parameters are plain words: its template seeds with the first
        // draw's words and promotes them to wildcards when the next draw
        // disagrees, so texts seen before and after a promotion are pinned
        // with different parameter lists.
        let streams: Vec<Vec<String>> = draws
            .iter()
            .map(|p| {
                let mut lines = corpus(p);
                let (worker, lane) = (spell(p.user), spell(p.seg));
                lines.push(format!("sched: worker {worker} drained lane {lane}"));
                lines
            })
            .collect();
        let stream: Vec<&String> =
            (0..streams[0].len()).flat_map(|i| streams.iter().map(move |s| &s[i])).collect();

        let mut miner = TemplateMiner::new(TemplateConfig::default());
        let mut first_sight: Vec<(&String, Vec<FeatureBranch>)> = Vec::new();
        let mut drained = Vec::new();
        for (i, line) in stream.iter().enumerate() {
            let branches = miner.featurize(line);
            if !first_sight.iter().any(|(seen, _)| seen == line) {
                first_sight.push((line, branches));
            }
            if i % 7 == 0 {
                drained.extend_from_slice(&miner.drain_events());
            }
        }
        drained.extend_from_slice(&miner.drain_events());
        prop_assert_eq!(&drained, &miner.export_journal(), "drained increments make the journal");
        prop_assert!(
            first_sight.iter().any(|(_, b)| b[0].features.iter().any(|f| f.text == "str")),
            "the stream must promote a word position to a wildcard"
        );

        let mut replayed = TemplateMiner::new(TemplateConfig::default());
        replayed.replay(&miner.export_journal()).expect("journal replays clean");
        prop_assert_eq!(replayed.template_stats(), miner.template_stats());
        for (line, branches) in &first_sight {
            prop_assert_eq!(&miner.featurize(line), branches, "pin moved by the stream: {}", line);
            prop_assert_eq!(&replayed.featurize(line), branches, "pin moved by replay: {}", line);
        }
        prop_assert_eq!(replayed.export_journal(), miner.export_journal());
    }
}

/// A number spelled with letters only (`0` → `a`, ..., `9` → `j`), so the
/// template miner sees a plain word, never a syntactic variable.
fn spell(n: u32) -> String {
    n.to_string().bytes().map(|d| char::from(b'a' + (d - b'0'))).collect()
}
