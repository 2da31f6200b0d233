//! The SQL featurizer's memo against both workload corpora: every
//! PocketData and US-bank statement, shuffled and repeated three times,
//! goes through one memoizing featurizer, and every result must equal a
//! fresh featurizer's. The corpora spell 2,317 shapes (PocketData's 605
//! statements are all distinct shapes; the US bank's 13,696 texts spell
//! its 1,712 templates with varying constants), so the memo featurizes
//! exactly 2,317 statements from scratch — its text level clears many
//! times on the way, its shape level never.

use std::collections::HashMap;

use logr::source::{Featurizer, SqlFeaturizer};
use logr::workload::{generate_pocketdata, generate_usbank, PocketDataConfig, UsBankConfig};

#[test]
fn memoized_featurization_matches_fresh_over_both_corpora() {
    let texts: Vec<String> = generate_pocketdata(&PocketDataConfig::default())
        .statements
        .into_iter()
        .chain(generate_usbank(&UsBankConfig::default()).statements)
        .map(|(text, _)| text)
        .collect();
    assert_eq!(texts.len(), 605 + 13_696);

    // Fresh featurization, once per distinct text (it is a pure function
    // of the text, so once is every time).
    let fresh: HashMap<&str, _> =
        texts.iter().map(|t| (t.as_str(), SqlFeaturizer::default().featurize(t))).collect();

    let mut order: Vec<usize> = (0..texts.len()).flat_map(|i| [i, i, i]).collect();
    // Fisher-Yates under a fixed xorshift stream.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    for i in (1..order.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }

    let mut memo = SqlFeaturizer::default();
    for &i in &order {
        let text = texts[i].as_str();
        assert_eq!(memo.featurize(text), fresh[text], "memo disagrees on {text}");
    }
    assert_eq!(order.len(), 42_903);
    assert_eq!(memo.fresh_featurizations(), 2_317, "one featurization per shape");
}
