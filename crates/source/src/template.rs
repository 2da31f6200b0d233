//! Drain-style online template mining for free-form service logs.
//!
//! A record is tokenized on whitespace and routed through a fixed-depth
//! parse tree: level 0 keys on token count, the next `depth` levels key on
//! the leading tokens (digit-bearing tokens are routed as `<*>` so
//! variable-leading messages share a path). Internal nodes hold at most
//! `max_children` children; once full, unseen keys fall back to a `<*>`
//! child. Each leaf holds a group of templates sharing the routing path;
//! a record joins the template maximizing the fraction of exactly-equal
//! tokens when that fraction reaches the similarity threshold, otherwise
//! it seeds a new template. On a match, template positions whose token
//! disagrees are promoted to the `<*>` wildcard.
//!
//! Each record emits one [`FeatureBranch`]: a ⟨template, TEMPLATE⟩
//! feature carrying the template's *creation-time* pattern (stable across
//! later wildcard promotion, so feature identity never drifts) plus one
//! ⟨class, PARAM⟩ feature per variable position, where the class is a
//! coarse syntactic bucket of the concrete token (num, hex, ip, path,
//! uuid, id, str).
//!
//! # Persistence by replay
//!
//! Wildcard promotion makes mining order-sensitive, so the miner journals
//! every *distinct first-seen text* in arrival order. Each journal entry
//! also carries the text's first-sight *pin*: its template id and the
//! classes its tokens had in that template's wildcard positions then. The
//! creation-time pattern is fixed per id, so the pin determines the text's
//! features exactly, and every later sighting rebuilds them from it. The
//! lookup from text to journal entry shares the journal's copy of the
//! text, so each distinct text is held once. [`Featurizer::replay`]
//! re-mines the journal through the same lookup without building any
//! features; since mining is deterministic in (journal prefix, text), the
//! restored miner — tree, templates, pins — is bit-identical to the live
//! one, and every future record featurizes exactly as it would have on
//! the uninterrupted run.

use std::collections::HashMap;
use std::sync::Arc;

use logr_feature::Feature;

use crate::config::TemplateConfig;
use crate::journal;
use crate::{FeatureBranch, Featurizer, SourceError};

/// The wildcard token.
pub const WILDCARD: &str = "<*>";

/// One position of a template's evolving pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// Literal token, matched exactly.
    Word(String),
    /// Variable position, matches any token.
    Wildcard,
}

#[derive(Debug)]
struct Template {
    /// Evolving pattern; positions are promoted to `Wildcard` as
    /// disagreeing records join the template.
    tokens: Vec<Tok>,
    /// Creation-time pattern text — the stable identity emitted as the
    /// ⟨template, TEMPLATE⟩ feature. Never updated by promotion.
    text: String,
    /// Distinct texts that matched this template (diagnostics).
    distinct: u64,
}

/// Internal parse-tree node (levels 1..=depth key on masked tokens).
#[derive(Debug, Default)]
struct Node {
    children: HashMap<String, Node>,
    /// Template ids grouped at this leaf position.
    group: Vec<usize>,
}

/// A text's first-sight result: its template, and the classes its tokens
/// had in that template's wildcard positions at the time.
#[derive(Debug)]
struct Pin {
    template: usize,
    params: Box<[&'static str]>,
}

/// One distinct text in the journal. Empty / whitespace-only texts have
/// no pin and featurize to no branch.
#[derive(Debug)]
struct Seen {
    text: Arc<str>,
    pin: Option<Pin>,
}

/// Online Drain-style template miner. See the module docs.
#[derive(Debug)]
pub struct TemplateMiner {
    config: TemplateConfig,
    /// Level-0 routing: token count → subtree.
    root: HashMap<usize, Node>,
    templates: Vec<Template>,
    /// Distinct first-seen texts in arrival order, with their pins.
    journal: Vec<Seen>,
    /// Distinct text → its journal index, keyed by the journal's copy.
    lookup: HashMap<Arc<str>, usize>,
    /// Journal frames already handed out by `drain_events`.
    drained: usize,
}

/// Coarse syntactic class of a concrete parameter token.
fn classify(token: &str) -> Option<&'static str> {
    if token.is_empty() {
        return None;
    }
    let core = token.trim_matches(|c: char| matches!(c, ',' | ';' | ':' | '(' | ')' | '[' | ']'));
    let t = if core.is_empty() { token } else { core };
    let bytes = t.as_bytes();
    let digits = bytes.iter().filter(|b| b.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let hex_chunks: Vec<&str> = t.split('-').collect();
    if hex_chunks.len() == 5
        && hex_chunks
            .iter()
            .zip([8usize, 4, 4, 4, 12])
            .all(|(c, n)| c.len() == n && c.bytes().all(|b| b.is_ascii_hexdigit()))
    {
        return Some("uuid");
    }
    if t.split('.').count() == 4
        && t.split('.').all(|p| !p.is_empty() && p.bytes().all(|b| b.is_ascii_digit()))
    {
        return Some("ip");
    }
    if bytes.iter().all(|b| b.is_ascii_digit() || matches!(b, b'.' | b'-' | b'+')) {
        // 123, -7, 3.25, 2026-08-08 all bucket as numbers.
        return Some("num");
    }
    if t.contains('/') {
        return Some("path");
    }
    let hexish = t.strip_prefix("0x").unwrap_or(t);
    if hexish.len() >= 6 && hexish.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Some("hex");
    }
    Some("id")
}

/// Class label for a token in a wildcard position; tokens with no
/// syntactic signal (pure words promoted by disagreement) bucket as
/// plain strings.
fn param_class(token: &str) -> &'static str {
    classify(token).unwrap_or("str")
}

/// Routing key for a token at a prefix level: digit-bearing tokens route
/// as the wildcard so variable tokens share a path.
fn route_key(token: &str) -> &str {
    if classify(token).is_some() {
        WILDCARD
    } else {
        token
    }
}

impl TemplateMiner {
    /// Fresh miner with the given knobs.
    pub fn new(config: TemplateConfig) -> Self {
        TemplateMiner {
            config,
            root: HashMap::new(),
            templates: Vec::new(),
            journal: Vec::new(),
            lookup: HashMap::new(),
            drained: 0,
        }
    }

    /// Creation-time pattern texts of all mined templates, in mining
    /// order.
    pub fn template_texts(&self) -> Vec<&str> {
        self.templates.iter().map(|t| t.text.as_str()).collect()
    }

    /// Number of mined templates.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// Number of distinct texts seen (journal length).
    pub fn distinct_records(&self) -> usize {
        self.journal.len()
    }

    /// (creation-time pattern, distinct texts matched) per template, in
    /// mining order.
    pub fn template_stats(&self) -> Vec<(&str, u64)> {
        self.templates.iter().map(|t| (t.text.as_str(), t.distinct)).collect()
    }

    /// Similarity of a template against a token sequence: fraction of
    /// positions with exactly-equal tokens (wildcards contribute 0), plus
    /// the wildcard count as a tie-break (more-general templates win).
    fn similarity(template: &Template, tokens: &[&str]) -> (f64, usize) {
        let mut equal = 0usize;
        let mut wild = 0usize;
        for (t, tok) in template.tokens.iter().zip(tokens) {
            match t {
                Tok::Wildcard => wild += 1,
                Tok::Word(w) => {
                    if w == tok {
                        equal += 1;
                    }
                }
            }
        }
        (equal as f64 / tokens.len() as f64, wild)
    }

    /// Journal index of `text`, mining and journaling it at first sight.
    fn record(&mut self, text: &str) -> usize {
        if let Some(&at) = self.lookup.get(text) {
            return at;
        }
        let seen = Seen { text: Arc::from(text), pin: self.mine(text) };
        self.lookup.insert(Arc::clone(&seen.text), self.journal.len());
        self.journal.push(seen);
        self.journal.len() - 1
    }

    /// Mine one not-yet-seen text in one walk of the tree (creating nodes
    /// on the way) and pin the result. Empty / whitespace-only texts have
    /// no pin.
    fn mine(&mut self, text: &str) -> Option<Pin> {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        if tokens.is_empty() {
            return None;
        }
        let mut node = self.root.entry(tokens.len()).or_default();
        for token in tokens.iter().take(self.config.depth) {
            let wanted = route_key(token);
            let full = node.children.len() >= self.config.max_children;
            // A full node routes unseen keys to its fallback child. A node
            // this walk created is empty, so it routes `wanted`, as it
            // would have before it existed (`max_children` is at least 2).
            let key = if full && !node.children.contains_key(wanted) { WILDCARD } else { wanted };
            node = node.children.entry(key.to_owned()).or_default();
        }

        let mut best: Option<(usize, f64, usize)> = None;
        for &id in &node.group {
            let Some(template) = self.templates.get(id) else { continue };
            let (sim, wild) = Self::similarity(template, &tokens);
            if best.is_none_or(|(_, bs, bw)| sim > bs || (sim == bs && wild > bw)) {
                best = Some((id, sim, wild));
            }
        }

        let id = match best {
            Some((id, sim, _)) if sim >= self.config.similarity => {
                // Join: promote disagreeing positions to wildcards.
                if let Some(template) = self.templates.get_mut(id) {
                    for (t, tok) in template.tokens.iter_mut().zip(&tokens) {
                        if matches!(t, Tok::Word(w) if w != tok) {
                            *t = Tok::Wildcard;
                        }
                    }
                    template.distinct += 1;
                }
                id
            }
            _ => {
                // Seed: syntactic variables are wildcarded immediately and
                // define the creation-time pattern.
                let toks: Vec<Tok> =
                    tokens
                        .iter()
                        .map(|&t| {
                            if classify(t).is_some() {
                                Tok::Wildcard
                            } else {
                                Tok::Word(t.into())
                            }
                        })
                        .collect();
                let text = toks
                    .iter()
                    .zip(&tokens)
                    .map(|(t, tok)| match t {
                        Tok::Wildcard => WILDCARD,
                        Tok::Word(_) => tok,
                    })
                    .collect::<Vec<_>>()
                    .join(" ");
                let id = self.templates.len();
                self.templates.push(Template { tokens: toks, text, distinct: 1 });
                node.group.push(id);
                id
            }
        };

        let pattern = &self.templates.get(id)?.tokens;
        let params = pattern
            .iter()
            .zip(&tokens)
            .filter(|(t, _)| matches!(t, Tok::Wildcard))
            .map(|(_, tok)| param_class(tok))
            .collect();
        Some(Pin { template: id, params })
    }

    /// The feature branch of journal entry `at`, rebuilt from its pin.
    fn branches(&self, at: usize) -> Vec<FeatureBranch> {
        let Some(Seen { pin: Some(pin), .. }) = self.journal.get(at) else {
            return Vec::new();
        };
        let Some(template) = self.templates.get(pin.template) else {
            return Vec::new();
        };
        let mut features = Vec::with_capacity(1 + pin.params.len());
        features.push(Feature::template(template.text.as_str()));
        features.extend(pin.params.iter().map(|&class| Feature::param(class)));
        vec![FeatureBranch::new(features)]
    }
}

impl Featurizer for TemplateMiner {
    fn kind(&self) -> &'static str {
        "template"
    }

    fn featurize(&mut self, text: &str) -> Vec<FeatureBranch> {
        let at = self.record(text);
        self.branches(at)
    }

    fn fresh_featurizations(&self) -> u64 {
        // Every text the lookup did not answer was journaled.
        self.journal.len() as u64
    }

    fn export_journal(&self) -> Vec<u8> {
        let mut out = Vec::new();
        journal::encode_into(&mut out, self.journal.iter().map(|seen| &*seen.text));
        out
    }

    fn drain_events(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        journal::encode_into(&mut out, self.journal[self.drained..].iter().map(|seen| &*seen.text));
        self.drained = self.journal.len();
        out
    }

    fn replay(&mut self, bytes: &[u8]) -> Result<(), SourceError> {
        for text in journal::decode(bytes)? {
            // Idempotent: texts already replayed (or live-mined) are
            // found by the lookup and do not re-journal.
            self.record(&text);
        }
        self.drained = self.journal.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logr_feature::FeatureClass;

    fn miner() -> TemplateMiner {
        TemplateMiner::new(TemplateConfig::default())
    }

    fn template_text(branches: &[FeatureBranch]) -> String {
        branches[0]
            .features
            .iter()
            .find(|f| f.class == FeatureClass::Template)
            .map(|f| f.text.clone())
            .unwrap()
    }

    fn param_classes(branches: &[FeatureBranch]) -> Vec<String> {
        branches[0]
            .features
            .iter()
            .filter(|f| f.class == FeatureClass::Param)
            .map(|f| f.text.clone())
            .collect()
    }

    #[test]
    fn same_shape_shares_a_template() {
        let mut m = miner();
        let a = m.featurize("connection from 10.0.0.1 port 443 established");
        let b = m.featurize("connection from 10.0.0.2 port 8080 established");
        assert_eq!(template_text(&a), "connection from <*> port <*> established");
        assert_eq!(template_text(&a), template_text(&b));
        assert_eq!(m.template_count(), 1);
        assert_eq!(param_classes(&a), vec!["ip", "num"]);
    }

    #[test]
    fn wildcard_promotion_on_word_disagreement() {
        let mut m = miner();
        m.featurize("session opened for alice from 10.0.0.1");
        let b = m.featurize("session opened for bob from 10.0.0.2");
        // Promotion happens, but the creation-time text stays stable.
        assert_eq!(template_text(&b), "session opened for alice from <*>");
        assert_eq!(param_classes(&b), vec!["str", "ip"]);
        assert_eq!(m.template_count(), 1);
    }

    #[test]
    fn dissimilar_messages_get_distinct_templates() {
        let mut m = miner();
        m.featurize("cache hit ratio 0.93 over 1000 requests");
        m.featurize("disk write failed on /dev/sda1 retry 3");
        assert_eq!(m.template_count(), 2);
    }

    #[test]
    fn memo_pins_first_result() {
        let mut m = miner();
        let first = m.featurize("job 12 finished ok");
        m.featurize("job 13 crashed hard"); // promotes position 2 and 3
        let again = m.featurize("job 12 finished ok");
        assert_eq!(first, again, "memo must pin the first-sight result");
        assert_eq!(m.distinct_records(), 2);
    }

    #[test]
    fn bounded_children_fall_back_to_wildcard() {
        let cfg = TemplateConfig { max_children: 2, ..TemplateConfig::default() };
        let mut m = TemplateMiner::new(cfg);
        m.featurize("alpha start now please");
        m.featurize("beta start now please");
        // Third distinct head token: node is full, routes via <*>.
        let c = m.featurize("gamma start now please");
        assert!(!template_text(&c).is_empty());
        assert_eq!(m.distinct_records(), 3);
    }

    #[test]
    fn classify_buckets() {
        assert_eq!(classify("123"), Some("num"));
        assert_eq!(classify("-3.25"), Some("num"));
        assert_eq!(classify("2026-08-08"), Some("num"));
        assert_eq!(classify("10.0.0.1"), Some("ip"));
        assert_eq!(classify("/var/log/app.1.log"), Some("path"));
        assert_eq!(classify("0xdeadbeef"), Some("hex"));
        assert_eq!(classify("a1b2c3d4"), Some("hex"));
        assert_eq!(classify("123e4567-e89b-12d3-a456-426614174000"), Some("uuid"));
        assert_eq!(classify("req-42"), Some("id"));
        assert_eq!(classify("hello"), None);
        assert_eq!(classify("established"), None);
    }

    #[test]
    fn replay_reproduces_miner_exactly() {
        let corpus = [
            "connection from 10.0.0.1 port 443 established",
            "connection from 10.0.0.9 port 80 established",
            "user alice logged in from 10.0.0.1",
            "disk write failed on /dev/sda1 retry 3",
            "user bob logged in from 10.0.0.7",
            "job 991 finished in 125 ms",
        ];
        let mut live = miner();
        for line in corpus {
            live.featurize(line);
        }
        let mut restored = miner();
        restored.replay(&live.export_journal()).unwrap();
        assert_eq!(restored.template_texts(), live.template_texts());
        assert_eq!(restored.distinct_records(), live.distinct_records());
        for line in corpus {
            assert_eq!(restored.featurize(line), live.featurize(line));
        }
        // And new records featurize identically post-replay.
        let novel = "connection from 10.9.9.9 port 7777 established";
        assert_eq!(restored.featurize(novel), live.featurize(novel));
        assert_eq!(restored.export_journal(), live.export_journal());
    }

    #[test]
    fn drained_increments_concatenate_to_full_journal() {
        let mut m = miner();
        m.featurize("alpha beta 1");
        m.featurize("gamma delta 2");
        let inc1 = m.drain_events();
        m.featurize("alpha beta 1"); // memo hit: no new journal entry
        m.featurize("epsilon zeta 3");
        let inc2 = m.drain_events();
        assert!(m.drain_events().is_empty());
        let mut joined = inc1;
        joined.extend_from_slice(&inc2);
        assert_eq!(joined, m.export_journal());
        let mut restored = miner();
        restored.replay(&joined).unwrap();
        assert_eq!(restored.template_texts(), m.template_texts());
    }

    #[test]
    fn replay_is_idempotent() {
        let mut m = miner();
        m.featurize("service up on port 8080");
        let journal = m.export_journal();
        let mut restored = miner();
        restored.replay(&journal).unwrap();
        restored.replay(&journal).unwrap();
        assert_eq!(restored.distinct_records(), 1);
        assert_eq!(restored.export_journal(), journal);
    }

    #[test]
    fn corrupt_journal_is_a_typed_error() {
        let mut m = miner();
        assert!(matches!(m.replay(&[0xFF, 0xFF]), Err(SourceError::CorruptJournal { .. })));
    }

    #[test]
    fn empty_text_yields_no_branches() {
        let mut m = miner();
        assert!(m.featurize("").is_empty());
        assert!(m.featurize("   ").is_empty());
        assert_eq!(m.template_count(), 0);
    }
}
