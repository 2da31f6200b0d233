//! The Aligon et al. feature scheme (paper §2.2).
//!
//! Each feature is a structural query element tagged with the clause it
//! appears in. Example 1 of the paper: `SELECT _id, sms_type, _time FROM
//! Messages WHERE status=? AND transport_type=?` has six features —
//! ⟨_id, SELECT⟩, ⟨sms_type, SELECT⟩, ⟨_time, SELECT⟩, ⟨Messages, FROM⟩,
//! ⟨status=?, WHERE⟩ and ⟨transport_type=?, WHERE⟩.

use std::fmt;

/// The clause a feature was extracted from. The discriminants are the
/// class's stored byte ([`FeatureClass::tag`]) — persisted stores depend
/// on them, so they never change and new classes only append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeatureClass {
    /// Projected column / expression.
    Select = 0,
    /// Source table or derived table.
    From = 1,
    /// Conjunctive WHERE atom.
    Where = 2,
    /// GROUP BY expression (Makiyama-scheme extension, optional).
    GroupBy = 3,
    /// ORDER BY key (Makiyama-scheme extension, optional).
    OrderBy = 4,
    /// Mined log template (free-form service logs; `logr-source`'s
    /// Drain-style miner — the structural skeleton of a record with
    /// variable positions wildcarded).
    Template = 5,
    /// Parameter class of a variable position in a mined template
    /// (number, hex id, IP, path, …).
    Param = 6,
}

impl FeatureClass {
    /// Every class, indexed by [`FeatureClass::tag`].
    pub const ALL: [FeatureClass; 7] = [
        FeatureClass::Select,
        FeatureClass::From,
        FeatureClass::Where,
        FeatureClass::GroupBy,
        FeatureClass::OrderBy,
        FeatureClass::Template,
        FeatureClass::Param,
    ];

    /// The byte binary formats store this class as.
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`FeatureClass::tag`]; `None` for a byte no class owns.
    pub fn from_tag(tag: u8) -> Option<FeatureClass> {
        Self::ALL.get(usize::from(tag)).copied()
    }

    /// Inverse of [`FeatureClass::label`]; `None` for any other string.
    pub fn from_label(label: &str) -> Option<FeatureClass> {
        Self::ALL.into_iter().find(|class| class.label() == label)
    }

    /// Short uppercase label used in feature rendering.
    pub fn label(self) -> &'static str {
        match self {
            FeatureClass::Select => "SELECT",
            FeatureClass::From => "FROM",
            FeatureClass::Where => "WHERE",
            FeatureClass::GroupBy => "GROUPBY",
            FeatureClass::OrderBy => "ORDERBY",
            FeatureClass::Template => "TEMPLATE",
            FeatureClass::Param => "PARAM",
        }
    }
}

impl fmt::Display for FeatureClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A single query feature: canonical text plus its clause class.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Feature {
    /// Clause class. Ordered first so features sort by clause.
    pub class: FeatureClass,
    /// Canonical text (printed by the SQL printer, so two spellings of the
    /// same atom coincide).
    pub text: String,
}

impl Feature {
    /// Construct a feature.
    pub fn new(class: FeatureClass, text: impl Into<String>) -> Self {
        Feature { class, text: text.into() }
    }

    /// ⟨column, SELECT⟩ convenience constructor.
    pub fn select(text: impl Into<String>) -> Self {
        Feature::new(FeatureClass::Select, text)
    }

    /// ⟨table, FROM⟩ convenience constructor.
    pub fn from_table(text: impl Into<String>) -> Self {
        Feature::new(FeatureClass::From, text)
    }

    /// ⟨atom, WHERE⟩ convenience constructor.
    pub fn where_atom(text: impl Into<String>) -> Self {
        Feature::new(FeatureClass::Where, text)
    }

    /// ⟨template, TEMPLATE⟩ convenience constructor (mined log templates).
    pub fn template(text: impl Into<String>) -> Self {
        Feature::new(FeatureClass::Template, text)
    }

    /// ⟨class, PARAM⟩ convenience constructor (template parameter classes).
    pub fn param(text: impl Into<String>) -> Self {
        Feature::new(FeatureClass::Param, text)
    }
}

impl fmt::Display for Feature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.text, self.class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(Feature::select("_id").to_string(), "⟨_id, SELECT⟩");
        assert_eq!(Feature::from_table("Messages").to_string(), "⟨Messages, FROM⟩");
        assert_eq!(Feature::where_atom("status = ?").to_string(), "⟨status = ?, WHERE⟩");
    }

    #[test]
    fn tags_and_labels_round_trip_and_tags_are_pinned() {
        for (i, class) in FeatureClass::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(class.tag()), i, "ALL must be in tag order");
            assert_eq!(FeatureClass::from_tag(class.tag()), Some(class));
            assert_eq!(FeatureClass::from_label(class.label()), Some(class));
        }
        // Stored bytes: these exact values are in every persisted manifest.
        assert_eq!(FeatureClass::Select.tag(), 0);
        assert_eq!(FeatureClass::OrderBy.tag(), 4);
        assert_eq!(FeatureClass::Param.tag(), 6);
        assert_eq!(FeatureClass::from_tag(7), None);
        assert_eq!(FeatureClass::from_label("where"), None, "labels are upper-case");
    }

    #[test]
    fn features_order_by_clause_then_text() {
        let mut fs = [
            Feature::where_atom("a = ?"),
            Feature::select("z"),
            Feature::from_table("t"),
            Feature::select("a"),
        ];
        fs.sort();
        assert_eq!(
            fs.iter().map(|f| f.class).collect::<Vec<_>>(),
            vec![
                FeatureClass::Select,
                FeatureClass::Select,
                FeatureClass::From,
                FeatureClass::Where
            ]
        );
        assert_eq!(fs[0].text, "a");
        assert_eq!(fs[1].text, "z");
    }

    #[test]
    fn equality_is_class_sensitive() {
        assert_ne!(Feature::select("x"), Feature::where_atom("x"));
        assert_eq!(Feature::select("x"), Feature::select("x"));
    }
}
