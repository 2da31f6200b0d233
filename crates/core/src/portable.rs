//! Portable summaries: a self-contained, versioned text format for storing
//! a compressed log and answering workload statistics later, without the
//! original log.
//!
//! This is the artifact a monitoring pipeline would actually ship: the
//! paper's use cases (index selection, view selection, online monitoring —
//! §2) all consume the summary *instead of* the log, so the summary must
//! survive on its own. The format stores the codebook (feature ↔ id), each
//! mixture component's size and non-zero marginals, and nothing else —
//! `O(Total Verbosity)` space, exactly the measure the paper optimizes.

use crate::compress::LogRSummary;
use crate::mixture::NaiveMixtureEncoding;
use logr_feature::{Codebook, Feature, FeatureClass, FeatureId, QueryLog};
use std::fmt;
use std::io::{BufRead, Write};
use std::path::Path;

/// Format version tag.
const MAGIC: &str = "LOGR-SUMMARY v1";

/// A self-contained compressed-log summary.
#[derive(Debug, Clone)]
pub struct PortableSummary {
    /// Total queries in the compressed log.
    pub total_queries: u64,
    /// Feature codebook.
    pub codebook: Codebook,
    /// Components: `(query count, non-zero (feature, marginal) pairs)`.
    pub components: Vec<(u64, Vec<(FeatureId, f64)>)>,
}

/// Errors while reading a portable summary.
#[derive(Debug)]
pub enum PortableError {
    /// I/O failure.
    Io(std::io::Error),
    /// The input is not a valid v1 summary.
    Format {
        /// Line number (1-based) where the problem was found.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for PortableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortableError::Io(e) => write!(f, "i/o error: {e}"),
            PortableError::Format { line, message } => {
                write!(f, "format error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for PortableError {}

impl From<std::io::Error> for PortableError {
    fn from(e: std::io::Error) -> Self {
        PortableError::Io(e)
    }
}

impl PortableSummary {
    /// Capture a compression result together with its log's codebook.
    pub fn from_summary(summary: &LogRSummary, log: &QueryLog) -> Self {
        PortableSummary::from_mixture(&summary.mixture, log)
    }

    /// Capture a mixture encoding together with its log's codebook.
    pub fn from_mixture(mixture: &NaiveMixtureEncoding, log: &QueryLog) -> Self {
        let components = mixture
            .components()
            .iter()
            .map(|c| {
                let pairs =
                    c.encoding.support().iter().map(|&f| (f, c.encoding.marginal(f))).collect();
                (c.total, pairs)
            })
            .collect();
        PortableSummary {
            total_queries: mixture.total_queries(),
            codebook: log.codebook().clone(),
            components,
        }
    }

    /// Total Verbosity of the stored summary.
    pub fn total_verbosity(&self) -> usize {
        self.components.iter().map(|(_, pairs)| pairs.len()).sum()
    }

    /// Estimate how many log queries contain all the given features
    /// (§6.2's mixture estimator, reconstructed from storage).
    pub fn estimate_count(&self, features: &[Feature]) -> f64 {
        let Some(ids) =
            features.iter().map(|f| self.codebook.get(f)).collect::<Option<Vec<FeatureId>>>()
        else {
            return 0.0;
        };
        self.components
            .iter()
            .map(|(total, pairs)| {
                let product: f64 = ids
                    .iter()
                    .map(|id| pairs.iter().find(|(f, _)| f == id).map_or(0.0, |&(_, p)| p))
                    .product();
                *total as f64 * product
            })
            .sum()
    }

    /// Serialize to a writer.
    pub fn write_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(w, "{MAGIC}")?;
        writeln!(w, "total\t{}", self.total_queries)?;
        writeln!(w, "features\t{}", self.codebook.len())?;
        for (id, feature) in self.codebook.iter() {
            writeln!(w, "f\t{}\t{}\t{}", id.0, feature.class.label(), escape(&feature.text))?;
        }
        writeln!(w, "components\t{}", self.components.len())?;
        for (total, pairs) in &self.components {
            writeln!(w, "c\t{}\t{}", total, pairs.len())?;
            for (f, p) in pairs {
                writeln!(w, "m\t{}\t{:.17e}", f.0, p)?;
            }
        }
        Ok(())
    }

    /// Deserialize from a reader.
    pub fn read_from(r: impl BufRead) -> Result<Self, PortableError> {
        let mut lines = r.lines().enumerate();
        let mut next = |expect: &str| -> Result<(usize, String), PortableError> {
            match lines.next() {
                Some((i, Ok(line))) => Ok((i + 1, line)),
                Some((i, Err(e))) => Err(PortableError::Format {
                    line: i + 1,
                    message: format!("read failure: {e}"),
                }),
                None => Err(PortableError::Format {
                    line: 0,
                    message: format!("unexpected end of input, expected {expect}"),
                }),
            }
        };

        let (line_no, magic) = next("header")?;
        if magic.trim() != MAGIC {
            return Err(PortableError::Format {
                line: line_no,
                message: format!("bad header {magic:?}"),
            });
        }
        let total_queries = parse_kv(next("total")?, "total")?;
        let n_features = parse_kv(next("features")?, "features")? as usize;

        let mut codebook = Codebook::new();
        for _ in 0..n_features {
            let (line_no, line) = next("feature line")?;
            let parts: Vec<&str> = line.splitn(4, '\t').collect();
            if parts.len() != 4 || parts[0] != "f" {
                return Err(PortableError::Format {
                    line: line_no,
                    message: "expected 'f\\t<id>\\t<class>\\t<text>'".into(),
                });
            }
            let class =
                FeatureClass::from_label(parts[2]).ok_or_else(|| PortableError::Format {
                    line: line_no,
                    message: format!("unknown feature class {:?}", parts[2]),
                })?;
            let id = codebook.intern(Feature::new(class, unescape(parts[3])));
            let declared: u32 = parts[1].parse().map_err(|_| PortableError::Format {
                line: line_no,
                message: "bad feature id".into(),
            })?;
            if id.0 != declared {
                return Err(PortableError::Format {
                    line: line_no,
                    message: format!("non-dense feature ids: expected {}, found {declared}", id.0),
                });
            }
        }

        let n_components = parse_kv(next("components")?, "components")? as usize;
        let mut components = Vec::with_capacity(n_components);
        for _ in 0..n_components {
            let (line_no, line) = next("component line")?;
            let parts: Vec<&str> = line.split('\t').collect();
            if parts.len() != 3 || parts[0] != "c" {
                return Err(PortableError::Format {
                    line: line_no,
                    message: "expected 'c\\t<total>\\t<n_marginals>'".into(),
                });
            }
            let total: u64 = parts[1].parse().map_err(|_| PortableError::Format {
                line: line_no,
                message: "bad component total".into(),
            })?;
            let n_marginals: usize = parts[2].parse().map_err(|_| PortableError::Format {
                line: line_no,
                message: "bad marginal count".into(),
            })?;
            let mut pairs = Vec::with_capacity(n_marginals);
            for _ in 0..n_marginals {
                let (line_no, line) = next("marginal line")?;
                let parts: Vec<&str> = line.split('\t').collect();
                if parts.len() != 3 || parts[0] != "m" {
                    return Err(PortableError::Format {
                        line: line_no,
                        message: "expected 'm\\t<feature>\\t<marginal>'".into(),
                    });
                }
                let f: u32 = parts[1].parse().map_err(|_| PortableError::Format {
                    line: line_no,
                    message: "bad feature id".into(),
                })?;
                let p: f64 = parts[2].parse().map_err(|_| PortableError::Format {
                    line: line_no,
                    message: "bad marginal".into(),
                })?;
                if !(0.0..=1.0 + 1e-9).contains(&p) {
                    return Err(PortableError::Format {
                        line: line_no,
                        message: format!("marginal {p} out of [0,1]"),
                    });
                }
                pairs.push((FeatureId(f), p));
            }
            components.push((total, pairs));
        }
        Ok(PortableSummary { total_queries, codebook, components })
    }

    /// Save to a file through an explicit [`Vfs`] — the injection point
    /// the fault suites drive.
    ///
    /// [`Vfs`]: logr_cluster::vfs::Vfs
    pub fn save_with(&self, vfs: &dyn logr_cluster::vfs::Vfs, path: &Path) -> std::io::Result<()> {
        let mut out = Vec::new();
        self.write_to(&mut out)?;
        vfs.write(path, &out)
    }

    /// Load from a file through an explicit [`Vfs`].
    ///
    /// [`Vfs`]: logr_cluster::vfs::Vfs
    pub fn load_with(vfs: &dyn logr_cluster::vfs::Vfs, path: &Path) -> Result<Self, PortableError> {
        let bytes = vfs.read(path)?;
        PortableSummary::read_from(std::io::BufReader::new(bytes.as_slice()))
    }
}

fn parse_kv((line_no, line): (usize, String), key: &str) -> Result<u64, PortableError> {
    let parts: Vec<&str> = line.split('\t').collect();
    if parts.len() != 2 || parts[0] != key {
        return Err(PortableError::Format {
            line: line_no,
            message: format!("expected '{key}\\t<value>', found {line:?}"),
        });
    }
    parts[1]
        .parse()
        .map_err(|_| PortableError::Format { line: line_no, message: format!("bad {key} value") })
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => {
                    out.push('\\');
                    out.push(other);
                }
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::LogR;
    use logr_feature::LogIngest;

    fn sample() -> (QueryLog, PortableSummary) {
        let mut ingest = LogIngest::new();
        for _ in 0..30 {
            ingest.ingest("SELECT id FROM messages WHERE status = ?");
        }
        for _ in 0..10 {
            ingest.ingest("SELECT balance FROM accounts WHERE owner = ?");
        }
        let (log, _) = ingest.finish();
        let summary = LogR::with_clusters(2).compress(&log);
        let portable = PortableSummary::from_summary(&summary, &log);
        (log, portable)
    }

    #[test]
    fn estimates_survive_round_trip() {
        let (_, portable) = sample();
        let mut buf = Vec::new();
        portable.write_to(&mut buf).unwrap();
        let loaded = PortableSummary::read_from(buf.as_slice()).unwrap();

        for features in [
            vec![Feature::from_table("messages")],
            vec![Feature::from_table("accounts"), Feature::where_atom("owner = ?")],
            vec![Feature::select("id"), Feature::where_atom("status = ?")],
        ] {
            let before = portable.estimate_count(&features);
            let after = loaded.estimate_count(&features);
            assert!((before - after).abs() < 1e-9, "{features:?}: {before} vs {after}");
        }
        assert_eq!(loaded.total_queries, portable.total_queries);
        assert_eq!(loaded.total_verbosity(), portable.total_verbosity());
    }

    #[test]
    fn estimates_match_live_summary() {
        let mut ingest = LogIngest::new();
        for _ in 0..30 {
            ingest.ingest("SELECT id FROM messages WHERE status = ?");
        }
        let (log, _) = ingest.finish();
        let summary = LogR::with_clusters(1).compress(&log);
        let portable = PortableSummary::from_summary(&summary, &log);
        let features = [Feature::from_table("messages"), Feature::where_atom("status = ?")];
        assert!(
            (portable.estimate_count(&features) - summary.estimate_count_features(&log, &features))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn unknown_feature_estimates_zero() {
        let (_, portable) = sample();
        assert_eq!(portable.estimate_count(&[Feature::from_table("nope")]), 0.0);
    }

    #[test]
    fn escaping_round_trips() {
        for text in ["plain", "tab\there", "line\nbreak", "back\\slash", "mix\\t\\n"] {
            assert_eq!(unescape(&escape(text)), text);
        }
    }

    #[test]
    fn rejects_bad_header() {
        let err = PortableSummary::read_from("NOT A SUMMARY\n".as_bytes()).unwrap_err();
        assert!(matches!(err, PortableError::Format { line: 1, .. }));
    }

    #[test]
    fn rejects_out_of_range_marginal() {
        let (_, portable) = sample();
        let mut buf = Vec::new();
        portable.write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        // Corrupt the first marginal value.
        let corrupted = text
            .lines()
            .map(|l| {
                if l.starts_with("m\t") {
                    let mut parts: Vec<&str> = l.split('\t').collect();
                    parts[2] = "7.5";
                    parts.join("\t")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert!(PortableSummary::read_from(corrupted.as_bytes()).is_err());
    }

    #[test]
    fn rejects_truncated_input() {
        let (_, portable) = sample();
        let mut buf = Vec::new();
        portable.write_to(&mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        assert!(PortableSummary::read_from(truncated).is_err());
    }

    #[test]
    fn file_round_trip() {
        let (_, portable) = sample();
        let path = std::env::temp_dir().join("logr_portable_test.summary");
        portable.save_with(&logr_cluster::vfs::RealFs, &path).unwrap();
        let loaded = PortableSummary::load_with(&logr_cluster::vfs::RealFs, &path).unwrap();
        assert_eq!(loaded.total_queries, portable.total_queries);
        std::fs::remove_file(&path).ok();
    }
}
