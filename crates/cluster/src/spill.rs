//! Persistent shard store: the on-disk format closed shards spill to.
//!
//! A [`crate::ShardedPointSet`] shard is **immutable** once closed — its
//! condensed triangle covers only its own points and its cross block only
//! earlier ones, so later pushes never touch it. That makes closed shards
//! the natural spill unit for bounded-memory streaming: serialize the
//! shard to disk, drop its distances (the quadratic part; the set keeps
//! the points, which are linear, resident), and reload on demand — only
//! the bulk merge ever does; appends never read the store. Reloaded shards
//! are byte-for-byte the structures that were written (integer mismatch
//! counts and bit-packed point payloads — no floats are stored), so every
//! distance served across a mix of resident and spilled shards is
//! **bit-identical** to the all-resident build (property-tested in
//! `tests/proptest_shards.rs`).
//!
//! # Format (version 1, all integers little-endian)
//!
//! ```text
//! offset  size             field
//! ──────  ───────────────  ────────────────────────────────────────────
//!      0  8                magic  b"LOGRSHRD"
//!      8  4                version (u32, = 1)
//!     12  8                n_features (u64) — universe at shard close
//!     20  8                start (u64) — points before this shard
//!     28  8                w (u64) — points in this shard
//!     36  4·w(w−1)/2       intra: condensed strict-upper-triangle
//!                          mismatch counts (u32 each)
//!      …  4·start·w        cross: mismatch counts vs all earlier points,
//!                          row-major by earlier point index (u32 each)
//!      …  w × (8 + 8·⌈n_features/64⌉)
//!                          bits: one BitVec wire record per point
//!                          (`BitVec::write_bytes`: len u64 + LE blocks)
//!    end−8  8              checksum: FNV-1a 64 over bytes [8, end−8)
//! ```
//!
//! The magic sits outside the checksum (it identifies the file); the
//! version and every header/payload byte sit inside it. Readers validate
//! in order — length floor, magic, version, checksum, then structure — so
//! a truncated download reports [`SpillError::Truncated`], a foreign file
//! [`SpillError::BadMagic`], a future writer [`SpillError::BadVersion`],
//! and any flipped payload byte [`SpillError::ChecksumMismatch`]: every
//! corruption is a typed error, never a panic or a silently-wrong
//! distance.

use crate::vfs::{replace_durably, retry_io, Vfs};
use logr_feature::BitVec;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// First 8 bytes of every shard spill file.
pub const MAGIC: [u8; 8] = *b"LOGRSHRD";

/// Format version this build writes and the only one it reads.
pub const VERSION: u32 = 1;

/// Size of everything before the intra payload (magic through `w`).
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;

/// Magic + version + the three header words + trailing checksum: no valid
/// file is shorter.
const MIN_LEN: usize = HEADER_LEN + 8;

/// Why a shard file failed to load (or to write).
#[derive(Debug)]
pub enum SpillError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a shard file.
    BadMagic { found: [u8; 8] },
    /// A shard file from a writer this build does not understand.
    BadVersion { found: u32 },
    /// The file ends before its declared payloads do.
    Truncated { expected: usize, found: usize },
    /// Payload bytes do not hash to the stored checksum: bit rot, a
    /// partial overwrite, or tampering.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Structurally invalid payload (e.g. a point record with set bits
    /// beyond its declared universe, or trailing bytes after the last
    /// payload).
    Corrupt(&'static str),
    /// The file decodes cleanly but is not the shard that belongs at this
    /// position in the store's chain — its start offset or feature
    /// universe disagrees with the shards before it. The classic cause is
    /// shard files whose payloads were swapped or restored from the wrong
    /// store; the engine surfaces this as a store mismatch rather than
    /// ever serving a distance from the wrong shard.
    ChainMismatch { detail: &'static str },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "shard spill I/O error: {e}"),
            SpillError::BadMagic { found } => {
                write!(f, "not a shard file (magic {found:02x?}, want {MAGIC:02x?})")
            }
            SpillError::BadVersion { found } => {
                write!(f, "unsupported shard format version {found} (this build reads {VERSION})")
            }
            SpillError::Truncated { expected, found } => {
                write!(f, "truncated shard file: need {expected} bytes, have {found}")
            }
            SpillError::ChecksumMismatch { stored, computed } => write!(
                f,
                "shard payload checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SpillError::Corrupt(what) => write!(f, "corrupt shard file: {what}"),
            SpillError::ChainMismatch { detail } => {
                write!(f, "shard file does not belong at this chain position: {detail}")
            }
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SpillError {
    fn from(e: std::io::Error) -> Self {
        SpillError::Io(e)
    }
}

/// One closed shard in serializable form — exactly the state
/// [`crate::ShardedPointSet`] holds for it in memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRecord {
    /// Feature-universe size when the shard closed (each point bitset's
    /// width; later shards may be wider — padded xors reconcile them).
    pub n_features: usize,
    /// Number of points in earlier shards (the cross block's row count).
    pub start: usize,
    /// Condensed strict-upper-triangle mismatch counts between the
    /// shard's own points (`w·(w−1)/2` entries).
    pub intra: Vec<u32>,
    /// Mismatch counts vs every earlier point, row-major by earlier index
    /// (`start · w` entries).
    pub cross: Vec<u32>,
    /// The shard's points as dense bitsets (`w` entries, each
    /// `n_features` wide). Shared, not owned: the set keeps every point
    /// resident for appends and a resident record points at the same
    /// allocation.
    pub bits: Arc<[BitVec]>,
}

impl ShardRecord {
    /// Points in the shard.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True for a zero-point shard (still a valid record).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Heap bytes evicting this record frees — its distances, the
    /// quadratic part; the quantity the [`crate::ShardedPointSet`]
    /// eviction budget is measured in. The points are linear in the
    /// history and stay resident with the set either way.
    pub fn payload_bytes(&self) -> usize {
        4 * (self.intra.len() + self.cross.len())
    }
}

/// FNV-1a 64-bit over `bytes` — dependency-free, byte-order independent,
/// and plenty for integrity (this guards against rot and truncation, not
/// adversaries with write access to the store). Public because the engine
/// manifest (`logr::manifest`) checksums its own payload the same way —
/// one hash for every file the store writes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Serialize a shard to its wire form (see the module docs for the
/// layout).
pub fn encode(record: &ShardRecord) -> Vec<u8> {
    let w = record.bits.len();
    debug_assert_eq!(record.intra.len(), w * w.saturating_sub(1) / 2, "intra/point mismatch");
    debug_assert_eq!(record.cross.len(), record.start * w, "cross/point mismatch");
    let bits_len: usize = record.bits.iter().map(BitVec::wire_len).sum();
    let mut out =
        Vec::with_capacity(MIN_LEN + 4 * (record.intra.len() + record.cross.len()) + bits_len);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(record.n_features as u64).to_le_bytes());
    out.extend_from_slice(&(record.start as u64).to_le_bytes());
    out.extend_from_slice(&(w as u64).to_le_bytes());
    for &d in &record.intra {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for &d in &record.cross {
        out.extend_from_slice(&d.to_le_bytes());
    }
    for b in record.bits.iter() {
        b.write_bytes(&mut out);
    }
    let checksum = fnv1a64(&out[8..]);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Read a little-endian `u64` at `offset` (caller guarantees bounds).
fn read_u64(bytes: &[u8], offset: usize) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(&bytes[offset..offset + 8]);
    u64::from_le_bytes(le)
}

/// Decode and validate a shard's wire form. Checks, in order: minimum
/// length, magic, version, total length (derivable from the header alone,
/// so truncation is reported as [`SpillError::Truncated`] rather than as
/// the checksum mismatch it also causes), checksum over `[8, end−8)`,
/// then payload structure — so every way a file can be wrong maps to one
/// [`SpillError`] variant and decoding never panics or over-allocates on
/// hostile headers.
pub fn decode(bytes: &[u8]) -> Result<ShardRecord, SpillError> {
    decode_inner(bytes, true)
}

/// [`decode`] minus the checksum pass — for **re**-reads of a file this
/// process already validated in full. The shard store verifies each
/// spill file once, at first load; a budget-bounded workload then
/// reloads the same immutable file every time the shard is evicted and
/// faulted back in, and re-hashing the whole payload on every fault is
/// pure overhead. Structural validation (length arithmetic, bitset
/// widths) still runs — it is what makes parsing safe — so a file that
/// changed shape underneath us still fails typed rather than panicking;
/// only silent same-shape bit rot between reads goes undetected, which
/// is exactly the window the first validated read already bounded.
pub fn decode_trusted(bytes: &[u8]) -> Result<ShardRecord, SpillError> {
    decode_inner(bytes, false)
}

fn decode_inner(bytes: &[u8], verify_checksum: bool) -> Result<ShardRecord, SpillError> {
    if bytes.len() < MIN_LEN {
        return Err(SpillError::Truncated { expected: MIN_LEN, found: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&bytes[..8]);
        return Err(SpillError::BadMagic { found });
    }
    let mut version_le = [0u8; 4];
    version_le.copy_from_slice(&bytes[8..12]);
    let version = u32::from_le_bytes(version_le);
    if version != VERSION {
        return Err(SpillError::BadVersion { found: version });
    }

    let n_features = usize::try_from(read_u64(bytes, 12))
        .map_err(|_| SpillError::Corrupt("n_features exceeds the address space"))?;
    let start = usize::try_from(read_u64(bytes, 20))
        .map_err(|_| SpillError::Corrupt("start exceeds the address space"))?;
    let w = usize::try_from(read_u64(bytes, 28))
        .map_err(|_| SpillError::Corrupt("shard width exceeds the address space"))?;

    // The total length is a pure function of the header (every point
    // bitset is `n_features` wide), so size-check before touching — let
    // alone allocating for — any payload: a flipped header byte must not
    // become a multi-gigabyte Vec reservation.
    let intra_len = w
        .checked_mul(w.saturating_sub(1))
        .map(|c| c / 2)
        .ok_or(SpillError::Corrupt("intra size overflows"))?;
    let cross_len = start.checked_mul(w).ok_or(SpillError::Corrupt("cross size overflows"))?;
    let counts_bytes = intra_len
        .checked_add(cross_len)
        .and_then(|c| c.checked_mul(4))
        .ok_or(SpillError::Corrupt("payload size overflows"))?;
    let point_bytes = n_features
        .checked_add(63)
        .map(|n| 8 + 8 * (n / 64))
        .ok_or(SpillError::Corrupt("point size overflows"))?;
    let expected = point_bytes
        .checked_mul(w)
        .and_then(|b| b.checked_add(counts_bytes))
        .and_then(|b| b.checked_add(MIN_LEN))
        .ok_or(SpillError::Corrupt("file size overflows"))?;
    if bytes.len() < expected {
        return Err(SpillError::Truncated { expected, found: bytes.len() });
    }
    if bytes.len() > expected {
        return Err(SpillError::Corrupt("trailing bytes after the last point payload"));
    }

    if verify_checksum {
        let stored = read_u64(bytes, bytes.len() - 8);
        let computed = fnv1a64(&bytes[8..bytes.len() - 8]);
        if stored != computed {
            return Err(SpillError::ChecksumMismatch { stored, computed });
        }
    }

    let payload = &bytes[HEADER_LEN..bytes.len() - 8];
    let decode_u32s = |slice: &[u8]| -> Vec<u32> {
        slice.chunks_exact(4).map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
    };
    let intra = decode_u32s(&payload[..intra_len * 4]);
    let cross = decode_u32s(&payload[intra_len * 4..counts_bytes]);

    let mut bits = Vec::with_capacity(w);
    let mut rest = &payload[counts_bytes..];
    for _ in 0..w {
        // Lengths were validated above; what's left to catch here is a
        // checksummed-but-malformed record (non-canonical padding bits or
        // a width disagreeing with the header) — a writer bug, not rot.
        let (b, used) = BitVec::read_bytes(rest)
            .ok_or(SpillError::Corrupt("point payload has set bits beyond its universe"))?;
        if b.len() != n_features {
            return Err(SpillError::Corrupt("point bitset width disagrees with the header"));
        }
        bits.push(b);
        rest = &rest[used..];
    }
    Ok(ShardRecord { n_features, start, intra, cross, bits: bits.into() })
}

/// Durably write a shard record to `path` through `vfs`
/// ([`replace_durably`] — a retried eviction draws a fresh file name, so
/// its sweep-on-error is what keeps a failed write from orphaning a
/// partial `.tmp` forever). Returns the file's byte length.
pub fn write_file_with(
    vfs: &dyn Vfs,
    path: &Path,
    record: &ShardRecord,
) -> Result<u64, SpillError> {
    let bytes = encode(record);
    replace_durably(vfs, path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Load and validate a shard record from `path` through `vfs`, riding
/// out transient read errors.
pub fn read_file_with(vfs: &dyn Vfs, path: &Path) -> Result<ShardRecord, SpillError> {
    decode(&retry_io(|| vfs.read(path))?)
}

/// [`read_file_with`] for a file already validated by this process —
/// decodes via [`decode_trusted`], skipping the checksum pass.
pub fn read_file_trusted_with(vfs: &dyn Vfs, path: &Path) -> Result<ShardRecord, SpillError> {
    decode_trusted(&retry_io(|| vfs.read(path))?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::RealFs;
    use logr_feature::{FeatureId, QueryVector};

    fn sample_record() -> ShardRecord {
        let qv = |ids: &[u32]| QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect());
        let nf = 130;
        let bits: Vec<BitVec> = [&[0u32, 1, 64][..], &[2, 129], &[]]
            .iter()
            .map(|ids| BitVec::from_query_vector(&qv(ids), nf))
            .collect();
        ShardRecord {
            n_features: nf,
            start: 2,
            intra: vec![5, 3, 4],          // 3·2/2
            cross: vec![1, 2, 3, 4, 5, 6], // 2·3
            bits: bits.into(),
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let record = sample_record();
        let bytes = encode(&record);
        assert_eq!(decode(&bytes).unwrap(), record);
    }

    #[test]
    fn trusted_decode_skips_only_the_checksum_pass() {
        let record = sample_record();
        let mut bytes = encode(&record);
        let n = bytes.len();
        // Flip a checksummed payload byte: the validating decode reports
        // the mismatch, the trusted re-read decode parses it (same-shape
        // rot between reads is out of its contract).
        bytes[HEADER_LEN] ^= 1;
        assert!(matches!(decode(&bytes), Err(SpillError::ChecksumMismatch { .. })));
        assert!(decode_trusted(&bytes).is_ok());
        bytes[HEADER_LEN] ^= 1;
        assert_eq!(decode_trusted(&bytes).unwrap(), record);
        // Structural validation still runs under trust.
        assert!(matches!(decode_trusted(&bytes[..n - 9]), Err(SpillError::Truncated { .. })));
    }

    #[test]
    fn empty_shard_round_trips() {
        let record = ShardRecord {
            n_features: 0,
            start: 7,
            intra: vec![],
            cross: vec![],
            bits: vec![].into(),
        };
        assert_eq!(decode(&encode(&record)).unwrap(), record);
    }

    #[test]
    fn file_round_trips() {
        let store = logr_testkit::TempStore::new("spill-unit");
        let path = store.join("shard.bin");
        let record = sample_record();
        let written = write_file_with(&RealFs, &path, &record).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_file_with(&RealFs, &path).unwrap(), record);
        // The atomic-rename temp sibling is gone.
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = read_file_with(&RealFs, Path::new("/nonexistent/logr/shard.bin")).unwrap_err();
        assert!(matches!(err, SpillError::Io(_)), "{err}");
    }
}
