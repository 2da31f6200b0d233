//! Adversarial tests for the shard spill format: every way a file can be
//! wrong — truncated, foreign, future-versioned, bit-flipped — must come
//! back as a typed [`SpillError`], never a panic, an over-allocation, or
//! (worst of all) a silently-wrong distance.

use logr_cluster::spill::{self, ShardRecord, SpillError, MAGIC, VERSION};
use logr_cluster::vfs::{RealFs, Vfs as _};
use logr_feature::{BitVec, FeatureId, QueryVector};
use logr_testkit::vfs::{durable_state, FaultFs, IoOp, LastOpVariant};
use logr_testkit::TempStore;
use std::path::Path;
fn qv(ids: &[u32]) -> QueryVector {
    QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
}

/// A representative record: non-trivial intra triangle, cross block, and
/// multi-block bitsets.
fn record() -> ShardRecord {
    let nf = 150;
    let points = [&[0u32, 1, 64][..], &[2, 100, 149], &[], &[7]];
    let bits: Vec<BitVec> =
        points.iter().map(|ids| BitVec::from_query_vector(&qv(ids), nf)).collect();
    ShardRecord {
        n_features: nf,
        start: 3,
        intra: vec![4, 5, 3, 6, 2, 1],                   // 4·3/2
        cross: vec![9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2], // 3·4
        bits: bits.into(),
    }
}

#[test]
fn valid_file_round_trips() {
    let store = TempStore::new("ok");
    let path = store.join("shard.bin");
    let record = record();
    spill::write_file_with(&RealFs, &path, &record).unwrap();
    assert_eq!(spill::read_file_with(&RealFs, &path).unwrap(), record);
}

#[test]
fn truncated_file_is_a_typed_error_at_every_cut() {
    let store = TempStore::new("trunc");
    let bytes = spill::encode(&record());
    let path = store.join("cut.bin");
    // Cut the file at every length short of whole — header cuts, payload
    // cuts, checksum cuts. Each must decode to Truncated (the total
    // length is derivable from the header, so truncation is diagnosed as
    // itself, not as the checksum mismatch it also causes).
    for cut in 0..bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let err = spill::read_file_with(&RealFs, &path).unwrap_err();
        assert!(
            matches!(err, SpillError::Truncated { .. }),
            "cut at {cut}/{} gave {err}",
            bytes.len()
        );
    }
}

#[test]
fn wrong_magic_is_a_typed_error() {
    let mut bytes = spill::encode(&record());
    bytes[..8].copy_from_slice(b"NOTSHARD");
    match spill::decode(&bytes).unwrap_err() {
        SpillError::BadMagic { found } => assert_eq!(&found, b"NOTSHARD"),
        other => panic!("expected BadMagic, got {other}"),
    }
    // A single flipped magic byte counts too.
    let mut bytes = spill::encode(&record());
    bytes[0] ^= 0x01;
    assert!(matches!(spill::decode(&bytes).unwrap_err(), SpillError::BadMagic { .. }));
}

#[test]
fn wrong_version_is_a_typed_error() {
    let mut bytes = spill::encode(&record());
    bytes[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    match spill::decode(&bytes).unwrap_err() {
        SpillError::BadVersion { found } => assert_eq!(found, VERSION + 1),
        other => panic!("expected BadVersion, got {other}"),
    }
}

#[test]
fn every_flipped_payload_byte_is_caught() {
    // The checksum regression: flip each payload byte in turn — intra
    // counts, cross counts, and point bitsets all decode structurally
    // fine with a flipped bit (they are plain integers), so *only*
    // checksum verification stands between a flipped byte and a
    // silently-wrong distance. If a future edit skips verification, this
    // test fails on its first iteration.
    let clean = spill::encode(&record());
    let header_end = 8 + 4 + 24; // magic + version + header words
    let payload_end = clean.len() - 8;
    let mut caught = 0usize;
    for i in header_end..payload_end {
        let mut bytes = clean.clone();
        bytes[i] ^= 0x10;
        match spill::decode(&bytes) {
            Err(SpillError::ChecksumMismatch { stored, computed }) => {
                assert_ne!(stored, computed);
                caught += 1;
            }
            Err(other) => panic!("payload byte {i}: expected ChecksumMismatch, got {other}"),
            Ok(_) => panic!("payload byte {i}: flipped byte decoded successfully"),
        }
    }
    assert_eq!(caught, payload_end - header_end);
    // Flipping the stored checksum itself is caught the same way.
    let mut bytes = clean;
    let last = bytes.len() - 1;
    bytes[last] ^= 0x80;
    assert!(matches!(spill::decode(&bytes).unwrap_err(), SpillError::ChecksumMismatch { .. }));
}

#[test]
fn flipped_header_bytes_never_panic_or_overallocate() {
    // Header corruption lands before the checksum check by design (sizes
    // are validated first so a hostile length cannot drive a huge
    // allocation); whatever the variant, it must be an error, not a
    // panic.
    let clean = spill::encode(&record());
    for i in 12..36 {
        for mask in [0x01u8, 0x80] {
            let mut bytes = clean.clone();
            bytes[i] ^= mask;
            assert!(spill::decode(&bytes).is_err(), "header byte {i} (mask {mask:#x}) decoded");
        }
    }
    // The pathological case: a header declaring astronomically many
    // points must fail cleanly (no multi-gigabyte reservation).
    let mut bytes = clean.clone();
    bytes[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(bytes.len() < 1 << 20, "test premise: the input itself is small");
    assert!(spill::decode(&bytes).is_err());
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = spill::encode(&record());
    bytes.extend_from_slice(&[0xAB; 16]);
    assert!(matches!(spill::decode(&bytes).unwrap_err(), SpillError::Corrupt(_)));
}

#[test]
fn error_display_is_informative() {
    let err = spill::decode(&[0u8; 4]).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("truncated"), "{msg}");
    let magic_err = spill::decode(&{
        let mut b = spill::encode(&record());
        b[..8].copy_from_slice(b"XXXXXXXX");
        b
    })
    .unwrap_err();
    assert!(magic_err.to_string().contains(&format!("{MAGIC:02x?}")), "{magic_err}");
}

#[test]
fn write_protocol_fsyncs_tmp_then_renames_then_syncs_dir() {
    let fs = FaultFs::new();
    let dir = Path::new("/store");
    fs.create_dir_all(dir).unwrap();
    let path = dir.join("shard-00000.bin");
    let tmp = dir.join("shard-00000.tmp");
    let before = fs.trace_len();
    spill::write_file_with(&fs, &path, &record()).unwrap();
    let trace = fs.trace();
    let ops = &trace[before..];
    // The exact durable-replace sequence — the fsync of the tmp file
    // BEFORE the rename is the regression this test pins (the
    // unsynced-page hole: rename committed ahead of data).
    assert_eq!(ops.len(), 4, "{ops:?}");
    assert!(matches!(&ops[0], IoOp::Write { path: p, .. } if p == &tmp), "{ops:?}");
    assert!(matches!(&ops[1], IoOp::Fsync { path: p } if p == &tmp), "{ops:?}");
    assert!(matches!(&ops[2], IoOp::Rename { from, to } if from == &tmp && to == &path), "{ops:?}");
    assert!(matches!(&ops[3], IoOp::SyncDir { dir: d } if d == dir), "{ops:?}");
}

#[test]
fn power_cut_during_shard_write_never_leaves_a_bad_durable_shard() {
    let record = record();
    let fs = FaultFs::new();
    let dir = Path::new("/store");
    fs.create_dir_all(dir).unwrap();
    let path = dir.join("shard-00000.bin");
    spill::write_file_with(&fs, &path, &record).unwrap();
    let trace = fs.trace();
    let expect = spill::encode(&record);
    for k in 0..=trace.len() {
        for variant in [LastOpVariant::Lost, LastOpVariant::Applied, LastOpVariant::Torn] {
            let (files, _) = durable_state(&trace[..k], variant);
            // Under the shard's durable name there is either nothing
            // (crash before the replace committed) or the complete
            // record — never a zero-length or torn file, because the
            // tmp content is fsynced before the rename.
            if let Some(bytes) = files.get(&path) {
                assert_eq!(bytes, &expect, "prefix {k}, {variant:?}");
            }
        }
    }
}
