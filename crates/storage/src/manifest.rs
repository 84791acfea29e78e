//! The shard manifest: one small CRC-stamped file describing a
//! partitioned cube set.
//!
//! A sharded build splits a relation by tid range into N self-contained
//! cube files (each its own buffer pool, checksums, generations — the
//! ordinary format described in [`crate::format`]) plus one manifest
//! naming them. The manifest is the *only* coupling between shards: it
//! records, per shard, the cube file name (relative to the manifest's
//! directory, so the set relocates as a unit) and the global tid range
//! the shard serves. Opening a sharded cube = read manifest, validate
//! CRC and ranges, open each named file.
//!
//! # Layout (all integers little-endian)
//!
//! | offset | size | field                                         |
//! |--------|------|-----------------------------------------------|
//! | 0      | 4    | magic `b"RCSM"`                               |
//! | 4      | 2    | manifest version ([`MANIFEST_VERSION`])       |
//! | 6      | 1    | engine byte: always 1 (grid; anything else is |
//! |        |      | [`StorageError::Malformed`])                  |
//! | 7      | 1    | flags (reserved, zero)                        |
//! | 8      | 8    | shard count                                   |
//! | …      | …    | per shard: file name (u64-length-prefixed     |
//! |        |      | UTF-8), tid_lo u64, tid_hi u64 (exclusive),   |
//! |        |      | tuple count u64                               |
//! | end−4  | 4    | CRC-32 over every preceding byte              |
//!
//! # Versioning and open election
//!
//! Readers gate on the version field exactly like cube files do: an
//! unknown version is [`StorageError::UnsupportedVersion`], never a
//! guess at the layout. [`ShardManifest::save_to`] publishes through
//! the same swap protocol as a vacuum or a WAL hand-over
//! ([`FileBackend::publish_swap`]: sibling temp file, fsync, atomic
//! rename, parent-directory fsync), so a crash at any stage leaves
//! either the old manifest or the new one, whole — election at open is
//! therefore trivial (there is only ever one candidate), with the CRC
//! rejecting torn or bit-flipped content as a typed
//! [`StorageError::ChecksumMismatch`]. Per-shard durability remains the
//! cube files' own double-buffered superblock election.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::backend::StorageError;
use crate::fault::{FaultPlan, SwapStage};
use crate::file::FileBackend;
use crate::format::{crc32, ByteReader, ByteWriter};

/// Manifest file magic.
pub const MANIFEST_MAGIC: [u8; 4] = *b"RCSM";
/// Current manifest format version.
pub const MANIFEST_VERSION: u16 = 1;
/// Sanity cap on the shard count a manifest may claim.
pub const MAX_SHARDS: usize = 4096;

/// The engine byte: every shard is a grid cube (`GridRankingCube`).
const ENGINE_GRID: u8 = 1;

/// One shard's row in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Cube file name, relative to the manifest's directory.
    pub file: String,
    /// First global tid the shard serves.
    pub tid_lo: u64,
    /// One past the last global tid the shard serves.
    pub tid_hi: u64,
    /// Tuples stored in the shard (= `tid_hi - tid_lo`).
    pub tuples: u64,
}

/// The parsed, validated shard manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// Shards in ascending tid order.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Serializes the manifest, CRC stamp included.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_bytes_raw(&MANIFEST_MAGIC);
        w.put_u16(MANIFEST_VERSION);
        w.put_u8(ENGINE_GRID);
        w.put_u8(0);
        w.put_u64(self.shards.len() as u64);
        for s in &self.shards {
            w.put_bytes(s.file.as_bytes());
            w.put_u64(s.tid_lo);
            w.put_u64(s.tid_hi);
            w.put_u64(s.tuples);
        }
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Parses and validates manifest bytes (magic, version, CRC, ranges).
    pub fn decode(bytes: &[u8]) -> Result<Self, StorageError> {
        if bytes.len() < 4 + 2 + 1 + 1 + 8 + 4 {
            return Err(StorageError::Malformed("shard manifest truncated"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        if crc32(body) != ByteReader::new(crc_bytes).u32()? {
            return Err(StorageError::ChecksumMismatch { page: 0 });
        }
        let mut r = ByteReader::new(body);
        if r.take(4)? != MANIFEST_MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = r.u16()?;
        if version != MANIFEST_VERSION {
            return Err(StorageError::UnsupportedVersion(version));
        }
        if r.u8()? != ENGINE_GRID {
            return Err(StorageError::Malformed("shard manifest names an engine other than grid"));
        }
        let _flags = r.u8()?;
        let count = r.count(MAX_SHARDS)?;
        let mut shards = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.bytes()?;
            let file = std::str::from_utf8(name)
                .map_err(|_| StorageError::Malformed("shard file name is not UTF-8"))?
                .to_owned();
            let tid_lo = r.u64()?;
            let tid_hi = r.u64()?;
            let tuples = r.u64()?;
            shards.push(ShardEntry { file, tid_lo, tid_hi, tuples });
        }
        if r.remaining() != 0 {
            return Err(StorageError::Malformed("shard manifest has trailing bytes"));
        }
        let m = Self { shards };
        m.validate()?;
        Ok(m)
    }

    /// Structural validation: at least one shard, contiguous ascending tid
    /// ranges starting at 0, tuple counts matching the ranges.
    pub fn validate(&self) -> Result<(), StorageError> {
        if self.shards.is_empty() {
            return Err(StorageError::Malformed("shard manifest names no shards"));
        }
        let mut next = 0u64;
        for s in &self.shards {
            if s.file.is_empty() || s.file.contains('/') || s.file.contains('\\') {
                return Err(StorageError::Malformed("shard file name must be a bare file name"));
            }
            if s.tid_lo != next || s.tid_hi < s.tid_lo {
                return Err(StorageError::Malformed("shard tid ranges must be contiguous"));
            }
            if s.tuples != s.tid_hi - s.tid_lo {
                return Err(StorageError::Malformed("shard tuple count disagrees with tid range"));
            }
            next = s.tid_hi;
        }
        Ok(())
    }

    /// Writes the manifest at `path` through the swap protocol every
    /// other publish uses ([`FileBackend::publish_swap`]: sibling temp
    /// file, fsync, atomic rename, parent-directory fsync), so readers
    /// only ever see a complete manifest and the rename survives a crash.
    pub fn save_to(&self, path: &Path) -> Result<(), StorageError> {
        self.publish(path, None)
    }

    /// [`Self::save_to`] with the swap-boundary crash points armed by
    /// `faults` — the entry point of this module's stage sweep.
    fn publish(&self, path: &Path, faults: Option<&Arc<FaultPlan>>) -> Result<(), StorageError> {
        self.validate()?;
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        if let Some(plan) = faults {
            plan.on_swap(SwapStage::TempWrite).map_err(StorageError::Io)?;
        }
        std::fs::write(&tmp, self.encode())?;
        FileBackend::publish_swap(&tmp, path, faults)
    }

    /// Reads and validates the manifest at `path`.
    pub fn open_from(path: &Path) -> Result<Self, StorageError> {
        let bytes = std::fs::read(path)?;
        Self::decode(&bytes)
    }

    /// Absolute path of shard `i`'s cube file, given the manifest's path.
    pub fn shard_path(&self, manifest_path: &Path, i: usize) -> PathBuf {
        let dir = manifest_path.parent().unwrap_or_else(|| Path::new("."));
        dir.join(&self.shards[i].file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ShardManifest {
        ShardManifest {
            shards: vec![
                ShardEntry { file: "cars.shard0".into(), tid_lo: 0, tid_hi: 100, tuples: 100 },
                ShardEntry { file: "cars.shard1".into(), tid_lo: 100, tid_hi: 180, tuples: 80 },
            ],
        }
    }

    #[test]
    fn roundtrips() {
        let m = sample();
        let back = ShardManifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    /// The bytes every earlier grid manifest was written with, laid out
    /// by hand from the table above: they still decode, and encoding
    /// writes them unchanged.
    #[test]
    fn grid_manifest_layout_is_unchanged() {
        let mut bytes = b"RCSM".to_vec();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&[1, 0]);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        for (file, lo, hi) in [("cars.shard0", 0u64, 100u64), ("cars.shard1", 100, 180)] {
            bytes.extend_from_slice(&(file.len() as u64).to_le_bytes());
            bytes.extend_from_slice(file.as_bytes());
            for v in [lo, hi, hi - lo] {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(ShardManifest::decode(&bytes).unwrap(), sample());
        assert_eq!(sample().encode(), bytes);
    }

    /// Shards are grid cubes only: a manifest whose engine byte names any
    /// other engine (2 was the signature engine) is refused even when its
    /// CRC is valid.
    #[test]
    fn non_grid_engine_byte_is_malformed() {
        let mut bytes = sample().encode();
        for engine in [0, 2, 0xFF] {
            bytes[6] = engine;
            let body_len = bytes.len() - 4;
            let crc = crc32(&bytes[..body_len]);
            bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(ShardManifest::decode(&bytes), Err(StorageError::Malformed(_))),
                "engine byte {engine} was accepted"
            );
        }
    }

    #[test]
    fn any_bit_flip_is_caught() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(ShardManifest::decode(&bad).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn version_gate_is_typed() {
        let mut bytes = sample().encode();
        // Bump the version field and restamp the CRC so only the gate trips.
        bytes[4] = 0x7F;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            ShardManifest::decode(&bytes),
            Err(StorageError::UnsupportedVersion(0x7F))
        ));
    }

    #[test]
    fn gapped_ranges_rejected() {
        let mut m = sample();
        m.shards[1].tid_lo = 101;
        assert!(matches!(m.validate(), Err(StorageError::Malformed(_))));
    }

    #[test]
    fn save_open_roundtrip_and_atomicity() {
        let dir = std::env::temp_dir().join(format!("rcsm_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.manifest");
        let m = sample();
        m.save_to(&path).unwrap();
        assert_eq!(ShardManifest::open_from(&path).unwrap(), m);
        // Re-publish over the live manifest: readers never see a partial file.
        let mut m2 = m.clone();
        m2.shards[1].file = "cars.shard1b".into();
        m2.save_to(&path).unwrap();
        assert_eq!(ShardManifest::open_from(&path).unwrap(), m2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The swap protocol's stage sweep on the shard-set publish: a crash
    /// before the rename (temp write, temp fsync, the rename itself)
    /// leaves the previous manifest decoding whole — or no manifest where
    /// there was none — and a publish that gets past it serves the new one.
    #[test]
    fn crash_at_every_swap_stage_leaves_one_whole_manifest() {
        let dir = std::env::temp_dir().join(format!("rcsm_sweep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("set.manifest");
        let old = sample();
        let mut new = old.clone();
        new.shards[1].file = "cars.shard1b".into();

        for stage in [SwapStage::TempWrite, SwapStage::TempSync, SwapStage::Rename] {
            let plan = FaultPlan::new();
            plan.crash_at_swap(stage);
            let err = old.publish(&path, Some(&plan)).expect_err("scripted crash must surface");
            assert!(matches!(err, StorageError::Io(_)), "{stage:?}: {err}");
            assert!(plan.crashed());
            assert!(!path.exists(), "{stage:?}: a first publish that crashed published nothing");
        }
        old.save_to(&path).unwrap();
        for stage in [SwapStage::TempWrite, SwapStage::TempSync, SwapStage::Rename] {
            let plan = FaultPlan::new();
            plan.crash_at_swap(stage);
            new.publish(&path, Some(&plan)).expect_err("scripted crash must surface");
            assert_eq!(ShardManifest::open_from(&path).unwrap(), old, "crash at {stage:?}");
        }
        // Unarmed hooks publish; so does a plan armed only past the rename.
        let plan = FaultPlan::new();
        plan.crash_at_swap(SwapStage::LockRelease);
        new.publish(&path, Some(&plan)).unwrap();
        assert_eq!(ShardManifest::open_from(&path).unwrap(), new);
        std::fs::remove_dir_all(&dir).ok();
    }
}
