//! The shard manifest: one small CRC-stamped file describing a
//! partitioned cube set.
//!
//! A sharded build splits a relation by region of its ranking space into
//! N self-contained cube files (each its own buffer pool, checksums,
//! generations — the ordinary format described in [`crate::format`]) plus
//! one manifest naming them. The manifest is the *only* coupling between
//! shards: it records, per shard, the cube file name (relative to the
//! manifest's directory, so the set relocates as a unit), the tight box of
//! the shard's ranking points and the ascending global tids the shard's
//! local tids stand for. Opening a sharded cube = read manifest, validate
//! CRC, boxes and tid lists, open each named file.
//!
//! # Layout, version 2 (all integers little-endian)
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
//! |        |      | UTF-8), tuple count u64, box dimension count  |
//! |        |      | u64, `lo`/`hi` f64 pairs per dimension, tid   |
//! |        |      | list (u64 byte length, then the first tid and |
//! |        |      | each gap to the next as LEB128)               |
//! | end−4  | 4    | CRC-32 over every preceding byte              |
//!
//! Version 1 recorded a contiguous tid range per shard instead of the box
//! and the list; it is [`StorageError::UnsupportedVersion`]`(1)`.
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
pub const MANIFEST_VERSION: u16 = 2;
/// Sanity cap on the shard count a manifest may claim.
pub const MAX_SHARDS: usize = 4096;

/// The engine byte: every shard is a grid cube (`GridRankingCube`).
const ENGINE_GRID: u8 = 1;

/// One shard's row in the manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardEntry {
    /// Cube file name, relative to the manifest's directory.
    pub file: String,
    /// Tuples stored in the shard (= `tids.len()`).
    pub tuples: u64,
    /// Low corner of the shard's ranking points, one value per ranking
    /// dimension of the relation.
    pub lo: Vec<f64>,
    /// High corner of the shard's ranking points.
    pub hi: Vec<f64>,
    /// Global tid of each local tid, strictly ascending.
    pub tids: Vec<u32>,
}

/// The parsed, validated shard manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Shards in build order.
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
            w.put_u64(s.tuples);
            w.put_u64(s.lo.len() as u64);
            for (&lo, &hi) in s.lo.iter().zip(&s.hi) {
                w.put_f64(lo);
                w.put_f64(hi);
            }
            let mut list = ByteWriter::new();
            let mut prev = 0u32;
            for &t in &s.tids {
                list.put_varint(u64::from(t.wrapping_sub(prev)));
                prev = t;
            }
            w.put_bytes(&list.into_bytes());
        }
        let mut bytes = w.into_bytes();
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Parses and validates manifest bytes (magic, version, CRC, boxes,
    /// tid lists).
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
            let tuples = r.u64()?;
            let dims = r.count(r.remaining() / 16)?;
            let (mut lo, mut hi) = (Vec::with_capacity(dims), Vec::with_capacity(dims));
            for _ in 0..dims {
                lo.push(r.f64()?);
                hi.push(r.f64()?);
            }
            let mut list = ByteReader::new(r.bytes()?);
            let mut tids = Vec::with_capacity(list.remaining());
            let mut prev = 0u32;
            while list.remaining() > 0 {
                let gap = u32::try_from(list.varint()?)
                    .map_err(|_| StorageError::Malformed("shard tid gap exceeds 32 bits"))?;
                prev = prev.wrapping_add(gap);
                tids.push(prev);
            }
            shards.push(ShardEntry { file, tuples, lo, hi, tids });
        }
        if r.remaining() != 0 {
            return Err(StorageError::Malformed("shard manifest has trailing bytes"));
        }
        let m = Self { shards };
        m.validate()?;
        Ok(m)
    }

    /// Structural validation: at least one shard, bare file names, finite
    /// boxes with `lo <= hi` all of one dimensionality, strictly ascending
    /// tid lists as long as their tuple counts, and lists that together
    /// hold every tid `0..N` exactly once.
    pub fn validate(&self) -> Result<(), StorageError> {
        let first =
            self.shards.first().ok_or(StorageError::Malformed("shard manifest names no shards"))?;
        let total: usize = self.shards.iter().map(|s| s.tids.len()).sum();
        let mut seen = vec![false; total];
        for s in &self.shards {
            if s.file.is_empty() || s.file.contains('/') || s.file.contains('\\') {
                return Err(StorageError::Malformed("shard file name must be a bare file name"));
            }
            if s.lo.len() != first.lo.len() || s.hi.len() != s.lo.len() {
                return Err(StorageError::Malformed("shard boxes disagree in dimensionality"));
            }
            if !s.lo.iter().zip(&s.hi).all(|(lo, hi)| lo.is_finite() && hi.is_finite() && lo <= hi)
            {
                return Err(StorageError::Malformed("shard box must be finite with lo <= hi"));
            }
            if s.tuples != s.tids.len() as u64 {
                return Err(StorageError::Malformed(
                    "shard tuple count disagrees with its tid list",
                ));
            }
            if s.tids.windows(2).any(|w| w[0] >= w[1]) {
                return Err(StorageError::Malformed("shard tids must be strictly ascending"));
            }
            for &t in &s.tids {
                match seen.get_mut(t as usize) {
                    Some(slot) if !*slot => *slot = true,
                    _ => {
                        return Err(StorageError::Malformed("shard tid lists must partition 0..N"))
                    }
                }
            }
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

    fn entry(file: &str, lo: [f64; 2], hi: [f64; 2], tids: Vec<u32>) -> ShardEntry {
        ShardEntry {
            file: file.into(),
            tuples: tids.len() as u64,
            lo: lo.into(),
            hi: hi.into(),
            tids,
        }
    }

    fn sample() -> ShardManifest {
        ShardManifest {
            shards: vec![
                entry("cars.shard0", [0.0, 0.1], [0.5, 0.9], vec![0, 2, 3, 200]),
                entry(
                    "cars.shard1",
                    [0.5, 0.0],
                    [1.0, 1.0],
                    [1].into_iter().chain(4..200).collect(),
                ),
            ],
        }
    }

    /// `bytes` with its CRC restamped, so only the field under test trips.
    fn restamped(mut bytes: Vec<u8>) -> Vec<u8> {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        bytes
    }

    fn is_malformed(r: Result<ShardManifest, StorageError>) -> bool {
        matches!(r, Err(StorageError::Malformed(_)))
    }

    #[test]
    fn roundtrips() {
        let m = sample();
        let back = ShardManifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    /// The version 2 bytes, laid out by hand from the table above: they
    /// decode, and encoding writes them unchanged.
    #[test]
    fn grid_manifest_v2_layout_is_pinned() {
        let m = ShardManifest {
            shards: vec![
                entry("a.shard0", [0.0, 0.25], [0.5, 1.0], vec![0, 1, 300]),
                entry("a.shard1", [0.5, 0.0], [1.0, 0.75], (2..300).collect()),
            ],
        };
        let mut bytes = b"RCSM".to_vec();
        bytes.extend_from_slice(&2u16.to_le_bytes());
        bytes.extend_from_slice(&[1, 0]);
        bytes.extend_from_slice(&2u64.to_le_bytes());
        for s in &m.shards {
            bytes.extend_from_slice(&(s.file.len() as u64).to_le_bytes());
            bytes.extend_from_slice(s.file.as_bytes());
            bytes.extend_from_slice(&s.tuples.to_le_bytes());
            bytes.extend_from_slice(&2u64.to_le_bytes());
            for d in 0..2 {
                bytes.extend_from_slice(&s.lo[d].to_le_bytes());
                bytes.extend_from_slice(&s.hi[d].to_le_bytes());
            }
            // Gaps 0, 1, 299 (= 2·128 + 43: low seven bits first, with the
            // continuation bit), then 2 and 297 gaps of 1.
            let list: Vec<u8> = if s.tids[0] == 0 {
                vec![0, 1, 0x80 | 43, 2]
            } else {
                std::iter::once(2).chain([1; 297]).collect()
            };
            bytes.extend_from_slice(&(list.len() as u64).to_le_bytes());
            bytes.extend_from_slice(&list);
        }
        let bytes = restamped([bytes, vec![0; 4]].concat());
        assert_eq!(ShardManifest::decode(&bytes).unwrap(), m);
        assert_eq!(m.encode(), bytes);
    }

    /// A version 1 manifest — contiguous tid ranges, no boxes — is refused
    /// by version, whatever its body says.
    #[test]
    fn v1_manifest_is_unsupported() {
        let mut bytes = b"RCSM".to_vec();
        bytes.extend_from_slice(&1u16.to_le_bytes());
        bytes.extend_from_slice(&[1, 0]);
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&11u64.to_le_bytes());
        bytes.extend_from_slice(b"cars.shard0");
        for v in [0u64, 100, 100] {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let bytes = restamped([bytes, vec![0; 4]].concat());
        assert!(matches!(ShardManifest::decode(&bytes), Err(StorageError::UnsupportedVersion(1))));
    }

    /// Shards are grid cubes only: a manifest whose engine byte names any
    /// other engine (2 was the signature engine) is refused even when its
    /// CRC is valid.
    #[test]
    fn non_grid_engine_byte_is_malformed() {
        let mut bytes = sample().encode();
        for engine in [0, 2, 0xFF] {
            bytes[6] = engine;
            bytes = restamped(bytes);
            assert!(
                is_malformed(ShardManifest::decode(&bytes)),
                "engine byte {engine} was accepted"
            );
        }
    }

    /// Every single-bit flip anywhere in the file is a typed error.
    #[test]
    fn any_bit_flip_is_caught() {
        let bytes = sample().encode();
        for i in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[i / 8] ^= 1 << (i % 8);
            assert!(ShardManifest::decode(&bad).is_err(), "flip of bit {i} went undetected");
        }
    }

    #[test]
    fn version_gate_is_typed() {
        let mut bytes = sample().encode();
        bytes[4] = 0x7F;
        assert!(matches!(
            ShardManifest::decode(&restamped(bytes)),
            Err(StorageError::UnsupportedVersion(0x7F))
        ));
    }

    #[test]
    fn gapped_ranges_rejected() {
        let mut m = sample();
        m.shards[1].tids.pop();
        m.shards[1].tuples -= 1;
        assert!(is_malformed(ShardManifest::decode(&m.encode())), "tid 199 is in no shard");
    }

    /// Tid lists and boxes that CRC-check but break the contract decode
    /// to `Malformed`: unsorted, overlapping, a count mismatch, a
    /// non-finite box, `lo > hi`, and boxes of two dimensionalities.
    #[test]
    fn crafted_lists_and_boxes_are_malformed() {
        type Edit = (&'static str, fn(&mut ShardManifest));
        let edits: [Edit; 7] = [
            ("unsorted", |m| m.shards[1].tids.swap(0, 1)),
            ("overlapping", |m| {
                m.shards[1].tids[0] = 0;
            }),
            ("count mismatch", |m| {
                m.shards[0].tuples = 5;
            }),
            ("non-finite box", |m| {
                m.shards[0].hi[1] = f64::INFINITY;
            }),
            ("NaN box", |m| {
                m.shards[1].lo[0] = f64::NAN;
            }),
            ("lo > hi", |m| {
                m.shards[0].lo[0] = 0.75;
            }),
            ("dimensionality", |m| {
                m.shards[1].lo.push(0.0);
                m.shards[1].hi.push(1.0);
            }),
        ];
        for (what, edit) in edits {
            let mut m = sample();
            edit(&mut m);
            assert!(is_malformed(ShardManifest::decode(&m.encode())), "{what} was accepted");
        }
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
