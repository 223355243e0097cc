//! Snapshot persistence for the commuting-matrix cache.
//!
//! Commuting matrices are expensive to materialize and endlessly
//! reusable — the whole point of the cache — but until now that reuse
//! died with the process: an evicted or crashed server's replacement
//! started cold and re-paid every SpMM chain under live traffic. A
//! [`CacheSnapshot`] is the deliberate state-out/state-in boundary that
//! fixes this: an ordered export of `(canonical sub-path key, Csr)`
//! entries, hottest first, that can be
//!
//! * handed directly to a replacement engine in-process
//!   ([`crate::Engine::restore`] — the failover hand-off), or
//! * serialized ([`CacheSnapshot::to_writer`] / [`CacheSnapshot::to_bytes`])
//!   into one versioned, checksummed container — the checkpoint file, and
//!   the payload of the `Warm` wire message that streams a checkpoint to a
//!   remote shard.
//!
//! # Safety properties
//!
//! * **Export** walks entries hottest-first by recency tick and stops at
//!   an optional byte budget, taking the same shard read locks the
//!   serving path takes — no stop-the-world.
//! * **Import** validates every key against the destination dataset's
//!   schema (relation ids in range, steps chaining type-to-type, matrix
//!   dims matching the endpoint node counts) and prices admitted entries
//!   through the ordinary LRU, so a snapshot — even a hostile one — can
//!   never blow the cache budget or plant a mis-shaped product. Outcomes
//!   are recorded in the `warm_loaded` / `warm_rejected` counters.
//! * **Decoding** is paranoid: corrupt, truncated or foreign containers
//!   return typed [`CodecError`]s, never panic.
//!
//! # Container wire format (version 2 — the arena snapshot format)
//!
//! The only container this build reads or writes; every entry point hands
//! its bytes to one parser, so anything else — a version-1 file from an
//! older build included — is a typed error from one place
//! ([`CodecError::UnsupportedVersion`], [`CodecError::BadMagic`],
//! [`CodecError::Truncated`]). One checksummed file, laid out so a restore
//! is **one read plus zero per-matrix deserialization**: a fixed-size directory of entry headers
//! in front of a single 8-byte-aligned data heap. The whole file is read
//! into one aligned [`hin_linalg::ArenaBuf`] and every matrix is handed
//! out as a [`Csr`] *view* into that shared buffer
//! ([`hin_linalg::Csr::from_arena`]) — and because nothing in the image is
//! rewritten at load time, the same parse runs unchanged over a
//! **memory-mapped** region: [`CacheSnapshot::read_from_file_mapped`]
//! swaps the read for an `mmap`, so restored matrices are demand-paged
//! views into the kernel page cache and datasets larger than RAM open in
//! O(metadata) (with [`ChecksumMode::Lazy`]).
//!
//! ```text
//! superheader  64 bytes, 8-byte fields LE unless noted:
//!   [0..4)    magic       b"HSNP"
//!   [4..8)    version     u32 LE   2
//!   [8..16)   flags       bit 0 = a dataset fingerprint is present
//!                         bit 1 = directory entries carry a per-entry
//!                         checksum (always set; an image with the bit
//!                         clear is rejected as malformed)
//!   [16..24)  fingerprint (0 when absent)
//!   [24..32)  count       number of entries
//!   [32..40)  dir_off     byte offset of the directory (8-aligned)
//!   [40..48)  heap_off    byte offset of the data heap (8-aligned)
//!   [48..56)  file_len    total bytes including the trailing checksum
//!   [56..64)  reserved    0
//! keys         at 64: per entry key_len u32 LE, then key_len ×
//!              (relation id u64 LE, direction u8); zero-padded to dir_off
//! directory    count × 56-byte entries:
//!              nrows, ncols, nnz, indptr_off, indices_off, data_off
//!              (offsets absolute, 8-aligned, into the heap), then the
//!              entry's payload checksum: FNV-1a 64 folded per
//!              u64 word over indptr values, data bit patterns, and index
//!              values (layout-independent, so it can be recomputed from
//!              any mounted `Csr` and verified on first touch under
//!              [`ChecksumMode::Lazy`])
//! heap         per entry: indptr (nrows+1)×u64, data nnz×f64 bit
//!              patterns, indices nnz×u32 zero-padded to 8 bytes
//! checksum     u64 LE   FNV-1a 64 folded per little-endian u64 *word*
//!              (see [`Fnv64::update_word`]) over every preceding word
//! ```
//!
//! The fingerprint ([`dataset_fingerprint`]) digests the full dataset —
//! type names, node counts, relation endpoints, and every relation's
//! adjacency bytes — so a snapshot taken from dataset *A* refuses to
//! restore into a rebuilt or different dataset *B* even when *B*'s schema
//! *shape* happens to match: per-entry dim checks cannot see changed edge
//! weights, the fingerprint can. Engine-level snapshots carry one;
//! cache-level exports (no dataset in scope) may not, and then import
//! falls back to per-entry validation alone.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use hin_core::{Hin, RelationId};
use hin_linalg::codec::{read_exact_or_truncated, Fnv64};
use hin_linalg::{ArenaBuf, ArenaEntry, Csr};

pub use hin_linalg::codec::CodecError;

use crate::cache::{MatrixCache, PathKey, StepKey};

/// The snapshot container's magic bytes.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HSNP";

/// Current snapshot container version (the arena format).
pub const SNAPSHOT_VERSION: u32 = 2;

/// Superheader size of the v2 arena container.
const V2_HEADER: usize = 64;

/// Bytes per v2 directory entry: 6 × u64 of shape and offsets, then the
/// entry's payload checksum.
const V2_DIR_ENTRY_CK: usize = 56;

/// v2 flags bit 0: a dataset fingerprint is present.
const V2_FLAG_FINGERPRINT: u64 = 1;

/// v2 flags bit 1: directory entries carry a per-entry payload checksum
/// ([`entry_checksum`]) — what lets a lazily-checksummed mapped restore
/// verify each matrix on first touch instead of never. The writer always
/// sets it and [`parse_v2`] rejects an image without it, so no restore
/// path can serve payload words that nothing will ever check.
const V2_FLAG_ENTRY_CHECKSUMS: u64 = 2;

/// Bounded chunk size for streaming v2 images from generic readers, so a
/// hostile `file_len` cannot drive one giant allocation.
const READ_CHUNK: usize = 64 * 1024;

/// Longest admissible key, in steps. Real meta-paths are a handful of
/// steps; the cap keeps a hostile `key_len` from driving allocation.
const MAX_KEY_STEPS: u32 = 4096;

/// How a restore verifies the v2 container's trailing word-checksum seal.
///
/// The seal covers every word of the file, so verifying it requires
/// reading — and, on the mapped path, **faulting in** — every page. For a
/// read-based restore that is free (the bytes were just read anyway); for
/// a memory-mapped restore it defeats demand paging, so the mapped entry
/// point makes the trade explicit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ChecksumMode {
    /// Verify the whole-file seal before mounting anything: every
    /// corruption mode — including a flipped bit inside matrix values —
    /// is caught up front. Touches every page of the file.
    #[default]
    Eager,
    /// Skip the whole-file seal. Structural validation still runs in full
    /// — header layout, key and directory tiling, per-entry bounds,
    /// alignment and CSR invariants ([`Csr::from_arena`]) — so a mounted
    /// matrix can never be indexed out of bounds. Payload integrity is
    /// deferred, not dropped: each matrix (`indptr`, `data` and `indices`
    /// alike) is verified against its directory checksum on **first cache
    /// touch** — a corrupt entry is evicted and recomputed instead of
    /// served ([`MatrixCache::lazy_verify_failures`]). What lazy mode
    /// leaves covered by **no** checksum is the metadata: the superheader,
    /// the key section and the directory itself. Corruption there that
    /// still passes structural validation — a flipped relation id inside a
    /// key, say — is caught only by the whole-file seal, i.e. by
    /// [`ChecksumMode::Eager`]. Only the metadata and index pages fault in
    /// at open; data pages stay on disk until a query touches them — the
    /// mode that makes opening a larger-than-RAM snapshot O(metadata), not
    /// O(file).
    Lazy,
}

/// An ordered export of cache state: `(sub-path key, commuting matrix)`
/// entries, hottest first by recency tick.
///
/// Obtain one from [`crate::Engine::snapshot`] (or
/// [`MatrixCache::export_snapshot`]); feed it to a replacement via
/// [`crate::Engine::restore`], or persist it with
/// [`CacheSnapshot::to_writer`] / [`CacheSnapshot::write_to_file`].
#[derive(Clone, Default)]
pub struct CacheSnapshot {
    /// [`dataset_fingerprint`] of the network the entries were computed
    /// from, when known (engine-level snapshots always set it).
    fingerprint: Option<u64>,
    /// Hottest first.
    entries: Vec<(PathKey, Arc<Csr>)>,
    /// Per-entry payload checksums (parallel to `entries`), carried only
    /// when the payload has **not** already been verified — i.e. a
    /// [`ChecksumMode::Lazy`] mapped restore. Import threads them into the
    /// cache so each matrix is verified on first touch.
    verify: Option<Vec<u64>>,
}

impl std::fmt::Debug for CacheSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheSnapshot")
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .field("fingerprint", &self.fingerprint)
            .finish()
    }
}

/// Outcome of restoring a snapshot into a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotImport {
    /// Entries that passed schema validation and were admitted (each is
    /// still subject to ordinary LRU eviction afterwards).
    pub loaded: u64,
    /// Entries rejected because their key or dimensions did not match the
    /// destination dataset's schema, or because the matrix is larger than
    /// one shard's slice of the destination's byte budget (also counted in
    /// [`MatrixCache::inserts_refused`]) — or all of them, when the
    /// snapshot's dataset fingerprint did not match.
    pub rejected: u64,
    /// `true` when the snapshot carried a [`dataset_fingerprint`] that
    /// does not match the destination dataset: the data the entries were
    /// computed from differs (even if the schema shape matches), so every
    /// entry was rejected wholesale — serving stale matrices silently is
    /// the one failure mode a warm start must never have.
    pub fingerprint_mismatch: bool,
    /// The subset of `loaded` whose matrices are zero-copy views into a
    /// shared snapshot arena ([`Csr::is_view`]) rather than owned heap
    /// copies. A restore from a v2 arena file on a
    /// [`hin_linalg::arena::ZERO_COPY`] host reports
    /// `view_backed == loaded`: zero per-matrix heap decodes.
    pub view_backed: u64,
}

/// Content fingerprint of a dataset: type names and node counts, relation
/// names and endpoints, and every relation's forward adjacency (dims and
/// all three CSR arrays, in a frozen byte order). Two networks with equal
/// fingerprints hold byte-identical relation matrices, so their commuting
/// matrices — and therefore their cache entries — are interchangeable.
pub fn dataset_fingerprint(hin: &Hin) -> u64 {
    let mut hash = Fnv64::new();
    hash.update(&(hin.type_count() as u64).to_le_bytes());
    for ty in hin.type_ids() {
        hash.update(hin.type_name(ty).as_bytes());
        hash.update(&[0]);
        hash.update(&(hin.node_count(ty) as u64).to_le_bytes());
    }
    hash.update(&(hin.relation_count() as u64).to_le_bytes());
    for rel in hin.relation_ids() {
        let info = hin.relation(rel);
        hash.update(info.name.as_bytes());
        hash.update(&[0]);
        hash.update(&(info.src.0 as u64).to_le_bytes());
        hash.update(&(info.dst.0 as u64).to_le_bytes());
        digest_matrix(&mut hash, &info.fwd);
    }
    hash.finish()
}

/// Fold one relation matrix into a [`dataset_fingerprint`].
///
/// The byte stream is frozen, because fingerprints are stored in checkpoint
/// files and a restore compares them for equality: a tag, the three dims,
/// `indptr` as u64s, `indices` as u32s, `data` as f64 bit patterns (all
/// little-endian), and then the FNV-1a 64 digest of exactly those bytes.
/// The tag and the trailing digest are what a retired stand-alone matrix
/// encoding used to put there; they carry no meaning now beyond keeping
/// every fingerprint already on disk valid.
fn digest_matrix(hash: &mut Fnv64, m: &Csr) {
    let mut inner = Fnv64::new();
    let mut put = |bytes: &[u8]| {
        inner.update(bytes);
        hash.update(bytes);
    };
    put(b"HCSR");
    put(&1u32.to_le_bytes());
    for dim in [m.nrows(), m.ncols(), m.nnz()] {
        put(&(dim as u64).to_le_bytes());
    }
    let (indptr, indices, data) = m.parts();
    for &p in indptr {
        put(&(p as u64).to_le_bytes());
    }
    for &c in indices {
        put(&c.to_le_bytes());
    }
    for &v in data {
        put(&v.to_bits().to_le_bytes());
    }
    hash.update(&inner.finish().to_le_bytes());
}

impl CacheSnapshot {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the snapshot carries nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident heap bytes of the carried matrices ([`Csr::nbytes`]) —
    /// the same pricing the cache budget uses.
    pub fn bytes(&self) -> usize {
        self.entries.iter().map(|(_, m)| m.nbytes()).sum()
    }

    /// The carried keys in export order (hottest first), as
    /// `(relation id, forward)` step sequences.
    pub fn keys(&self) -> Vec<Vec<(usize, bool)>> {
        self.entries.iter().map(|(k, _)| k.clone()).collect()
    }

    /// The [`dataset_fingerprint`] of the source dataset, when the
    /// snapshot carries one (engine-level snapshots always do).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// Stamp the source dataset's fingerprint (done by
    /// [`crate::Engine::snapshot`]).
    pub(crate) fn set_fingerprint(&mut self, fingerprint: u64) {
        self.fingerprint = Some(fingerprint);
    }

    /// Entries whose matrices are zero-copy views into a shared arena
    /// buffer (every entry of a v2 restore on a zero-copy host; always 0
    /// for snapshots exported from a live cache of computed products).
    pub fn view_backed(&self) -> usize {
        self.entries.iter().filter(|(_, m)| m.is_view()).count()
    }

    /// Distinct arena buffers backing the view entries — 1 after a v2
    /// restore: every matrix aliases one shared allocation.
    pub fn arena_count(&self) -> usize {
        let mut ids: Vec<usize> = self
            .entries
            .iter()
            .filter_map(|(_, m)| m.arena_id())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Matrix bytes shared in place with an arena buffer vs. held as
    /// owned heap copies — `(shared, copied)`, both in [`Csr::nbytes`]
    /// pricing. A view-restore reports everything shared; a live export
    /// reports everything copied.
    pub fn bytes_shared_copied(&self) -> (usize, usize) {
        self.entries.iter().fold((0, 0), |(s, c), (_, m)| {
            if m.is_view() {
                (s + m.nbytes(), c)
            } else {
                (s, c + m.nbytes())
            }
        })
    }

    /// Serialize into the current (v2 arena) container format: the bytes
    /// [`CacheSnapshot::from_reader`] restores with zero per-matrix
    /// decodes. The encoding is deterministic: equal snapshots encode to
    /// equal bytes.
    pub fn to_writer<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let image = self.encode_v2();
        w.write_all(&image).map_err(CodecError::Io)
    }

    /// Build the complete v2 file image in memory (layout + payload +
    /// per-entry checksums + trailing word-checksum).
    fn encode_v2(&self) -> Vec<u8> {
        // keys section
        let mut keys = Vec::new();
        for (key, _) in &self.entries {
            keys.extend_from_slice(&(key.len() as u32).to_le_bytes());
            for &(rel, fwd) in key {
                keys.extend_from_slice(&(rel as u64).to_le_bytes());
                keys.push(fwd as u8);
            }
        }
        let dir_off = (V2_HEADER + keys.len()).next_multiple_of(8);
        let heap_off = dir_off + self.entries.len() * V2_DIR_ENTRY_CK;

        // heap layout: per entry [indptr | data | indices(padded)]
        let mut dir = Vec::with_capacity(self.entries.len());
        let mut at = heap_off;
        for (_, m) in &self.entries {
            let indptr_off = at;
            let data_off = indptr_off + (m.nrows() + 1) * 8;
            let indices_off = data_off + m.nnz() * 8;
            at = (indices_off + m.nnz() * 4).next_multiple_of(8);
            dir.push((indptr_off, indices_off, data_off));
        }
        let file_len = at + 8;

        let mut image = vec![0u8; file_len];
        image[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
        image[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let mut flags = V2_FLAG_ENTRY_CHECKSUMS;
        if self.fingerprint.is_some() {
            flags |= V2_FLAG_FINGERPRINT;
        }
        image[8..16].copy_from_slice(&flags.to_le_bytes());
        image[16..24].copy_from_slice(&self.fingerprint.unwrap_or(0).to_le_bytes());
        image[24..32].copy_from_slice(&(self.entries.len() as u64).to_le_bytes());
        image[32..40].copy_from_slice(&(dir_off as u64).to_le_bytes());
        image[40..48].copy_from_slice(&(heap_off as u64).to_le_bytes());
        image[48..56].copy_from_slice(&(file_len as u64).to_le_bytes());
        image[V2_HEADER..V2_HEADER + keys.len()].copy_from_slice(&keys);

        for (i, ((_, m), &(indptr_off, indices_off, data_off))) in
            self.entries.iter().zip(&dir).enumerate()
        {
            let d = dir_off + i * V2_DIR_ENTRY_CK;
            for (j, v) in [
                m.nrows() as u64,
                m.ncols() as u64,
                m.nnz() as u64,
                indptr_off as u64,
                indices_off as u64,
                data_off as u64,
            ]
            .into_iter()
            .enumerate()
            {
                image[d + j * 8..d + j * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            image[d + 48..d + 56].copy_from_slice(&entry_checksum(m).to_le_bytes());
            let (indptr, indices, data) = m.parts();
            for (j, &p) in indptr.iter().enumerate() {
                image[indptr_off + j * 8..indptr_off + j * 8 + 8]
                    .copy_from_slice(&(p as u64).to_le_bytes());
            }
            for (j, &v) in data.iter().enumerate() {
                image[data_off + j * 8..data_off + j * 8 + 8]
                    .copy_from_slice(&v.to_bits().to_le_bytes());
            }
            for (j, &c) in indices.iter().enumerate() {
                image[indices_off + j * 4..indices_off + j * 4 + 4]
                    .copy_from_slice(&c.to_le_bytes());
            }
        }

        let mut hash = Fnv64::new();
        for word in image[..file_len - 8].chunks_exact(8) {
            hash.update_word(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
        image[file_len - 8..].copy_from_slice(&hash.finish().to_le_bytes());
        image
    }

    /// Decode a container written by [`CacheSnapshot::to_writer`] from a
    /// generic reader.
    ///
    /// Every corruption mode — wrong magic, unknown version, truncation,
    /// bit flips, hostile lengths — returns a typed [`CodecError`];
    /// schema fit against a concrete dataset is checked later, at import.
    /// Consumes at most one image (the header says how long it is), then
    /// hands it to the same parser every other entry point uses, which
    /// holds the announced length against what actually arrived. Bytes
    /// arrive in bounded chunks so a hostile `file_len` cannot force
    /// one giant up-front allocation ahead of real data.
    pub fn from_reader<R: Read>(r: &mut R) -> Result<CacheSnapshot, CodecError> {
        // the smallest legal image: superheader plus the seal
        let mut head = [0u8; V2_HEADER + 8];
        read_exact_or_truncated(r, &mut head)?;
        // magic and version before `file_len`: in a foreign or v1 stream
        // those eight bytes are not a length
        check_head(&head)?;
        let file_len = u64::from_le_bytes(head[48..56].try_into().expect("8 bytes"));
        let file_len = usize::try_from(file_len).map_err(|_| CodecError::DimOverflow {
            field: "snapshot file length",
            value: file_len,
        })?;
        let mut bytes = Vec::with_capacity(file_len.min(head.len() + READ_CHUNK));
        bytes.extend_from_slice(&head);
        let mut chunk = [0u8; READ_CHUNK];
        while bytes.len() < file_len {
            let want = READ_CHUNK.min(file_len - bytes.len());
            read_exact_or_truncated(r, &mut chunk[..want])?;
            bytes.extend_from_slice(&chunk[..want]);
        }
        parse_v2(&Arc::new(ArenaBuf::from_bytes(&bytes)), ChecksumMode::Eager)
    }

    /// Serialize into the complete v2 image as a byte vector — the framed
    /// payload a [`Warm`](hin_linalg::codec::FRAME_MAGIC) wire message
    /// carries when streaming a checkpoint to a remote shard. Identical
    /// bytes to [`CacheSnapshot::to_writer`].
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode_v2()
    }

    /// Decode a complete container image from memory — the receiving end
    /// of [`CacheSnapshot::to_bytes`]. The image mounts as arena views over
    /// a private aligned copy of `bytes`, checksum verified eagerly: the
    /// bytes crossed a wire.
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheSnapshot, CodecError> {
        parse_v2(&Arc::new(ArenaBuf::from_bytes(bytes)), ChecksumMode::Eager)
    }

    /// [`CacheSnapshot::to_writer`] to a (buffered) file.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), CodecError> {
        let mut w = BufWriter::new(File::create(path)?);
        self.to_writer(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Restore a snapshot file.
    ///
    /// This is the zero-copy path the format was designed for: the file's
    /// length is known up front, so the whole image lands in **one read**
    /// into one aligned [`ArenaBuf`] that the restored matrices then view
    /// in place — no per-matrix deserialization at all.
    pub fn read_from_file(path: impl AsRef<Path>) -> Result<CacheSnapshot, CodecError> {
        let mut file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let file_len = usize::try_from(file_len).map_err(|_| CodecError::DimOverflow {
            field: "snapshot file length",
            value: file_len,
        })?;
        let mut buf = ArenaBuf::with_len(file_len);
        file.read_exact(buf.as_mut_bytes())
            .map_err(CodecError::Io)?;
        parse_v2(&Arc::new(buf), ChecksumMode::Eager)
    }

    /// Restore a snapshot file through a **memory-mapped arena**: the v2
    /// image is `mmap`ed read-only and every restored matrix is a view
    /// into the kernel page cache, **paged on demand** — restore cost and
    /// resident memory scale with the pages queries actually touch, not
    /// with snapshot size, which is what lets a dataset larger than RAM
    /// open and serve at all.
    ///
    /// `checksum` picks the verification strategy: [`ChecksumMode::Eager`]
    /// verifies the whole-file seal first (faulting every page — full
    /// corruption detection, no demand-paging win beyond skipping the
    /// copy), [`ChecksumMode::Lazy`] skips the seal so only metadata and
    /// index pages fault at open (structural validation still runs in
    /// full; see [`ChecksumMode`] for exactly what lazy gives up).
    ///
    /// **Fallback is silent and bit-identical**: when mapping fails (a
    /// non-64-bit-unix target, an empty file, any `mmap` error) this
    /// delegates to [`CacheSnapshot::read_from_file`] — the same snapshot,
    /// the same typed errors, just heap-backed. A file that is not a v2
    /// image is rejected by the one parser both paths share.
    pub fn read_from_file_mapped(
        path: impl AsRef<Path>,
        checksum: ChecksumMode,
    ) -> Result<CacheSnapshot, CodecError> {
        let file = File::open(&path)?;
        let Ok(buf) = ArenaBuf::map_file(&file) else {
            return CacheSnapshot::read_from_file(path);
        };
        parse_v2(&Arc::new(buf), checksum)
    }
}

/// Magic and version of the first eight bytes of a would-be v2 image —
/// the one place a foreign file ([`CodecError::BadMagic`]) or another
/// container version ([`CodecError::UnsupportedVersion`]) is told apart.
fn check_head(bytes: &[u8]) -> Result<(), CodecError> {
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4 bytes");
    if magic != SNAPSHOT_MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Validate and mount a complete v2 arena image: checksum first (one pass
/// of word-granular FNV over the whole file — skipped in
/// [`ChecksumMode::Lazy`]), then header / keys / directory structure, then
/// one [`Csr::from_arena`] view per entry. On a
/// [`hin_linalg::arena::ZERO_COPY`] host nothing here copies matrix
/// payload — every returned matrix aliases `buf`.
fn parse_v2(buf: &Arc<ArenaBuf>, checksum: ChecksumMode) -> Result<CacheSnapshot, CodecError> {
    let bytes = buf.as_bytes();
    if bytes.len() < V2_HEADER + 8 {
        return Err(CodecError::Truncated);
    }
    check_head(bytes)?;
    if !bytes.len().is_multiple_of(8) {
        return Err(CodecError::Truncated);
    }
    let u64_at =
        |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes in bounds"));
    let usize_at = |off: usize, field: &'static str| {
        usize::try_from(u64_at(off)).map_err(|_| CodecError::DimOverflow {
            field,
            value: u64_at(off),
        })
    };

    let file_len = usize_at(48, "snapshot file length")?;
    if file_len != bytes.len() {
        return Err(CodecError::Malformed(format!(
            "v2 header claims {file_len} bytes, buffer holds {}",
            bytes.len()
        )));
    }

    // Checksum before trusting any other field: one linear pass, word
    // granularity (see `Fnv64::update_word`). Lazy mode skips the pass —
    // it would fault every page of a mapped file — leaving structural
    // validation (below and in `Csr::from_arena`) as the only guard.
    if checksum == ChecksumMode::Eager {
        let words = buf.as_words();
        let payload_words = (file_len - 8) / 8;
        let mut hash = Fnv64::new();
        for &w in &words[..payload_words] {
            hash.update_word(u64::from_le(w));
        }
        let stored = u64::from_le(words[payload_words]);
        let computed = hash.finish();
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
    }

    let flags = u64_at(8);
    if flags & !(V2_FLAG_FINGERPRINT | V2_FLAG_ENTRY_CHECKSUMS) != 0 {
        return Err(CodecError::Malformed(format!(
            "v2 flags {flags:#x} set unknown bits"
        )));
    }
    let fingerprint = (flags & V2_FLAG_FINGERPRINT != 0).then(|| u64_at(16));
    if flags & V2_FLAG_ENTRY_CHECKSUMS == 0 {
        return Err(CodecError::Malformed(
            "v2 directory carries no per-entry checksums".into(),
        ));
    }
    let count = usize_at(24, "snapshot entry count")?;
    let dir_off = usize_at(32, "directory offset")?;
    let heap_off = usize_at(40, "heap offset")?;
    if u64_at(56) != 0 {
        return Err(CodecError::Malformed(
            "v2 reserved header word is not zero".into(),
        ));
    }
    let dir_bytes = count
        .checked_mul(V2_DIR_ENTRY_CK)
        .ok_or(CodecError::DimOverflow {
            field: "directory size",
            value: count as u64,
        })?;
    if dir_off % 8 != 0
        || heap_off % 8 != 0
        || dir_off < V2_HEADER
        || dir_off.checked_add(dir_bytes) != Some(heap_off)
        || heap_off > file_len - 8
    {
        return Err(CodecError::Malformed(format!(
            "v2 layout dir_off={dir_off} heap_off={heap_off} count={count} does not tile file_len={file_len}"
        )));
    }

    // Keys live between the superheader and the directory.
    let mut at = V2_HEADER;
    let mut keys: Vec<PathKey> = Vec::with_capacity(count);
    for _ in 0..count {
        if at + 4 > dir_off {
            return Err(CodecError::Truncated);
        }
        let key_len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        at += 4;
        if key_len == 0 || key_len > MAX_KEY_STEPS {
            return Err(CodecError::Malformed(format!(
                "snapshot key length {key_len} outside 1..={MAX_KEY_STEPS}"
            )));
        }
        if at + key_len as usize * 9 > dir_off {
            return Err(CodecError::Truncated);
        }
        let mut key: PathKey = Vec::with_capacity(key_len as usize);
        for _ in 0..key_len {
            let rel = u64_at(at);
            let rel = usize::try_from(rel).map_err(|_| CodecError::DimOverflow {
                field: "relation id",
                value: rel,
            })?;
            let fwd = match bytes[at + 8] {
                0 => false,
                1 => true,
                d => {
                    return Err(CodecError::Malformed(format!(
                        "step direction byte {d} is neither 0 nor 1"
                    )))
                }
            };
            key.push((rel, fwd));
            at += 9;
        }
        keys.push(key);
    }

    let mut entries = Vec::with_capacity(count);
    // Carry per-entry checksums out only when nothing has verified the
    // payload yet: an eager restore already proved every word through the
    // whole-file seal, so first-touch re-verification would be pure waste.
    let mut verify = (checksum == ChecksumMode::Lazy).then(|| Vec::with_capacity(count));
    for (i, key) in keys.into_iter().enumerate() {
        let d = dir_off + i * V2_DIR_ENTRY_CK;
        let entry = ArenaEntry {
            nrows: usize_at(d, "nrows")?,
            ncols: usize_at(d + 8, "ncols")?,
            nnz: usize_at(d + 16, "nnz")?,
            indptr_off: usize_at(d + 24, "indptr offset")?,
            indices_off: usize_at(d + 32, "indices offset")?,
            data_off: usize_at(d + 40, "data offset")?,
        };
        // Arrays must live inside the heap (from_arena re-checks bounds
        // and alignment against the buffer; this pins them past the
        // directory and short of the checksum word).
        let heap_end = file_len - 8;
        let in_heap = |off: usize, len: Option<usize>| {
            len.is_some_and(|len| {
                off >= heap_off && off.checked_add(len).is_some_and(|e| e <= heap_end)
            })
        };
        if !in_heap(
            entry.indptr_off,
            entry.nrows.checked_add(1).and_then(|n| n.checked_mul(8)),
        ) || !in_heap(entry.data_off, entry.nnz.checked_mul(8))
            || !in_heap(entry.indices_off, entry.nnz.checked_mul(4))
        {
            return Err(CodecError::Malformed(format!(
                "v2 directory entry {i} points outside the heap"
            )));
        }
        let matrix = Csr::from_arena(buf, entry)?;
        if let Some(verify) = &mut verify {
            verify.push(u64_at(d + 48));
        }
        entries.push((key, Arc::new(matrix)));
    }
    Ok(CacheSnapshot {
        fingerprint,
        entries,
        verify,
    })
}

/// Layout-independent payload checksum of one matrix: FNV-1a 64 folded
/// per u64 *word* ([`Fnv64::update_word`]) over the indptr values, then
/// the data bit patterns, then the index values. Computable from any
/// mounted [`Csr`] (owned or view), which is what lets a lazily mapped
/// restore re-derive and compare it on first touch.
pub(crate) fn entry_checksum(m: &Csr) -> u64 {
    let (indptr, indices, data) = m.parts();
    let mut hash = Fnv64::new();
    for &p in indptr {
        hash.update_word(p as u64);
    }
    for &v in data {
        hash.update_word(v.to_bits());
    }
    for &c in indices {
        hash.update_word(c as u64);
    }
    hash.finish()
}

/// The `(rows, cols)` a commuting matrix over `key` must have in `hin`'s
/// schema, or `None` when the key does not fit the schema at all (relation
/// id out of range, or consecutive steps that don't chain type-to-type).
fn expected_dims(hin: &Hin, key: &[StepKey]) -> Option<(usize, usize)> {
    let endpoints = |&(rel, fwd): &StepKey| {
        if rel >= hin.relation_count() {
            return None;
        }
        let info = hin.relation(RelationId(rel));
        Some(if fwd {
            (info.src, info.dst)
        } else {
            (info.dst, info.src)
        })
    };
    let (first, rest) = key.split_first()?;
    let (start, mut at) = endpoints(first)?;
    for step in rest {
        let (src, dst) = endpoints(step)?;
        if src != at {
            return None;
        }
        at = dst;
    }
    Some((hin.node_count(start), hin.node_count(at)))
}

impl MatrixCache {
    /// Export resident entries hottest-first by recency tick, stopping at
    /// `budget_bytes` of matrix payload (`None` = everything). Takes the
    /// same shard read locks the serving path takes, one at a time — a
    /// live server can be snapshotted without stalling its workers.
    ///
    /// The walk stops at the first entry that would exceed the budget
    /// (rather than skipping ahead to smaller, colder entries), so the
    /// exported prefix is exactly the hottest slice of the cache.
    pub fn export_snapshot(&self, budget_bytes: Option<usize>) -> CacheSnapshot {
        let mut entries = Vec::new();
        let mut total = 0usize;
        for (key, matrix, _tick) in self.entries_by_recency() {
            let cost = matrix.nbytes();
            if let Some(budget) = budget_bytes {
                if total + cost > budget {
                    break;
                }
            }
            total += cost;
            entries.push((key, matrix));
        }
        CacheSnapshot {
            fingerprint: None,
            entries,
            verify: None,
        }
    }

    /// Restore a snapshot into this cache, validating every entry against
    /// `hin`'s schema and pricing admissions through the ordinary LRU (so
    /// the byte budget holds no matter what the snapshot claims; an entry
    /// no shard could hold is rejected rather than loaded and dropped).
    ///
    /// When the snapshot carries a [`dataset_fingerprint`] that does not
    /// match `hin`, **every** entry is rejected
    /// ([`SnapshotImport::fingerprint_mismatch`]): the entries were
    /// computed from different data, and per-entry dim checks cannot tell
    /// a stale matrix from a fresh one. A snapshot without a fingerprint
    /// (cache-level export) falls back to per-entry validation alone.
    ///
    /// Entries are inserted coldest-first so the snapshot's hottest
    /// entries carry the newest recency ticks — a bounded cache keeps the
    /// hot prefix and sheds the cold tail, matching export order.
    /// Outcomes land in the [`MatrixCache::warm_loaded`] /
    /// [`MatrixCache::warm_rejected`] counters and the returned report.
    pub fn import_snapshot(&self, snapshot: &CacheSnapshot, hin: &Hin) -> SnapshotImport {
        self.import_validated(snapshot, hin, None)
    }

    /// [`MatrixCache::import_snapshot`] with the destination's fingerprint
    /// already known (`None` = compute it here). `Engine` caches the
    /// fingerprint for its lifetime and passes it in, so repeated restores
    /// don't re-hash the whole dataset.
    pub(crate) fn import_validated(
        &self,
        snapshot: &CacheSnapshot,
        hin: &Hin,
        known_fingerprint: Option<u64>,
    ) -> SnapshotImport {
        let mut report = SnapshotImport::default();
        if snapshot
            .fingerprint
            .is_some_and(|fp| fp != known_fingerprint.unwrap_or_else(|| dataset_fingerprint(hin)))
        {
            report.rejected = snapshot.len() as u64;
            report.fingerprint_mismatch = true;
            self.note_warm(0, report.rejected, 0);
            return report;
        }
        for (i, (key, matrix)) in snapshot.entries.iter().enumerate().rev() {
            let fits = expected_dims(hin, key)
                .is_some_and(|(rows, cols)| matrix.nrows() == rows && matrix.ncols() == cols);
            // A lazily restored entry carries its directory checksum so the
            // cache can verify the payload on first touch. An entry larger
            // than a shard slice is refused by the insert itself.
            let admitted = fits
                && match snapshot.verify.as_ref().map(|v| v[i]) {
                    Some(ck) => self.insert_unverified(key.clone(), Arc::clone(matrix), ck),
                    None => self.insert(key.clone(), Arc::clone(matrix)),
                };
            if admitted {
                report.loaded += 1;
                report.view_backed += matrix.is_view() as u64;
            } else {
                report.rejected += 1;
            }
        }
        self.note_warm(report.loaded, report.rejected, report.view_backed);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use hin_core::HinBuilder;

    /// papers p0{a0,a1}@v0, p1{a1}@v0, p2{a2}@v1 — the metapath fixture.
    fn bib() -> Hin {
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let venue = b.add_type("venue");
        let pa = b.add_relation("written_by", paper, author);
        let pv = b.add_relation("published_in", paper, venue);
        b.link(pa, "p0", "a0", 1.0).unwrap();
        b.link(pa, "p0", "a1", 1.0).unwrap();
        b.link(pa, "p1", "a1", 1.0).unwrap();
        b.link(pa, "p2", "a2", 1.0).unwrap();
        b.link(pv, "p0", "v0", 1.0).unwrap();
        b.link(pv, "p1", "v0", 1.0).unwrap();
        b.link(pv, "p2", "v1", 1.0).unwrap();
        b.build()
    }

    /// The written_by forward adjacency (3 papers × 3 authors).
    fn pa_matrix(hin: &Hin) -> Arc<Csr> {
        Arc::new(hin.relation(RelationId(0)).fwd.clone())
    }

    /// A scratch directory unique to this process and test.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hin-snapshot-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn export_orders_hottest_first_and_respects_the_budget() {
        let hin = bib();
        let m = pa_matrix(&hin);
        let per_entry = m.nbytes();
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: None,
        });
        cache.put(vec![(0, true)], Arc::clone(&m));
        cache.put(vec![(0, false)], Arc::clone(&m));
        cache.put(vec![(1, true)], Arc::clone(&m));
        // touch (0,true) so it is hottest
        assert!(cache.get(&[(0, true)]).is_some());

        let all = cache.export_snapshot(None);
        assert_eq!(all.len(), 3);
        assert_eq!(all.bytes(), 3 * per_entry);
        assert_eq!(
            all.keys()[0],
            vec![(0, true)],
            "hottest entry exported first"
        );

        let budgeted = cache.export_snapshot(Some(per_entry));
        assert_eq!(budgeted.len(), 1, "budget admits exactly one entry");
        assert_eq!(budgeted.keys()[0], vec![(0, true)]);

        assert!(cache.export_snapshot(Some(0)).is_empty());
    }

    #[test]
    fn container_round_trips_and_rejects_corruption() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(1, true), (1, false)], pa_matrix(&hin));
        let snap = cache.export_snapshot(None);

        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let back = CacheSnapshot::from_reader(&mut bytes.as_slice()).expect("round trip");
        assert_eq!(back.len(), snap.len());
        assert_eq!(back.keys(), snap.keys());
        assert_eq!(back.bytes(), snap.bytes());

        // wrong magic
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(matches!(
            CacheSnapshot::from_reader(&mut bad.as_slice()),
            Err(CodecError::BadMagic { .. })
        ));
        // truncation anywhere is an error, never a panic
        for cut in 0..bytes.len() {
            assert!(CacheSnapshot::from_reader(&mut &bytes[..cut]).is_err());
        }
        // a payload bit flip is caught by a checksum (inner or outer)
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(CacheSnapshot::from_reader(&mut flipped.as_slice()).is_err());
    }

    #[test]
    fn v2_restore_is_view_backed_and_shares_one_arena() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(0, false)], pa_matrix(&hin));
        cache.put(vec![(1, true), (1, false)], pa_matrix(&hin));
        let snap = cache.export_snapshot(None);
        assert_eq!(snap.view_backed(), 0, "live exports carry owned matrices");

        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let decodes_before = hin_linalg::arena::heap_decodes();
        let back = CacheSnapshot::from_reader(&mut bytes.as_slice()).expect("v2 round trip");
        assert_eq!(back.keys(), snap.keys());
        if hin_linalg::arena::ZERO_COPY {
            assert_eq!(back.view_backed(), back.len(), "every entry is a view");
            assert_eq!(back.arena_count(), 1, "all views alias one buffer");
            // process-wide, but on a zero-copy host nothing moves it
            assert_eq!(
                hin_linalg::arena::heap_decodes(),
                decodes_before,
                "a v2 restore performs zero per-matrix heap decodes"
            );
            let (shared, copied) = back.bytes_shared_copied();
            assert_eq!((shared, copied), (snap.bytes(), 0));
        }
        // content identity regardless of backing
        for ((_, a), (_, b)) in snap.entries.iter().zip(&back.entries) {
            assert_eq!(**a, **b);
        }
        // and the import report says so
        let dst = MatrixCache::default();
        let report = dst.import_snapshot(&back, &hin);
        assert_eq!(report.loaded, 3);
        if hin_linalg::arena::ZERO_COPY {
            assert_eq!(report.view_backed, 3);
            assert_eq!(dst.warm_view_backed(), 3);
        }
    }

    #[test]
    fn v2_encoding_is_deterministic() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        let snap = cache.export_snapshot(None);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        snap.to_writer(&mut a).unwrap();
        snap.to_writer(&mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(&a[0..4], b"HSNP");
        assert_eq!(a.len() % 8, 0, "v2 images are whole words");
    }

    #[test]
    fn hostile_v2_directories_are_rejected() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        let snap = cache.export_snapshot(None);
        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).unwrap();

        let reseal = |bytes: &mut Vec<u8>| {
            let n = bytes.len();
            let mut hash = Fnv64::new();
            for word in bytes[..n - 8].chunks_exact(8) {
                hash.update_word(u64::from_le_bytes(word.try_into().unwrap()));
            }
            bytes[n - 8..].copy_from_slice(&hash.finish().to_le_bytes());
        };
        let dir_off = u64::from_le_bytes(bytes[32..40].try_into().unwrap()) as usize;

        // indptr_off steered outside the heap (into the superheader),
        // with the checksum re-sealed so only structural checks stand
        let mut hostile = bytes.clone();
        hostile[dir_off + 24..dir_off + 32].copy_from_slice(&8u64.to_le_bytes());
        reseal(&mut hostile);
        assert!(matches!(
            CacheSnapshot::from_reader(&mut hostile.as_slice()),
            Err(CodecError::Malformed(_))
        ));

        // nnz inflated so the arrays overrun the heap
        let mut hostile = bytes.clone();
        hostile[dir_off + 16..dir_off + 24].copy_from_slice(&u64::MAX.to_le_bytes());
        reseal(&mut hostile);
        assert!(CacheSnapshot::from_reader(&mut hostile.as_slice()).is_err());

        // unknown flag bits (bit 1 is the per-entry-checksum flag, legal)
        let mut hostile = bytes.clone();
        hostile[8] |= 0x04;
        reseal(&mut hostile);
        assert!(matches!(
            CacheSnapshot::from_reader(&mut hostile.as_slice()),
            Err(CodecError::Malformed(_))
        ));

        // the per-entry-checksum bit cleared: a lazy restore would mount
        // payload words nothing ever verifies, so every path refuses it
        let mut hostile = bytes.clone();
        hostile[8] &= !(V2_FLAG_ENTRY_CHECKSUMS as u8);
        reseal(&mut hostile);
        let dir = scratch_dir("noentryck");
        let path = dir.join("cache.hsnp");
        std::fs::write(&path, &hostile).unwrap();
        for result in [
            CacheSnapshot::from_reader(&mut hostile.as_slice()),
            CacheSnapshot::read_from_file(&path),
            CacheSnapshot::read_from_file_mapped(&path, ChecksumMode::Lazy),
        ] {
            assert!(matches!(result, Err(CodecError::Malformed(_))));
        }
        std::fs::remove_dir_all(&dir).ok();

        // file_len understated: the image no longer tiles
        let mut hostile = bytes.clone();
        let lie = (bytes.len() - 8) as u64;
        hostile[48..56].copy_from_slice(&lie.to_le_bytes());
        assert!(CacheSnapshot::from_reader(&mut hostile.as_slice()).is_err());
    }

    #[test]
    fn file_round_trip_takes_the_one_read_arena_path() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(0, false)], pa_matrix(&hin));
        let snap = cache.export_snapshot(None);

        let dir = std::env::temp_dir().join(format!(
            "hin-snapshot-arena-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.hsnp");
        snap.write_to_file(&path).expect("write");
        let back = CacheSnapshot::read_from_file(&path).expect("read");
        assert_eq!(back.keys(), snap.keys());
        if hin_linalg::arena::ZERO_COPY {
            assert_eq!(back.view_backed(), back.len());
            assert_eq!(back.arena_count(), 1);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_restore_matches_the_read_path_and_survives_corruption() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(0, false)], pa_matrix(&hin));
        let snap = cache.export_snapshot(None);

        let dir = std::env::temp_dir().join(format!(
            "hin-snapshot-mmap-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.hsnp");
        snap.write_to_file(&path).expect("write");

        let read = CacheSnapshot::read_from_file(&path).expect("read");
        for mode in [ChecksumMode::Eager, ChecksumMode::Lazy] {
            let mapped = CacheSnapshot::read_from_file_mapped(&path, mode).expect("map");
            assert_eq!(mapped.keys(), read.keys());
            assert_eq!(mapped.bytes(), read.bytes());
            assert_eq!(
                mapped.verify.is_some(),
                mode == ChecksumMode::Lazy,
                "only a restore that skipped the seal defers verification"
            );
            if hin_linalg::arena::ZERO_COPY {
                assert_eq!(mapped.view_backed(), mapped.len());
                assert_eq!(mapped.arena_count(), 1);
            }
        }

        // corruption on the mapped path errors cleanly, never panics
        let good = std::fs::read(&path).unwrap();
        let bad_path = dir.join("cache-bad.hsnp");
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&bad_path, &flipped).unwrap();
        assert!(CacheSnapshot::read_from_file_mapped(&bad_path, ChecksumMode::Eager).is_err());
        let trunc_path = dir.join("cache-trunc.hsnp");
        std::fs::write(&trunc_path, &good[..good.len() - 9]).unwrap();
        for mode in [ChecksumMode::Eager, ChecksumMode::Lazy] {
            assert!(CacheSnapshot::read_from_file_mapped(&trunc_path, mode).is_err());
        }
        // empty file: map fails, fallback reports the same typed error as read
        let empty_path = dir.join("cache-empty.hsnp");
        std::fs::write(&empty_path, []).unwrap();
        assert!(CacheSnapshot::read_from_file_mapped(&empty_path, ChecksumMode::Eager).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn import_validates_against_the_schema() {
        let hin = bib();
        let donor = MatrixCache::default();
        donor.put(vec![(0, true)], pa_matrix(&hin)); // fits: paper→author is 3×3
        donor.put(vec![(7, true)], pa_matrix(&hin)); // relation id out of range
        donor.put(vec![(0, true), (1, true)], pa_matrix(&hin)); // doesn't chain
        donor.put(vec![(1, true)], pa_matrix(&hin)); // paper→venue is 3×2, blob is 3×3
        let snap = donor.export_snapshot(None);
        assert_eq!(snap.len(), 4);

        let cache = MatrixCache::default();
        let report = cache.import_snapshot(&snap, &hin);
        assert_eq!(
            report,
            SnapshotImport {
                loaded: 1,
                rejected: 3,
                fingerprint_mismatch: false,
                view_backed: 0
            }
        );
        assert_eq!(cache.warm_loaded(), 1);
        assert_eq!(cache.warm_rejected(), 3);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&[(0, true)]).is_some());
        assert_eq!(cache.misses(), 0, "warm loads are not misses");
    }

    #[test]
    fn import_prices_through_the_lru_and_keeps_the_hot_prefix() {
        let hin = bib();
        let m = pa_matrix(&hin);
        let per_entry = m.nbytes();
        let donor = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: None,
        });
        // three schema-valid keys over written_by (all 3×3 in `bib`)
        donor.put(vec![(0, true)], Arc::clone(&m));
        donor.put(vec![(0, false)], Arc::clone(&m));
        donor.put(vec![(0, true), (0, false)], Arc::clone(&m));
        // heat ranking: the round trip hottest, then (0,false), then (0,true)
        assert!(donor.get(&[(0, false)]).is_some());
        assert!(donor.get(&[(0, true), (0, false)]).is_some());
        let snap = donor.export_snapshot(None);

        // a destination that only fits one entry keeps the hottest one
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(per_entry),
        });
        let report = cache.import_snapshot(&snap, &hin);
        assert_eq!(report.loaded, 3, "all entries fit the schema");
        assert_eq!(cache.len(), 1, "LRU enforces the budget during import");
        assert!(cache.bytes() <= per_entry);
        assert!(
            cache.get(&[(0, true), (0, false)]).is_some(),
            "the snapshot's hottest entry survives the budget squeeze"
        );
    }

    #[test]
    fn fingerprint_round_trips_and_gates_imports() {
        let hin = bib();
        let fp = dataset_fingerprint(&hin);
        assert_eq!(fp, dataset_fingerprint(&bib()), "deterministic");

        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        let mut snap = cache.export_snapshot(None);
        assert_eq!(
            snap.fingerprint(),
            None,
            "cache-level export has no identity"
        );
        snap.set_fingerprint(fp);

        // the fingerprint survives the container round trip
        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let back = CacheSnapshot::from_reader(&mut bytes.as_slice()).expect("round trip");
        assert_eq!(back.fingerprint(), Some(fp));

        // matching fingerprint: entries load as usual
        let dst = MatrixCache::default();
        let ok = dst.import_snapshot(&back, &hin);
        assert_eq!(ok.loaded, 1);
        assert!(!ok.fingerprint_mismatch);

        // mismatched fingerprint: wholesale rejection, nothing admitted —
        // even though every entry would pass per-entry dim validation
        let mut stale = back.clone();
        stale.set_fingerprint(fp ^ 1);
        let dst = MatrixCache::default();
        let bad = dst.import_snapshot(&stale, &hin);
        assert!(bad.fingerprint_mismatch);
        assert_eq!((bad.loaded, bad.rejected), (0, 1));
        assert_eq!(dst.len(), 0);
        assert_eq!(dst.warm_rejected(), 1);
    }

    #[test]
    fn input_that_is_not_a_v2_image_is_one_typed_error_from_every_entry_point() {
        let v1_headed = [b"HSNP".as_slice(), &1u32.to_le_bytes(), &[0xA5; 93]].concat();
        let foreign = [b"HFRM".as_slice(), &[7; 96]].concat();
        let stub = [b"HSNP".as_slice(), &SNAPSHOT_VERSION.to_le_bytes()].concat();
        let dir = scratch_dir("nonv2");
        let path = dir.join("cache.hsnp");
        type Expect = fn(&CodecError) -> bool;
        let table: [(&str, &[u8], Expect); 4] = [
            ("v1-headed", &v1_headed, |e| {
                matches!(e, CodecError::UnsupportedVersion(1))
            }),
            (
                "foreign magic",
                &foreign,
                |e| matches!(e, CodecError::BadMagic { found } if found == b"HFRM"),
            ),
            ("8-byte stub", &stub, |e| matches!(e, CodecError::Truncated)),
            ("empty", &[], |e| matches!(e, CodecError::Truncated)),
        ];
        for (what, bytes, expected) in table {
            std::fs::write(&path, bytes).unwrap();
            for (entry, result) in [
                ("from_reader", CacheSnapshot::from_reader(&mut &*bytes)),
                ("from_bytes", CacheSnapshot::from_bytes(bytes)),
                ("read_from_file", CacheSnapshot::read_from_file(&path)),
                (
                    "read_from_file_mapped eager",
                    CacheSnapshot::read_from_file_mapped(&path, ChecksumMode::Eager),
                ),
                (
                    "read_from_file_mapped lazy",
                    CacheSnapshot::read_from_file_mapped(&path, ChecksumMode::Lazy),
                ),
            ] {
                let err = result.expect_err("not a v2 image");
                assert!(expected(&err), "{what} via {entry}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_and_image_bytes_are_frozen() {
        // Both values were recorded from the build that still carried the
        // stand-alone matrix codec: fingerprints live in checkpoint files
        // and gate restores, so neither may drift.
        let hin = bib();
        let fp = dataset_fingerprint(&hin);
        assert_eq!(fp, 0x5963_087b_b57f_9206);

        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(1, true), (1, false)], pa_matrix(&hin));
        let mut snap = cache.export_snapshot(None);
        snap.set_fingerprint(fp);
        let image = snap.to_bytes();
        let mut digest = Fnv64::new();
        digest.update(&image);
        assert_eq!((image.len(), digest.finish()), (384, 0x7088_ba0e_5da2_9424));
    }

    #[test]
    fn lazy_mapped_restore_verifies_each_entry_on_first_touch() {
        let hin = bib();
        let cache = MatrixCache::default();
        // distinct relations, not a key and its reversal: a reversal pair
        // would let `get` serve the evicted corrupt entry back through the
        // clean one's symmetry fallback, masking the verification miss
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(
            vec![(1, true)],
            Arc::new(hin.relation(RelationId(1)).fwd.clone()),
        );
        let snap = cache.export_snapshot(None);
        let image = snap.encode_v2();

        // flip one bit inside entry 0's f64 payload: structurally
        // invisible, caught only by a checksum
        let dir_off = u64::from_le_bytes(image[32..40].try_into().unwrap()) as usize;
        let data_off =
            u64::from_le_bytes(image[dir_off + 40..dir_off + 48].try_into().unwrap()) as usize;
        let mut corrupt = image.clone();
        corrupt[data_off + 3] ^= 0x20;

        let dir = std::env::temp_dir().join(format!(
            "hin-snapshot-lazyck-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.hsnp");
        std::fs::write(&path, &corrupt).unwrap();

        // eager catches it up front
        assert!(matches!(
            CacheSnapshot::read_from_file_mapped(&path, ChecksumMode::Eager),
            Err(CodecError::ChecksumMismatch { .. })
        ));

        // lazy mounts it (structure is intact) and defers to first touch
        let lazy = CacheSnapshot::read_from_file_mapped(&path, ChecksumMode::Lazy).expect("mounts");
        assert_eq!(
            lazy.verify.as_ref().map(|v| v.len()),
            Some(2),
            "lazy restore carries one pending checksum per entry"
        );
        // the flipped byte lives in *directory entry 0*'s payload; the
        // export orders entries hottest-first, so resolve which cache key
        // that is from the parse rather than assuming
        let corrupt_key = lazy.entries[0].0.clone();
        let clean_key = lazy.entries[1].0.clone();
        let dst = MatrixCache::default();
        let report = dst.import_snapshot(&lazy, &hin);
        assert_eq!(report.loaded, 2);

        // first touch of the corrupted entry: verification fails, the
        // entry is evicted, and the caller sees a miss (→ recompute)
        assert!(dst.get(&corrupt_key).is_none());
        assert_eq!(dst.lazy_verify_failures(), 1);
        assert_eq!(dst.len(), 1, "the corrupt entry is gone");

        // the clean entry verifies once, then serves without re-hashing
        assert!(dst.get(&clean_key).is_some());
        assert_eq!(dst.lazy_verified(), 1);
        assert!(dst.get(&clean_key).is_some());
        assert_eq!(dst.lazy_verified(), 1, "verification ran exactly once");

        // an uncorrupted lazy restore verifies everything clean
        let good_path = dir.join("good.hsnp");
        std::fs::write(&good_path, &image).unwrap();
        let lazy = CacheSnapshot::read_from_file_mapped(&good_path, ChecksumMode::Lazy).unwrap();
        let dst = MatrixCache::default();
        dst.import_snapshot(&lazy, &hin);
        assert!(dst.get(&[(0, true)]).is_some());
        assert!(dst.get(&[(1, true)]).is_some());
        assert_eq!(dst.lazy_verified(), 2);
        assert_eq!(dst.lazy_verify_failures(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bytes_round_trip_matches_the_writer() {
        let hin = bib();
        let fp = dataset_fingerprint(&hin);
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        let mut snap = cache.export_snapshot(None);
        snap.set_fingerprint(fp);

        let bytes = snap.to_bytes();
        let mut streamed = Vec::new();
        snap.to_writer(&mut streamed).unwrap();
        assert_eq!(bytes, streamed, "to_bytes is the writer's exact image");

        let back = CacheSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.keys(), snap.keys());
        assert_eq!(back.fingerprint(), Some(fp));

        // wire corruption is caught eagerly — the bytes crossed a network
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(CacheSnapshot::from_bytes(&flipped).is_err());
        assert!(CacheSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(CacheSnapshot::from_bytes(&[]).is_err());
    }

    #[test]
    fn empty_snapshot_round_trips_and_imports_cleanly() {
        let snap = CacheSnapshot::default();
        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let back = CacheSnapshot::from_reader(&mut bytes.as_slice()).expect("empty container");
        assert!(back.is_empty());
        let cache = MatrixCache::default();
        let report = cache.import_snapshot(&back, &bib());
        assert_eq!(report, SnapshotImport::default());
    }
}
