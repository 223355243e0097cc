//! Snapshot persistence for the commuting-matrix cache.
//!
//! Commuting matrices are expensive to materialize and endlessly
//! reusable — the whole point of the cache — but without persistence that
//! reuse dies with the process: an evicted or crashed server's replacement
//! starts cold and re-pays every SpMM chain under live traffic. A
//! [`CacheSnapshot`] is the deliberate state-out/state-in boundary that
//! fixes this: an ordered export of `(canonical sub-path key, Csr)`
//! entries, hottest first, then the ranked rows of the row memo — what a
//! refused span, never resident as a square, keeps of its hot reads — that
//! can be
//!
//! * handed directly to a replacement engine in-process
//!   ([`crate::Engine::restore`] — the failover hand-off), or
//! * serialized ([`CacheSnapshot::to_writer`] / [`CacheSnapshot::to_bytes`])
//!   into one versioned, checksummed container — the checkpoint file
//!   ([`CacheSnapshot::open`] mounts it again), and the payload of the
//!   `Warm` wire message that streams a checkpoint to a remote shard.
//!
//! # Safety properties
//!
//! * **Export** walks entries hottest-first by recency tick and stops at
//!   an optional byte budget, taking the same shard read locks the
//!   serving path takes — no stop-the-world — and **streams**: each
//!   matrix's arrays go to the writer straight from where they live
//!   ([`Csr::write_arena_payload`]), with no staging copy. A payload
//!   checksum is a property of the immutable matrix, remembered beside it
//!   in the cache: a product is hashed by its first export and never
//!   again, and a checkpoint of restored views hashes nothing.
//! * **Import** validates every key against the destination dataset's
//!   schema (relation ids in range, steps chaining type-to-type, matrix
//!   dims matching the endpoint node counts) and prices admitted entries
//!   through the ordinary LRU, so a snapshot — even a hostile one — can
//!   never blow the cache budget or plant a mis-shaped product. Outcomes
//!   are recorded in the `warm_loaded` / `warm_rejected` counters.
//! * **Decoding** is paranoid: corrupt, truncated or foreign containers
//!   return typed [`CodecError`]s, never panic.
//! * **Nothing unproven is served.** Mounting proves the metadata and
//!   every matrix's structure; the restore proves each entry's values
//!   against its directory checksum before it takes the entry in, on the
//!   restoring thread. A mismatch is rejected and counted
//!   ([`restore_corrupt`](crate::CacheStats::restore_corrupt)), never
//!   inserted; the span is computed when it is next wanted.
//!
//! # Container wire format (version 4 — the sealed-directory arena format)
//!
//! The only container this build reads or writes; every entry point hands
//! its bytes to one parser, so anything else — a version-1, -2 or -3 file
//! from an older build included — is a typed error from one place
//! ([`CodecError::UnsupportedVersion`], [`CodecError::BadMagic`],
//! [`CodecError::Truncated`]). One file, laid out so a restore is **one
//! map plus zero per-matrix deserialization**: a fixed-size directory of
//! entry headers in front of a single 8-byte-aligned data heap. The file
//! is mapped ([`hin_linalg::ArenaBuf::map_file`]; read into one aligned
//! buffer where mapping is unavailable) and every matrix is handed out as
//! a [`Csr`] *view* into it ([`hin_linalg::Csr::from_arena`]), read out of
//! the kernel page cache: a mount reads the metadata and the index arrays,
//! and a restore reads the values once, to prove them.
//!
//! ```text
//! superheader  64 bytes, 8-byte fields LE unless noted:
//!   [0..4)    magic       b"HSNP"
//!   [4..8)    version     u32 LE   4
//!   [8..16)   flags       bit 0 = a dataset fingerprint is present
//!                         bit 1 = directory entries carry per-entry
//!                         checksums (both always set; an image with
//!                         either bit clear is rejected as malformed)
//!                         bit 2 = ranked-rows entries follow the
//!                         matrices (set exactly when there are any)
//!   [16..24)  fingerprint
//!   [24..32)  count       number of entries
//!   [32..40)  dir_off     byte offset of the directory (8-aligned)
//!   [40..48)  heap_off    byte offset of the data heap (8-aligned)
//!   [48..56)  file_len    total bytes = end of the heap
//!   [56..64)  seal        FNV-1a 64 folded per little-endian u64 *word*
//!                         ([`Fnv64::update_word`]) over [0, heap_off),
//!                         this word left out
//! keys         at 64: per entry key_len u32 LE, then key_len ×
//!              (relation id u64 LE, direction u8); zero-padded to dir_off.
//!              key_len's bit 30 marks ranked PathSim rows, bit 31 ranked
//!              count rows; the length is the bits below (≤ 4096)
//! directory    count × 64-byte entries, 8 × u64 LE:
//!   [0..48)   nrows, ncols, nnz, indptr_off, indices_off, data_off
//!             (offsets absolute, 8-aligned; entries tile the heap in
//!             directory order with no gaps)
//!   [48..56)  structure checksum: [`Fnv64x4`] over the indptr words,
//!             then the index words as the heap stores them
//!   [56..64)  values checksum: [`Fnv64x4`] over the data bit patterns
//!             (both layout-independent, so they can be recomputed from
//!             any mounted `Csr`)
//! heap         per entry: indptr (nrows+1)×u64, data nnz×f64 bit
//!              patterns, indices nnz×u32 zero-padded to 8 bytes
//! ```
//!
//! **What covers what.** Every bit of a file is covered by exactly one
//! thing, and each is proved where it is first needed:
//!
//! * The *seal* covers the superheader, the keys and the directory. It is
//!   verified at mount on every entry point, before any other field is
//!   believed: a flipped relation id, dimension, offset or stored
//!   checksum is a [`CodecError::ChecksumMismatch`], never a matrix served
//!   under another span's key.
//! * The *structure checksum* covers an entry's `indptr` and index arrays.
//!   It is verified at mount, by the same pass that validates the CSR
//!   invariants ([`Csr::from_arena`]): a mismatch is a
//!   [`CodecError::ChecksumMismatch`] from every entry point, so no view
//!   escapes a mount structurally unproven.
//! * The *values checksum* covers an entry's `data` array — most of the
//!   image. It is verified by the restore, before the entry goes into a
//!   cache: a mismatch is rejected there, on every entry point.
//! * The ≤ 4 *padding* bytes after an odd-`nnz` index array must be zero.
//!
//! There is no whole-file checksum: it would make the CPU walk a mapped
//! image once more than serving it needs.
//!
//! **Ranked rows.** A refused span's rows of one scoring are one more
//! entry, laid out, sealed and checksummed as a matrix is, under the span's
//! key with its marker: the matrix has the span's dimensions, and row `x`
//! holds the best pairs (at most ten) a read of `x` ranked, sorted by id —
//! a row that ranked nothing is left out, since an empty CSR row cannot say
//! so. A mount refuses a longer row; a restore checks the dimensions
//! against the schema and the values against their checksum as it does a
//! span's, before it reads a row, and re-sorts each row best first into
//! the row memo. An image without rows is byte for byte what it was before
//! rows existed.
//!
//! The fingerprint ([`dataset_fingerprint`]) digests the full dataset —
//! type names, node counts, relation endpoints, and every relation's
//! adjacency arrays — so a snapshot taken from dataset *A* refuses to
//! restore into a rebuilt or different dataset *B* even when *B*'s schema
//! *shape* happens to match: per-entry dim checks cannot see changed edge
//! weights, the fingerprint can. Every snapshot carries one: a cache is
//! exported and restored only through an engine ([`crate::Engine::snapshot`],
//! [`crate::Engine::restore`]), which holds the dataset, and an image
//! without one is rejected as malformed.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use hin_core::{Hin, RelationId};
use hin_linalg::codec::{Fnv64, Fnv64x4};
use hin_linalg::{ArenaBuf, ArenaEntry, Csr};

pub use hin_linalg::codec::CodecError;

use crate::cache::{MatrixCache, PathKey, RowKind, Sealed, StepKey};
use crate::engine::DEFAULT_LIMIT;

/// The snapshot container's magic bytes.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"HSNP";

/// Current snapshot container version (the sealed-directory arena format
/// with split structure / values checksums).
pub const SNAPSHOT_VERSION: u32 = 4;

/// Superheader size.
const HEADER: usize = 64;

/// Byte offset of the metadata seal inside the superheader.
const SEAL_AT: usize = 56;

/// Bytes per directory entry: 6 × u64 of shape and offsets, then the
/// entry's structure and values checksums.
const DIR_ENTRY: usize = 64;

/// Flags bit 0: a dataset fingerprint is present — what a restore is
/// gated on. The writer always sets it and [`parse`] rejects an image
/// without it, so no restore can skip the gate.
const FLAG_FINGERPRINT: u64 = 1;

/// Flags bit 1: directory entries carry per-entry checksums
/// ([`entry_checksum`]) — what every mounted matrix is proved against. The
/// writer always sets it and [`parse`] rejects an image without it, so no
/// restore can serve payload words that nothing will ever check.
const FLAG_ENTRY_CHECKSUMS: u64 = 2;

/// Flags bit 2: the image carries ranked-rows entries (see
/// [`ROWS_PATHSIM`]). Set exactly when it does, so an image without them
/// is byte for byte what it was before they existed.
const FLAG_RANKED_ROWS: u64 = 4;

/// Longest admissible key, in steps. Real meta-paths are a handful of
/// steps; the cap keeps a hostile `key_len` from driving allocation.
const MAX_KEY_STEPS: u32 = 4096;

/// A `key_len` marker bit: the entry is not a commuting matrix but a
/// refused span's ranked PathSim rows — row `x` holds `x`'s best pairs
/// (at most [`DEFAULT_LIMIT`]), sorted by id. The length is in the bits
/// below the markers; [`MAX_KEY_STEPS`] leaves both markers free.
const ROWS_PATHSIM: u32 = 1 << 30;

/// A `key_len` marker bit: the entry is a refused span's ranked
/// path-count rows, laid out as [`ROWS_PATHSIM`]'s.
const ROWS_COUNT: u32 = 1 << 31;

/// The `key_len` marker of a kind of ranked rows.
fn marker(kind: RowKind) -> u32 {
    match kind {
        RowKind::PathSim => ROWS_PATHSIM,
        RowKind::Count => ROWS_COUNT,
    }
}

/// An ordered export of cache state: `(sub-path key, commuting matrix)`
/// entries, hottest first by recency tick.
///
/// Obtain one from [`crate::Engine::snapshot`]; feed it to a replacement
/// via [`crate::Engine::restore`], or persist it with
/// [`CacheSnapshot::to_writer`] / [`CacheSnapshot::write_to_file`] and
/// mount it again with [`CacheSnapshot::open`].
#[derive(Clone)]
pub struct CacheSnapshot {
    /// [`dataset_fingerprint`] of the network the entries were computed
    /// from.
    fingerprint: u64,
    /// Hottest first. Each entry carries what is known about its payload
    /// checksum and whether the payload has been verified: an entry
    /// mounted from an image is unproven until a restore hashes it, an
    /// entry exported from a live cache was proved there — so an
    /// in-process hand-off re-hashes nothing.
    entries: Vec<Sealed>,
    /// Factored spans' ranked rows, each kind of a span one CSR matrix
    /// whose row `x` holds `x`'s pairs sorted by id: what the row memo
    /// held, in key order. Written after the matrices, into the image too.
    rows: Vec<(RowKind, Sealed)>,
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
    /// destination dataset's schema, because the matrix is larger than
    /// one shard's slice of the destination's byte budget (also counted in
    /// [`inserts_refused`](crate::CacheStats::inserts_refused)), or because
    /// their values did not match their checksum (also counted in
    /// [`restore_corrupt`](crate::CacheStats::restore_corrupt)) — or all of
    /// them, when the snapshot's dataset fingerprint did not match.
    pub rejected: u64,
    /// `true` when the snapshot carried a [`dataset_fingerprint`] that
    /// does not match the destination dataset: the data the entries were
    /// computed from differs (even if the schema shape matches), so every
    /// entry was rejected wholesale — serving stale matrices silently is
    /// the one failure mode a warm start must never have.
    pub fingerprint_mismatch: bool,
    /// The subset of `loaded` whose matrices are zero-copy views into a
    /// shared snapshot arena ([`Csr::is_view`]) rather than owned heap
    /// copies. A restore from a mounted image on a
    /// [`hin_linalg::arena::ZERO_COPY`] host reports
    /// `view_backed == loaded`: zero per-matrix heap decodes.
    pub view_backed: u64,
    /// Ranked rows of refused spans taken into the row memo
    /// ([`CacheSnapshot::ranked_rows`]). A ranked-rows entry that does not
    /// fit the schema, or whose values do not match its checksum — they
    /// are checked here, before any row is read — is counted in
    /// `rejected` instead, and none of its rows is taken.
    pub ranked_rows: u64,
}

/// Content fingerprint of a dataset: type names and node counts, relation
/// names and endpoints, and every relation's forward adjacency — its three
/// dims and one [`Fnv64x4`] digest over its three CSR arrays, in the order
/// and encoding of a snapshot heap. Two networks with equal fingerprints
/// hold identical relation matrices, so their commuting matrices — and
/// therefore their cache entries — are interchangeable.
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
        let m = &info.fwd;
        for dim in [m.nrows(), m.ncols(), m.nnz()] {
            hash.update(&(dim as u64).to_le_bytes());
        }
        let (indptr, indices, data) = m.parts();
        let mut arrays = Fnv64x4::new();
        arrays.feed(indptr, |p| p as u64);
        arrays.feed(data, f64::to_bits);
        arrays.feed_u32(indices);
        hash.update(&arrays.finish().to_le_bytes());
    }
    hash.finish()
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
        self.entries.iter().map(|e| e.matrix.nbytes()).sum()
    }

    /// The carried keys in export order (hottest first), as
    /// `(relation id, forward)` step sequences.
    pub fn keys(&self) -> Vec<Vec<(usize, bool)>> {
        self.entries.iter().map(|e| e.key.clone()).collect()
    }

    /// The [`dataset_fingerprint`] of the source dataset.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Ranked rows carried for refused spans, over both scorings: one per
    /// anchor whose row a read ranked. Not entries: [`CacheSnapshot::len`],
    /// [`CacheSnapshot::keys`] and [`CacheSnapshot::bytes`] count the
    /// matrices.
    pub fn ranked_rows(&self) -> usize {
        let nonempty = |m: &Csr| (0..m.nrows()).filter(|&x| m.row_nnz(x) > 0).count();
        self.rows.iter().map(|(_, e)| nonempty(&e.matrix)).sum()
    }

    /// Every directory entry in image order — the matrices, then the
    /// ranked rows — with its `key_len` marker.
    fn directory(&self) -> impl Iterator<Item = (u32, &Sealed)> {
        let rows = self.rows.iter().map(|(kind, e)| (marker(*kind), e));
        self.entries.iter().map(|e| (0, e)).chain(rows)
    }

    /// Entries whose matrices are zero-copy views into a shared arena
    /// buffer (every entry of a mounted image on a zero-copy host; 0 for
    /// snapshots exported from a live cache of computed products).
    pub fn view_backed(&self) -> usize {
        self.entries.iter().filter(|e| e.matrix.is_view()).count()
    }

    /// Distinct arena buffers backing the view entries — 1 after mounting
    /// an image: every matrix aliases one shared buffer.
    pub fn arena_count(&self) -> usize {
        let mut ids: Vec<usize> = self
            .entries
            .iter()
            .filter_map(|e| e.matrix.arena_id())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// The sealed metadata block — superheader, keys, directory — of this
    /// snapshot's image: a few hundred bytes, the only part of an export
    /// that is assembled rather than streamed. Hashes any entry that does
    /// not know its own checksums yet.
    fn metadata(&self) -> Vec<u8> {
        let mut keys = Vec::new();
        for (marker, e) in self.directory() {
            keys.extend_from_slice(&(e.key.len() as u32 | marker).to_le_bytes());
            for &(rel, fwd) in &e.key {
                keys.extend_from_slice(&(rel as u64).to_le_bytes());
                keys.push(fwd as u8);
            }
        }
        let count = self.entries.len() + self.rows.len();
        let dir_off = (HEADER + keys.len()).next_multiple_of(8);
        let heap_off = dir_off + count * DIR_ENTRY;

        let mut meta = vec![0u8; heap_off];
        meta[HEADER..HEADER + keys.len()].copy_from_slice(&keys);
        // heap layout: per entry [indptr | data | indices(padded)]
        let mut at = heap_off;
        for ((_, e), dir) in self
            .directory()
            .zip(meta[dir_off..].chunks_exact_mut(DIR_ENTRY))
        {
            let m = &e.matrix;
            let indptr_off = at;
            let data_off = indptr_off + (m.nrows() + 1) * 8;
            let indices_off = data_off + m.nnz() * 8;
            at = (indices_off + m.nnz() * 4).next_multiple_of(8);
            let checksum = *e.checksum.get_or_init(|| entry_checksum(m));
            for (slot, v) in dir.chunks_exact_mut(8).zip([
                m.nrows() as u64,
                m.ncols() as u64,
                m.nnz() as u64,
                indptr_off as u64,
                indices_off as u64,
                data_off as u64,
                structure_half(checksum),
                values_half(checksum),
            ]) {
                slot.copy_from_slice(&v.to_le_bytes());
            }
        }

        meta[0..4].copy_from_slice(&SNAPSHOT_MAGIC);
        meta[4..8].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let ranked = match self.rows.is_empty() {
            true => 0,
            false => FLAG_RANKED_ROWS,
        };
        for (slot, v) in meta[8..SEAL_AT].chunks_exact_mut(8).zip([
            FLAG_FINGERPRINT | FLAG_ENTRY_CHECKSUMS | ranked,
            self.fingerprint,
            count as u64,
            dir_off as u64,
            heap_off as u64,
            at as u64,
        ]) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
        let seal = metadata_seal(&meta);
        meta[SEAL_AT..HEADER].copy_from_slice(&seal.to_le_bytes());
        meta
    }

    /// Serialize into the current container format: the bytes
    /// [`CacheSnapshot::open`] mounts with zero per-matrix decodes. The
    /// sealed metadata block goes first, then every matrix's arrays straight
    /// from where they live — nothing the size of the image is assembled in
    /// memory. Deterministic: equal snapshots encode to equal bytes.
    pub fn to_writer<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        self.stream(&self.metadata(), w)
    }

    /// `meta`, then the heap it describes.
    fn stream<W: Write>(&self, meta: &[u8], w: &mut W) -> Result<(), CodecError> {
        w.write_all(meta)?;
        for (_, e) in self.directory() {
            e.matrix.write_arena_payload(w)?;
        }
        Ok(())
    }

    /// Serialize into the complete image as a byte vector — the framed
    /// payload a [`Warm`](hin_linalg::codec::FRAME_MAGIC) wire message
    /// carries when streaming a checkpoint to a remote shard. Identical
    /// bytes to [`CacheSnapshot::to_writer`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let meta = self.metadata();
        let file_len = u64::from_le_bytes(meta[48..56].try_into().expect("8 bytes"));
        let mut image = Vec::with_capacity(file_len as usize);
        self.stream(&meta, &mut image)
            .expect("writing into memory cannot fail");
        image
    }

    /// Mount a complete container image from memory — the receiving end
    /// of [`CacheSnapshot::to_bytes`]. The image mounts as arena views over
    /// a private aligned copy of `bytes`; as on every entry point the
    /// metadata and every structure are verified here, and each entry's
    /// values by the restore that takes it in.
    pub fn from_bytes(bytes: &[u8]) -> Result<CacheSnapshot, CodecError> {
        parse(&Arc::new(ArenaBuf::from_bytes(bytes)))
    }

    /// [`CacheSnapshot::to_writer`] to a (buffered) file.
    pub fn write_to_file(&self, path: impl AsRef<Path>) -> Result<(), CodecError> {
        let mut w = BufWriter::new(File::create(path)?);
        self.to_writer(&mut w)?;
        w.flush()?;
        Ok(())
    }

    /// Mount a snapshot file — the one way a file becomes a snapshot.
    ///
    /// The image is `mmap`ed read-only and every restored matrix is a view
    /// into the kernel page cache: open cost is the metadata block plus
    /// one pass over the row-offset and index arrays that validates and
    /// hashes them together ([`Csr::from_arena`]). The mount reads no value
    /// page; a restore of the snapshot reads each one once, to hash it
    /// against its checksum, so a restored image is read whole. Mapping
    /// saves the copy into a heap buffer that reading the file makes,
    /// which on the end-to-end `warm_restart` workload is worth about a
    /// fifth of its throughput. Where mapping is unavailable (a
    /// non-64-bit-unix target, an empty file, any `mmap` error) the file is
    /// read into one aligned heap buffer instead: same typed errors,
    /// bit-identical matrices.
    ///
    /// The mapping outlives the directory entry: a checkpoint file may be
    /// replaced (by rename) or deleted while views into it serve. It must
    /// not be truncated or overwritten in place.
    pub fn open(path: impl AsRef<Path>) -> Result<CacheSnapshot, CodecError> {
        let mut file = File::open(path)?;
        let buf = match ArenaBuf::map_file(&file) {
            Ok(buf) => buf,
            Err(_) => {
                let file_len = file.metadata()?.len();
                let file_len = usize::try_from(file_len).map_err(|_| CodecError::DimOverflow {
                    field: "snapshot file length",
                    value: file_len,
                })?;
                let mut buf = ArenaBuf::with_len(file_len);
                file.read_exact(buf.as_mut_bytes())?;
                buf
            }
        };
        parse(&Arc::new(buf))
    }
}

/// Magic and version of the first eight bytes of a would-be image — the
/// one place a foreign file ([`CodecError::BadMagic`]) or another
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

/// The metadata seal of an image whose metadata block — everything in
/// front of the heap — is `meta`: word-granular FNV over the block with
/// the seal's own word left out.
fn metadata_seal(meta: &[u8]) -> u64 {
    let mut hash = Fnv64::new();
    for (i, word) in meta.chunks_exact(8).enumerate() {
        if i != SEAL_AT / 8 {
            hash.update_word(u64::from_le_bytes(word.try_into().expect("8-byte word")));
        }
    }
    hash.finish()
}

/// Validate and mount a complete image: head, length, metadata seal, then
/// header / keys / directory structure, then per entry its zero padding
/// and one [`Csr::from_arena`] view, whose structure digest — computed in
/// the pass that checks every CSR invariant — must equal the directory's
/// structure checksum. On a [`hin_linalg::arena::ZERO_COPY`] host nothing
/// here copies matrix payload — every returned matrix aliases `buf` — and
/// nothing reads a value page. The values checksum is left to the restore
/// that takes the entries in ([`MatrixCache::proven`]).
fn parse(buf: &Arc<ArenaBuf>) -> Result<CacheSnapshot, CodecError> {
    let bytes = buf.as_bytes();
    if bytes.len() < HEADER {
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
            "header claims {file_len} bytes, buffer holds {}",
            bytes.len()
        )));
    }
    // The seal before any other field is believed. `heap_off` says how far
    // it reaches and is itself under it: a wrong value cannot pass.
    let heap_off = usize_at(40, "heap offset")?;
    if heap_off % 8 != 0 || heap_off < HEADER || heap_off > file_len {
        return Err(CodecError::Malformed(format!(
            "heap offset {heap_off} outside the {file_len}-byte image"
        )));
    }
    let (stored, computed) = (u64_at(SEAL_AT), metadata_seal(&bytes[..heap_off]));
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }

    let flags = u64_at(8);
    if flags & !(FLAG_FINGERPRINT | FLAG_ENTRY_CHECKSUMS | FLAG_RANKED_ROWS) != 0 {
        return Err(CodecError::Malformed(format!(
            "flags {flags:#x} set unknown bits"
        )));
    }
    if flags & FLAG_FINGERPRINT == 0 {
        return Err(CodecError::Malformed(
            "image carries no dataset fingerprint".into(),
        ));
    }
    if flags & FLAG_ENTRY_CHECKSUMS == 0 {
        return Err(CodecError::Malformed(
            "directory carries no per-entry checksums".into(),
        ));
    }
    let count = usize_at(24, "snapshot entry count")?;
    let dir_off = usize_at(32, "directory offset")?;
    let dir_bytes = count
        .checked_mul(DIR_ENTRY)
        .ok_or(CodecError::DimOverflow {
            field: "directory size",
            value: count as u64,
        })?;
    if dir_off % 8 != 0 || dir_off < HEADER || dir_off.checked_add(dir_bytes) != Some(heap_off) {
        return Err(CodecError::Malformed(format!(
            "layout dir_off={dir_off} heap_off={heap_off} count={count} does not tile"
        )));
    }

    // Keys live between the superheader and the directory.
    let mut at = HEADER;
    let mut keys: Vec<(Option<RowKind>, PathKey)> = Vec::with_capacity(count);
    for _ in 0..count {
        if at + 4 > dir_off {
            return Err(CodecError::Truncated);
        }
        let word = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        at += 4;
        let kind = match word & (ROWS_PATHSIM | ROWS_COUNT) {
            0 => None,
            ROWS_PATHSIM => Some(RowKind::PathSim),
            ROWS_COUNT => Some(RowKind::Count),
            both => {
                return Err(CodecError::Malformed(format!(
                    "key marker {both:#x} names no kind of entry"
                )))
            }
        };
        if kind.is_some() && flags & FLAG_RANKED_ROWS == 0 {
            return Err(CodecError::Malformed(
                "a ranked-rows entry in an image not flagged to carry one".into(),
            ));
        }
        let key_len = word & !(ROWS_PATHSIM | ROWS_COUNT);
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
        keys.push((kind, key));
    }
    let carries_rows = keys.iter().any(|(kind, _)| kind.is_some());
    if flags & FLAG_RANKED_ROWS != 0 && !carries_rows {
        return Err(CodecError::Malformed(
            "image flagged to carry ranked rows carries none".into(),
        ));
    }

    let (mut entries, mut rows) = (Vec::with_capacity(count), Vec::new());
    // where the next entry's arrays must start: entries tile the heap
    let mut cursor = heap_off;
    for (i, (kind, key)) in keys.into_iter().enumerate() {
        let d = dir_off + i * DIR_ENTRY;
        let entry = ArenaEntry {
            nrows: usize_at(d, "nrows")?,
            ncols: usize_at(d + 8, "ncols")?,
            nnz: usize_at(d + 16, "nnz")?,
            indptr_off: usize_at(d + 24, "indptr offset")?,
            indices_off: usize_at(d + 32, "indices offset")?,
            data_off: usize_at(d + 40, "data offset")?,
        };
        // [indptr | data | indices | zero padding], back to back from the
        // cursor: no byte of the heap lies outside some entry's arrays or
        // padding (`from_arena` re-checks bounds and alignment against the
        // buffer, whose length is `file_len`)
        let tiles = || {
            let data_off = cursor.checked_add(entry.nrows.checked_add(1)?.checked_mul(8)?)?;
            let indices_off = data_off.checked_add(entry.nnz.checked_mul(8)?)?;
            let end = indices_off.checked_add(entry.nnz.checked_mul(4)?)?;
            (entry.indptr_off == cursor
                && entry.data_off == data_off
                && entry.indices_off == indices_off
                && end <= file_len)
                .then_some(end)
        };
        let Some(end) = tiles() else {
            return Err(CodecError::Malformed(format!(
                "directory entry {i} does not tile the heap"
            )));
        };
        cursor = end.next_multiple_of(8);
        if bytes[end..cursor].iter().any(|&b| b != 0) {
            return Err(CodecError::Malformed(format!(
                "directory entry {i}: index padding is not zero"
            )));
        }
        let (matrix, structure) = Csr::from_arena(buf, entry)?;
        let stored = u64_at(d + 48);
        if structure != stored {
            return Err(CodecError::ChecksumMismatch {
                stored,
                computed: structure,
            });
        }
        let sealed = Sealed {
            key,
            matrix: Arc::new(matrix),
            checksum: Arc::new(both_halves(structure, u64_at(d + 56)).into()),
            verified: false,
        };
        match kind {
            None => entries.push(sealed),
            Some(kind) => {
                let m = &sealed.matrix;
                if let Some(x) = (0..m.nrows()).find(|&x| m.row_nnz(x) > DEFAULT_LIMIT) {
                    return Err(CodecError::Malformed(format!(
                        "directory entry {i}: ranked row {x} holds {} pairs, over {DEFAULT_LIMIT}",
                        m.row_nnz(x)
                    )));
                }
                rows.push((kind, sealed));
            }
        }
    }
    if cursor != file_len {
        return Err(CodecError::Malformed(format!(
            "heap ends at {cursor}, image at {file_len}"
        )));
    }
    Ok(CacheSnapshot {
        fingerprint: u64_at(16),
        entries,
        rows,
    })
}

#[cfg(test)]
thread_local! {
    /// Value-array hashes ([`values_checksum`]) made on this thread: one
    /// per [`entry_checksum`], one per mounted entry a restore proves.
    static ENTRY_CHECKSUM_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Structure hashes outside a mount made on this thread: one per
    /// [`entry_checksum`].
    static STRUCTURE_HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A directory entry's two checksums as one value: the structure checksum
/// in the high 64 bits, the values checksum in the low 64. What
/// [`entry_checksum`] computes and [`Sealed::checksum`] remembers.
pub(crate) type EntryChecksum = u128;

fn both_halves(structure: u64, values: u64) -> EntryChecksum {
    u128::from(structure) << 64 | u128::from(values)
}

fn structure_half(checksum: EntryChecksum) -> u64 {
    (checksum >> 64) as u64
}

/// The values checksum inside `checksum` — what verification compares.
pub(crate) fn values_half(checksum: EntryChecksum) -> u64 {
    checksum as u64
}

/// Both checksums of one matrix, as a directory entry stores them: the
/// structure checksum ([`Fnv64x4`] over the indptr words, then the index
/// words — what [`Csr::from_arena`] computes while it validates) and
/// [`values_checksum`]. Layout-independent, so computable from any
/// [`Csr`]; a computed product pays it once, at its first export.
pub(crate) fn entry_checksum(m: &Csr) -> EntryChecksum {
    #[cfg(test)]
    STRUCTURE_HASHES.with(|calls| calls.set(calls.get() + 1));
    let (indptr, indices, _) = m.parts();
    let mut structure = Fnv64x4::new();
    structure.feed(indptr, |p| p as u64);
    structure.feed_u32(indices);
    both_halves(structure.finish(), values_checksum(m))
}

/// [`Fnv64x4`] over a matrix's data bit patterns: the one hash a restored
/// entry still owes before a restore takes it in, its structure having
/// been proved at mount. Computable from any mounted [`Csr`] (owned or
/// view), which is what lets a restored entry be held against its
/// directory checksum wherever it ends up.
pub(crate) fn values_checksum(m: &Csr) -> u64 {
    #[cfg(test)]
    ENTRY_CHECKSUM_CALLS.with(|calls| calls.set(calls.get() + 1));
    let mut values = Fnv64x4::new();
    values.feed(m.parts().2, f64::to_bits);
    values.finish()
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
    /// Export resident entries hottest-first by recency tick, then the row
    /// memo's ranked rows of every span whose matrix is not among them — a
    /// refused span's, which no matrix could give back — as one matrix per
    /// span and kind sized by `hin`'s schema, stopping at `budget_bytes` of
    /// payload (`None` = everything), stamped with `fingerprint`, the
    /// [`dataset_fingerprint`] of `hin`. Takes the same shard read locks the serving path takes,
    /// one at a time — a live server can be snapshotted without stalling
    /// its workers.
    ///
    /// The walk stops at the first entry that would exceed the budget
    /// (rather than skipping ahead to smaller, colder entries), so the
    /// exported prefix is exactly the hottest slice of the cache, and rows
    /// go only where every matrix went.
    pub(crate) fn export_snapshot(
        &self,
        budget_bytes: Option<usize>,
        fingerprint: u64,
        hin: &Hin,
    ) -> CacheSnapshot {
        let mut entries = self.entries_by_recency();
        let carried = |key: &[StepKey]| entries.iter().any(|e| e.key == key);
        let mut rows: Vec<(RowKind, Sealed)> = self
            .memo_triplets(carried)
            .into_iter()
            .filter_map(|(key, kind, triplets)| {
                let (nrows, ncols) = expected_dims(hin, &key)?;
                let sealed = Sealed {
                    key,
                    matrix: Arc::new(Csr::from_triplets(nrows, ncols, triplets)),
                    checksum: Arc::default(),
                    verified: true,
                };
                Some((kind, sealed))
            })
            .collect();
        if let Some(budget) = budget_bytes {
            let mut total = 0usize;
            let mut within = |e: &Sealed| {
                total += e.matrix.nbytes();
                total <= budget
            };
            let kept = entries.iter().take_while(|e| within(e)).count();
            let kept_rows = match kept == entries.len() {
                true => rows.iter().take_while(|(_, e)| within(e)).count(),
                false => 0,
            };
            entries.truncate(kept);
            rows.truncate(kept_rows);
        }
        CacheSnapshot {
            fingerprint,
            entries,
            rows,
        }
    }

    /// Restore a snapshot into this cache, validating every entry against
    /// `hin`'s schema and pricing admissions through the ordinary LRU (so
    /// the byte budget holds no matter what the snapshot claims; an entry
    /// no shard could hold is rejected rather than loaded and dropped).
    ///
    /// When the snapshot's [`dataset_fingerprint`] is not `fingerprint`,
    /// `hin`'s, **every** entry is rejected
    /// ([`SnapshotImport::fingerprint_mismatch`]): the entries were
    /// computed from different data, and per-entry dim checks cannot tell
    /// a stale matrix from a fresh one.
    ///
    /// Every entry that fits the schema and its shard is proved before it
    /// is taken in ([`MatrixCache::proven`]): one mounted from an image has
    /// its values hashed against its directory's values checksum, and a
    /// mismatch is rejected, never inserted. Entries are inserted
    /// coldest-first so the snapshot's hottest entries carry the newest
    /// recency ticks — a bounded cache keeps the hot prefix and sheds the
    /// cold tail, matching export order. Ranked rows go into the row memo
    /// ([`MatrixCache::memo_admit`]). Outcomes land in the
    /// [`warm_loaded`](crate::CacheStats::warm_loaded) /
    /// [`warm_rejected`](crate::CacheStats::warm_rejected) counters and the
    /// returned report.
    pub(crate) fn import_validated(
        &self,
        snapshot: &CacheSnapshot,
        hin: &Hin,
        fingerprint: u64,
    ) -> SnapshotImport {
        let mut report = SnapshotImport::default();
        if snapshot.fingerprint != fingerprint {
            report.rejected = (snapshot.len() + snapshot.rows.len()) as u64;
            report.fingerprint_mismatch = true;
            self.note_warm(0, report.rejected, 0);
            return report;
        }
        let fits = |sealed: &Sealed| {
            expected_dims(hin, &sealed.key).is_some_and(|(rows, cols)| {
                sealed.matrix.nrows() == rows && sealed.matrix.ncols() == cols
            })
        };
        for sealed in snapshot.entries.iter().rev() {
            // The insert refuses an entry larger than a shard slice, then
            // one whose values do not match their checksum.
            if fits(sealed) && self.insert_sealed(sealed.clone()) {
                report.loaded += 1;
                report.view_backed += sealed.matrix.is_view() as u64;
            } else {
                report.rejected += 1;
            }
        }
        for (kind, sealed) in &snapshot.rows {
            match fits(sealed) && self.proven(sealed) {
                true => report.ranked_rows += self.memo_admit(&sealed.key, *kind, &sealed.matrix),
                false => report.rejected += 1,
            }
        }
        self.note_warm(report.loaded, report.rejected, report.view_backed);
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, Scoring};
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

    /// The published_in forward adjacency (3 papers × 2 venues, nnz 3: an
    /// odd count, so its index array is followed by four padding bytes).
    fn pv_matrix(hin: &Hin) -> Arc<Csr> {
        Arc::new(hin.relation(RelationId(1)).fwd.clone())
    }

    /// `cache`'s whole export, stamped as computed from `hin`.
    fn export(cache: &MatrixCache, hin: &Hin) -> CacheSnapshot {
        cache.export_snapshot(None, dataset_fingerprint(hin), hin)
    }

    /// Restore `snap` into `cache` as a cache of `hin`.
    fn import(cache: &MatrixCache, snap: &CacheSnapshot, hin: &Hin) -> SnapshotImport {
        cache.import_validated(snap, hin, dataset_fingerprint(hin))
    }

    /// Two distinct relations, not a key and its reversal: a reversal pair
    /// would let `get` serve a rejected corrupt entry back through the
    /// clean one's symmetry fallback, masking the rejection.
    fn two_span_snapshot(hin: &Hin) -> CacheSnapshot {
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(hin));
        cache.put(vec![(1, true)], pv_matrix(hin));
        export(&cache, hin)
    }

    /// Recompute the metadata seal of a tampered image, so only the
    /// structural checks stand between it and a mount.
    fn reseal(image: &mut [u8]) {
        let heap_off = u64::from_le_bytes(image[40..48].try_into().unwrap()) as usize;
        let seal = metadata_seal(&image[..heap_off]);
        image[SEAL_AT..HEADER].copy_from_slice(&seal.to_le_bytes());
    }

    /// `(dir_off, heap_off)` of an image.
    fn layout(image: &[u8]) -> (usize, usize) {
        let at = |off: usize| u64::from_le_bytes(image[off..off + 8].try_into().unwrap()) as usize;
        (at(32), at(40))
    }

    /// Every way bytes become a snapshot, by name. `open` goes through a
    /// file under `dir`.
    fn every_entry_point(
        dir: &std::path::Path,
        image: &[u8],
    ) -> [(&'static str, Result<CacheSnapshot, CodecError>); 2] {
        let path = dir.join("entry-point.hsnp");
        std::fs::write(&path, image).unwrap();
        [
            ("from_bytes", CacheSnapshot::from_bytes(image)),
            ("open", CacheSnapshot::open(&path)),
        ]
    }

    /// What became of a damaged image: a decode error, or — when the
    /// damage sits in payload words, which mounting does not read — exactly
    /// one entry rejected by the restore, with everything resident equal
    /// to what `good` carries under the same key. Either way nothing
    /// corrupt is ever resident.
    fn assert_never_served(damaged: &[u8], good: &CacheSnapshot, hin: &Hin, what: &str) {
        let Ok(mounted) = CacheSnapshot::from_bytes(damaged) else {
            return;
        };
        let cache = MatrixCache::default();
        let report = import(&cache, &mounted, hin);
        assert_eq!(
            (report.loaded as usize, report.rejected),
            (good.len() - 1, 1),
            "{what}: one entry rejected"
        );
        assert_eq!(cache.stats().restore_corrupt, 1, "{what}");
        assert_eq!(cache.stats().len, good.len() - 1, "{what}");
        for e in &good.entries {
            if let Some(m) = cache.get(&e.key) {
                assert_eq!(*m, *e.matrix, "{what}: {:?}", e.key);
            }
        }
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

        let all = export(&cache, &hin);
        assert_eq!(all.len(), 3);
        assert_eq!(all.bytes(), 3 * per_entry);
        assert_eq!(
            all.keys()[0],
            vec![(0, true)],
            "hottest entry exported first"
        );

        let budgeted = cache.export_snapshot(Some(per_entry), dataset_fingerprint(&hin), &hin);
        assert_eq!(budgeted.len(), 1, "budget admits exactly one entry");
        assert_eq!(budgeted.keys()[0], vec![(0, true)]);

        assert!(cache
            .export_snapshot(Some(0), dataset_fingerprint(&hin), &hin)
            .is_empty());
    }

    #[test]
    fn container_round_trips_and_rejects_corruption() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(1, true), (1, false)], pa_matrix(&hin));
        let snap = export(&cache, &hin);

        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let back = CacheSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.len(), snap.len());
        assert_eq!(back.keys(), snap.keys());
        assert_eq!(back.bytes(), snap.bytes());

        // wrong magic
        let mut bad = bytes.clone();
        bad[0] = b'Z';
        assert!(matches!(
            CacheSnapshot::from_bytes(&bad),
            Err(CodecError::BadMagic { .. })
        ));
        // truncation anywhere is an error, never a panic
        for cut in 0..bytes.len() {
            assert!(CacheSnapshot::from_bytes(&bytes[..cut]).is_err());
        }
        // a bit flip anywhere is caught by whatever covers that byte: the
        // seal or the zero-padding rule at mount, an entry checksum before
        // the entry is served
        let (_, heap_off) = layout(&bytes);
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x10;
            if pos < heap_off {
                assert!(CacheSnapshot::from_bytes(&flipped).is_err(), "byte {pos}");
            }
            assert_never_served(&flipped, &snap, &hin, &format!("flip at byte {pos}"));
        }
    }

    #[test]
    fn v2_restore_is_view_backed_and_shares_one_arena() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(0, false)], pa_matrix(&hin));
        cache.put(vec![(1, true), (1, false)], pa_matrix(&hin));
        let snap = export(&cache, &hin);
        assert_eq!(snap.view_backed(), 0, "live exports carry owned matrices");

        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let decodes_before = hin_linalg::arena::heap_decodes();
        let back = CacheSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.keys(), snap.keys());
        if hin_linalg::arena::ZERO_COPY {
            assert_eq!(back.view_backed(), back.len(), "every entry is a view");
            assert_eq!(back.arena_count(), 1, "all views alias one buffer");
            // process-wide, but on a zero-copy host nothing moves it
            assert_eq!(
                hin_linalg::arena::heap_decodes(),
                decodes_before,
                "mounting an image performs zero per-matrix heap decodes"
            );
        }
        // content identity regardless of backing
        for (a, b) in snap.entries.iter().zip(&back.entries) {
            assert_eq!(*a.matrix, *b.matrix);
        }
        // and the import report says so
        let dst = MatrixCache::default();
        let report = import(&dst, &back, &hin);
        assert_eq!(report.loaded, 3);
        if hin_linalg::arena::ZERO_COPY {
            assert_eq!(report.view_backed, 3);
            assert_eq!(dst.stats().warm_view_backed, 3);
        }
    }

    #[test]
    fn v2_encoding_is_deterministic() {
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        let snap = export(&cache, &hin);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        snap.to_writer(&mut a).unwrap();
        snap.to_writer(&mut b).unwrap();
        assert_eq!(a, b);
        assert_eq!(&a[0..4], b"HSNP");
        assert_eq!(a.len() % 8, 0, "images are whole words");
    }

    #[test]
    fn hostile_v2_directories_are_rejected() {
        // the name is the floor's; the container is version 4 now and the
        // directory is under the seal, so every case below re-seals its
        // tampering: only the structural checks stand
        let hin = bib();
        let bytes = two_span_snapshot(&hin).to_bytes();
        let (dir_off, heap_off) = layout(&bytes);
        let put = |image: &mut [u8], off: usize, v: u64| {
            image[off..off + 8].copy_from_slice(&v.to_le_bytes());
        };
        let malformed = |image: &[u8], what: &str| {
            assert!(
                matches!(
                    CacheSnapshot::from_bytes(image),
                    Err(CodecError::Malformed(_))
                ),
                "{what}"
            );
        };

        // indptr_off steered outside the heap (into the superheader)
        let mut hostile = bytes.clone();
        put(&mut hostile, dir_off + 24, 8);
        reseal(&mut hostile);
        malformed(&hostile, "indptr_off = 8");

        // nnz inflated so the arrays overrun the heap
        let mut hostile = bytes.clone();
        put(&mut hostile, dir_off + 16, u64::MAX);
        reseal(&mut hostile);
        assert!(CacheSnapshot::from_bytes(&hostile).is_err());

        // a gap: the second entry's arrays start one word late, leaving
        // eight heap bytes that no checksum covers
        let mut hostile = bytes.clone();
        hostile.extend_from_slice(&[0; 8]);
        for field in [24, 32, 40] {
            let off = dir_off + DIR_ENTRY + field;
            let was = u64::from_le_bytes(hostile[off..off + 8].try_into().unwrap());
            put(&mut hostile, off, was + 8);
        }
        let file_len = hostile.len() as u64;
        put(&mut hostile, 48, file_len);
        reseal(&mut hostile);
        malformed(&hostile, "a gap in the heap");

        // a spare word after the last entry
        let mut hostile = bytes.clone();
        hostile.extend_from_slice(&[0; 8]);
        put(&mut hostile, 48, file_len);
        reseal(&mut hostile);
        malformed(&hostile, "heap longer than its entries");

        // non-zero padding after an odd-nnz index array: covered by
        // neither the seal nor an entry checksum, so it must be zero
        let odd = (0..2)
            .map(|i| dir_off + i * DIR_ENTRY)
            .find(|d| bytes[d + 16] % 2 == 1)
            .expect("published_in has three entries");
        let indices_off = u64::from_le_bytes(bytes[odd + 32..odd + 40].try_into().unwrap());
        let nnz = u64::from_le_bytes(bytes[odd + 16..odd + 24].try_into().unwrap());
        let mut hostile = bytes.clone();
        hostile[(indices_off + nnz * 4) as usize + 1] = 0x80;
        malformed(&hostile, "non-zero index padding");

        // unknown flag bits (bit 1 is the per-entry-checksum flag, legal)
        let mut hostile = bytes.clone();
        hostile[8] |= 0x04;
        reseal(&mut hostile);
        malformed(&hostile, "unknown flag bit");

        // the per-entry-checksum bit cleared: payload words nothing would
        // ever verify, so every entry point refuses it
        let mut hostile = bytes.clone();
        hostile[8] &= !(FLAG_ENTRY_CHECKSUMS as u8);
        reseal(&mut hostile);
        let dir = scratch_dir("noentryck");
        for (entry, result) in every_entry_point(&dir, &hostile) {
            assert!(matches!(result, Err(CodecError::Malformed(_))), "{entry}");
        }
        std::fs::remove_dir_all(&dir).ok();

        // a heap offset past the end of the image, or inside the header
        for lie in [bytes.len() as u64 + 8, 8] {
            let mut hostile = bytes.clone();
            put(&mut hostile, 40, lie);
            malformed(&hostile, "heap_off out of range");
        }

        // file_len overstated beyond anything a machine holds: held against
        // the bytes that arrived, never allocated for
        let mut hostile = bytes.clone();
        put(&mut hostile, 48, u64::MAX / 2);
        malformed(&hostile, "file_len overstated");

        // file_len understated: the image no longer tiles
        let mut hostile = bytes.clone();
        put(&mut hostile, 48, (bytes.len() - 8) as u64);
        reseal(&mut hostile);
        assert!(CacheSnapshot::from_bytes(&hostile).is_err());
        assert!(heap_off < bytes.len());
    }

    /// [`two_span_snapshot`] plus a factored span's ranked rows of both
    /// kinds, taken through a row memo: paper→venue→paper (3 × 3), PathSim
    /// rows for papers 0 and 1, count rows for paper 2.
    fn snapshot_with_rows(hin: &Hin) -> CacheSnapshot {
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(hin));
        cache.put(vec![(1, true)], pv_matrix(hin));
        let key: PathKey = vec![(1, true), (1, false)];
        let pathsim = Csr::from_triplets(3, 3, [(0, 1, 1.0), (0, 2, 0.5), (1, 0, 1.0)]);
        let counts = Csr::from_triplets(3, 3, [(2, 2, 1.0)]);
        assert_eq!(cache.memo_admit(&key, RowKind::PathSim, &pathsim), 2);
        assert_eq!(cache.memo_admit(&key, RowKind::Count, &counts), 1);
        export(&cache, hin)
    }

    #[test]
    fn ranked_rows_round_trip_through_every_entry_point() {
        let hin = bib();
        let snap = snapshot_with_rows(&hin);
        assert_eq!((snap.len(), snap.ranked_rows()), (2, 3));
        let image = snap.to_bytes();
        assert_eq!(u64::from_le_bytes(image[8..16].try_into().unwrap()), 7);
        // the matrices' part of the image is what it would be without rows
        let plain = two_span_snapshot(&hin).to_bytes();
        assert_eq!(u64::from_le_bytes(plain[8..16].try_into().unwrap()), 3);
        let dir = scratch_dir("rows");
        for (entry, result) in every_entry_point(&dir, &image) {
            let back = result.unwrap_or_else(|e| panic!("{entry}: {e}"));
            assert_eq!(back.keys(), snap.keys(), "{entry}");
            assert_eq!(back.ranked_rows(), 3, "{entry}");
            let cache = MatrixCache::default();
            let report = import(&cache, &back, &hin);
            assert_eq!(
                (report.loaded, report.ranked_rows, report.rejected),
                (2, 3, 0)
            );
            // rows come back best first, whatever order the image held
            let row = cache.memo_row(&[(1, true), (1, false)], Scoring::PathSim(0), 10);
            assert_eq!(row, Some(vec![(1, 1.0), (2, 0.5)]), "{entry}");
            let row = cache.memo_row(&[(1, true), (1, false)], Scoring::Count(2), 1);
            assert_eq!(row, Some(vec![(2, 1.0)]), "{entry}");
            assert_eq!(cache.stats().memo_rows, 3);
            // and out again, byte for byte
            assert_eq!(export(&cache, &hin).to_bytes(), image, "{entry}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_ranked_rows_entries_are_rejected() {
        let hin = bib();
        let image = snapshot_with_rows(&hin).to_bytes();
        let (dir_off, heap_off) = layout(&image);
        let dir = scratch_dir("hostile-rows");
        let refused = |image: &[u8], what: &str| {
            for (entry, result) in every_entry_point(&dir, image) {
                assert!(
                    matches!(
                        result,
                        Err(CodecError::Malformed(_) | CodecError::ChecksumMismatch { .. })
                    ),
                    "{what} via {entry}: {:?}",
                    result.map(|s| s.len())
                );
            }
        };
        // the key words of the four entries: two matrices, then two of rows
        let mut key_at = vec![HEADER];
        for _ in 0..3 {
            let at = *key_at.last().unwrap();
            let word = u32::from_le_bytes(image[at..at + 4].try_into().unwrap());
            key_at.push(at + 4 + (word & !(ROWS_PATHSIM | ROWS_COUNT)) as usize * 9);
        }
        let word = |image: &[u8], i: usize| {
            u32::from_le_bytes(image[key_at[i]..key_at[i] + 4].try_into().unwrap())
        };
        assert_eq!(word(&image, 2), 2 | ROWS_PATHSIM);
        assert_eq!(word(&image, 3), 2 | ROWS_COUNT);

        // a marker in an image whose flag bit 2 is clear
        let mut hostile = image.clone();
        hostile[8] &= !(FLAG_RANKED_ROWS as u8);
        reseal(&mut hostile);
        refused(&hostile, "marker without the flag");
        // the flag on an image that carries no rows
        let mut hostile = two_span_snapshot(&hin).to_bytes();
        hostile[8] |= FLAG_RANKED_ROWS as u8;
        reseal(&mut hostile);
        refused(&hostile, "flag without rows");
        // a marker that names no kind of entry: both bits, or a matrix key
        // with a stray high bit
        for (i, marker) in [(2, ROWS_PATHSIM | ROWS_COUNT), (0, 1 << 29)] {
            let mut hostile = image.clone();
            let was = word(&hostile, i);
            hostile[key_at[i]..key_at[i] + 4].copy_from_slice(&(was | marker).to_le_bytes());
            reseal(&mut hostile);
            refused(&hostile, &format!("marker {marker:#x} on entry {i}"));
        }
        // every byte of a rows entry: its key and directory under the seal,
        // its row offsets and ids under its structure checksum
        for i in 2..4 {
            let (indptr_off, data_off, indices_off, nnz) = heap_regions(&image, i);
            let padded_end = (indices_off + nnz * 4).next_multiple_of(8);
            let directory = dir_off + i * DIR_ENTRY..dir_off + (i + 1) * DIR_ENTRY;
            let key = key_at[i]..key_at[i] + 4 + 2 * 9;
            let structure = (indptr_off..data_off).chain(indices_off..padded_end);
            for pos in key.chain(directory).chain(structure) {
                let mut flipped = image.clone();
                flipped[pos] ^= 1 << (pos % 8);
                refused(&flipped, &format!("entry {i} byte {pos} flipped"));
            }
            // a flipped value mounts, and restore turns the whole entry away
            // before any of its rows is read
            for pos in (data_off..data_off + nnz * 8).step_by(8) {
                let mut flipped = image.clone();
                flipped[pos] ^= 0x01;
                for (entry, result) in every_entry_point(&dir, &flipped) {
                    let mounted = result.unwrap_or_else(|e| panic!("{entry}: {e}"));
                    let cache = MatrixCache::default();
                    let report = import(&cache, &mounted, &hin);
                    let kept = [2, 1][i - 2];
                    assert_eq!(report.rejected, 1, "entry {i} byte {pos} via {entry}");
                    assert_eq!(report.ranked_rows, 3 - kept, "entry {i} via {entry}");
                    assert_eq!(cache.stats().memo_rows, 3 - kept as usize);
                }
            }
        }
        assert!(heap_off < image.len());

        // wrong dimensions for the span: mounts (a mount knows no schema),
        // and restore rejects it
        let mut snap = snapshot_with_rows(&hin);
        let wide = Csr::from_triplets(3, 2, [(0, 1, 1.0)]);
        snap.rows[0].1 = Sealed {
            matrix: Arc::new(wide),
            checksum: Arc::default(),
            ..snap.rows[0].1.clone()
        };
        for (entry, result) in every_entry_point(&dir, &snap.to_bytes()) {
            let mounted = result.unwrap_or_else(|e| panic!("{entry}: {e}"));
            let report = import(&MatrixCache::default(), &mounted, &hin);
            assert_eq!((report.rejected, report.ranked_rows), (1, 1), "{entry}");
        }
        // a row longer than any ranked row: refused at mount
        let mut snap = snapshot_with_rows(&hin);
        let long = Csr::from_triplets(1, 12, (0..=DEFAULT_LIMIT as u32).map(|y| (0, y, 1.0)));
        snap.rows[1].1 = Sealed {
            matrix: Arc::new(long),
            checksum: Arc::default(),
            ..snap.rows[1].1.clone()
        };
        refused(&snap.to_bytes(), "a row of eleven pairs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_round_trip_takes_the_one_read_arena_path() {
        // the name is the floor's; the path is one *map* now
        let hin = bib();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(0, false)], pa_matrix(&hin));
        let snap = export(&cache, &hin);

        let dir = scratch_dir("arena");
        let path = dir.join("cache.hsnp");
        snap.write_to_file(&path).expect("write");
        let mapped_before = hin_linalg::arena::mapped_restores();
        let back = CacheSnapshot::open(&path).expect("open");
        assert_eq!(back.keys(), snap.keys());
        if hin_linalg::arena::ZERO_COPY {
            assert_eq!(back.view_backed(), back.len());
            assert_eq!(back.arena_count(), 1);
        }
        if cfg!(all(unix, target_pointer_width = "64")) {
            assert!(hin_linalg::arena::mapped_restores() > mapped_before);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapped_restore_matches_the_read_path_and_survives_corruption() {
        let hin = bib();
        let snap = two_span_snapshot(&hin);
        let dir = scratch_dir("mmap");
        let path = dir.join("cache.hsnp");
        snap.write_to_file(&path).expect("write");

        // a mapped file and a heap copy of its bytes mount identically,
        // and both leave every payload to the restore
        let good = std::fs::read(&path).unwrap();
        let read = CacheSnapshot::from_bytes(&good).expect("from_bytes");
        let mapped = CacheSnapshot::open(&path).expect("open");
        assert_eq!(mapped.keys(), read.keys());
        assert_eq!(mapped.bytes(), read.bytes());
        for (m, r) in mapped.entries.iter().zip(&read.entries) {
            assert_eq!(*m.matrix, *r.matrix);
            assert_eq!(m.checksum.get(), r.checksum.get());
            assert!(m.checksum.get().is_some() && !m.verified && !r.verified);
        }
        if hin_linalg::arena::ZERO_COPY {
            assert_eq!(mapped.view_backed(), mapped.len());
            assert_eq!(mapped.arena_count(), 1);
        }

        // a flipped payload bit mounts — mounting reads no value page —
        // and is rejected by the restore instead of served
        let (dir_off, _) = layout(&good);
        let data_off = u64::from_le_bytes(good[dir_off + 40..dir_off + 48].try_into().unwrap());
        let mut flipped = good.clone();
        flipped[data_off as usize + 2] ^= 0x40;
        let bad_path = dir.join("cache-bad.hsnp");
        std::fs::write(&bad_path, &flipped).unwrap();
        let bad = CacheSnapshot::open(&bad_path).expect("structure is intact");
        let cache = MatrixCache::default();
        assert_eq!(import(&cache, &bad, &hin).loaded, 1);
        assert_eq!(
            (
                cache.stats().restore_verified,
                cache.stats().restore_corrupt
            ),
            (1, 1)
        );
        // truncation and an empty file (which cannot be mapped at all)
        // error exactly as the same bytes do from memory
        for cut in [good.len() - 8, good.len() - 9, HEADER - 1, 0] {
            let trunc_path = dir.join("cache-trunc.hsnp");
            std::fs::write(&trunc_path, &good[..cut]).unwrap();
            let want = CacheSnapshot::from_bytes(&good[..cut]).expect_err("truncated");
            let got = CacheSnapshot::open(&trunc_path).expect_err("truncated");
            assert_eq!(got.to_string(), want.to_string(), "cut at {cut}");
        }
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
        let snap = export(&donor, &hin);
        assert_eq!(snap.len(), 4);

        let cache = MatrixCache::default();
        let report = import(&cache, &snap, &hin);
        assert_eq!(
            report,
            SnapshotImport {
                loaded: 1,
                rejected: 3,
                fingerprint_mismatch: false,
                view_backed: 0,
                ranked_rows: 0
            }
        );
        assert_eq!(cache.stats().warm_loaded, 1);
        assert_eq!(cache.stats().warm_rejected, 3);
        assert_eq!(cache.stats().len, 1);
        assert!(cache.get(&[(0, true)]).is_some());
        assert_eq!(cache.stats().misses, 0, "warm loads are not misses");
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
        let snap = export(&donor, &hin);

        // a destination that only fits one entry keeps the hottest one
        let cache = MatrixCache::new(CacheConfig {
            shards: 1,
            byte_budget: Some(per_entry),
        });
        let report = import(&cache, &snap, &hin);
        assert_eq!(report.loaded, 3, "all entries fit the schema");
        assert_eq!(
            cache.stats().len,
            1,
            "LRU enforces the budget during import"
        );
        assert!(cache.stats().bytes <= per_entry);
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
        let snap = cache.export_snapshot(None, fp, &hin);

        // the fingerprint survives the container round trip
        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let back = CacheSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.fingerprint(), fp);

        // matching fingerprint: entries load as usual
        let dst = MatrixCache::default();
        let ok = import(&dst, &back, &hin);
        assert_eq!(ok.loaded, 1);
        assert!(!ok.fingerprint_mismatch);

        // mismatched fingerprint: wholesale rejection, nothing admitted —
        // even though every entry would pass per-entry dim validation
        let stale = cache.export_snapshot(None, fp ^ 1, &hin);
        let dst = MatrixCache::default();
        let bad = import(&dst, &stale, &hin);
        assert!(bad.fingerprint_mismatch);
        assert_eq!((bad.loaded, bad.rejected), (0, 1));
        assert_eq!(dst.stats().len, 0);
        assert_eq!(dst.stats().warm_rejected, 1);
    }

    #[test]
    fn input_that_is_not_a_v2_image_is_one_typed_error_from_every_entry_point() {
        // the name is the floor's: "v2" there meant "the container this
        // build reads", which is version 4 now — and versions 2 and 3 join
        // version 1 among the inputs that are not it
        let v1_headed = [b"HSNP".as_slice(), &1u32.to_le_bytes(), &[0xA5; 93]].concat();
        let headed = |version: u32| {
            let mut image = two_span_snapshot(&bib()).to_bytes();
            image[4..8].copy_from_slice(&version.to_le_bytes());
            image
        };
        let (v2_image, v3_image) = (headed(2), headed(3));
        let mut anonymous = headed(SNAPSHOT_VERSION);
        anonymous[8] &= !(FLAG_FINGERPRINT as u8);
        reseal(&mut anonymous);
        let foreign = [b"HFRM".as_slice(), &[7; 96]].concat();
        let stub = [b"HSNP".as_slice(), &SNAPSHOT_VERSION.to_le_bytes()].concat();
        let dir = scratch_dir("nonv3");
        type Expect = fn(&CodecError) -> bool;
        let table: [(&str, &[u8], Expect); 7] = [
            ("v1-headed", &v1_headed, |e| {
                matches!(e, CodecError::UnsupportedVersion(1))
            }),
            ("v2-headed", &v2_image, |e| {
                matches!(e, CodecError::UnsupportedVersion(2))
            }),
            ("v3-headed", &v3_image, |e| {
                matches!(e, CodecError::UnsupportedVersion(3))
            }),
            (
                "foreign magic",
                &foreign,
                |e| matches!(e, CodecError::BadMagic { found } if found == b"HFRM"),
            ),
            ("no fingerprint", &anonymous, |e| {
                matches!(e, CodecError::Malformed(_))
            }),
            ("8-byte stub", &stub, |e| matches!(e, CodecError::Truncated)),
            ("empty", &[], |e| matches!(e, CodecError::Truncated)),
        ];
        for (what, bytes, expected) in table {
            for (entry, result) in every_entry_point(&dir, bytes) {
                let err = result.expect_err("not a v4 image");
                assert!(expected(&err), "{what} via {entry}: {err}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_and_image_bytes_are_frozen() {
        // Fingerprints live in checkpoint files and gate restores, so they
        // may not drift within a container version. Re-recorded at version
        // 4, which folds each relation as its dims plus one four-lane
        // digest of its arrays (version 3's was 0x5963_087b_b57f_9206).
        let hin = bib();
        let fp = dataset_fingerprint(&hin);
        assert_eq!(fp, 0x8497_55ef_4be2_2130);

        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        cache.put(vec![(1, true), (1, false)], pa_matrix(&hin));
        let snap = cache.export_snapshot(None, fp, &hin);
        let image = snap.to_bytes();
        let mut digest = Fnv64::new();
        digest.update(&image);
        // The image was re-recorded at container version 4: the version
        // word, the fingerprint and the seal changed, and each directory
        // entry grew from one payload checksum to a structure and a values
        // checksum — 376 bytes (version 3: 0x3684_9eac_340c_23f6) became
        // 392. Keys and heap are where and what they were.
        assert_eq!((image.len(), digest.finish()), (392, 0x307e_b6f1_9768_053c));
    }

    #[test]
    fn a_mapped_restore_proves_each_entry_at_import() {
        let hin = bib();
        let image = two_span_snapshot(&hin).to_bytes();

        // flip one bit inside entry 0's f64 payload: structurally
        // invisible, caught only by that entry's checksum
        let (dir_off, _) = layout(&image);
        let data_off =
            u64::from_le_bytes(image[dir_off + 40..dir_off + 48].try_into().unwrap()) as usize;
        let mut corrupt = image.clone();
        corrupt[data_off + 3] ^= 0x20;

        let dir = scratch_dir("importck");
        let path = dir.join("corrupt.hsnp");
        std::fs::write(&path, &corrupt).unwrap();

        // it mounts (metadata and structure are intact) with every entry
        // unproven, its directory checksum beside it
        let mounted = CacheSnapshot::open(&path).expect("mounts");
        assert!(mounted
            .entries
            .iter()
            .all(|e| !e.verified && e.checksum.get().is_some()));
        // the flipped byte lives in *directory entry 0*'s payload; the
        // export orders entries hottest-first, so resolve which cache key
        // that is from the parse rather than assuming
        let corrupt_key = mounted.entries[0].key.clone();
        let clean_key = mounted.entries[1].key.clone();
        let dst = MatrixCache::default();
        let hashes = ENTRY_CHECKSUM_CALLS.get();
        let report = import(&dst, &mounted, &hin);
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), hashes + 2, "one hash each");
        assert_eq!((report.loaded, report.rejected), (1, 1));
        assert_eq!(dst.stats().warm_rejected, 1);
        assert_eq!(
            (dst.stats().restore_verified, dst.stats().restore_corrupt),
            (1, 1)
        );

        // the corrupt entry never went in: a lookup is a plain miss
        assert_eq!(dst.peek_exact(&corrupt_key), None);
        assert!(dst.get(&corrupt_key).is_none());
        assert_eq!(dst.stats().len, 1);

        // the clean entry serves without hashing again
        let hashes = ENTRY_CHECKSUM_CALLS.get();
        assert!(dst.get(&clean_key).is_some());
        assert!(dst.get(&clean_key).is_some());
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), hashes);
        assert_eq!(dst.stats().restore_verified, 1);

        // an undamaged image proves every entry at import
        let good_path = dir.join("good.hsnp");
        std::fs::write(&good_path, &image).unwrap();
        let mounted = CacheSnapshot::open(&good_path).unwrap();
        let dst = MatrixCache::default();
        assert_eq!(import(&dst, &mounted, &hin).loaded, 2);
        let stats = dst.stats();
        assert_eq!((stats.restore_verified, stats.restore_corrupt), (2, 0));
        assert_eq!(stats.hits, 0, "proving is not a use");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bytes_round_trip_matches_the_writer() {
        let hin = bib();
        let fp = dataset_fingerprint(&hin);
        let snap = two_span_snapshot(&hin);

        let bytes = snap.to_bytes();
        let mut streamed = Vec::new();
        snap.to_writer(&mut streamed).unwrap();
        assert_eq!(bytes, streamed, "to_bytes is the writer's exact image");
        let dir = scratch_dir("bytes");
        let path = dir.join("cache.hsnp");
        snap.write_to_file(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "and the file's");
        std::fs::remove_dir_all(&dir).ok();

        let back = CacheSnapshot::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.keys(), snap.keys());
        assert_eq!(back.fingerprint(), fp);

        // the bytes crossed a network: damage is caught before it is
        // served, wherever it landed
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert_never_served(&flipped, &snap, &hin, "flip mid-image");
        assert!(CacheSnapshot::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(CacheSnapshot::from_bytes(&[]).is_err());
    }

    #[test]
    fn every_metadata_byte_is_sealed_on_every_entry_point() {
        let hin = bib();
        let snap = two_span_snapshot(&hin);
        let image = snap.to_bytes();
        let (_, heap_off) = layout(&image);
        let dir = scratch_dir("sealed");
        for pos in 0..heap_off {
            let mut flipped = image.clone();
            flipped[pos] ^= 1 << (pos % 8);
            for (entry, result) in every_entry_point(&dir, &flipped) {
                assert!(result.is_err(), "byte {pos} flipped, mounted via {entry}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Entry `i`'s heap regions of a v4 image, from its directory entry:
    /// `(indptr_off, data_off, indices_off, nnz)`.
    fn heap_regions(image: &[u8], i: usize) -> (usize, usize, usize, usize) {
        let (dir_off, _) = layout(image);
        let at = |off: usize| {
            let d = dir_off + i * DIR_ENTRY + off;
            u64::from_le_bytes(image[d..d + 8].try_into().unwrap()) as usize
        };
        (at(24), at(40), at(32), at(16))
    }

    #[test]
    fn every_structure_byte_is_proved_at_mount_on_every_entry_point() {
        let hin = bib();
        let snap = two_span_snapshot(&hin);
        let image = snap.to_bytes();
        let dir = scratch_dir("structure");
        let mut flipped_bytes = 0;
        for i in 0..snap.len() {
            // the row offsets, then the indices and their zero padding: all
            // of the entry's heap except its values
            let (indptr_off, data_off, indices_off, nnz) = heap_regions(&image, i);
            let padded_end = (indices_off + nnz * 4).next_multiple_of(8);
            for pos in (indptr_off..data_off).chain(indices_off..padded_end) {
                let mut flipped = image.clone();
                flipped[pos] ^= 1 << (pos % 8);
                for (entry, result) in every_entry_point(&dir, &flipped) {
                    assert!(
                        matches!(
                            result,
                            Err(CodecError::ChecksumMismatch { .. } | CodecError::Malformed(_))
                        ),
                        "entry {i} byte {pos} flipped, via {entry}: {:?}",
                        result.map(|s| s.len())
                    );
                }
                flipped_bytes += 1;
            }
        }
        assert!(flipped_bytes >= 2 * 4 * 8, "{flipped_bytes}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn value_flips_mount_and_cost_exactly_the_touched_entry() {
        let hin = Arc::new(bib());
        let queries = [
            "pathsim author-paper-author from a0",
            "pathsim author-paper-venue-paper-author from a1",
            "pathcount author-paper-venue from a2",
            "rank venue-paper-author limit 5",
        ];
        let reference = crate::Engine::from_arc(Arc::clone(&hin));
        let want: Vec<_> = queries
            .iter()
            .map(|q| reference.execute(q).unwrap())
            .collect();
        let donor = crate::Engine::with_config(
            Arc::clone(&hin),
            CacheConfig::default(),
            crate::ExecPolicy::promote_after(0),
        );
        for q in queries {
            donor.execute(q).unwrap();
        }
        let snap = donor.snapshot(None);
        let image = snap.to_bytes();
        let dir = scratch_dir("values");
        let mut flips = 0;
        for i in 0..snap.len() {
            let (_, data_off, _, nnz) = heap_regions(&image, i);
            for pos in (data_off..data_off + nnz * 8).step_by(8) {
                let mut flipped = image.clone();
                flipped[pos] ^= 0x01;
                for (entry, result) in every_entry_point(&dir, &flipped) {
                    assert!(result.is_ok(), "entry {i} byte {pos}, via {entry}");
                }
                let mounted = CacheSnapshot::from_bytes(&flipped).unwrap();
                let engine = crate::Engine::from_arc(Arc::clone(&hin));
                let report = engine.restore(&mounted);
                assert_eq!(
                    (report.loaded as usize + 1, report.rejected),
                    (snap.len(), 1),
                    "entry {i} byte {pos}"
                );
                let cache = engine.cache();
                assert_eq!(cache.stats().restore_corrupt, 1, "entry {i} byte {pos}");
                let left = export(cache, &hin).keys();
                assert_eq!(left.len() + 1, snap.len());
                assert!(
                    !left.contains(&mounted.entries[i].key),
                    "entry {i} rejected"
                );
                for (q, want) in queries.iter().zip(&want) {
                    assert_eq!(engine.execute(q).unwrap(), *want, "{q} [byte {pos}]");
                }
                flips += 1;
            }
        }
        assert!(flips >= snap.len(), "{flips}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_restore_hashes_each_mounted_entry_s_values_once_and_nothing_else() {
        let hin = bib();
        let image = two_span_snapshot(&hin).to_bytes();
        let (values, structure) = (ENTRY_CHECKSUM_CALLS.get(), STRUCTURE_HASHES.get());
        let mounted = CacheSnapshot::from_bytes(&image).unwrap();
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), values, "a mount reads no value");
        let cache = MatrixCache::default();
        assert_eq!(import(&cache, &mounted, &hin).loaded, 2);
        assert_eq!(cache.stats().restore_verified, 2);
        // one `data` hash per mounted entry; the row offsets and indices,
        // proved by the mount, are not hashed again
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), values + 2);
        assert_eq!(STRUCTURE_HASHES.get(), structure);
        // and an export of what was mounted hashes nothing at all
        assert_eq!(export(&cache, &hin).to_bytes().len(), image.len());
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), values + 2);
        assert_eq!(STRUCTURE_HASHES.get(), structure);
    }

    #[test]
    fn a_flipped_relation_id_that_still_fits_the_schema_does_not_mount() {
        // two relations over the same type pair, so their matrices have the
        // same shape: one flipped bit in a key's relation id files
        // written_by's matrix under reviewed_by, and every dimension check
        // at import still passes. Before the seal a mapped restore mounted
        // exactly this and served one span's matrix under another's key.
        let mut b = HinBuilder::new();
        let paper = b.add_type("paper");
        let author = b.add_type("author");
        let written = b.add_relation("written_by", paper, author);
        let reviewed = b.add_relation("reviewed_by", paper, author);
        for (p, a) in [("p0", "a0"), ("p0", "a1"), ("p1", "a1")] {
            b.link(written, p, a, 1.0).unwrap();
        }
        for (p, a) in [("p0", "a1"), ("p1", "a0")] {
            b.link(reviewed, p, a, 1.0).unwrap();
        }
        let hin = b.build();
        let cache = MatrixCache::default();
        cache.put(vec![(0, true)], pa_matrix(&hin));
        let image = export(&cache, &hin).to_bytes();

        // key 0 starts at 64: key_len u32, then (relation id u64, dir u8)
        let mut rekeyed = image.clone();
        rekeyed[HEADER + 4] ^= 1;
        let dir = scratch_dir("rekeyed");
        for (entry, result) in every_entry_point(&dir, &rekeyed) {
            assert!(
                matches!(result, Err(CodecError::ChecksumMismatch { .. })),
                "relation id flipped, mounted via {entry}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();

        // what the seal stands in front of: with it recomputed the re-keyed
        // image is well-formed, and import admits the wrong matrix
        reseal(&mut rekeyed);
        let wrong = CacheSnapshot::from_bytes(&rekeyed).expect("well-formed");
        assert_eq!(wrong.keys(), vec![vec![(1, true)]]);
        let dst = MatrixCache::default();
        assert_eq!(import(&dst, &wrong, &hin).loaded, 1);
        assert_ne!(*dst.get(&[(1, true)]).unwrap(), hin.relation(reviewed).fwd);
    }

    #[test]
    fn a_restored_snapshot_exports_byte_identically_and_hashes_nothing() {
        let hin = bib();
        let snap = two_span_snapshot(&hin);
        let dir = scratch_dir("reexport");
        let (first, second, third) = (dir.join("1"), dir.join("2"), dir.join("3"));

        // a live cache's first export hashes each product once…
        let hashes = ENTRY_CHECKSUM_CALLS.get();
        snap.write_to_file(&first).unwrap();
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), hashes + 2);
        // …and remembers: the cells are the cache entries' own
        snap.write_to_file(&second).unwrap();
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), hashes + 2);

        // mounted, an entry knows its checksum from the directory: the
        // image exports again byte for byte with nothing hashed, straight
        // off the snapshot or through a cache and back out; only the
        // restore in between hashes each entry's values, once
        let hashes = ENTRY_CHECKSUM_CALLS.get();
        let mounted = CacheSnapshot::open(&first).expect("open");
        mounted.write_to_file(&second).unwrap();
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), hashes, "nothing was re-hashed");
        let cache = MatrixCache::default();
        assert_eq!(import(&cache, &mounted, &hin).loaded, 2);
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), hashes + 2, "the restore proves");
        let again = export(&cache, &hin);
        again.write_to_file(&third).unwrap();
        assert_eq!(
            ENTRY_CHECKSUM_CALLS.get(),
            hashes + 2,
            "the export does not"
        );
        let image = std::fs::read(&first).unwrap();
        assert_eq!(std::fs::read(&second).unwrap(), image);
        assert_eq!(std::fs::read(&third).unwrap(), image);

        // what a cache holds was proved, so an in-process hand-off of it
        // is not hashed again
        assert!(again.entries.iter().all(|e| e.verified));
        let next = MatrixCache::default();
        let hashes = ENTRY_CHECKSUM_CALLS.get();
        assert_eq!(import(&next, &again, &hin).loaded, 2);
        assert!(next.get(&[(0, true)]).is_some());
        assert_eq!(ENTRY_CHECKSUM_CALLS.get(), hashes);
        assert_eq!(next.stats().restore_verified, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_snapshot_round_trips_and_imports_cleanly() {
        let hin = bib();
        let snap = export(&MatrixCache::default(), &hin);
        let mut bytes = Vec::new();
        snap.to_writer(&mut bytes).expect("vec writes cannot fail");
        let back = CacheSnapshot::from_bytes(&bytes).expect("empty container");
        assert!(back.is_empty());
        let cache = MatrixCache::default();
        let report = import(&cache, &back, &hin);
        assert_eq!(report, SnapshotImport::default());
    }
}
