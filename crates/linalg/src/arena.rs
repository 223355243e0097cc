//! Shared, aligned arena buffers backing zero-copy [`Csr`] views.
//!
//! A snapshot file is laid out as a directory of entry headers plus one
//! 8-byte-aligned data heap. The whole image becomes a single [`ArenaBuf`]
//! — mapped where the platform allows, read otherwise — and every restored
//! matrix is a [`Csr`] *view* into that one shared buffer
//! ([`Csr::from_arena`]): no per-matrix heap decode, no copies. The other
//! direction is as direct: [`Csr::write_arena_payload`] hands a matrix's
//! three arrays to a writer in exactly the heap's encoding, in place where
//! memory already *is* that encoding, so an export moves each byte once.
//!
//! # Alignment and portability
//!
//! The on-disk heap stores `indptr` as `u64` LE, `indices` as `u32` LE and
//! `data` as `f64` LE bit patterns at 8-byte-aligned offsets. [`ArenaBuf`]
//! is backed by a `u64` allocation, so its base is always 8-byte aligned
//! and an aligned offset within it can be reinterpreted as `&[u64]`,
//! `&[u32]` or `&[f64]` directly. Interpreting the stored `u64` row
//! offsets as in-memory `usize` additionally requires a little-endian
//! 64-bit host ([`ZERO_COPY`]); on any other target [`Csr::from_arena`]
//! transparently falls back to decoding an owned copy, and
//! [`Csr::write_arena_payload`] to converting in bounded chunks — same
//! matrices, same bytes, same API, just without the sharing.
//!
//! # Heap vs mapped backing
//!
//! An [`ArenaBuf`] owns its bytes one of two ways: a **heap** allocation
//! (`Box<[u64]>`, filled by a read) or a **memory-mapped file region**
//! ([`ArenaBuf::map_file`], direct `mmap` against the platform libc on
//! 64-bit unix). Both satisfy the same contracts — 8-byte-aligned base
//! (`mmap` returns page-aligned addresses), identical [`ArenaBuf::as_bytes`]
//! access — so everything downstream of the `Arc<ArenaBuf>` seam
//! ([`Csr::from_arena`], the snapshot parser) is backing-oblivious. A
//! mapped arena is read-only and **demand-paged**: no byte of the file is
//! copied or even faulted in
//! until a kernel actually dereferences it, which is what lets a restored
//! snapshot exceed physical RAM — the kernel pages matrix data in and out
//! as queries touch it. The region is unmapped when the last view into it
//! drops.
//!
//! # Storage stats
//!
//! Process-wide counters record how matrices were materialized from
//! persistence: [`view_restores`] (zero-copy views handed out),
//! [`heap_decodes`] (owned decodes — non-[`ZERO_COPY`] hosts only),
//! [`mapped_restores`] (files mapped via
//! [`ArenaBuf::map_file`]), and the live gauges [`arena_bytes`]
//! (heap-backed arena bytes resident) and [`arena_mapped_bytes`] (bytes of
//! file-backed mappings live — address-space reservation, *not* resident
//! heap) — each decremented when the last view into a buffer drops. They
//! are global: tests assert deltas, never absolute values, and the serving
//! layer exposes them as metrics.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::codec::{CodecError, Fnv64x4};
use crate::csr::Csr;

/// `true` when this target can reinterpret the arena heap in place:
/// little-endian, 64-bit (so the stored `u64` row offsets *are* `usize`).
/// When `false`, [`Csr::from_arena`] decodes owned copies instead.
pub const ZERO_COPY: bool = cfg!(all(target_endian = "little", target_pointer_width = "64"));

static ARENA_HEAP_BYTES: AtomicU64 = AtomicU64::new(0);
static ARENA_MAPPED_BYTES: AtomicU64 = AtomicU64::new(0);
static VIEW_RESTORES: AtomicU64 = AtomicU64::new(0);
static HEAP_DECODES: AtomicU64 = AtomicU64::new(0);
static MAPPED_RESTORES: AtomicU64 = AtomicU64::new(0);

/// Live gauge: bytes of **heap-backed** [`ArenaBuf`] allocations currently
/// resident in this process (snapshot arenas kept alive by the views into
/// them). Memory-mapped arenas are deliberately *not* counted here — a
/// mapping reserves address space, not heap; see [`arena_mapped_bytes`].
pub fn arena_bytes() -> u64 {
    ARENA_HEAP_BYTES.load(Ordering::Relaxed)
}

/// Live gauge: bytes of file-backed [`ArenaBuf`] mappings currently live
/// ([`ArenaBuf::map_file`]). This is mapped length — the address-space
/// reservation — not resident set size: the kernel pages the file in and
/// out on demand, so actual memory use can be far smaller.
pub fn arena_mapped_bytes() -> u64 {
    ARENA_MAPPED_BYTES.load(Ordering::Relaxed)
}

/// Cumulative count of matrices restored as zero-copy arena views.
pub fn view_restores() -> u64 {
    VIEW_RESTORES.load(Ordering::Relaxed)
}

/// Cumulative count of matrices decoded from persistence into owned
/// heap storage: an arena restore on a non-[`ZERO_COPY`] host. Stays 0 on
/// a zero-copy host.
pub fn heap_decodes() -> u64 {
    HEAP_DECODES.load(Ordering::Relaxed)
}

/// Cumulative count of snapshot files successfully memory-mapped
/// ([`ArenaBuf::map_file`]).
pub fn mapped_restores() -> u64 {
    MAPPED_RESTORES.load(Ordering::Relaxed)
}

pub(crate) fn note_heap_decode() {
    HEAP_DECODES.fetch_add(1, Ordering::Relaxed);
}

/// Minimal `mmap`/`munmap` FFI against the platform libc — no crates.io
/// dependency. Gated to 64-bit unix: the constants below are shared by
/// Linux, macOS and the BSDs, and a 64-bit `usize` matches `size_t` while
/// `i64` matches `off_t` (32-bit targets may use a 32-bit `off_t`, so they
/// take the portable read path instead).
#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    /// Pages are readable.
    pub const PROT_READ: i32 = 1;
    /// Private copy-on-write mapping (never written: the arena is
    /// immutable, so no page is ever actually copied).
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// `MAP_FAILED`: `(void*)-1`.
    pub fn failed(ptr: *mut c_void) -> bool {
        ptr as isize == -1
    }
}

/// A live read-only file mapping: base pointer plus the exact length
/// passed to `mmap` (what `munmap` must be given back).
#[cfg(all(unix, target_pointer_width = "64"))]
struct MappedRegion {
    ptr: *const u8,
    map_len: usize,
}

// SAFETY: `ptr` addresses a PROT_READ mapping that lives exactly as long as
// this value and is never written through or handed out mutably, and
// `map_len` is a plain length. Moving the value to another thread moves
// only the right to unmap, which the mapping does not tie to a thread.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Send for MappedRegion {}
// SAFETY: as for `Send`: no method mutates `ptr`, `map_len` or the pages
// behind them, so `&MappedRegion` on many threads only ever reads.
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for MappedRegion {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for MappedRegion {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `map_len` are what a successful `mmap` returned
        // and was given, and this is the one `munmap` of that mapping: the
        // region is owned by its `ArenaBuf`, which drops once, after every
        // view holding its `Arc` is gone, so no slice into it outlives this.
        // A failing munmap leaks address space but cannot corrupt memory;
        // there is no good recovery, so the result is ignored.
        unsafe {
            sys::munmap(self.ptr as *mut std::ffi::c_void, self.map_len);
        }
        ARENA_MAPPED_BYTES.fetch_sub(self.map_len as u64, Ordering::Relaxed);
    }
}

/// How an [`ArenaBuf`]'s bytes are owned.
enum Backing {
    /// An owned `u64` allocation (always 8-byte aligned), filled by a read.
    Heap(Box<[u64]>),
    /// A read-only file mapping (page-aligned base), paged on demand.
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(MappedRegion),
}

/// An 8-byte-aligned, immutable-once-built byte buffer shared by every
/// view restored from one snapshot.
///
/// Heap-backed by a `u64` allocation (so the base address is always 8-byte
/// aligned regardless of the allocator's mood — the property that makes
/// reinterpreting aligned offsets as `&[f64]` / `&[u32]` / `&[usize]`
/// sound), or file-backed by a read-only `mmap` region
/// ([`ArenaBuf::map_file`], page-aligned and therefore more than 8-byte
/// aligned). Construction and drop maintain the [`arena_bytes`] /
/// [`arena_mapped_bytes`] gauges for their respective backings.
pub struct ArenaBuf {
    backing: Backing,
    /// Valid byte length (≤ the backing's capacity).
    len: usize,
}

impl std::fmt::Debug for ArenaBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaBuf")
            .field("len", &self.len)
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl ArenaBuf {
    /// A zeroed heap buffer of exactly `len` bytes, ready to be filled
    /// through [`ArenaBuf::as_mut_bytes`] (e.g. one `read_exact` of a
    /// whole snapshot file). `len` must come from a trusted source such as
    /// file metadata — this allocates eagerly.
    pub fn with_len(len: usize) -> ArenaBuf {
        let words = vec![0u64; len.div_ceil(8)].into_boxed_slice();
        ARENA_HEAP_BYTES.fetch_add(len as u64, Ordering::Relaxed);
        ArenaBuf {
            backing: Backing::Heap(words),
            len,
        }
    }

    /// Copy `bytes` into a fresh aligned heap buffer (one `memcpy`).
    pub fn from_bytes(bytes: &[u8]) -> ArenaBuf {
        let mut buf = ArenaBuf::with_len(bytes.len());
        buf.as_mut_bytes().copy_from_slice(bytes);
        buf
    }

    /// Memory-map `file` read-only as an arena buffer — the
    /// larger-than-RAM restore path. Nothing is read eagerly: pages fault
    /// in as views dereference them and the kernel evicts them under
    /// memory pressure, so the working set, not the file size, bounds
    /// resident memory. The mapping is released when the buffer (and every
    /// view holding its `Arc`) drops.
    ///
    /// Returns `Err` on non-64-bit-unix targets, for empty files (`mmap`
    /// rejects zero-length maps), and whenever the map call itself fails —
    /// callers fall back to the read path ([`ArenaBuf::with_len`] +
    /// `read_exact`), which yields bit-identical bytes.
    ///
    /// The file must not be truncated while mapped (accessing pages past a
    /// shrunken end raises `SIGBUS`) — the same trusted-source contract
    /// `with_len` places on its length argument. Checkpoint files are
    /// written to a temp sibling and atomically renamed, so a live
    /// snapshot file is never rewritten in place.
    #[cfg(all(unix, target_pointer_width = "64"))]
    pub fn map_file(file: &std::fs::File) -> std::io::Result<ArenaBuf> {
        use std::os::unix::io::AsRawFd;
        let len = usize::try_from(file.metadata()?.len())
            .map_err(|_| std::io::Error::other("file length exceeds usize"))?;
        if len == 0 {
            return Err(std::io::Error::other("cannot map an empty file"));
        }
        // SAFETY: a null address hint lets the kernel choose where; `len` is
        // the file's non-zero length; the descriptor is open for reading for
        // the duration of the call. A private read-only mapping aliases no
        // Rust object, and failure is checked below before `ptr` is used.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if sys::failed(ptr) {
            return Err(std::io::Error::last_os_error());
        }
        ARENA_MAPPED_BYTES.fetch_add(len as u64, Ordering::Relaxed);
        MAPPED_RESTORES.fetch_add(1, Ordering::Relaxed);
        Ok(ArenaBuf {
            backing: Backing::Mapped(MappedRegion {
                ptr: ptr as *const u8,
                map_len: len,
            }),
            len,
        })
    }

    /// [`ArenaBuf::map_file`] on targets without the mmap FFI: always
    /// `Err`, so callers uniformly fall back to the read path.
    #[cfg(not(all(unix, target_pointer_width = "64")))]
    pub fn map_file(_file: &std::fs::File) -> std::io::Result<ArenaBuf> {
        Err(std::io::Error::other(
            "memory-mapped arenas require a 64-bit unix target",
        ))
    }

    /// `true` when the buffer is a demand-paged file mapping rather than a
    /// heap allocation.
    pub fn is_mapped(&self) -> bool {
        match &self.backing {
            Backing::Heap(_) => false,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(_) => true,
        }
    }

    /// Valid bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn base(&self) -> *const u8 {
        match &self.backing {
            Backing::Heap(words) => words.as_ptr() as *const u8,
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(region) => region.ptr,
        }
    }

    /// The buffer's bytes (8-byte-aligned base on either backing).
    pub fn as_bytes(&self) -> &[u8] {
        // SAFETY: a heap backing holds `len.div_ceil(8)` initialized words,
        // so its first `len` bytes are initialized and in bounds, and `u8`
        // needs no alignment; a mapped backing is `len` bytes of PROT_READ
        // file contents. Either lives as long as `self`, and nothing writes
        // to it while this shared borrow does.
        unsafe { std::slice::from_raw_parts(self.base(), self.len) }
    }

    /// Mutable access for filling the buffer after [`ArenaBuf::with_len`].
    ///
    /// # Panics
    /// Panics on a mapped buffer — file mappings are read-only; fill a
    /// heap buffer instead.
    pub fn as_mut_bytes(&mut self) -> &mut [u8] {
        match &mut self.backing {
            // SAFETY: `len` bytes lie within the `len.div_ceil(8)` words the
            // box owns, every byte is initialized, and the `&mut self`
            // borrow makes this the only reference into them.
            Backing::Heap(words) => unsafe {
                std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, self.len)
            },
            #[cfg(all(unix, target_pointer_width = "64"))]
            Backing::Mapped(_) => panic!("ArenaBuf::as_mut_bytes: mapped arenas are read-only"),
        }
    }
}

impl Drop for ArenaBuf {
    fn drop(&mut self) {
        // Mapped regions decrement their own gauge in MappedRegion::drop.
        if let Backing::Heap(_) = &self.backing {
            ARENA_HEAP_BYTES.fetch_sub(self.len as u64, Ordering::Relaxed);
        }
    }
}

/// Where one matrix's arrays live inside an [`ArenaBuf`]: the decoded
/// form of one directory entry of the arena snapshot format. All offsets
/// are byte offsets from the buffer's base and must be 8-byte aligned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArenaEntry {
    /// Matrix rows.
    pub nrows: usize,
    /// Matrix columns.
    pub ncols: usize,
    /// Stored entries.
    pub nnz: usize,
    /// Byte offset of `(nrows + 1)` little-endian `u64` row offsets.
    pub indptr_off: usize,
    /// Byte offset of `nnz` little-endian `u32` column indices.
    pub indices_off: usize,
    /// Byte offset of `nnz` little-endian `f64` bit patterns.
    pub data_off: usize,
}

/// A window into a shared [`ArenaBuf`] serving as a [`Csr`]'s backing
/// storage.
///
/// Built only by [`Csr::from_arena`], and only on a [`ZERO_COPY`] host,
/// after `check_array` has proved each of the three arrays in bounds of
/// `buf` and 8-byte aligned: that is what the raw-pointer accessors below
/// rest on, and why both fields stay private to this module. A view
/// escapes `from_arena` only once its structure has also been validated
/// and hashed, so the slices it hands out are valid CSR arrays; its values
/// are proved later, against the snapshot's values checksum, before they
/// are served.
#[derive(Clone)]
pub(crate) struct ArenaView {
    buf: Arc<ArenaBuf>,
    entry: ArenaEntry,
}

impl ArenaView {
    #[inline]
    fn base(&self) -> *const u8 {
        self.buf.as_bytes().as_ptr()
    }

    /// Row offsets, reinterpreted in place.
    #[inline]
    pub(crate) fn indptr(&self) -> &[usize] {
        #[allow(clippy::assertions_on_constants)]
        {
            debug_assert!(ZERO_COPY);
        }
        // SAFETY: `from_arena` checked `(nrows + 1) × 8` bytes at
        // `indptr_off` to lie inside `buf` at an 8-byte-aligned offset from
        // an 8-byte-aligned base, and builds views only where `usize` is a
        // little-endian u64, so any initialized bytes there are valid
        // `usize`s. The `Arc` keeps `buf` alive and unwritten for as long as
        // `&self` lives.
        unsafe {
            std::slice::from_raw_parts(
                self.base().add(self.entry.indptr_off) as *const usize,
                self.entry.nrows + 1,
            )
        }
    }

    /// Column indices, reinterpreted in place.
    #[inline]
    pub(crate) fn indices(&self) -> &[u32] {
        // SAFETY: as for `indptr`: `nnz × 4` bytes at the checked, 8-byte
        // aligned `indices_off`, inside `buf`; every bit pattern is a `u32`.
        unsafe {
            std::slice::from_raw_parts(
                self.base().add(self.entry.indices_off) as *const u32,
                self.entry.nnz,
            )
        }
    }

    /// Values, reinterpreted in place.
    #[inline]
    pub(crate) fn data(&self) -> &[f64] {
        // SAFETY: as for `indptr`: `nnz × 8` bytes at the checked, 8-byte
        // aligned `data_off`, inside `buf`; every bit pattern is an `f64`.
        unsafe {
            std::slice::from_raw_parts(
                self.base().add(self.entry.data_off) as *const f64,
                self.entry.nnz,
            )
        }
    }

    /// Opaque identity of the backing buffer (pointer-derived): equal for
    /// views into the same arena.
    pub(crate) fn arena_id(&self) -> usize {
        Arc::as_ptr(&self.buf) as usize
    }
}

/// Bounds- and alignment-check one array of `count` elements of `elem`
/// bytes at byte offset `off`, returning its validated byte range.
fn check_array(
    buf_len: usize,
    field: &'static str,
    off: usize,
    count: usize,
    elem: usize,
) -> Result<(), CodecError> {
    if !off.is_multiple_of(8) {
        return Err(CodecError::Malformed(format!(
            "arena {field} offset {off} is not 8-byte aligned"
        )));
    }
    let bytes = count
        .checked_mul(elem)
        .and_then(|b| b.checked_add(off))
        .ok_or(CodecError::DimOverflow {
            field,
            value: count as u64,
        })?;
    if bytes > buf_len {
        return Err(CodecError::Malformed(format!(
            "arena {field} [{off}..{bytes}] exceeds buffer length {buf_len}"
        )));
    }
    Ok(())
}

impl Csr {
    /// Materialize one matrix out of a shared arena buffer, returning it
    /// with its *structure digest*: [`Fnv64x4`] over the `indptr` words,
    /// then the index words as the heap stores them
    /// ([`Fnv64x4::feed_u32`]).
    ///
    /// On a [`ZERO_COPY`] host this is allocation-free: the returned
    /// matrix is a *view* whose three arrays alias `buf` in place, and
    /// `buf` stays alive (via its `Arc`) as long as any view does. On
    /// other hosts the arrays are decoded into owned storage instead.
    ///
    /// Every structural invariant is validated before the matrix is
    /// handed out — offsets in bounds and 8-byte aligned, `indptr`
    /// starting at 0, non-decreasing and ending at `nnz`, column indices
    /// strictly increasing per row and `< ncols` — so a hostile or
    /// corrupt directory entry returns a typed [`CodecError`], never a
    /// panic and never a matrix other code could index out of bounds
    /// with. The digest is computed in that same pass, so the index array
    /// is read once: a caller holding a stored structure checksum proves
    /// the structure by comparing it, without reading it again. The
    /// `data` array is neither read nor hashed here.
    pub fn from_arena(buf: &Arc<ArenaBuf>, entry: ArenaEntry) -> Result<(Csr, u64), CodecError> {
        let len = buf.len();
        let indptr_len = entry.nrows.checked_add(1).ok_or(CodecError::DimOverflow {
            field: "nrows",
            value: entry.nrows as u64,
        })?;
        check_array(len, "indptr", entry.indptr_off, indptr_len, 8)?;
        check_array(len, "indices", entry.indices_off, entry.nnz, 4)?;
        check_array(len, "data", entry.data_off, entry.nnz, 8)?;

        let view = ArenaView {
            buf: Arc::clone(buf),
            entry,
        };
        if ZERO_COPY {
            // Validate through the view's own slices — the same bytes the
            // kernels will read.
            let digest = validate_csr(view.indptr(), view.indices(), entry.nnz, entry.ncols)?;
            VIEW_RESTORES.fetch_add(1, Ordering::Relaxed);
            Ok((Csr::from_arena_view(entry.nrows, entry.ncols, view), digest))
        } else {
            // Portable fallback: decode owned copies from the LE bytes.
            let bytes = buf.as_bytes();
            let indptr: Vec<usize> = bytes[entry.indptr_off..]
                .chunks_exact(8)
                .take(indptr_len)
                .map(|c| {
                    let v = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
                    usize::try_from(v).map_err(|_| CodecError::DimOverflow {
                        field: "indptr entry",
                        value: v,
                    })
                })
                .collect::<Result<_, _>>()?;
            let indices: Vec<u32> = bytes[entry.indices_off..]
                .chunks_exact(4)
                .take(entry.nnz)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
                .collect();
            let data: Vec<f64> = bytes[entry.data_off..]
                .chunks_exact(8)
                .take(entry.nnz)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                .collect();
            let digest = validate_csr(&indptr, &indices, entry.nnz, entry.ncols)?;
            note_heap_decode();
            let m = Csr::from_parts_unchecked(entry.nrows, entry.ncols, indptr, indices, data);
            Ok((m, digest))
        }
    }
}

/// The bytes of `elems` exactly as they sit in memory.
///
/// # Safety
///
/// `T` must be a primitive number type with no padding bytes (`usize`,
/// `u32` and `f64` here), so that every byte of the slice is initialized
/// and may be read as `u8`. The returned bytes are the arena heap's
/// encoding only on a [`ZERO_COPY`] host — little-endian, and 64-bit where
/// `T` is `usize` — and the caller must not use them as that encoding
/// anywhere else.
unsafe fn memory_bytes<T: Copy>(elems: &[T]) -> &[u8] {
    // SAFETY: the pointer and the byte length describe the very allocation
    // `elems` borrows; `u8` has alignment 1; the caller guarantees `T` has
    // no uninitialized bytes; the borrow's lifetime is carried over.
    unsafe { std::slice::from_raw_parts(elems.as_ptr().cast::<u8>(), std::mem::size_of_val(elems)) }
}

/// Elements converted per write by [`write_converted`]: a stack buffer of
/// at most 32 KiB, whatever the array's length.
const CONVERT_CHUNK: usize = 4096;

/// Write `elems` as consecutive `N`-byte little-endian values, converting
/// in bounded chunks — the encoding [`memory_bytes`] finds already in
/// memory on a [`ZERO_COPY`] host, produced here on any host.
fn write_converted<T: Copy, const N: usize, W: Write>(
    w: &mut W,
    elems: &[T],
    le_bytes: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    let mut buf = [[0u8; N]; CONVERT_CHUNK];
    for chunk in elems.chunks(CONVERT_CHUNK) {
        for (slot, &e) in buf.iter_mut().zip(chunk) {
            *slot = le_bytes(e);
        }
        w.write_all(buf[..chunk.len()].as_flattened())?;
    }
    Ok(())
}

impl Csr {
    /// Write the three arrays in the arena heap's encoding, back to back:
    /// `indptr` as `nrows + 1` little-endian `u64`s, `data` as `nnz`
    /// little-endian `f64` bit patterns, `indices` as `nnz` little-endian
    /// `u32`s zero-padded to a multiple of 8 bytes — the layout an
    /// [`ArenaEntry`] describes and [`Csr::from_arena`] mounts.
    ///
    /// On a [`ZERO_COPY`] host the arrays are handed to the writer in
    /// place, owned or view-backed alike: nothing is converted and nothing
    /// is staged. Elsewhere they are converted through a bounded stack
    /// buffer. Both produce the same bytes.
    pub fn write_arena_payload<W: Write>(&self, w: &mut W) -> io::Result<()> {
        if !ZERO_COPY {
            return self.write_arena_payload_portable(w);
        }
        let (indptr, indices, data) = self.parts();
        // SAFETY: `usize`, `f64` and `u32` are primitive numbers without
        // padding, and this branch runs only where `ZERO_COPY` holds, so
        // their memory representation is the heap's encoding.
        let arrays = unsafe {
            [
                memory_bytes(indptr),
                memory_bytes(data),
                memory_bytes(indices),
            ]
        };
        for bytes in arrays {
            w.write_all(bytes)?;
        }
        w.write_all(index_padding(self.nnz()))
    }

    /// [`Csr::write_arena_payload`] without the in-place shortcut: what a
    /// host that is not [`ZERO_COPY`] runs, compiled everywhere so its
    /// bytes can be held against the in-place ones on the hosts tests run
    /// on.
    fn write_arena_payload_portable<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let (indptr, indices, data) = self.parts();
        write_converted(w, indptr, |p| (p as u64).to_le_bytes())?;
        write_converted(w, data, |v| v.to_bits().to_le_bytes())?;
        write_converted(w, indices, u32::to_le_bytes)?;
        w.write_all(index_padding(self.nnz()))
    }
}

/// The zero bytes that round `nnz` 4-byte indices up to whole 8-byte
/// words: four after an odd count, none after an even one.
fn index_padding(nnz: usize) -> &'static [u8] {
    &[0u8; 4][..(nnz % 2) * 4]
}

/// Indices [`validate_csr`] hashes and checks per block: 32 KiB, small
/// enough that a block is still in the first-level cache when the rows
/// ending inside it are checked.
const VALIDATE_BLOCK: usize = 8 * 1024;

/// The CSR structural invariants [`Csr::from_arena`] enforces before a
/// matrix escapes, checked in the pass that computes the structure digest
/// it returns.
///
/// The index array is read once. It is walked in blocks of
/// [`VALIDATE_BLOCK`] indices; each block is hashed, then every row that
/// ends inside it is checked while the block is still in cache. A row
/// passes when its indices strictly increase — one branch-free fold — and
/// its last index is below `ncols`, which then bounds every other one. A
/// failing row is examined again to name its fault, so the first failing
/// row and the message are what a plain row-by-row check reports.
pub(crate) fn validate_csr(
    indptr: &[usize],
    indices: &[u32],
    nnz: usize,
    ncols: usize,
) -> Result<u64, CodecError> {
    if indptr.first() != Some(&0) {
        return Err(CodecError::Malformed("indptr[0] must be 0".to_string()));
    }
    if indptr.last() != Some(&nnz) {
        return Err(CodecError::Malformed(format!(
            "indptr[nrows] = {} but nnz = {nnz}",
            indptr.last().copied().unwrap_or(0)
        )));
    }
    if indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(CodecError::Malformed(
            "indptr must be non-decreasing".to_string(),
        ));
    }
    let mut digest = Fnv64x4::new();
    digest.feed(indptr, |p| p as u64);
    // first == 0, last == nnz and monotonicity bound every offset into
    // [0, nnz]; a row is sliced only once a block has reached its end, so
    // the slicing below cannot go out of bounds. Rows never reached are
    // empty ones after the last index (or every row, when nnz == 0).
    let (rows, mut row, mut end) = (indptr.len() - 1, 0, 0);
    for block in indices.chunks(VALIDATE_BLOCK) {
        digest.feed_u32(block);
        end += block.len();
        while row < rows && indptr[row + 1] <= end {
            let cols = &indices[indptr[row]..indptr[row + 1]];
            if !row_is_valid(cols, ncols) {
                return Err(row_fault(row, cols, ncols));
            }
            row += 1;
        }
    }
    Ok(digest.finish())
}

/// Strictly increasing, and the last index — hence every index — below
/// `ncols`. The fold has no early exit, so it compiles to straight-line
/// compares.
#[inline]
fn row_is_valid(cols: &[u32], ncols: usize) -> bool {
    let pairs = cols.iter().zip(cols.iter().skip(1));
    let increasing = pairs.fold(true, |ok, (a, b)| ok & (a < b));
    increasing && cols.last().is_none_or(|&c| (c as usize) < ncols)
}

/// What is wrong with a row [`row_is_valid`] refused: an index out of
/// range is named ahead of an order violation.
#[cold]
fn row_fault(row: usize, cols: &[u32], ncols: usize) -> CodecError {
    CodecError::Malformed(if cols.iter().any(|&c| (c as usize) >= ncols) {
        format!("row {row} holds a column index >= ncols ({ncols})")
    } else {
        format!("row {row} column indices are not strictly increasing")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-build an arena holding one matrix: [indptr | data | indices].
    fn arena_of(m: &Csr) -> (Arc<ArenaBuf>, ArenaEntry) {
        let (indptr, indices, data) = m.parts();
        let indptr_off = 0;
        let data_off = (indptr.len() * 8).next_multiple_of(8);
        let indices_off = data_off + data.len() * 8;
        let total = (indices_off + indices.len() * 4).next_multiple_of(8);
        let mut buf = ArenaBuf::with_len(total);
        {
            let bytes = buf.as_mut_bytes();
            for (i, &p) in indptr.iter().enumerate() {
                bytes[indptr_off + i * 8..indptr_off + i * 8 + 8]
                    .copy_from_slice(&(p as u64).to_le_bytes());
            }
            for (i, &v) in data.iter().enumerate() {
                bytes[data_off + i * 8..data_off + i * 8 + 8]
                    .copy_from_slice(&v.to_bits().to_le_bytes());
            }
            for (i, &c) in indices.iter().enumerate() {
                bytes[indices_off + i * 4..indices_off + i * 4 + 4]
                    .copy_from_slice(&c.to_le_bytes());
            }
        }
        (
            Arc::new(buf),
            ArenaEntry {
                nrows: m.nrows(),
                ncols: m.ncols(),
                nnz: m.nnz(),
                indptr_off,
                indices_off,
                data_off,
            },
        )
    }

    /// The arena gauges are process-wide: every test here that allocates or
    /// maps an arena holds this lock, so the exact deltas one test asserts
    /// never see a sibling's buffers come and go.
    fn gauges() -> std::sync::MutexGuard<'static, ()> {
        static GAUGES: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // a `should_panic` test poisons it; the guarded data is `()`
        GAUGES.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sample() -> Csr {
        Csr::from_triplets(3, 3, [(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)])
    }

    /// The row-by-row check the fused [`validate_csr`] replaced, kept as its
    /// oracle: the `indptr` rules, then per row the bound on every index,
    /// then the order — one full pass for each.
    fn two_pass_check(
        indptr: &[usize],
        indices: &[u32],
        nnz: usize,
        ncols: usize,
    ) -> Result<(), String> {
        if indptr.first() != Some(&0) {
            return Err("indptr[0] must be 0".to_string());
        }
        if indptr.last() != Some(&nnz) {
            let last = indptr.last().copied().unwrap_or(0);
            return Err(format!("indptr[nrows] = {last} but nnz = {nnz}"));
        }
        if indptr.windows(2).any(|w| w[0] > w[1]) {
            return Err("indptr must be non-decreasing".to_string());
        }
        for row in 0..indptr.len() - 1 {
            let cols = &indices[indptr[row]..indptr[row + 1]];
            if cols.iter().any(|&c| (c as usize) >= ncols) {
                return Err(format!("row {row} holds a column index >= ncols ({ncols})"));
            }
            if cols.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!(
                    "row {row} column indices are not strictly increasing"
                ));
            }
        }
        Ok(())
    }

    /// The structure digest from whole arrays: the row offsets, then every
    /// index, each fed in one call.
    fn two_pass_digest(m: &Csr) -> u64 {
        let (indptr, indices, _) = m.parts();
        let mut digest = Fnv64x4::new();
        digest.feed(indptr, |p| p as u64);
        digest.feed_u32(indices);
        digest.finish()
    }

    #[test]
    fn fused_validation_agrees_with_the_two_pass_check() {
        let mut state = 0x517c_c1b7_2722_0a95u64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound.max(1)
        };
        let (mut passed, mut failed, mut long_passed) = (0, 0, 0);
        for case in 0..600 {
            // one case in twenty has rows longer than a validation block
            let long = case % 20 == 0;
            let (nrows, ncols) = match long {
                true => (1 + next(5), 40_000),
                false => (next(24), 1 + next(40)),
            };
            let mut indptr = vec![0usize];
            let mut indices: Vec<u32> = Vec::new();
            for _ in 0..nrows {
                let len = if long {
                    next(2 * VALIDATE_BLOCK)
                } else {
                    next(13)
                };
                let mut col = next(3) as u32;
                for _ in 0..len {
                    indices.push(col);
                    col += 1 + next(3) as u32;
                }
                indptr.push(indices.len());
            }
            let nnz = indices.len();
            match next(10) {
                0 if nnz > 0 => indices[next(nnz)] = next(ncols + 2) as u32,
                1 if nnz > 1 => indices.swap(next(nnz - 1), next(nnz)),
                2 if nnz > 0 => indices[next(nnz)] = u32::MAX,
                3 if nnz > 1 => {
                    let i = 1 + next(nnz - 1);
                    indices[i] = indices[i - 1];
                }
                4 => {
                    let at = next(indptr.len());
                    indptr[at] = next(nnz + 2);
                }
                _ => {}
            }
            let want = two_pass_check(&indptr, &indices, nnz, ncols);
            match (want, validate_csr(&indptr, &indices, nnz, ncols)) {
                (Ok(()), Ok(digest)) => {
                    let m =
                        Csr::from_parts_unchecked(nrows, ncols, indptr, indices, vec![0.0; nnz]);
                    assert_eq!(digest, two_pass_digest(&m), "case {case}");
                    passed += 1;
                    long_passed += long as usize;
                }
                (Err(want), Err(CodecError::Malformed(got))) => {
                    assert_eq!(got, want, "case {case}");
                    failed += 1;
                }
                (want, got) => panic!("case {case}: oracle {want:?}, fused {got:?}"),
            }
        }
        assert!(
            passed > 100 && failed > 100 && long_passed > 5,
            "{passed} {failed} {long_passed}"
        );
    }

    #[test]
    fn view_equals_owned_and_shares_the_arena() {
        let _gauges = gauges();
        let m = sample();
        let (buf, entry) = arena_of(&m);
        let before = view_restores();
        let (v, _) = Csr::from_arena(&buf, entry).expect("valid arena entry");
        assert_eq!(v, m, "views compare equal to owned matrices by content");
        assert_eq!(v.nbytes(), m.nbytes(), "pricing is backing-independent");
        if ZERO_COPY {
            assert!(v.is_view());
            assert!(view_restores() > before);
            assert_eq!(v.arena_id(), Some(Arc::as_ptr(&buf) as usize));
            let (w, _) = Csr::from_arena(&buf, entry).expect("second view");
            assert_eq!(w.arena_id(), v.arena_id(), "one shared arena");
        }
    }

    #[test]
    fn arena_gauge_tracks_buffer_lifetime() {
        let _gauges = gauges();
        let m = sample();
        let (buf, entry) = arena_of(&m);
        let held = arena_bytes();
        let (v, _) = Csr::from_arena(&buf, entry).expect("valid");
        drop(buf);
        // the view keeps the arena alive
        assert_eq!(v.get(2, 1), 4.0);
        drop(v);
        assert!(
            arena_bytes() <= held,
            "dropping the last view releases the arena bytes"
        );
    }

    #[test]
    fn kernels_run_unchanged_on_views() {
        let _gauges = gauges();
        let m = sample();
        let (buf, entry) = arena_of(&m);
        let (v, _) = Csr::from_arena(&buf, entry).expect("valid");
        assert_eq!(v.spgemm(&v.transpose()), m.spgemm(&m.transpose()));
        assert_eq!(v.matvec(&[1.0, 2.0, 3.0]), m.matvec(&[1.0, 2.0, 3.0]));
        assert_eq!(v.row_sums(), m.row_sums());
    }

    #[test]
    fn mutation_promotes_a_view_to_owned() {
        let _gauges = gauges();
        let m = sample();
        let (buf, entry) = arena_of(&m);
        let (mut v, _) = Csr::from_arena(&buf, entry).expect("valid");
        v.scale(2.0);
        assert!(!v.is_view(), "copy-on-write promotion");
        assert_eq!(v.get(2, 1), 8.0);
        // the arena itself is untouched
        let (again, _) = Csr::from_arena(&buf, entry).expect("valid");
        assert_eq!(again.get(2, 1), 4.0);
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mapped_arena_views_match_heap_views_and_split_the_gauges() {
        let _gauges = gauges();
        let m = sample();
        let (heap, entry) = arena_of(&m);
        let path = std::env::temp_dir().join(format!(
            "hin-arena-map-{}-{}.bin",
            std::process::id(),
            heap.len()
        ));
        std::fs::write(&path, heap.as_bytes()).unwrap();

        let heap_before = arena_bytes();
        let mapped_before = arena_mapped_bytes();
        let restores_before = mapped_restores();
        let file = std::fs::File::open(&path).unwrap();
        let mapped = Arc::new(ArenaBuf::map_file(&file).expect("map"));
        assert!(mapped.is_mapped());
        assert!(!heap.is_mapped());
        assert_eq!(mapped.as_bytes(), heap.as_bytes(), "same bytes either way");
        assert_eq!(
            arena_bytes(),
            heap_before,
            "mapping must not count as heap arena bytes"
        );
        assert!(arena_mapped_bytes() >= mapped_before + mapped.len() as u64);
        assert!(mapped_restores() > restores_before);

        let (v, _) = Csr::from_arena(&mapped, entry).expect("valid mapped entry");
        assert_eq!(v, m, "mapped views equal owned matrices by content");
        if ZERO_COPY {
            assert!(v.is_view());
        }
        // the view keeps the mapping alive past the Arc
        drop(mapped);
        assert_eq!(v.get(2, 1), 4.0);
        drop(v);
        assert!(
            arena_mapped_bytes() <= mapped_before + heap.len() as u64,
            "dropping the last view unmaps the region"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mapping_an_empty_file_fails_cleanly() {
        let path = std::env::temp_dir().join(format!("hin-arena-empty-{}.bin", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let file = std::fs::File::open(&path).unwrap();
        assert!(ArenaBuf::map_file(&file).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    #[should_panic(expected = "read-only")]
    fn mutating_a_mapped_arena_panics() {
        let _gauges = gauges();
        let path = std::env::temp_dir().join(format!("hin-arena-ro-{}.bin", std::process::id()));
        std::fs::write(&path, [0u8; 16]).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let mut mapped = ArenaBuf::map_file(&file).expect("map");
        std::fs::remove_file(&path).ok();
        let _ = mapped.as_mut_bytes();
    }

    #[test]
    fn in_place_payload_bytes_equal_the_portable_twins_and_mount_back() {
        let _gauges = gauges();
        // a small LCG: shapes and fill vary, odd and even nnz both occur,
        // and the longest arrays span several conversion chunks
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        let (mut odd, mut longest) = (0, 0);
        for case in 0..40 {
            // case 0 is the one whose arrays outgrow a conversion chunk
            let (nrows, ncols, fill) = match case {
                0 => (64, 300, 2),
                _ => (1 + next(60) as u32, 1 + next(300) as u32, 6 + next(12)),
            };
            let triplets: Vec<(u32, u32, f64)> = (0..nrows)
                .flat_map(|r| (0..ncols).map(move |c| (r, c)))
                .filter(|_| next(fill) == 0)
                .map(|(r, c)| (r, c, (r * 31 + c) as f64 / 7.0 - 3.0))
                .collect();
            let m = Csr::from_triplets(nrows as usize, ncols as usize, triplets);
            odd += m.nnz() % 2;
            longest = longest.max(m.nnz());

            let (mut in_place, mut portable) = (Vec::new(), Vec::new());
            m.write_arena_payload(&mut in_place).unwrap();
            m.write_arena_payload_portable(&mut portable).unwrap();
            assert_eq!(in_place, portable, "case {case}: {nrows}×{ncols}");
            assert_eq!(in_place.len() % 8, 0, "whole words");

            // the bytes are the layout `from_arena` mounts — and a view
            // writes the same bytes as the owned matrix it came from
            let data_off = (m.nrows() + 1) * 8;
            let entry = ArenaEntry {
                nrows: m.nrows(),
                ncols: m.ncols(),
                nnz: m.nnz(),
                indptr_off: 0,
                data_off,
                indices_off: data_off + m.nnz() * 8,
            };
            let (view, digest) = Csr::from_arena(&Arc::new(ArenaBuf::from_bytes(&in_place)), entry)
                .expect("a written payload mounts");
            assert_eq!(view, m);
            assert_eq!(digest, two_pass_digest(&m), "case {case}: structure digest");
            let mut again = Vec::new();
            view.write_arena_payload(&mut again).unwrap();
            assert_eq!(again, in_place, "case {case}: view-backed export");
        }
        assert!(odd > 0 && odd < 40, "both paddings exercised: {odd}");
        assert!(longest > CONVERT_CHUNK, "a chunk boundary was crossed");
    }

    #[test]
    fn misaligned_and_out_of_bounds_offsets_are_rejected() {
        let _gauges = gauges();
        let m = sample();
        let (buf, entry) = arena_of(&m);
        for bad in [
            ArenaEntry {
                indptr_off: entry.indptr_off + 4, // misaligned
                ..entry
            },
            ArenaEntry {
                data_off: buf.len(), // data runs past the buffer
                ..entry
            },
            ArenaEntry {
                nnz: usize::MAX / 2, // length arithmetic must not overflow
                ..entry
            },
        ] {
            assert!(
                Csr::from_arena(&buf, bad).is_err(),
                "hostile entry {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn structural_invariants_are_enforced_on_view_construction() {
        let _gauges = gauges();
        let m = sample();
        // indptr not ending at nnz
        let (buf, entry) = arena_of(&m);
        let bad = ArenaEntry {
            nnz: m.nnz() - 1,
            ..entry
        };
        assert!(matches!(
            Csr::from_arena(&buf, bad),
            Err(CodecError::Malformed(_))
        ));
        // column index out of range: corrupt the indices array in place
        let (mut buf, entry) = {
            let (b, e) = arena_of(&m);
            (Arc::try_unwrap(b).expect("sole owner"), e)
        };
        buf.as_mut_bytes()[entry.indices_off] = 250;
        let buf = Arc::new(buf);
        assert!(matches!(
            Csr::from_arena(&buf, entry),
            Err(CodecError::Malformed(_))
        ));
    }
}
