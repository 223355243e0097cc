//! The checksummed byte-level building blocks the workspace's two binary
//! formats stand on: the wire frame ([`write_frame`] / [`read_frame`], or
//! [`encode_frame`] in place and [`frame_head`] / [`frame_payload`] over a
//! buffer already read) the cross-process serving transport exchanges, and
//! the pieces the cache snapshot container (`hin-query`'s `snapshot`
//! module) is assembled from — the typed [`CodecError`], the [`Fnv64`]
//! integrity hash and its four-lane word variant [`Fnv64x4`], and a
//! truncation-aware read.
//!
//! Decoders built on these are deliberately paranoid: corrupt, truncated,
//! or hostile input returns a typed [`CodecError`], never panics, and never
//! allocates according to an unvalidated length (payloads are read in
//! bounded chunks, so a header announcing 2³¹ bytes fails on the first
//! missing byte, not in the allocator).

use std::io::{self, Read, Write};

/// The most a frame body is sized ahead of the bytes read into it — the
/// bound that keeps a hostile length prefix from driving one giant
/// allocation.
const READ_CHUNK: usize = 64 * 1024;

/// Everything that can go wrong encoding or decoding a frame or a
/// snapshot container.
///
/// Decoding never panics: every malformed input maps to one of these.
#[derive(Debug)]
pub enum CodecError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The input does not start with its format's magic bytes.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The input's version is not one this build can decode.
    UnsupportedVersion(u32),
    /// The input ended before the header-announced payload did.
    Truncated,
    /// The stored checksum does not match the decoded bytes.
    ChecksumMismatch {
        /// Checksum recorded in the input.
        stored: u64,
        /// Checksum computed over the decoded bytes.
        computed: u64,
    },
    /// A header dimension does not fit this platform's `usize` (or
    /// overflows derived sizes such as `nrows + 1`).
    DimOverflow {
        /// Which header field overflowed.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
    /// The payload decoded but violates a CSR structural invariant.
    Malformed(String),
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic { found } => {
                // the variant is shared by every format built on this
                // codec (wire frames, snapshot containers), so the message
                // names only what was found
                write!(f, "bad magic bytes {found:?}")
            }
            CodecError::UnsupportedVersion(v) => {
                write!(f, "unsupported format version {v}")
            }
            CodecError::Truncated => write!(f, "input truncated mid-payload"),
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::DimOverflow { field, value } => {
                write!(
                    f,
                    "dimension overflow: {field} = {value} does not fit this platform"
                )
            }
            CodecError::Malformed(msg) => write!(f, "malformed CSR payload: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Incremental FNV-1a 64-bit checksum — the codec's integrity hash.
///
/// Not cryptographic; it detects corruption (bit flips, truncation mended
/// by zeros, interleaved writes), which is the failure mode snapshots on
/// local disks actually have.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// Absorb one little-endian `u64` *word* in a single mix step.
    ///
    /// This is the word-granular FNV variant the arena snapshot format
    /// seals its metadata with, and each lane of [`Fnv64x4`]: the format
    /// is 8-byte aligned end to end, so hashing per word instead of per
    /// byte makes integrity checking ~8× cheaper. Note the digest differs
    /// from [`Fnv64::update`] over the same bytes; the two are distinct
    /// hash domains and each format specifies which it uses.
    #[inline]
    pub fn update_word(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(Self::PRIME);
    }

    /// The digest over everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Four interleaved word-FNV lanes — the snapshot format's payload hash.
///
/// Word *i* of the stream goes to lane *i* mod 4, each lane a
/// [`Fnv64::update_word`] chain from its own seed. One FNV chain is a
/// serial multiply, bound by its latency; four independent chains keep the
/// multiplier busy, so hashing runs at the speed memory delivers words.
/// [`Fnv64x4::finish`] folds the four lanes and the word count through
/// [`Fnv64`].
///
/// The digest is a function of the word stream alone: it is the same
/// however the stream is cut into `feed` calls.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64x4 {
    lanes: [Fnv64; 4],
    /// Words absorbed so far; the next one goes to lane `words % 4`.
    words: u64,
}

impl Default for Fnv64x4 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64x4 {
    /// A fresh hasher, no words absorbed: lane *i* starts as [`Fnv64`]
    /// over the one word *i*.
    pub fn new() -> Self {
        let seed = |i| {
            let mut lane = Fnv64::new();
            lane.update_word(i);
            lane
        };
        Fnv64x4 {
            lanes: [seed(0), seed(1), seed(2), seed(3)],
            words: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, word: u64) {
        self.lanes[(self.words % 4) as usize].update_word(word);
        self.words += 1;
    }

    /// Absorb `words`, each built from `N` consecutive elements.
    #[inline(always)]
    fn absorb<T: Copy, const N: usize>(&mut self, words: &[[T; N]], word: impl Fn(&[T; N]) -> u64) {
        // one word at a time until the next word is lane 0's
        let head = words.len().min(((4 - self.words % 4) % 4) as usize);
        let (head, body) = words.split_at(head);
        for w in head {
            self.push(word(w));
        }
        let (blocks, tail) = body.as_chunks::<4>();
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for [w0, w1, w2, w3] in blocks {
            a.update_word(word(w0));
            b.update_word(word(w1));
            c.update_word(word(w2));
            d.update_word(word(w3));
        }
        self.lanes = [a, b, c, d];
        self.words += 4 * blocks.len() as u64;
        for w in tail {
            self.push(word(w));
        }
    }

    /// Absorb one word per element of `elems`, as `word` maps it — e.g.
    /// `f64::to_bits` for values, `|p| p as u64` for row offsets.
    #[inline]
    pub fn feed<T: Copy>(&mut self, elems: &[T], word: impl Fn(T) -> u64) {
        self.absorb(elems.as_chunks::<1>().0, |&[e]| word(e));
    }

    /// Absorb `indices` as the little-endian `u64` words an arena heap
    /// stores them in: consecutive pairs, the first in the low half, and an
    /// odd last index zero-padded to a word of its own.
    #[inline]
    pub fn feed_u32(&mut self, indices: &[u32]) {
        let (pairs, odd) = indices.as_chunks::<2>();
        self.absorb(pairs, |&[lo, hi]| u64::from(lo) | u64::from(hi) << 32);
        if let [last] = odd {
            self.push(u64::from(*last));
        }
    }

    /// The digest over every word absorbed so far.
    pub fn finish(&self) -> u64 {
        let mut hash = Fnv64::new();
        for lane in self.lanes {
            hash.update_word(lane.finish());
        }
        hash.update_word(self.words);
        hash.finish()
    }
}

/// `read_exact` with end-of-stream mapped to [`CodecError::Truncated`]: a
/// stream that ends early is a truncation, not an opaque i/o error.
pub fn read_exact_or_truncated<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<(), CodecError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CodecError::Truncated
        } else {
            CodecError::Io(e)
        }
    })
}

/// Magic bytes opening every wire frame.
pub const FRAME_MAGIC: [u8; 4] = *b"HFRM";

/// The frame layout version this build writes and reads.
pub const FRAME_VERSION: u8 = 2;

/// Bytes of a frame before its payload: magic, version, kind, length and
/// the header check word.
pub const FRAME_HEAD: usize = 18;

/// Bytes of a frame after its payload: the body checksum.
pub const FRAME_TAIL: usize = 8;

/// Default upper bound on a frame payload (1 GiB). Callers pass their own
/// cap to [`read_frame`]; this is the figure to reach for when one frame
/// may carry a whole snapshot image.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

/// The header check word: word-granular FNV over the head's first ten
/// bytes, read as two little-endian words (the second zero-padded).
fn head_check(head: &[u8; FRAME_HEAD]) -> u64 {
    let mut hash = Fnv64::new();
    hash.update_word(u64::from_le_bytes(head[..8].try_into().expect("8 bytes")));
    hash.update_word(u64::from(u16::from_le_bytes(
        head[8..10].try_into().expect("2 bytes"),
    )));
    hash.finish()
}

/// The body checksum: [`Fnv64x4`] over the head's check word, then the
/// payload's little-endian words, the last one zero-padded.
fn body_sum(head: &[u8; FRAME_HEAD], payload: &[u8]) -> u64 {
    let (_, check) = head.split_last_chunk::<8>().expect("8 bytes");
    let mut hash = Fnv64x4::new();
    hash.feed(&[*check], u64::from_le_bytes);
    let (words, tail) = payload.as_chunks::<8>();
    hash.feed(words, u64::from_le_bytes);
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        hash.feed(&[last], u64::from_le_bytes);
    }
    hash.finish()
}

/// The head of a `kind` frame with a `len`-byte payload.
fn frame_head_for(kind: u8, len: usize) -> Result<[u8; FRAME_HEAD], CodecError> {
    let len = u32::try_from(len).map_err(|_| CodecError::DimOverflow {
        field: "frame payload",
        value: len as u64,
    })?;
    let mut head = [0u8; FRAME_HEAD];
    head[..4].copy_from_slice(&FRAME_MAGIC);
    head[4] = FRAME_VERSION;
    head[5] = kind;
    head[6..10].copy_from_slice(&len.to_le_bytes());
    let check = head_check(&head);
    head[10..].copy_from_slice(&check.to_le_bytes());
    Ok(head)
}

/// Write one length-prefixed, checksummed frame from a borrowed payload.
///
/// # Frame layout (version 2)
///
/// ```text
/// magic     4 bytes   b"HFRM"
/// version   u8        2
/// kind      u8        caller-defined frame type tag
/// len       u32 LE    payload length in bytes
/// check     u64 LE    header check: word-FNV over the ten bytes above,
///                     as two LE words, the second zero-padded
/// payload   len bytes
/// checksum  u64 LE    Fnv64x4 over the check word, then the payload's
///                     LE words, the last one zero-padded
/// ```
///
/// This is the unit the cross-process serving transport exchanges. The
/// header check is verified before a reader trusts the length, so a
/// flipped length bit is a typed [`CodecError::ChecksumMismatch`] at once,
/// not a read that waits for bytes that never come; the trailing checksum
/// does the same for a flipped bit anywhere in the payload. A frame of
/// another version is [`CodecError::UnsupportedVersion`].
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> Result<(), CodecError> {
    let head = frame_head_for(kind, payload.len())?;
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&body_sum(&head, payload).to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Append one frame to `buf` in place: `put` writes the payload straight
/// after a reserved head and returns the frame's kind; the head and the
/// checksum are then filled in around it. Byte-identical to
/// [`write_frame`] over the same payload. On error `buf` is left as it was.
pub fn encode_frame(
    buf: &mut Vec<u8>,
    put: impl FnOnce(&mut Vec<u8>) -> u8,
) -> Result<(), CodecError> {
    let start = buf.len();
    let at = start + FRAME_HEAD;
    buf.resize(at, 0);
    let kind = put(buf);
    let head = match frame_head_for(kind, buf.len() - at) {
        Ok(head) => head,
        Err(e) => {
            buf.truncate(start);
            return Err(e);
        }
    };
    buf[start..at].copy_from_slice(&head);
    let sum = body_sum(&head, &buf[at..]);
    buf.extend_from_slice(&sum.to_le_bytes());
    Ok(())
}

/// Verify a frame head — magic, then version, then the check word — and
/// return `(kind, payload length)`. Nothing in the head is trusted before
/// its check word matches, and `max_payload` bounds the length before the
/// caller sizes anything by it.
pub fn frame_head(head: &[u8; FRAME_HEAD], max_payload: usize) -> Result<(u8, usize), CodecError> {
    let magic: [u8; 4] = head[..4].try_into().expect("4 bytes");
    if magic != FRAME_MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    if head[4] != FRAME_VERSION {
        return Err(CodecError::UnsupportedVersion(u32::from(head[4])));
    }
    let stored = u64::from_le_bytes(head[10..].try_into().expect("8 bytes"));
    let computed = head_check(head);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    let len = u32::from_le_bytes(head[6..10].try_into().expect("4 bytes")) as usize;
    if len > max_payload {
        return Err(CodecError::Malformed(format!(
            "frame payload length {len} exceeds the {max_payload}-byte cap"
        )));
    }
    Ok((head[5], len))
}

/// Read the body — `len` payload bytes and the checksum — that follows a
/// head [`frame_head`] accepted. One exact allocation when it fits in a
/// read chunk; past that the buffer grows a chunk at a time as bytes
/// arrive, so a hostile length fails on the first missing byte, not in the
/// allocator.
pub fn read_frame_body<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, CodecError> {
    let total = len.saturating_add(FRAME_TAIL);
    let mut body = vec![0u8; total.min(READ_CHUNK)];
    read_exact_or_truncated(r, &mut body)?;
    while body.len() < total {
        let at = body.len();
        body.resize(total.min(at + READ_CHUNK), 0);
        read_exact_or_truncated(r, &mut body[at..])?;
    }
    Ok(body)
}

/// Check a frame body — payload, then checksum — against its verified
/// head, and return the payload.
pub fn frame_payload<'a>(head: &[u8; FRAME_HEAD], body: &'a [u8]) -> Result<&'a [u8], CodecError> {
    let (payload, stored) = body
        .split_last_chunk::<FRAME_TAIL>()
        .ok_or(CodecError::Truncated)?;
    let stored = u64::from_le_bytes(*stored);
    let computed = body_sum(head, payload);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Read one frame written by [`write_frame`], returning `(kind, payload)`.
///
/// `max_payload` bounds the announced length *before* anything is
/// allocated, and the head's check word is verified before the length is
/// used at all. Every failure — bad magic, another version, a corrupt
/// head, an oversized length, truncation, checksum mismatch — is a typed
/// [`CodecError`], never a panic.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> Result<(u8, Vec<u8>), CodecError> {
    let mut head = [0u8; FRAME_HEAD];
    read_exact_or_truncated(r, &mut head)?;
    let (kind, len) = frame_head(&head, max_payload)?;
    let mut body = read_frame_body(r, len)?;
    frame_payload(&head, &body)?;
    body.truncate(len);
    Ok((kind, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_kind_and_payload() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, 7, b"hello frame").unwrap();
        write_frame(&mut bytes, 0, b"").unwrap();
        let mut cursor = bytes.as_slice();
        let (kind, payload) = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!((kind, payload.as_slice()), (7, b"hello frame".as_slice()));
        let (kind, payload) = read_frame(&mut cursor, MAX_FRAME_PAYLOAD).unwrap();
        assert_eq!((kind, payload.len()), (0, 0));
        assert!(cursor.is_empty(), "both frames consumed exactly");
    }

    #[test]
    fn frame_truncation_at_every_prefix_is_typed() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, 3, b"payload bytes").unwrap();
        for cut in 0..bytes.len() {
            let err =
                read_frame(&mut &bytes[..cut], MAX_FRAME_PAYLOAD).expect_err("prefix must fail");
            assert!(
                matches!(err, CodecError::Truncated),
                "cut at {cut}: expected Truncated, got {err}"
            );
        }
    }

    #[test]
    fn frame_detects_any_flipped_bit() {
        let mut clean = Vec::new();
        write_frame(&mut clean, 3, b"sensitive").unwrap();
        for byte in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 0x10;
            assert!(
                read_frame(&mut bytes.as_slice(), MAX_FRAME_PAYLOAD).is_err(),
                "flip at byte {byte} must not decode cleanly"
            );
        }
    }

    /// [`Fnv64x4`] by definition: one word at a time, lane by lane.
    fn word_by_word(words: &[u64]) -> u64 {
        let mut hash = Fnv64x4::new();
        for &w in words {
            hash.push(w);
        }
        hash.finish()
    }

    #[test]
    fn fnv64x4_digest_is_the_same_however_the_stream_is_cut() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound.max(1)
        };
        for len in 0..67 {
            let indices: Vec<u32> = (0..len).map(|_| next(1 << 31) as u32 * 2 + 1).collect();
            // the heap's words: pairs, low half first, an odd tail zero-padded
            let heap: Vec<u64> = indices
                .chunks(2)
                .map(|p| u64::from(p[0]) | u64::from(p.get(1).copied().unwrap_or(0)) << 32)
                .collect();
            let prefix: Vec<u64> = (0..next(7)).map(|_| next(1 << 31) as u64).collect();
            let stream = [prefix.as_slice(), &heap].concat();
            let want = word_by_word(&stream);
            for _ in 0..8 {
                // the words themselves, cut anywhere
                let mut hash = Fnv64x4::new();
                let mut rest = stream.as_slice();
                while !rest.is_empty() {
                    let (cut, tail) = rest.split_at(1 + next(rest.len()));
                    hash.feed(cut, u64::from);
                    rest = tail;
                }
                assert_eq!(hash.finish(), want, "{len} indices, words cut");

                // the prefix as words, then the indices in pair-aligned
                // blocks and a last block that may end odd
                let mut hash = Fnv64x4::new();
                hash.feed(&prefix, u64::from);
                let mut rest = indices.as_slice();
                while rest.len() >= 2 && next(3) > 0 {
                    let (block, tail) = rest.split_at(2 * (1 + next(rest.len() / 2)));
                    hash.feed_u32(block);
                    rest = tail;
                }
                hash.feed_u32(rest);
                assert_eq!(hash.finish(), want, "{len} indices, index blocks");
            }
        }
    }

    #[test]
    fn fnv64x4_tells_lanes_order_and_length_apart() {
        let digests = [
            word_by_word(&[]),
            word_by_word(&[0]),
            word_by_word(&[0, 0]),
            word_by_word(&[1, 0, 0, 0]),
            word_by_word(&[0, 1, 0, 0]),
            word_by_word(&[0, 0, 0, 0, 1]),
        ];
        for (i, a) in digests.iter().enumerate() {
            for b in &digests[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn frame_length_cap_rejects_before_allocating() {
        // header announces 2^31 bytes; a 16-byte cap must reject on the
        // prefix alone (the input carries no payload at all)
        let mut bytes = FRAME_MAGIC.to_vec();
        bytes.extend_from_slice(&[FRAME_VERSION, 1]);
        bytes.extend_from_slice(&(1u32 << 31).to_le_bytes());
        let mut check = Fnv64::new();
        check.update_word(u64::from_le_bytes(bytes[..8].try_into().unwrap()));
        check.update_word(u64::from(u16::from_le_bytes(
            bytes[8..].try_into().unwrap(),
        )));
        bytes.extend_from_slice(&check.finish().to_le_bytes());
        assert!(matches!(
            read_frame(&mut bytes.as_slice(), 16),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn in_place_and_borrowed_frames_are_the_same_bytes() {
        for len in 0..40 {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut streamed = Vec::new();
            write_frame(&mut streamed, 9, &payload).unwrap();
            // appended after a frame already in the buffer
            let mut in_place = b"prior".to_vec();
            encode_frame(&mut in_place, |buf| {
                buf.extend_from_slice(&payload);
                9
            })
            .unwrap();
            assert_eq!(&in_place[..5], b"prior");
            assert_eq!(in_place[5..], streamed, "{len}-byte payload");
            assert_eq!(streamed.len(), FRAME_HEAD + len + FRAME_TAIL);
        }
    }

    #[test]
    fn a_corrupt_head_is_refused_before_its_length_is_used() {
        let mut clean = Vec::new();
        write_frame(&mut clean, 3, &[7u8; 100]).unwrap();
        for bit in 0..FRAME_HEAD * 8 {
            let mut head: [u8; FRAME_HEAD] = clean[..FRAME_HEAD].try_into().unwrap();
            head[bit / 8] ^= 1 << (bit % 8);
            let err = frame_head(&head, MAX_FRAME_PAYLOAD).expect_err("a flipped head bit");
            let want = match bit / 8 {
                0..4 => matches!(err, CodecError::BadMagic { .. }),
                4 => matches!(err, CodecError::UnsupportedVersion(_)),
                _ => matches!(err, CodecError::ChecksumMismatch { .. }),
            };
            assert!(want, "bit {bit}: {err}");
        }
    }
}
