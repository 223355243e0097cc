//! The cross-process serving wire protocol.
//!
//! One [`Message`] per frame, framed and integrity-checked by
//! `hin_linalg::codec`'s version-2 frame ([`write_frame`] documents the
//! layout): magic, version, type tag, `u32` length and a header check word
//! that is verified before the length is trusted, then the payload and a
//! four-lane word-FNV checksum over it. A frame is encoded in place, at
//! the end of the caller's buffer, and decoded in one pass: from the
//! reader's buffer when it already holds the whole frame, else from one
//! exact read. Everything a router and a remote shard exchange is one of
//! six messages:
//!
//! * `Request { id, ttl, query }` — a query plus its **remaining deadline
//!   budget** in microseconds. The budget is relative, not an absolute
//!   timestamp, so deadline propagation survives unsynchronized clocks:
//!   the client subtracts elapsed time before sending, the shard re-arms
//!   `Instant::now() + ttl` on receipt.
//! * `Response { id, result }` — the full `Result<QueryOutput,
//!   QueryError>`, round-tripped with **complete fidelity** (every error
//!   variant, every field), so a remote answer is byte-identical to the
//!   in-process answer. That property is what the chaos suite pins.
//! * `Ping { nonce }` / `Pong { nonce }` — the health-check probe.
//! * `Warm { image }` / `WarmAck { loaded, rejected }` — snapshot
//!   streaming: the payload of `Warm` is a whole snapshot container
//!   image ([`hin_query::CacheSnapshot::to_bytes`]; the frame adds its own
//!   checksum over it in flight), so a freshly spawned remote shard
//!   warm-starts entirely over the wire, no shared filesystem needed. The
//!   ack is sent once the restore has proved every entry against the
//!   image's own per-entry checksums, and counts a corrupt one as
//!   rejected.
//!
//! Decoding is paranoid in the same way the snapshot codec is: corrupt,
//! truncated, or hostile payloads return a typed [`CodecError`], never
//! panic, and never allocate according to unvalidated length fields — a
//! frame of another version included.

use std::io::{BufRead, Read, Write};

use hin_core::{Hin, HinError, NodeRef};
use hin_linalg::codec::{
    encode_frame, frame_head, frame_payload, read_exact_or_truncated, read_frame_body, write_frame,
    CodecError, FRAME_HEAD, FRAME_TAIL, MAX_FRAME_PAYLOAD,
};
use hin_query::{IdOutput, QueryError, QueryOutput, Verb};

/// Cap on request/response/ping payloads. Query text and ranked result
/// lists are small; anything past this is corruption, not traffic.
pub const MAX_MESSAGE: usize = 64 << 20;

/// Cap on `Warm` payloads — a full snapshot image rides in one frame.
pub const MAX_WARM: usize = MAX_FRAME_PAYLOAD;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_PING: u8 = 3;
const KIND_PONG: u8 = 4;
const KIND_WARM: u8 = 5;
const KIND_WARM_ACK: u8 = 6;

/// Everything the router⇄shard wire carries.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A query to execute, tagged with the client's request id and the
    /// remaining deadline budget in microseconds (`0` = no deadline).
    Request {
        /// Client-chosen id echoed back in the matching [`Message::Response`].
        id: u64,
        /// Remaining time budget in µs; `0` means unbounded.
        ttl_micros: u64,
        /// The query text.
        query: String,
    },
    /// The answer to [`Message::Request`] with the same `id`.
    Response {
        /// Echo of the request id.
        id: u64,
        /// The full engine result, error variants included.
        result: Result<QueryOutput, QueryError>,
    },
    /// Health-check probe.
    Ping {
        /// Echoed in the matching [`Message::Pong`].
        nonce: u64,
    },
    /// Health-check reply.
    Pong {
        /// Echo of the probe nonce.
        nonce: u64,
    },
    /// A snapshot container image to restore into the shard's cache.
    Warm {
        /// Bytes as produced by `CacheSnapshot::to_bytes`.
        image: Vec<u8>,
    },
    /// Import receipt for [`Message::Warm`].
    WarmAck {
        /// Entries restored into the cache.
        loaded: u64,
        /// Entries rejected (over budget or superseded).
        rejected: u64,
    },
}

impl Message {
    /// Serialize into one frame on `w`, with one `write`: the frame is
    /// sized first, then encoded into one exact allocation.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let mut len = Len(0);
        self.put_payload(&mut len);
        let mut frame = Vec::with_capacity(FRAME_HEAD + len.0 + FRAME_TAIL);
        self.encode(&mut frame)?;
        w.write_all(&frame)?;
        w.flush()?;
        Ok(())
    }

    /// Append this message's frame to `buf`, encoded in place.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) -> Result<(), CodecError> {
        encode_frame(buf, |buf| self.put_payload(buf))
    }

    /// Put this message's payload into `buf`; returns its frame type.
    fn put_payload(&self, buf: &mut impl Sink) -> u8 {
        match self {
            Message::Request {
                id,
                ttl_micros,
                query,
            } => put_request(buf, *id, *ttl_micros, query),
            Message::Response { id, result } => {
                put_u64(buf, *id);
                match result {
                    Ok(out) => {
                        put_u8(buf, 0);
                        let items = out
                            .items
                            .iter()
                            .map(|(name, score)| (name.as_str(), *score));
                        put_items(buf, out.verb, &out.object_type, items);
                    }
                    Err(err) => {
                        put_u8(buf, 1);
                        put_error(buf, err);
                    }
                }
                KIND_RESPONSE
            }
            Message::Ping { nonce } => {
                put_u64(buf, *nonce);
                KIND_PING
            }
            Message::Pong { nonce } => {
                put_u64(buf, *nonce);
                KIND_PONG
            }
            Message::Warm { image } => {
                buf.put(image);
                KIND_WARM
            }
            Message::WarmAck { loaded, rejected } => {
                put_u64(buf, *loaded);
                put_u64(buf, *rejected);
                KIND_WARM_ACK
            }
        }
    }

    /// Read exactly one frame from `r` and decode it: the head, then the
    /// body in one exact read (chunked past the codec's read chunk).
    pub fn read_from<R: Read>(r: &mut R) -> Result<Message, CodecError> {
        let mut head = [0u8; FRAME_HEAD];
        read_exact_or_truncated(r, &mut head)?;
        let (kind, len) = checked_head(&head)?;
        let mut body = read_frame_body(r, len)?;
        let payload = frame_payload(&head, &body)?;
        if kind != KIND_WARM {
            return decode(kind, payload);
        }
        // the image is the body itself, less its checksum: no copy
        body.truncate(len);
        Ok(Message::Warm { image: body })
    }

    /// [`Message::read_from`] over a buffered reader: a frame the buffer
    /// already holds whole is decoded where it lies and consumed.
    pub(crate) fn read_buffered<R: BufRead>(r: &mut R) -> Result<Message, CodecError> {
        let buf = r.fill_buf()?;
        if let Some(head) = buf.first_chunk::<FRAME_HEAD>() {
            let (kind, len) = checked_head(head)?;
            let end = FRAME_HEAD + len + FRAME_TAIL;
            if let Some(body) = buf.get(FRAME_HEAD..end) {
                let msg = decode(kind, frame_payload(head, body)?);
                r.consume(end);
                return msg;
            }
        }
        Self::read_from(r)
    }
}

/// Append a [`Message::Request`] frame for a borrowed query to `buf`.
pub(crate) fn encode_request(
    buf: &mut Vec<u8>,
    id: u64,
    ttl_micros: u64,
    query: &str,
) -> Result<(), CodecError> {
    encode_frame(buf, |buf| put_request(buf, id, ttl_micros, query))
}

/// Append a successful [`Message::Response`] frame for an answer of node
/// ids to `buf`, each name read from `hin` as it is written: the frame of
/// `Response { id, result: Ok(out.named(hin)) }`, byte for byte, with no
/// name allocated. `hin` is the network the answer was computed over, so
/// every id is in range for its type.
pub(crate) fn encode_id_response(
    buf: &mut Vec<u8>,
    id: u64,
    out: &IdOutput,
    hin: &Hin,
) -> Result<(), CodecError> {
    let ty = out.ty;
    let items = out.items.iter().map(|&(node, score)| {
        let node = NodeRef {
            ty,
            id: node as u32,
        };
        (hin.node_name(node), score)
    });
    encode_frame(buf, |buf| {
        put_u64(buf, id);
        put_u8(buf, 0);
        put_items(buf, out.verb, hin.type_name(ty), items);
        KIND_RESPONSE
    })
}

/// Write a [`Message::Warm`] frame straight from a borrowed image: the
/// head, the image, the checksum, and no copy of the image.
pub(crate) fn write_warm<W: Write>(w: &mut W, image: &[u8]) -> Result<(), CodecError> {
    write_frame(w, KIND_WARM, image)
}

/// A verified head whose length is within its kind's cap.
fn checked_head(head: &[u8; FRAME_HEAD]) -> Result<(u8, usize), CodecError> {
    let (kind, len) = frame_head(head, MAX_WARM)?;
    if kind != KIND_WARM && len > MAX_MESSAGE {
        return Err(malformed(format!(
            "{len}-byte payload on a non-snapshot frame (kind {kind})"
        )));
    }
    Ok((kind, len))
}

/// Decode one verified payload of frame type `kind`.
fn decode(kind: u8, payload: &[u8]) -> Result<Message, CodecError> {
    let mut cur = Cursor {
        buf: payload,
        at: 0,
    };
    let msg = match kind {
        KIND_REQUEST => Message::Request {
            id: cur.u64()?,
            ttl_micros: cur.u64()?,
            query: cur.str()?,
        },
        KIND_RESPONSE => {
            let id = cur.u64()?;
            let result = match cur.u8()? {
                0 => Ok(cur.output()?),
                1 => Err(cur.error()?),
                t => return Err(malformed(format!("unknown result tag {t}"))),
            };
            Message::Response { id, result }
        }
        KIND_PING => Message::Ping { nonce: cur.u64()? },
        KIND_PONG => Message::Pong { nonce: cur.u64()? },
        KIND_WARM => Message::Warm {
            image: cur.take(payload.len())?.to_vec(),
        },
        KIND_WARM_ACK => Message::WarmAck {
            loaded: cur.u64()?,
            rejected: cur.u64()?,
        },
        k => return Err(malformed(format!("unknown frame kind {k}"))),
    };
    if cur.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing bytes after a kind-{kind} payload",
            cur.remaining()
        )));
    }
    Ok(msg)
}

fn malformed(msg: String) -> CodecError {
    CodecError::Malformed(msg)
}

/// Where a payload is put: a frame buffer, or a [`Len`] sizing one.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The bytes a payload would take.
struct Len(usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_request(buf: &mut impl Sink, id: u64, ttl_micros: u64, query: &str) -> u8 {
    put_u64(buf, id);
    put_u64(buf, ttl_micros);
    put_str(buf, query);
    KIND_REQUEST
}

fn put_u8(buf: &mut impl Sink, v: u8) {
    buf.put(&[v]);
}

fn put_u64(buf: &mut impl Sink, v: u64) {
    buf.put(&v.to_le_bytes());
}

fn put_str(buf: &mut impl Sink, s: &str) {
    buf.put(&(s.len() as u32).to_le_bytes());
    buf.put(s.as_bytes());
}

/// A successful answer's body, whichever form it was held in: the verb,
/// the object type's name, then each `(name, score)`.
fn put_items<'a>(
    buf: &mut impl Sink,
    verb: Verb,
    object_type: &str,
    items: impl ExactSizeIterator<Item = (&'a str, f64)>,
) {
    put_u8(buf, verb_tag(verb));
    put_str(buf, object_type);
    put_u64(buf, items.len() as u64);
    for (name, score) in items {
        put_str(buf, name);
        put_u64(buf, score.to_bits());
    }
}

fn put_error(buf: &mut impl Sink, err: &QueryError) {
    match err {
        QueryError::Parse(s) => {
            put_u8(buf, 0);
            put_str(buf, s);
        }
        QueryError::UnknownName(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
        QueryError::AmbiguousRelation {
            src,
            dst,
            candidates,
        } => {
            put_u8(buf, 2);
            put_str(buf, src);
            put_str(buf, dst);
            put_u64(buf, candidates.len() as u64);
            for c in candidates {
                put_str(buf, c);
            }
        }
        QueryError::IncompatibleStep {
            relation,
            at,
            expects,
            backward,
        } => {
            put_u8(buf, 3);
            put_str(buf, relation);
            put_str(buf, at);
            put_str(buf, expects);
            put_u8(buf, u8::from(*backward));
        }
        QueryError::NotSymmetric { path } => {
            put_u8(buf, 4);
            put_str(buf, path);
        }
        QueryError::EmptyPath => put_u8(buf, 5),
        QueryError::Canceled => put_u8(buf, 6),
        QueryError::Overloaded => put_u8(buf, 7),
        QueryError::TimedOut => put_u8(buf, 8),
        QueryError::UnknownDataset(s) => {
            put_u8(buf, 9);
            put_str(buf, s);
        }
        QueryError::Internal(s) => {
            put_u8(buf, 10);
            put_str(buf, s);
        }
        QueryError::Unavailable(s) => {
            put_u8(buf, 11);
            put_str(buf, s);
        }
        QueryError::Hin(e) => {
            put_u8(buf, 12);
            put_hin_error(buf, e);
        }
    }
}

fn put_hin_error(buf: &mut impl Sink, err: &HinError) {
    match err {
        HinError::UnknownType(s) => {
            put_u8(buf, 0);
            put_str(buf, s);
        }
        HinError::NoRelation { src, dst } => {
            put_u8(buf, 1);
            put_str(buf, src);
            put_str(buf, dst);
        }
        HinError::UnknownNode { ty, name } => {
            put_u8(buf, 2);
            put_str(buf, ty);
            put_str(buf, name);
        }
        HinError::SchemaShape(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
        HinError::Parse { line, message } => {
            put_u8(buf, 4);
            put_u64(buf, *line as u64);
            put_str(buf, message);
        }
        HinError::NonFiniteWeight {
            relation,
            src,
            dst,
            weight,
        } => {
            put_u8(buf, 5);
            put_str(buf, relation);
            put_str(buf, src);
            put_str(buf, dst);
            put_str(buf, weight);
        }
    }
}

fn verb_tag(verb: Verb) -> u8 {
    match verb {
        Verb::PathSim => 0,
        Verb::PathCount => 1,
        Verb::Rank => 2,
        Verb::TopK => 3,
        Verb::Neighbors => 4,
    }
}

fn verb_of(tag: u8) -> Result<Verb, CodecError> {
    Ok(match tag {
        0 => Verb::PathSim,
        1 => Verb::PathCount,
        2 => Verb::Rank,
        3 => Verb::TopK,
        4 => Verb::Neighbors,
        t => return Err(malformed(format!("unknown verb tag {t}"))),
    })
}

/// A bounds-checked reader over one decoded payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    /// Room for `count` elements of at least `min_bytes` each, but never
    /// more than the rest of the payload could hold: a hostile count fails
    /// on `Truncated`, having allocated no more than the input's size.
    fn capacity(&self, count: u64, min_bytes: usize) -> usize {
        usize::try_from(count)
            .unwrap_or(usize::MAX)
            .min(self.remaining() / min_bytes)
    }

    fn take(&mut self, n: usize) -> Result<&[u8], CodecError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(CodecError::Truncated)?;
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8-byte take"),
        ))
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let len = u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte take")) as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| malformed("string field is not UTF-8".to_string()))
    }

    fn output(&mut self) -> Result<QueryOutput, CodecError> {
        let verb = verb_of(self.u8()?)?;
        let object_type = self.str()?;
        let count = self.u64()?;
        // one item is ≥ 4 bytes of length prefix + 8 bytes of score
        let mut items = Vec::with_capacity(self.capacity(count, 12));
        for _ in 0..count {
            let name = self.str()?;
            let score = f64::from_bits(self.u64()?);
            items.push((name, score));
        }
        Ok(QueryOutput {
            verb,
            object_type,
            items,
        })
    }

    fn error(&mut self) -> Result<QueryError, CodecError> {
        Ok(match self.u8()? {
            0 => QueryError::Parse(self.str()?),
            1 => QueryError::UnknownName(self.str()?),
            2 => {
                let src = self.str()?;
                let dst = self.str()?;
                let count = self.u64()?;
                // one candidate is ≥ its 4-byte length prefix
                let mut candidates = Vec::with_capacity(self.capacity(count, 4));
                for _ in 0..count {
                    candidates.push(self.str()?);
                }
                QueryError::AmbiguousRelation {
                    src,
                    dst,
                    candidates,
                }
            }
            3 => QueryError::IncompatibleStep {
                relation: self.str()?,
                at: self.str()?,
                expects: self.str()?,
                backward: self.u8()? != 0,
            },
            4 => QueryError::NotSymmetric { path: self.str()? },
            5 => QueryError::EmptyPath,
            6 => QueryError::Canceled,
            7 => QueryError::Overloaded,
            8 => QueryError::TimedOut,
            9 => QueryError::UnknownDataset(self.str()?),
            10 => QueryError::Internal(self.str()?),
            11 => QueryError::Unavailable(self.str()?),
            12 => QueryError::Hin(self.hin_error()?),
            t => return Err(malformed(format!("unknown error tag {t}"))),
        })
    }

    fn hin_error(&mut self) -> Result<HinError, CodecError> {
        Ok(match self.u8()? {
            0 => HinError::UnknownType(self.str()?),
            1 => HinError::NoRelation {
                src: self.str()?,
                dst: self.str()?,
            },
            2 => HinError::UnknownNode {
                ty: self.str()?,
                name: self.str()?,
            },
            3 => HinError::SchemaShape(self.str()?),
            4 => HinError::Parse {
                line: self.u64()? as usize,
                message: self.str()?,
            },
            5 => HinError::NonFiniteWeight {
                relation: self.str()?,
                src: self.str()?,
                dst: self.str()?,
                weight: self.str()?,
            },
            t => return Err(malformed(format!("unknown hin error tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) -> Message {
        let mut bytes = Vec::new();
        msg.write_to(&mut bytes).expect("vec writes cannot fail");
        let back = Message::read_from(&mut bytes.as_slice()).expect("round trip");
        let mut rest = Vec::new();
        msg.write_to(&mut rest).unwrap();
        assert_eq!(rest, bytes, "encoding is deterministic");
        back
    }

    #[test]
    fn request_and_control_frames_round_trip() {
        for msg in [
            Message::Request {
                id: 42,
                ttl_micros: 1_500_000,
                query: "pathsim author-paper-author from sun".to_string(),
            },
            Message::Request {
                id: 0,
                ttl_micros: 0,
                query: String::new(),
            },
            Message::Ping { nonce: u64::MAX },
            Message::Pong { nonce: 7 },
            Message::Warm {
                image: vec![1, 2, 3, 4, 5],
            },
            Message::WarmAck {
                loaded: 9,
                rejected: 2,
            },
        ] {
            assert_eq!(round_trip(&msg), msg);
        }
    }

    #[test]
    fn ok_response_round_trips_bit_exactly() {
        let msg = Message::Response {
            id: 3,
            result: Ok(QueryOutput {
                verb: Verb::TopK,
                object_type: "author".to_string(),
                items: vec![
                    ("han".to_string(), 0.75),
                    ("sun".to_string(), f64::NAN),
                    ("".to_string(), -0.0),
                ],
            }),
        };
        let back = round_trip(&msg);
        // NaN breaks PartialEq on the message; compare re-encodings, the
        // stronger byte-exactness property the chaos suite relies on.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        msg.write_to(&mut a).unwrap();
        back.write_to(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = vec![
            QueryError::Parse("bad token".to_string()),
            QueryError::UnknownName("zzz".to_string()),
            QueryError::AmbiguousRelation {
                src: "a".to_string(),
                dst: "p".to_string(),
                candidates: vec!["wrote".to_string(), "cites".to_string()],
            },
            QueryError::IncompatibleStep {
                relation: "wrote".to_string(),
                at: "venue".to_string(),
                expects: "paper".to_string(),
                backward: true,
            },
            QueryError::NotSymmetric {
                path: "a-p-v".to_string(),
            },
            QueryError::EmptyPath,
            QueryError::Canceled,
            QueryError::Overloaded,
            QueryError::TimedOut,
            QueryError::UnknownDataset("dblp".to_string()),
            QueryError::Unavailable("circuit open".to_string()),
            QueryError::Internal("worker panicked: oh no".to_string()),
            QueryError::Hin(HinError::UnknownType("blog".to_string())),
            QueryError::Hin(HinError::NoRelation {
                src: "a".to_string(),
                dst: "v".to_string(),
            }),
            QueryError::Hin(HinError::UnknownNode {
                ty: "author".to_string(),
                name: "nobody".to_string(),
            }),
            QueryError::Hin(HinError::SchemaShape("not a star".to_string())),
            QueryError::Hin(HinError::Parse {
                line: 17,
                message: "bad row".to_string(),
            }),
            QueryError::Hin(HinError::NonFiniteWeight {
                relation: "wrote".to_string(),
                src: "a".to_string(),
                dst: "p".to_string(),
                weight: "NaN".to_string(),
            }),
        ];
        for err in errors {
            let msg = Message::Response {
                id: 1,
                result: Err(err),
            };
            assert_eq!(round_trip(&msg), msg);
        }
    }

    #[test]
    fn corrupt_and_truncated_frames_are_typed_errors() {
        let msg = Message::Request {
            id: 9,
            ttl_micros: 100,
            query: "rank paper over paper-author".to_string(),
        };
        let mut clean = Vec::new();
        msg.write_to(&mut clean).unwrap();
        for cut in 0..clean.len() {
            assert!(
                Message::read_from(&mut &clean[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        for byte in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 0x04;
            assert!(
                Message::read_from(&mut bytes.as_slice()).is_err(),
                "bit flip at {byte} must fail"
            );
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = Vec::new();
        // hand-build a Ping with one extra payload byte (valid checksum)
        let mut payload = Vec::new();
        put_u64(&mut payload, 5);
        payload.push(0xee);
        write_frame(&mut bytes, KIND_PING, &payload).unwrap();
        assert!(matches!(
            Message::read_from(&mut bytes.as_slice()),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_item_count_fails_without_allocating() {
        // an Ok(Response) claiming 2^60 items but carrying none
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // id
        payload.push(0); // Ok
        payload.push(0); // verb
        put_str(&mut payload, "author");
        put_u64(&mut payload, 1u64 << 60); // item count
        let mut bytes = Vec::new();
        write_frame(&mut bytes, KIND_RESPONSE, &payload).unwrap();
        assert!(matches!(
            Message::read_from(&mut bytes.as_slice()),
            Err(CodecError::Truncated)
        ));
    }

    /// A reader over one frame and whatever follows it on the stream that
    /// fails any read starting past the frame's last byte.
    struct Fenced<'a> {
        bytes: &'a [u8],
        at: usize,
        fence: usize,
    }

    impl std::io::Read for Fenced<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            if self.at >= self.fence {
                return Err(std::io::Error::other("read past the frame"));
            }
            let n = buf.len().min(self.fence - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn every_flipped_bit_is_typed_without_reading_past_the_frame() {
        let request = Message::Request {
            id: 9,
            ttl_micros: 100,
            query: "pathsim author-paper-author from sun".to_string(),
        };
        let response = Message::Response {
            id: 9,
            result: Ok(QueryOutput {
                verb: Verb::PathSim,
                object_type: "author".to_string(),
                items: vec![("han".to_string(), 0.5), ("yu".to_string(), 0.25)],
            }),
        };
        for msg in [request, response] {
            let mut clean = Vec::new();
            msg.write_to(&mut clean).unwrap();
            let fence = clean.len();
            // the stream goes on: another whole frame follows
            clean.extend_from_within(..fence);
            for bit in 0..fence * 8 {
                let mut bytes = clean.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let fenced = || Fenced {
                    bytes: &bytes,
                    at: 0,
                    fence,
                };
                for got in [
                    Message::read_from(&mut fenced()),
                    Message::read_buffered(&mut std::io::BufReader::new(fenced())),
                ] {
                    let err = got.expect_err("a flipped bit must not decode");
                    assert!(
                        !matches!(err, CodecError::Io(_)),
                        "bit {bit} ({} in the head): {err}",
                        bit / 8 < FRAME_HEAD
                    );
                }
            }
        }
    }

    #[test]
    fn a_warm_frame_from_a_borrowed_image_is_the_owned_encoding() {
        for len in [0, 1, 7, 8, 9, 4096 + 3] {
            let image: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut borrowed = Vec::new();
            write_warm(&mut borrowed, &image).unwrap();
            let mut owned = Vec::new();
            Message::Warm {
                image: image.clone(),
            }
            .write_to(&mut owned)
            .unwrap();
            assert_eq!(borrowed, owned, "{len}-byte image");
            let back = Message::read_from(&mut borrowed.as_slice()).unwrap();
            assert_eq!(back, Message::Warm { image });
        }
    }

    #[test]
    fn buffered_and_unbuffered_reads_agree_on_a_stream() {
        let messages = [
            Message::Ping { nonce: 1 },
            Message::Request {
                id: 2,
                ttl_micros: 0,
                query: "x".repeat(5000),
            },
            Message::Warm {
                image: vec![3; 20_000],
            },
            Message::WarmAck {
                loaded: 4,
                rejected: 0,
            },
        ];
        let mut stream = Vec::new();
        for msg in &messages {
            msg.encode(&mut stream).unwrap();
        }
        // a small buffer: some frames lie whole in it, some straddle it
        let mut reader = std::io::BufReader::with_capacity(6000, stream.as_slice());
        for msg in &messages {
            assert_eq!(&Message::read_buffered(&mut reader).unwrap(), msg);
        }
        assert!(matches!(
            Message::read_buffered(&mut reader),
            Err(CodecError::Truncated)
        ));
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn a_version_1_frame_is_refused_never_decoded() {
        // frames in the version-1 layout (magic, kind, u32 length, payload,
        // byte-wise FNV-1a 64 over all of it), which that layout's decoder
        // read as `Request { id: 7, ttl_micros: 0, query: "rank
        // venue-paper-author" }` and as `Response { id: 7, result:
        // Ok(topk author [("han", 0.75)]) }`
        let request = unhex(
            "4846524d012b000000070000000000000000000000000000001700000072616e6b\
             2076656e75652d70617065722d617574686f72e0e8716d25bfa5cb",
        );
        assert!(matches!(
            Message::read_from(&mut request.as_slice()),
            Err(CodecError::UnsupportedVersion(1))
        ));
        // a version-1 response's kind byte sits where the version goes and
        // reads as 2: its head check refuses it
        let response = unhex(
            "4846524d022b0000000700000000000000000306000000617574686f720100000000\
             0000000300000068616e000000000000e83fc8f16aba1ce56d1d",
        );
        for got in [
            Message::read_from(&mut response.as_slice()),
            Message::read_buffered(&mut response.as_slice()),
        ] {
            assert!(matches!(got, Err(CodecError::ChecksumMismatch { .. })));
        }
    }

    /// The scores a ranked answer may carry beyond ordinary ones: each one
    /// must reach the wire as its own bits.
    const ODD_SCORES: [f64; 6] = [
        f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
    ];

    const VERBS: [Verb; 5] = [
        Verb::PathSim,
        Verb::PathCount,
        Verb::Rank,
        Verb::TopK,
        Verb::Neighbors,
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// A worker's answer of node ids, encoded with names read from the
        /// network, is the frame of the same answer named first — byte for
        /// byte, for every verb, empty lists, odd scores and long names.
        #[test]
        fn an_answer_of_ids_encodes_as_its_named_form(
            names in proptest::prop::collection::vec(("[a-z_\\é\" ]{0,12}", 0u32..4), 1..20),
            long_type in 0u32..2,
            verb in 0usize..VERBS.len(),
            items in proptest::prop::collection::vec(
                (0usize..1 << 20, 0usize..ODD_SCORES.len() * 2, -1e9f64..1e9),
                0..40,
            ),
            id in 0u64..u64::MAX,
        ) {
            let mut b = hin_core::HinBuilder::new();
            let other = b.add_type("paper");
            let ty_name = if long_type == 1 { "author".repeat(500) } else { "author".to_string() };
            let ty = b.add_type(&ty_name);
            b.add_node(other, "p0");
            for (name, stretch) in &names {
                // one name in four is a few kilobytes long
                let name = if *stretch == 0 { name.repeat(400) } else { name.clone() };
                b.add_node(ty, &name);
            }
            let hin = b.build();
            let out = IdOutput {
                verb: VERBS[verb],
                ty,
                items: items
                    .into_iter()
                    .map(|(node, pick, plain)| {
                        let score = ODD_SCORES.get(pick).copied().unwrap_or(plain);
                        (node % names.len(), score)
                    })
                    .collect(),
            };
            let mut from_ids = vec![0xA5];
            encode_id_response(&mut from_ids, id, &out, &hin).expect("encode ids");
            let named = Message::Response {
                id,
                result: Ok(out.named(&hin)),
            };
            let mut from_names = vec![0xA5];
            named.encode(&mut from_names).expect("encode names");
            proptest::prop_assert!(from_ids == from_names, "the two encodings differ");
            // and the frame reads back as the named answer
            let back = Message::read_from(&mut &from_ids[1..]).expect("decode");
            let mut again = Vec::new();
            back.write_to(&mut again).expect("re-encode");
            proptest::prop_assert!(again == from_names[1..], "decoded answer re-encodes differently");
        }
    }
}
