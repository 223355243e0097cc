//! The cross-process serving wire protocol.
//!
//! One [`Message`] per frame, framed and integrity-checked by
//! `hin_linalg::codec`'s length-prefixed [`write_frame`] /
//! [`read_frame`] primitives (magic, type tag, `u32` length, payload,
//! trailing FNV-1a 64 checksum). Everything a router and a remote shard
//! exchange is one of six messages:
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
//!   ack is sent once every restored entry has been verified against the
//!   image's own per-entry checksums.
//!
//! Decoding is paranoid in the same way the snapshot codec is: corrupt,
//! truncated, or hostile payloads return a typed [`CodecError`], never
//! panic, and never allocate according to unvalidated length fields.

use std::io::{Read, Write};

use hin_core::HinError;
use hin_linalg::codec::{read_frame, write_frame, CodecError, MAX_FRAME_PAYLOAD};
use hin_query::{QueryError, QueryOutput, Verb};

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
    /// Serialize into one frame on `w`.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), CodecError> {
        let mut payload = Vec::new();
        let kind = match self {
            Message::Request {
                id,
                ttl_micros,
                query,
            } => {
                put_u64(&mut payload, *id);
                put_u64(&mut payload, *ttl_micros);
                put_str(&mut payload, query);
                KIND_REQUEST
            }
            Message::Response { id, result } => {
                put_u64(&mut payload, *id);
                match result {
                    Ok(out) => {
                        payload.push(0);
                        put_output(&mut payload, out);
                    }
                    Err(err) => {
                        payload.push(1);
                        put_error(&mut payload, err);
                    }
                }
                KIND_RESPONSE
            }
            Message::Ping { nonce } => {
                put_u64(&mut payload, *nonce);
                KIND_PING
            }
            Message::Pong { nonce } => {
                put_u64(&mut payload, *nonce);
                KIND_PONG
            }
            Message::Warm { image } => {
                payload.extend_from_slice(image);
                KIND_WARM
            }
            Message::WarmAck { loaded, rejected } => {
                put_u64(&mut payload, *loaded);
                put_u64(&mut payload, *rejected);
                KIND_WARM_ACK
            }
        };
        write_frame(w, kind, &payload)
    }

    /// Read exactly one frame from `r` and decode it.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Message, CodecError> {
        let (kind, payload) = read_frame(r, MAX_WARM)?;
        if kind != KIND_WARM && payload.len() > MAX_MESSAGE {
            return Err(CodecError::Malformed(format!(
                "{}-byte payload on a non-snapshot frame (kind {kind})",
                payload.len()
            )));
        }
        let mut cur = Cursor {
            buf: &payload,
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
            KIND_WARM => {
                return Ok(Message::Warm { image: payload });
            }
            KIND_WARM_ACK => Message::WarmAck {
                loaded: cur.u64()?,
                rejected: cur.u64()?,
            },
            k => return Err(malformed(format!("unknown frame kind {k}"))),
        };
        if cur.at != payload.len() {
            return Err(malformed(format!(
                "{} trailing bytes after a kind-{kind} payload",
                payload.len() - cur.at
            )));
        }
        Ok(msg)
    }
}

fn malformed(msg: String) -> CodecError {
    CodecError::Malformed(msg)
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn put_output(buf: &mut Vec<u8>, out: &QueryOutput) {
    buf.push(verb_tag(out.verb));
    put_str(buf, &out.object_type);
    put_u64(buf, out.items.len() as u64);
    for (name, score) in &out.items {
        put_str(buf, name);
        put_u64(buf, score.to_bits());
    }
}

fn put_error(buf: &mut Vec<u8>, err: &QueryError) {
    match err {
        QueryError::Parse(s) => {
            buf.push(0);
            put_str(buf, s);
        }
        QueryError::UnknownName(s) => {
            buf.push(1);
            put_str(buf, s);
        }
        QueryError::AmbiguousRelation {
            src,
            dst,
            candidates,
        } => {
            buf.push(2);
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
            buf.push(3);
            put_str(buf, relation);
            put_str(buf, at);
            put_str(buf, expects);
            buf.push(u8::from(*backward));
        }
        QueryError::NotSymmetric { path } => {
            buf.push(4);
            put_str(buf, path);
        }
        QueryError::EmptyPath => buf.push(5),
        QueryError::Canceled => buf.push(6),
        QueryError::Overloaded => buf.push(7),
        QueryError::TimedOut => buf.push(8),
        QueryError::UnknownDataset(s) => {
            buf.push(9);
            put_str(buf, s);
        }
        QueryError::Internal(s) => {
            buf.push(10);
            put_str(buf, s);
        }
        QueryError::Unavailable(s) => {
            buf.push(11);
            put_str(buf, s);
        }
        QueryError::Hin(e) => {
            buf.push(12);
            put_hin_error(buf, e);
        }
    }
}

fn put_hin_error(buf: &mut Vec<u8>, err: &HinError) {
    match err {
        HinError::UnknownType(s) => {
            buf.push(0);
            put_str(buf, s);
        }
        HinError::NoRelation { src, dst } => {
            buf.push(1);
            put_str(buf, src);
            put_str(buf, dst);
        }
        HinError::UnknownNode { ty, name } => {
            buf.push(2);
            put_str(buf, ty);
            put_str(buf, name);
        }
        HinError::SchemaShape(s) => {
            buf.push(3);
            put_str(buf, s);
        }
        HinError::Parse { line, message } => {
            buf.push(4);
            put_u64(buf, *line as u64);
            put_str(buf, message);
        }
        HinError::NonFiniteWeight {
            relation,
            src,
            dst,
            weight,
        } => {
            buf.push(5);
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
        // one name is ≥ 4 bytes of length prefix + 8 bytes of score, so a
        // hostile count fails on Truncated before any large allocation
        let mut items = Vec::new();
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
                let mut candidates = Vec::new();
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
}
