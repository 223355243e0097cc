//! Fuzzing the wire decoder, [`Message::read_from`], with the `proptest`
//! shim: random bytes, valid frames mutated by a flip, an insert, a delete
//! or a cut, heads announcing hostile lengths, and sealed payloads whose
//! item or candidate counts lie.
//!
//! Whatever the input, the decoder must not panic; it must return a typed
//! error or a *clean* decode — one that re-encodes to exactly the bytes it
//! read — and its allocation must stay bounded by the input: no buffer it
//! asks a reader to fill is larger than one read chunk, and a decoded list
//! holds no more slots than the payload had room for.

use std::io::Read;

use hin_core::HinError;
use hin_linalg::codec::{write_frame, CodecError, Fnv64, FRAME_HEAD, FRAME_MAGIC, FRAME_VERSION};
use hin_query::{QueryError, QueryOutput, Verb};
use hin_serve::wire::{Message, MAX_MESSAGE, MAX_WARM};
use proptest::prelude::*;

/// The codec's read chunk: the most a frame body is sized ahead of the
/// bytes that fill it.
const READ_CHUNK: usize = 64 << 10;

/// The wire's frame types, as the format numbers them.
const KIND_RESPONSE: u8 = 2;
const KIND_WARM: u8 = 5;

/// A reader over `bytes` that remembers how far it was read and the
/// largest buffer it was asked to fill — the decoder reads each frame body
/// straight into the buffer it allocated for it.
struct Probe<'a> {
    bytes: &'a [u8],
    at: usize,
    largest: usize,
}

impl<'a> Probe<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Probe {
            bytes,
            at: 0,
            largest: 0,
        }
    }
}

impl Read for Probe<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        let n = buf.len().min(self.bytes.len() - self.at);
        buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Decode `input` once and hold the decoder to the fuzz property; hand back
/// what it returned and how many bytes it read.
fn decode(input: &[u8]) -> Result<(Result<Message, CodecError>, usize), String> {
    let mut probe = Probe::new(input);
    let got = Message::read_from(&mut probe);
    prop_assert!(
        probe.largest <= READ_CHUNK,
        "a {}-byte buffer for a {}-byte input",
        probe.largest,
        input.len()
    );
    match &got {
        Ok(msg) => {
            let mut again = Vec::new();
            msg.write_to(&mut again).expect("re-encode");
            prop_assert!(
                again == input[..probe.at],
                "{msg:?} is not the bytes it was read from"
            );
            if let Message::Response {
                result: Ok(out), ..
            } = msg
            {
                prop_assert!(out.items.capacity() <= probe.at / 12);
            }
        }
        Err(CodecError::Io(e)) => prop_assert!(false, "an in-memory read failed: {e}"),
        Err(_) => {}
    }
    Ok((got, probe.at))
}

/// A message of each shape the wire carries, filled from `text` and `n`.
fn message(shape: usize, text: &str, n: u64) -> Message {
    let words = || text.split(' ').map(str::to_string);
    match shape {
        0 => Message::Request {
            id: n,
            ttl_micros: n >> 7,
            query: text.to_string(),
        },
        1 => Message::Response {
            id: n,
            result: Ok(QueryOutput {
                verb: Verb::TopK,
                object_type: "author".to_string(),
                items: words()
                    .zip(0..)
                    .map(|(w, i)| (w, n as f64 / (i + 1) as f64))
                    .collect(),
            }),
        },
        2 => Message::Response {
            id: n,
            result: Err(QueryError::AmbiguousRelation {
                src: "author".to_string(),
                dst: text.to_string(),
                candidates: words().collect(),
            }),
        },
        3 => Message::Response {
            id: n,
            result: Err(QueryError::Hin(HinError::Parse {
                line: n as usize,
                message: text.to_string(),
            })),
        },
        4 => Message::Ping { nonce: n },
        5 => Message::Warm {
            image: text.as_bytes().to_vec(),
        },
        _ => Message::WarmAck {
            loaded: n,
            rejected: !n,
        },
    }
}

/// A version-2 head built by hand, with a valid check word, announcing a
/// `len`-byte payload of frame type `kind`.
fn head(kind: u8, len: u32) -> Vec<u8> {
    let mut head = FRAME_MAGIC.to_vec();
    head.extend_from_slice(&[FRAME_VERSION, kind]);
    head.extend_from_slice(&len.to_le_bytes());
    let mut check = Fnv64::new();
    check.update_word(u64::from_le_bytes(head[..8].try_into().unwrap()));
    check.update_word(u64::from(u16::from_le_bytes(head[8..].try_into().unwrap())));
    head.extend_from_slice(&check.finish().to_le_bytes());
    assert_eq!(head.len(), FRAME_HEAD);
    head
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A count that lies about the `real` entries behind it, from `pick`.
fn lying_count(real: u64, pick: u64, room: u64) -> u64 {
    match pick % 6 {
        0 => real + 1,
        1 => real.saturating_sub(1),
        2 => room / 4 + 1,
        3 => 1 << 40,
        4 => u64::MAX,
        _ => pick,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_are_refused_or_clean(bytes in prop::collection::vec(0u8..=255, 0..300),
                                         framed in 0u8..3) {
        // a third of the inputs open with the magic, a third with a whole
        // version-2 prefix, so the later checks are reached too
        let mut input = match framed {
            0 => Vec::new(),
            1 => FRAME_MAGIC.to_vec(),
            _ => [FRAME_MAGIC.as_slice(), &[FRAME_VERSION]].concat(),
        };
        input.extend_from_slice(&bytes);
        let _ = decode(&input)?;
    }

    #[test]
    fn mutated_frames_are_refused_or_clean(shape in 0usize..7,
                                           text in "[a-z \\-]{0,40}",
                                           n in 0u64..=u64::MAX,
                                           op in 0u8..4,
                                           at in 0usize..1 << 16,
                                           byte in 0u8..=255) {
        let mut input = Vec::new();
        message(shape, &text, n).write_to(&mut input).unwrap();
        let len = input.len();
        match op {
            0 => input[at % len] ^= 1 << (byte % 8),
            1 => input.insert(at % (len + 1), byte),
            2 => drop(input.remove(at % len)),
            _ => input.truncate(at % len),
        }
        let (got, _) = decode(&input)?;
        match op {
            0 => prop_assert!(got.is_err(), "a flipped bit decoded: {got:?}"),
            3 => prop_assert!(matches!(got, Err(CodecError::Truncated)), "{got:?}"),
            _ => {}
        }
    }

    #[test]
    fn hostile_lengths_fail_before_they_are_trusted(kind in 0u8..8,
                                                    pick in 0usize..10,
                                                    raw in 0u32..=u32::MAX,
                                                    extra in prop::collection::vec(0u8..=255, 0..64)) {
        let len = [
            0,
            7,
            READ_CHUNK as u32 - 1,
            READ_CHUNK as u32,
            READ_CHUNK as u32 + 1,
            MAX_MESSAGE as u32,
            MAX_MESSAGE as u32 + 1,
            MAX_WARM as u32,
            MAX_WARM as u32 + 1,
        ]
        .get(pick)
        .copied()
        .unwrap_or(raw);
        let input = [head(kind, len), extra].concat();
        let (got, read) = decode(&input)?;
        let cap = if kind == KIND_WARM { MAX_WARM } else { MAX_MESSAGE };
        if len as usize > cap {
            prop_assert!(matches!(got, Err(CodecError::Malformed(_))), "{got:?}");
            prop_assert_eq!(read, FRAME_HEAD, "an over-cap length read past its head");
        } else if len as usize + 8 > input.len() - FRAME_HEAD {
            prop_assert!(matches!(got, Err(CodecError::Truncated)), "{got:?}");
        }
    }

    #[test]
    fn lying_item_and_candidate_counts_are_refused(names in prop::collection::vec("[a-z]{0,12}", 0..20),
                                                   pick in 0u64..=u64::MAX,
                                                   candidates in 0u8..2,
                                                   verb in 0u8..6) {
        let mut payload = 7u64.to_le_bytes().to_vec();
        if candidates == 0 {
            payload.extend_from_slice(&[0, verb]);
            put_str(&mut payload, "author");
        } else {
            payload.extend_from_slice(&[1, 2]);
            put_str(&mut payload, "author");
            put_str(&mut payload, "paper");
        }
        let real = names.len() as u64;
        let room = payload.len() + 8 + names.iter().map(|s| 12 + s.len()).sum::<usize>();
        let count = lying_count(real, pick, room as u64);
        payload.extend_from_slice(&count.to_le_bytes());
        for (i, name) in names.iter().enumerate() {
            put_str(&mut payload, name);
            if candidates == 0 {
                payload.extend_from_slice(&(i as f64).to_bits().to_le_bytes());
            }
        }
        let mut input = Vec::new();
        write_frame(&mut input, KIND_RESPONSE, &payload).unwrap();
        let (got, _) = decode(&input)?;
        if count != real {
            prop_assert!(
                matches!(got, Err(CodecError::Truncated | CodecError::Malformed(_))),
                "{count} claimed, {real} sent: {got:?}"
            );
        } else if candidates == 1 || verb < 5 {
            prop_assert!(got.is_ok(), "{got:?}");
        }
    }
}
