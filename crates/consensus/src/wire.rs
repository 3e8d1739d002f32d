//! Length-prefixed binary wire codec for [`Message`] frames.
//!
//! The socket transport ([`crate::socket`]) serializes every protocol
//! message through the vendored serde shim, and this module frames the
//! result. The message types are described once, by the derives in
//! `minbft/message.rs` — a new field needs no edit here — and the derives
//! give two paths through the payload format ([`serde::bin`]):
//!
//! * **The reference path** builds the shim's [`Value`] tree:
//!   `to_value` → [`encode_value_bytes`] out, [`decode_value_bytes`] →
//!   `from_value` in. It *defines* the wire: which byte strings are
//!   messages, which message each one is, and which [`WireError`] every
//!   other one earns. It is also the JSON backend's data model, and what
//!   every test compares the other path with.
//! * **The direct path** is what runs per frame: the derive-emitted
//!   [`serde::Serialize::encode`] appends those same bytes with no tree, and
//!   [`serde::Deserialize::decode`] reads a message straight out of the
//!   frame buffer — but only from the *canonical* rendering (fields in
//!   declared order, exact counts and tags, nothing defaulted), which is the
//!   only one an honest peer sends.
//!
//! [`decode_message`] tries the direct reader and, whenever that declines,
//! reruns the reference path on the same bytes. The direct reader therefore
//! never has to explain a rejection, or recognise input that is valid but
//! not canonical (reordered, unknown or duplicated keys): the accepted set,
//! the decoded message and every error are the reference path's by
//! construction, and a hostile frame costs one extra bounded pass.
//! Round-tripping is byte-exact: `encode(decode(bytes)) == bytes` for every
//! canonical payload (see `tests/properties.rs::wire_roundtrip`, which also
//! holds the two paths against each other on a hostile corpus, and
//! `tests/fixtures/wire-frames.json`, which pins the format across builds).
//!
//! # Wire format
//!
//! A frame is:
//!
//! ```text
//! ┌────────────┬───────────┬───────────┬──────────────────────┐
//! │ len: u32   │ from: u32 │ to: u32   │ payload (len-8 bytes)│
//! └────────────┴───────────┴───────────┴──────────────────────┘
//! ```
//!
//! `len` counts everything after itself (`from`, `to` and the payload), all
//! integers are little-endian, and the payload is one `Value` tree in the
//! tagged encoding tabulated in [`serde::bin`].
//!
//! # Robustness
//!
//! Malformed input **errors, never panics, never allocates unboundedly**: a
//! length prefix is rejected above `MAX_FRAME_LEN` before any payload is
//! read, every collection count is validated against the bytes actually
//! remaining before capacity is reserved (on both paths), nesting is capped
//! at a fixed depth (the reference decoder is recursive; the direct one
//! recurses only as deep as the message types nest), and trailing bytes after
//! a complete value are an error. The socket transport drops the connection
//! on the first [`WireError`] from a peer.

use crate::minbft::Message;
use crate::NodeId;
use serde::bin::{self, Reader, MAX_DEPTH};
use serde::{Deserialize, Serialize, Value};

/// Hard ceiling on the post-length-prefix size of one frame (16 MiB):
/// larger prefixes are rejected before any allocation. State transfers are
/// the largest legitimate frames and stay far below this (compaction bounds
/// the retained log).
pub(crate) const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Bytes of the frame header: the `len` prefix plus `from` and `to`.
pub const FRAME_HEADER_LEN: usize = 12;

/// What an encoder reserves before writing a frame of yet unknown size: the
/// steady-state frames (REQUEST, REPLY, COMMIT: 93–199 bytes) then cost one
/// allocation instead of a doubling series from empty.
const TYPICAL_FRAME_LEN: usize = 256;

/// A malformed frame or payload. Every variant is a protocol violation by
/// the peer; the connection that produced it is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the announced structure was complete.
    Truncated,
    /// A complete value was decoded but input bytes remain.
    TrailingBytes,
    /// The length prefix exceeds `MAX_FRAME_LEN`.
    FrameTooLarge {
        /// The announced frame length.
        len: u64,
    },
    /// The length prefix is shorter than the `from`/`to` header it must
    /// cover.
    FrameTooShort {
        /// The announced frame length.
        len: u64,
    },
    /// An unknown `Value` tag byte.
    UnknownTag {
        /// The rejected tag.
        tag: u8,
    },
    /// Value nesting exceeds the decoder's fixed depth cap.
    TooDeep,
    /// A string's bytes are not valid UTF-8.
    BadUtf8,
    /// The payload decoded into a `Value` tree that does not describe any
    /// protocol message (unknown variant, missing field, wrong type, or an
    /// integer out of range for its field).
    Malformed {
        /// The `Variant.field` (or enclosing position) that rejected the
        /// tree: [`serde::DeError::context`].
        context: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::FrameTooShort { len } => {
                write!(f, "frame length {len} cannot cover the from/to header")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown value tag {tag}"),
            WireError::TooDeep => write!(f, "value nesting exceeds {MAX_DEPTH}"),
            WireError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            WireError::Malformed { context } => write!(f, "malformed message: {context}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<bin::Error> for WireError {
    fn from(error: bin::Error) -> Self {
        match error {
            bin::Error::Truncated => WireError::Truncated,
            bin::Error::TrailingBytes => WireError::TrailingBytes,
            bin::Error::UnknownTag { tag } => WireError::UnknownTag { tag },
            bin::Error::TooDeep => WireError::TooDeep,
            bin::Error::BadUtf8 => WireError::BadUtf8,
        }
    }
}

/// Encodes one `Value` tree in the tagged binary format.
pub fn encode_value_bytes(value: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    bin::encode_value(value, &mut buf);
    buf
}

/// Decodes one `Value` tree, requiring the input to be fully consumed.
///
/// # Errors
///
/// Any [`WireError`] the bounds-checked decoder hits.
pub fn decode_value_bytes(bytes: &[u8]) -> Result<Value, WireError> {
    Ok(bin::decode_value(bytes)?)
}

/// Encodes a message payload (no frame header): the bytes
/// `encode_value_bytes(&message.to_value())` gives, written directly.
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut payload = Vec::with_capacity(TYPICAL_FRAME_LEN);
    message.encode(&mut payload);
    payload
}

/// Decodes a message payload produced by [`encode_message`]: the direct
/// reader on canonical input, the reference path (`Value` tree, then the
/// derived `from_value`) on everything else.
///
/// # Errors
///
/// Any [`WireError`]: malformed binary, or a `Value` tree that does not
/// describe a protocol message.
pub fn decode_message(bytes: &[u8]) -> Result<Message, WireError> {
    let mut reader = Reader::new(bytes);
    match Message::decode(&mut reader) {
        Some(message) if reader.remaining() == 0 => Ok(message),
        _ => message_from_value(&decode_value_bytes(bytes)?),
    }
}

/// Appends a full frame — length prefix, sender, recipient, payload — to
/// `out`, encoding the payload in place.
pub(crate) fn encode_frame_into(out: &mut Vec<u8>, from: NodeId, to: NodeId, message: &Message) {
    out.reserve(TYPICAL_FRAME_LEN);
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.extend_from_slice(&from.to_le_bytes());
    out.extend_from_slice(&to.to_le_bytes());
    message.encode(out);
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Encodes a full frame: length prefix, sender, recipient, payload.
pub fn encode_frame(from: NodeId, to: NodeId, message: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_frame_into(&mut frame, from, to, message);
    frame
}

/// Validates a frame's length prefix and returns the body size to read
/// (everything after the prefix: `from`, `to` and the payload).
///
/// # Errors
///
/// [`WireError::FrameTooShort`] when the length cannot cover the 8-byte
/// `from`/`to` header, [`WireError::FrameTooLarge`] beyond `MAX_FRAME_LEN`.
pub fn frame_body_len(prefix: [u8; 4]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix) as usize;
    if len < 8 {
        return Err(WireError::FrameTooShort { len: len as u64 });
    }
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    Ok(len)
}

/// Decodes a frame body (the bytes [`frame_body_len`] asked for) into
/// `(from, to, message)`.
///
/// # Errors
///
/// Any [`WireError`] from the payload decoder.
pub fn decode_frame_body(body: &[u8]) -> Result<(NodeId, NodeId, Message), WireError> {
    if body.len() < 8 {
        return Err(WireError::Truncated);
    }
    let from = u32::from_le_bytes(body[0..4].try_into().expect("4 bytes"));
    let to = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes"));
    let message = decode_message(&body[8..])?;
    Ok((from, to, message))
}

/// Bytes a [`FrameBuffer`] holds before any frame asks for more: one `read`
/// fills at most this much, and a connection that never completes a frame
/// never costs more.
const FRAME_BUFFER_LEN: usize = 64 * 1024;

/// Splits a byte stream into frames: [`FrameBuffer::read_from`] appends
/// whatever one `read` returns, [`FrameBuffer::next_frame`] decodes the
/// complete frames in place. The buffer is reused across reads; it grows
/// past `FRAME_BUFFER_LEN` only while a larger (prefix-validated) frame is
/// arriving, by doubling when it is *full of received bytes* — an announced
/// length alone allocates nothing — and shrinks back once drained.
#[derive(Debug)]
pub struct FrameBuffer {
    /// `buf[start..end]` holds the received, not yet decoded bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameBuffer {
    fn default() -> Self {
        FrameBuffer {
            buf: vec![0; FRAME_BUFFER_LEN],
            start: 0,
            end: 0,
        }
    }
}

impl FrameBuffer {
    /// An empty buffer of `FRAME_BUFFER_LEN` bytes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Issues one `read` into the free space and returns its byte count
    /// (`0` = end of stream). Call [`FrameBuffer::next_frame`] until it
    /// returns `Ok(None)` before reading again.
    ///
    /// # Errors
    ///
    /// Propagates the reader's error; nothing is consumed or lost then, so
    /// a timed-out read can simply be retried.
    pub fn read_from(&mut self, reader: &mut impl std::io::Read) -> std::io::Result<usize> {
        // What is left after decoding is at most one partial frame: move it
        // to the front so the whole tail is free.
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.end == 0 && self.buf.len() > FRAME_BUFFER_LEN {
            self.buf.truncate(FRAME_BUFFER_LEN);
            self.buf.shrink_to_fit();
        } else if self.end == self.buf.len() {
            // Full of one partial frame whose prefix `next_frame` accepted.
            let grown = (2 * self.buf.len()).min(4 + MAX_FRAME_LEN);
            self.buf.resize(grown, 0);
        }
        let n = reader.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Decodes the next complete frame, or `Ok(None)` when more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// The [`WireError`] of a bad length prefix (checked as soon as its four
    /// bytes are here) or of a malformed body. The stream is unusable
    /// afterwards: frame boundaries are lost.
    pub fn next_frame(&mut self) -> Result<Option<(NodeId, NodeId, Message)>, WireError> {
        let pending = &self.buf[self.start..self.end];
        let Some(prefix) = pending.first_chunk::<4>() else {
            return Ok(None);
        };
        let body_len = frame_body_len(*prefix)?;
        let Some(body) = pending.get(4..4 + body_len) else {
            return Ok(None);
        };
        let frame = decode_frame_body(body)?;
        self.start += 4 + body_len;
        Ok(Some(frame))
    }
}

/// Maps a decoded `Value` tree back into the [`Message`] it lowered from:
/// the derived [`Deserialize`] impl, the mirror image of the derived
/// `to_value` that [`encode_message`] starts from.
///
/// # Errors
///
/// [`WireError::Malformed`] when the tree does not describe any variant.
pub(crate) fn message_from_value(value: &Value) -> Result<Message, WireError> {
    Message::from_value(value, "message").map_err(|e| WireError::Malformed { context: e.context })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::{Digest, Signature};
    use crate::minbft::{ByzantineMode, ControlMessage, Operation, Request};
    use crate::usig::UniqueIdentifier;

    fn sample_ui(replica: NodeId, counter: u64) -> UniqueIdentifier {
        UniqueIdentifier {
            replica,
            counter,
            signature: Signature {
                signer: replica,
                tag: 0xdead_beef ^ counter,
            },
        }
    }

    fn sample_request(client: NodeId, id: u64, operation: Operation) -> Request {
        Request {
            client,
            id,
            operation,
        }
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Request(sample_request(10_000, 1, Operation::Read)),
            Message::Request(sample_request(10_001, 2, Operation::Write(7))),
            Message::Request(sample_request(
                10_002,
                3,
                Operation::Put { key: 9, value: 4 },
            )),
            Message::Request(sample_request(10_003, 4, Operation::Get { key: 9 })),
            Message::Request(sample_request(
                10_004,
                5,
                Operation::TxReserve {
                    tx: 1,
                    key: 2,
                    value: 3,
                },
            )),
            Message::Request(sample_request(
                10_005,
                6,
                Operation::TxCommit { tx: 1, key: 2 },
            )),
            Message::Request(sample_request(
                10_006,
                7,
                Operation::TxAbort { tx: 1, key: 2 },
            )),
            Message::Prepare {
                view: 3,
                sequence: 17,
                requests: vec![
                    sample_request(10_000, 8, Operation::Write(1)),
                    sample_request(10_001, 9, Operation::Get { key: 1 }),
                ],
                ui: sample_ui(0, 17),
            },
            Message::Commit {
                view: 3,
                sequence: 17,
                batch_digest: Digest(0x1234),
                ui: sample_ui(2, 5),
            },
            Message::Reply {
                request_id: 9,
                value: 42,
                sequence: 17,
            },
            Message::Checkpoint {
                sequence: 100,
                log_len: 230,
                state_digest: Digest(0x77),
            },
            Message::ViewChange {
                epoch: 1,
                new_view: 4,
                high_sequence: 19,
                stable_sequence: 10,
                prepared: vec![
                    (18, 3, vec![sample_request(10_002, 10, Operation::Read)]),
                    (19, 3, vec![]),
                ],
            },
            Message::NewView {
                epoch: 1,
                view: 4,
                membership: vec![0, 1, 2, 4],
                next_sequence: 20,
            },
            Message::StateRequest { epoch: 1 },
            Message::StateTransfer {
                epoch: 1,
                value: 5,
                kv: vec![(1, 2), (3, 4)],
                staged: vec![(9, 1, 7)],
                log_start: 10,
                last_executed: 19,
                log_chain: Digest(0xabc),
                stable_sequence: 10,
                executed: vec![Digest(1), Digest(2)],
                view: 4,
                membership: vec![0, 1, 2],
                replies: vec![(10_000, 8, 1, 18)],
                prepared: vec![(19, 3, vec![sample_request(10_001, 9, Operation::Read)])],
                chain_base: Digest(0x55),
                ui_high: vec![(0, 19), (1, 17), (2, 18)],
            },
            Message::UiResendRequest { from_counter: 12 },
            Message::Control(ControlMessage::Recover),
            Message::Control(ControlMessage::Reconfigure {
                epoch: 2,
                membership: vec![0, 1, 2, 5],
                frontier: 19,
            }),
            Message::Control(ControlMessage::Compromise {
                mode: ByzantineMode::Arbitrary,
            }),
        ]
    }

    #[test]
    fn every_variant_round_trips_byte_identically() {
        for message in sample_messages() {
            let bytes = encode_message(&message);
            let decoded = decode_message(&bytes).expect("decodes");
            assert_eq!(decoded, message);
            assert_eq!(encode_message(&decoded), bytes, "re-encoding must agree");
        }
    }

    #[test]
    fn the_direct_path_handles_every_canonical_payload_itself() {
        // A fallback on honest traffic would be invisible in the verdicts
        // (the reference path gives the same ones) and visible only as cost.
        for message in sample_messages() {
            let bytes = encode_message(&message);
            assert_eq!(bytes, encode_value_bytes(&message.to_value()));
            let mut reader = Reader::new(&bytes);
            assert_eq!(Message::decode(&mut reader), Some(message));
            assert_eq!(reader.remaining(), 0);
        }
    }

    #[test]
    fn frames_round_trip_through_header_validation() {
        for message in sample_messages() {
            let frame = encode_frame(3, 10_000, &message);
            let prefix: [u8; 4] = frame[0..4].try_into().unwrap();
            let body_len = frame_body_len(prefix).expect("valid length");
            assert_eq!(body_len, frame.len() - 4);
            let (from, to, decoded) = decode_frame_body(&frame[4..]).expect("decodes");
            assert_eq!((from, to), (3, 10_000));
            assert_eq!(decoded, message);
        }
    }

    #[test]
    fn oversized_and_undersized_length_prefixes_are_rejected() {
        let too_large = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes();
        assert_eq!(
            frame_body_len(too_large),
            Err(WireError::FrameTooLarge {
                len: (MAX_FRAME_LEN + 1) as u64
            })
        );
        assert_eq!(
            frame_body_len(7u32.to_le_bytes()),
            Err(WireError::FrameTooShort { len: 7 })
        );
        assert!(frame_body_len(8u32.to_le_bytes()).is_ok());
    }

    /// Feeds `stream` in `chunk`-byte reads and returns the decoded frames.
    fn split(buffer: &mut FrameBuffer, stream: &[u8], chunk: usize) -> Vec<Message> {
        let mut decoded = Vec::new();
        for mut piece in stream.chunks(chunk) {
            while !piece.is_empty() {
                buffer.read_from(&mut piece).expect("slices never fail");
                while let Some((_, _, message)) = buffer.next_frame().expect("valid frames") {
                    decoded.push(message);
                }
            }
        }
        decoded
    }

    #[test]
    fn frame_buffer_splits_a_stream_at_any_chunk_size() {
        let messages = sample_messages();
        let stream: Vec<u8> = messages
            .iter()
            .flat_map(|message| encode_frame(1, 2, message))
            .collect();
        for chunk in [1, 3, 7, 64, stream.len()] {
            assert_eq!(split(&mut FrameBuffer::new(), &stream, chunk), messages);
        }
    }

    #[test]
    fn frame_buffer_grows_only_as_bytes_arrive_and_shrinks_back() {
        let big = Message::StateTransfer {
            epoch: 1,
            value: 5,
            kv: (0..20_000).map(|i| (i, u64::from(i))).collect(),
            staged: vec![],
            log_start: 0,
            last_executed: 0,
            log_chain: Digest(1),
            stable_sequence: 0,
            executed: vec![],
            view: 0,
            membership: vec![0, 1, 2, 3],
            replies: vec![],
            prepared: vec![],
            chain_base: Digest(0),
            ui_high: vec![],
        };
        let frame = encode_frame(0, 1, &big);
        assert!(
            frame.len() > 4 * FRAME_BUFFER_LEN,
            "spans several doublings"
        );
        let mut buffer = FrameBuffer::new();
        let mut arrived = 0;
        for mut piece in frame[..frame.len() - 1].chunks(10_000) {
            while !piece.is_empty() {
                arrived += buffer.read_from(&mut piece).expect("slices never fail");
                assert_eq!(buffer.next_frame(), Ok(None));
                assert!(buffer.buf.len() <= FRAME_BUFFER_LEN.max(2 * arrived));
            }
        }
        let small = Message::StateRequest { epoch: 9 };
        let mut tail = frame[frame.len() - 1..].to_vec();
        tail.extend_from_slice(&encode_frame(0, 1, &small));
        assert_eq!(
            split(&mut buffer, &tail, tail.len()),
            vec![big, small.clone()]
        );
        // Drained: the next read runs in the standard buffer again.
        let again = encode_frame(0, 1, &small);
        assert_eq!(split(&mut buffer, &again, again.len()), vec![small]);
        assert_eq!(buffer.buf.len(), FRAME_BUFFER_LEN);
    }

    #[test]
    fn an_announced_length_alone_allocates_nothing() {
        // The slow-loris peer: the largest acceptable prefix, then ten bytes.
        let mut stream = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(&[0; 10]);
        let mut buffer = FrameBuffer::new();
        assert!(split(&mut buffer, &stream, 3).is_empty());
        assert_eq!(buffer.buf.len(), FRAME_BUFFER_LEN);
        // One byte more in the prefix is rejected as soon as it is complete.
        let mut buffer = FrameBuffer::new();
        let mut prefix = &((MAX_FRAME_LEN + 1) as u32).to_le_bytes()[..];
        buffer.read_from(&mut prefix).expect("slices never fail");
        assert!(matches!(
            buffer.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn truncations_of_a_valid_frame_never_panic() {
        let message = Message::StateTransfer {
            epoch: 1,
            value: 5,
            kv: (0..100).map(|i| (i, i as u64)).collect(),
            staged: vec![],
            log_start: 0,
            last_executed: 50,
            log_chain: Digest(1),
            stable_sequence: 0,
            executed: (0..50).map(Digest).collect(),
            view: 0,
            membership: vec![0, 1, 2, 3],
            replies: vec![],
            prepared: vec![],
            chain_base: Digest(0),
            ui_high: vec![],
        };
        let bytes = encode_message(&message);
        for cut in 0..bytes.len() {
            // Every proper prefix must fail cleanly (truncation errors, not
            // panics or bogus successes).
            assert!(decode_message(&bytes[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn corrupted_bytes_error_instead_of_panicking() {
        let original = encode_message(&Message::Prepare {
            view: 1,
            sequence: 2,
            requests: vec![sample_request(10_000, 1, Operation::Write(3))],
            ui: sample_ui(0, 2),
        });
        for position in 0..original.len() {
            let mut corrupted = original.clone();
            corrupted[position] ^= 0xff;
            // Either a clean decode error or a (harmless) different message;
            // never a panic. Decoding then re-encoding must stay consistent.
            if let Ok(message) = decode_message(&corrupted) {
                let reencoded = encode_message(&message);
                assert_eq!(
                    decode_message(&reencoded).expect("round trip"),
                    message,
                    "corruption at {position} produced an unstable decode"
                );
            }
        }
    }

    #[test]
    fn adversarial_counts_do_not_allocate_unboundedly() {
        // An array claiming u32::MAX elements backed by 4 bytes of input:
        // the count/remaining check must reject it before reserving.
        let mut bytes = vec![6u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_value_bytes(&bytes), Err(WireError::Truncated));

        // Same for objects (which reserve 5 bytes per entry minimum).
        let mut bytes = vec![7u8];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_value_bytes(&bytes), Err(WireError::Truncated));

        // A string claiming more bytes than remain.
        let mut bytes = vec![5u8];
        bytes.extend_from_slice(&1_000_000u32.to_le_bytes());
        bytes.extend_from_slice(b"short");
        assert_eq!(decode_value_bytes(&bytes), Err(WireError::Truncated));

        // The direct reader checks a count the same way before it reserves:
        // a canonical PREPARE up to a `requests` array of u32::MAX elements.
        let mut bytes = encode_message(&Message::Prepare {
            view: 1,
            sequence: 2,
            requests: vec![],
            ui: sample_ui(0, 2),
        });
        let count = bytes.windows(8).position(|w| w == b"requests").unwrap() + 8 + 1;
        bytes[count..count + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Message::decode(&mut Reader::new(&bytes)), None);
        assert_eq!(decode_message(&bytes), Err(WireError::Truncated));
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        // `[[[[…` one byte of array header per level: must hit the depth cap
        // long before exhausting the stack.
        let mut bytes = Vec::new();
        for _ in 0..10_000 {
            bytes.push(6u8);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(0u8); // innermost Null
        assert_eq!(decode_value_bytes(&bytes), Err(WireError::TooDeep));
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert_eq!(
            decode_value_bytes(&[9u8]),
            Err(WireError::UnknownTag { tag: 9 })
        );
        assert_eq!(decode_value_bytes(&[]), Err(WireError::Truncated));
        let mut bytes = encode_message(&Message::StateRequest { epoch: 1 });
        bytes.push(0);
        assert_eq!(decode_message(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn non_message_values_are_malformed_not_panics() {
        for value in [
            Value::Null,
            Value::U64(3),
            Value::Str("NotAVariant".into()),
            Value::Object(vec![("Prepare".into(), Value::Null)]),
            Value::Object(vec![("Reply".into(), Value::Object(vec![]))]),
            Value::Object(vec![
                ("Reply".into(), Value::Null),
                ("Commit".into(), Value::Null),
            ]),
        ] {
            assert!(matches!(
                message_from_value(&value),
                Err(WireError::Malformed { .. })
            ));
        }
    }
}
