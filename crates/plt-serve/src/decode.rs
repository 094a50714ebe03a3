//! Incremental frame codec for nonblocking connections.
//!
//! [`FrameDecoder`] consumes the same `<len>\n<payload>\n` framing as
//! the blocking [`read_frame_limited`](crate::proto::read_frame_limited)
//! but from arbitrary byte chunks: a reactor feeds it whatever a
//! nonblocking read returned — half a header, three frames and a
//! fragment, one byte — and pops complete frames as they materialize.
//! The contract, enforced by the `serve_proto` differential proptest, is
//! byte-identical agreement with the blocking codec: the same stream
//! yields the same frame sequence, and malformed input produces the same
//! `InvalidData` error *messages* (they are sent to peers as error
//! frames, so the text is part of the protocol surface).
//!
//! [`encode_frame`] / [`encode_frame_with`] are the write-side duals:
//! they render a frame to owned bytes the connection drains through
//! partial writes, mirroring `write_frame_with`'s fault injection
//! (a torn frame truncates the bytes; an oversized one lies in the
//! header — both mark the connection for closure after the flush).

use crate::fault::{FaultPlan, FrameFault, Site};
use crate::proto::MAX_FRAME_BYTES;

/// Longest accepted length header, including its newline, in both
/// codecs: a peer that never sends the newline is refused instead of
/// buffered. 4096 admits any genuine header (a `usize` is at most 20
/// digits) with room for absurd whitespace padding, while bounding header
/// memory per connection.
pub const MAX_HEADER_BYTES: usize = 4096;

#[derive(Debug)]
enum State {
    /// Accumulating the length line.
    Header,
    /// Header parsed; waiting for `len` payload bytes + trailing newline.
    Payload { len: usize },
    /// A framing error was reported; the connection is unrecoverable.
    Poisoned,
}

/// Push-based decoder: [`push`](Self::push) raw bytes in,
/// [`next_frame`](Self::next_frame) complete frames out.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    state: State,
    max_frame: usize,
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl FrameDecoder {
    pub fn new(max_frame: usize) -> FrameDecoder {
        FrameDecoder {
            buf: Vec::new(),
            state: State::Header,
            max_frame,
        }
    }

    /// Decoder with the protocol-default frame limit.
    pub fn with_default_limit() -> FrameDecoder {
        FrameDecoder::new(MAX_FRAME_BYTES)
    }

    /// Bytes buffered but not yet decoded (backpressure signal).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Appends raw bytes from the transport.
    pub fn push(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Pops the next complete frame, if the buffer holds one.
    ///
    /// * `Ok(Some(payload))` — one full frame decoded and consumed.
    /// * `Ok(None)` — need more bytes; call again after `push`.
    /// * `Err(InvalidData)` — framing violation; message matches the
    ///   blocking codec and should be sent as an error frame before
    ///   closing. The decoder is poisoned afterwards.
    pub fn next_frame(&mut self) -> std::io::Result<Option<String>> {
        loop {
            match self.state {
                State::Poisoned => {
                    return Err(invalid("frame decoder poisoned by earlier error".into()))
                }
                State::Header => {
                    let probe = &self.buf[..self.buf.len().min(MAX_HEADER_BYTES)];
                    let Some(nl) = probe.iter().position(|&b| b == b'\n') else {
                        if self.buf.len() >= MAX_HEADER_BYTES {
                            self.state = State::Poisoned;
                            return Err(invalid(format!(
                                "frame header exceeds {MAX_HEADER_BYTES} bytes"
                            )));
                        }
                        return Ok(None);
                    };
                    // Keep the newline in the lossy rendering: the
                    // blocking codec's `read_line` includes it, and its
                    // error text is part of the protocol surface.
                    let header = String::from_utf8_lossy(&self.buf[..=nl]).into_owned();
                    let Ok(len) = header.trim().parse::<usize>() else {
                        self.state = State::Poisoned;
                        return Err(invalid(format!("invalid frame header {header:?}")));
                    };
                    if len > self.max_frame {
                        self.state = State::Poisoned;
                        return Err(invalid(format!("frame of {len} bytes exceeds limit")));
                    }
                    self.buf.drain(..=nl);
                    self.state = State::Payload { len };
                }
                State::Payload { len } => {
                    // Payload plus its trailing newline.
                    if self.buf.len() < len + 1 {
                        return Ok(None);
                    }
                    if self.buf[len] != b'\n' {
                        self.state = State::Poisoned;
                        return Err(invalid("frame missing trailing newline".into()));
                    }
                    let payload = self.buf[..len].to_vec();
                    self.buf.drain(..=len);
                    self.state = State::Header;
                    return match String::from_utf8(payload) {
                        Ok(s) => Ok(Some(s)),
                        Err(_) => {
                            self.state = State::Poisoned;
                            Err(invalid("frame is not utf-8".into()))
                        }
                    };
                }
            }
        }
    }

    /// Settles the stream at EOF, mirroring what the blocking codec does
    /// with the same trailing bytes:
    ///
    /// * empty buffer at a frame boundary — clean close, `Ok(false)`;
    /// * a headerless fragment that parses as a length (`read_line`
    ///   returns partial lines at EOF) — truncated frame, `Ok(true)`:
    ///   the blocking side fails with `UnexpectedEof`, which is *not* an
    ///   `InvalidData` protocol error, so no error frame is owed;
    /// * a fragment that does not parse — `Err(InvalidData)` with the
    ///   blocking codec's message, error frame owed;
    /// * mid-payload — truncated frame, `Ok(true)`.
    pub fn finish(&mut self) -> std::io::Result<bool> {
        match self.state {
            State::Poisoned => Ok(true),
            State::Payload { .. } => Ok(true),
            State::Header => {
                if self.buf.is_empty() {
                    return Ok(false);
                }
                let header = String::from_utf8_lossy(&self.buf).into_owned();
                let Ok(len) = header.trim().parse::<usize>() else {
                    self.state = State::Poisoned;
                    return Err(invalid(format!("invalid frame header {header:?}")));
                };
                if len > self.max_frame {
                    self.state = State::Poisoned;
                    return Err(invalid(format!("frame of {len} bytes exceeds limit")));
                }
                Ok(true)
            }
        }
    }
}

/// Renders one clean frame to owned bytes.
pub fn encode_frame(payload: &str) -> Vec<u8> {
    debug_assert!(!payload.contains('\n'), "payloads are single-line JSON");
    format!("{}\n{}\n", payload.len(), payload).into_bytes()
}

/// Renders one frame under a fault plan, mirroring
/// [`write_frame_with`](crate::proto::write_frame_with): returns the
/// bytes to put on the wire and whether the connection must be closed
/// once they flush (a torn or oversized frame leaves the stream
/// unparseable, exactly like the blocking writer erroring out).
pub fn encode_frame_with(payload: &str, fault: Option<(&FaultPlan, Site)>) -> (Vec<u8>, bool) {
    if let Some((plan, site)) = fault {
        let encoded = format!("{}\n{}\n", payload.len(), payload);
        match plan.frame_fault(site, encoded.len()) {
            Some(FrameFault::Torn { keep }) => {
                let keep = keep.min(encoded.len().saturating_sub(1));
                return (encoded.into_bytes()[..keep].to_vec(), true);
            }
            Some(FrameFault::Oversized) => {
                let bytes = format!("{}\n{}\n", MAX_FRAME_BYTES + 1, payload).into_bytes();
                return (bytes, true);
            }
            None => {}
        }
    }
    (encode_frame(payload), false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame_limited, write_frame};

    #[test]
    fn whole_frames_decode() {
        let mut d = FrameDecoder::with_default_limit();
        d.push(b"4\nping\n13\n{\"op\":\"ping\"}\n");
        assert_eq!(d.next_frame().unwrap().as_deref(), Some("ping"));
        assert_eq!(d.next_frame().unwrap().as_deref(), Some(r#"{"op":"ping"}"#));
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(!d.finish().unwrap(), "clean boundary");
    }

    #[test]
    fn one_byte_at_a_time_decodes_identically() {
        let mut clean = Vec::new();
        write_frame(&mut clean, r#"{"op":"stats"}"#).unwrap();
        write_frame(&mut clean, "x").unwrap();
        let mut d = FrameDecoder::with_default_limit();
        let mut out = Vec::new();
        for &b in &clean {
            d.push(&[b]);
            while let Some(f) = d.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, vec![r#"{"op":"stats"}"#.to_string(), "x".to_string()]);
    }

    #[test]
    fn error_messages_match_the_blocking_codec() {
        // Each malformed stream must produce the same message through
        // both codecs — peers see this text in error frames.
        let cases: Vec<&[u8]> = vec![
            b"notanumber\n{}\n",
            b"2\nxyz\n",    // payload followed by junk, no newline at [len]
            b"3\nab\xff\n", // invalid utf-8 payload
            b"99999999999999999999999999\n", // unparseable (overflow) header
            &[b'9'; MAX_HEADER_BYTES + 10], // runaway header, no newline
        ];
        for stream in cases {
            let mut r = std::io::Cursor::new(stream.to_vec());
            let blocking = read_frame_limited(&mut r, 64).unwrap_err();
            let mut d = FrameDecoder::new(64);
            d.push(stream);
            let incremental = loop {
                match d.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break d.finish().unwrap_err(),
                    Err(e) => break e,
                }
            };
            assert_eq!(blocking.kind(), incremental.kind());
            assert_eq!(blocking.to_string(), incremental.to_string());
        }
    }

    #[test]
    fn oversized_header_is_rejected_before_payload_allocation() {
        let mut d = FrameDecoder::new(16);
        d.push(b"17\n");
        let err = d.next_frame().unwrap_err();
        assert!(err.to_string().contains("exceeds limit"), "{err}");
        // Poisoned thereafter.
        d.push(b"4\nping\n");
        assert!(d.next_frame().is_err());
    }

    #[test]
    fn runaway_header_is_capped() {
        let mut d = FrameDecoder::with_default_limit();
        d.push(&vec![b'9'; MAX_HEADER_BYTES + 10]);
        let err = d.next_frame().unwrap_err();
        assert!(err.to_string().contains("header exceeds"), "{err}");
    }

    #[test]
    fn eof_mid_frame_is_truncation_not_protocol_error() {
        // Parsable partial header: blocking fails UnexpectedEof (no
        // error frame); incremental reports truncation the same way.
        let mut d = FrameDecoder::with_default_limit();
        d.push(b"12");
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(d.finish().unwrap(), "truncated");
        // Mid-payload.
        let mut d = FrameDecoder::with_default_limit();
        d.push(b"5\nab");
        assert_eq!(d.next_frame().unwrap(), None);
        assert!(d.finish().unwrap(), "truncated");
        // Garbage partial header: protocol error, frame owed.
        let mut d = FrameDecoder::with_default_limit();
        d.push(b"nope");
        assert_eq!(d.next_frame().unwrap(), None);
        let err = d.finish().unwrap_err();
        assert!(err.to_string().contains("invalid frame header"), "{err}");
    }

    #[test]
    fn encoder_matches_blocking_writer() {
        let mut blocking = Vec::new();
        write_frame(&mut blocking, r#"{"ok":true}"#).unwrap();
        assert_eq!(encode_frame(r#"{"ok":true}"#), blocking);
    }

    #[test]
    fn faulty_encoder_mirrors_write_frame_with() {
        use crate::fault::FaultConfig;
        let plan = FaultPlan::new(FaultConfig {
            torn_frame: 1.0,
            ..FaultConfig::disabled(5)
        });
        let (bytes, close) =
            encode_frame_with(r#"{"op":"ping"}"#, Some((&plan, Site::ServerWrite)));
        assert!(close);
        let clean = encode_frame(r#"{"op":"ping"}"#);
        assert!(!bytes.is_empty() && bytes.len() < clean.len());
        assert_eq!(&clean[..bytes.len()], &bytes[..]);

        let plan = FaultPlan::new(FaultConfig {
            oversized_frame: 1.0,
            ..FaultConfig::disabled(5)
        });
        let (bytes, close) = encode_frame_with("{}", Some((&plan, Site::ServerWrite)));
        assert!(close);
        let mut d = FrameDecoder::with_default_limit();
        d.push(&bytes);
        assert!(d
            .next_frame()
            .unwrap_err()
            .to_string()
            .contains("exceeds limit"));

        let (bytes, close) = encode_frame_with("{}", None);
        assert!(!close);
        assert_eq!(bytes, encode_frame("{}"));
    }
}
