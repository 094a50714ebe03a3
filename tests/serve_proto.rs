//! Differential property suite for the wire-protocol codecs: the
//! incremental [`FrameDecoder`] (the server's path) against the blocking
//! `read_frame_limited` (the client's), over arbitrary byte streams fed
//! at arbitrary split boundaries.
//!
//! The two codecs are independent implementations of the same grammar;
//! any divergence — a frame decoded by one and not the other, a
//! different error message, a panic, a hang — is a bug. Streams mix
//! valid frames, junk header lines, oversized declarations, truncated
//! frames, missing terminators, non-UTF-8 payloads, and partial headers
//! at EOF.

use std::io::BufRead;

use plt::serve::FrameDecoder;
use proptest::prelude::*;

/// How a codec run ended after the decoded frames.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Terminal {
    /// Clean EOF at a frame boundary.
    Clean,
    /// EOF mid-frame (peer died); no error frame owed.
    Truncated,
    /// Protocol violation; the message is the wire-visible error text.
    Error(String),
}

/// Runs the blocking codec over the whole stream.
fn run_blocking(bytes: &[u8], max_frame: usize) -> (Vec<String>, Terminal) {
    let mut frames = Vec::new();
    let mut r = std::io::BufReader::new(std::io::Cursor::new(bytes));
    loop {
        match plt::serve::proto::read_frame_limited(&mut r, max_frame) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Terminal::Clean),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return (frames, Terminal::Error(e.to_string()))
            }
            Err(_) => return (frames, Terminal::Truncated),
        }
    }
}

/// Runs the incremental decoder, pushing `bytes` in chunks cut at
/// pseudo-random boundaries derived from `split_seed`.
fn run_incremental(bytes: &[u8], max_frame: usize, split_seed: u64) -> (Vec<String>, Terminal) {
    let mut frames = Vec::new();
    let mut dec = FrameDecoder::new(max_frame);
    let mut state = split_seed | 1;
    let mut next_chunk = move || {
        // splitmix64 step; chunk lengths 1..=17 skew small to stress
        // resumption across every boundary class.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize % 17 + 1
    };
    let mut offset = 0;
    while offset < bytes.len() {
        let end = (offset + next_chunk()).min(bytes.len());
        dec.push(&bytes[offset..end]);
        offset = end;
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break,
                Err(e) => return (frames, Terminal::Error(e.to_string())),
            }
        }
    }
    match dec.finish() {
        Ok(false) => (frames, Terminal::Clean),
        Ok(true) => (frames, Terminal::Truncated),
        Err(e) => (frames, Terminal::Error(e.to_string())),
    }
}

/// Builds one stream segment from a `(kind, len, fill)` triple.
fn build_segment(out: &mut Vec<u8>, kind: u8, len: u16, fill: u8, max_frame: usize) {
    match kind % 8 {
        // Well-formed frame, printable payload.
        0 | 1 => {
            let payload: Vec<u8> = (0..len % 200)
                .map(|i| b' ' + ((fill as u16 + i) % 94) as u8)
                .collect();
            out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
            out.extend_from_slice(&payload);
            out.push(b'\n');
        }
        // Well-formed frame, arbitrary bytes (may be non-UTF-8 and may
        // embed newlines — the length prefix governs).
        2 => {
            let payload: Vec<u8> = (0..len % 200)
                .map(|i| (fill as u16 + i * 7) as u8)
                .collect();
            out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
            out.extend_from_slice(&payload);
            out.push(b'\n');
        }
        // Junk header line (non-numeric, short of the header cap).
        3 => {
            let junk: Vec<u8> = (0..len % 40 + 1)
                .map(|i| b'a' + ((fill as u16 + i) % 26) as u8)
                .collect();
            out.extend_from_slice(&junk);
            out.push(b'\n');
        }
        // Oversized declaration.
        4 => {
            out.extend_from_slice(format!("{}\n", max_frame + 1 + len as usize).as_bytes());
        }
        // Declared frame, truncated payload (what follows — or EOF —
        // gets consumed as payload bytes).
        5 => {
            let declared = len % 100 + 10;
            let sent = declared / 2;
            out.extend_from_slice(format!("{declared}\n").as_bytes());
            out.extend((0..sent).map(|i| b'a' + (i % 26) as u8));
        }
        // Frame with the terminator replaced by a payload-like byte.
        6 => {
            let payload: Vec<u8> = (0..len % 50).map(|i| b'0' + (i % 10) as u8).collect();
            out.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
            out.extend_from_slice(&payload);
            out.push(b'X');
        }
        // Bare digits, no newline (only meaningful as the final
        // segment: a partial header at EOF).
        _ => {
            out.extend_from_slice(format!("{}", len % 1000).as_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both codecs decode the identical frame sequence and agree on the
    /// terminal outcome — clean close, truncation, or the exact error
    /// text — for any segment mix at any chunking.
    #[test]
    fn incremental_and_blocking_codecs_agree(
        segments in proptest::collection::vec((0u8..8, 0u16..1000, 0u8..255), 1..10),
        split_seed in any::<u64>(),
        max_sel in 64u16..512,
    ) {
        let max_frame = max_sel as usize;
        let mut bytes = Vec::new();
        for (kind, len, fill) in &segments {
            build_segment(&mut bytes, *kind, *len, *fill, max_frame);
        }

        let (bf, bt) = run_blocking(&bytes, max_frame);
        let (inf, it) = run_incremental(&bytes, max_frame, split_seed);

        prop_assert_eq!(&bf, &inf, "decoded frames diverge on {:?}", &segments);
        prop_assert_eq!(&bt, &it, "terminal outcome diverges on {:?}", &segments);
    }

    /// Round-trip at every split: a stream of well-formed frames is
    /// recovered byte-identically however the reads are chunked.
    #[test]
    fn well_formed_streams_round_trip_at_any_split(
        payloads in proptest::collection::vec((0u16..300, 0u8..255), 0..12),
        split_seed in any::<u64>(),
    ) {
        let mut bytes = Vec::new();
        let mut expect = Vec::new();
        for (len, fill) in &payloads {
            let payload: String = (0..len % 300)
                .map(|i| (b' ' + ((*fill as u16 + i) % 94) as u8) as char)
                .collect();
            bytes.extend_from_slice(format!("{}\n{}\n", payload.len(), payload).as_bytes());
            expect.push(payload);
        }
        let (frames, terminal) = run_incremental(&bytes, 16 * 1024 * 1024, split_seed);
        prop_assert_eq!(frames, expect);
        prop_assert_eq!(terminal, Terminal::Clean);
    }
}

/// A header line that never terminates is cut off at 4 KiB instead of
/// buffering without bound, by both codecs and with the same error.
#[test]
fn runaway_headers_are_capped_not_buffered() {
    let runaway = vec![b'9'; 8192]; // digits, but no newline ever
    let mut dec = FrameDecoder::with_default_limit();
    dec.push(&runaway);
    let err = dec
        .next_frame()
        .expect_err("runaway header must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(
        dec.buffered() <= 8192,
        "decoder kept buffering after rejecting the header"
    );
    let (frames, terminal) = run_blocking(&runaway, 16 * 1024 * 1024);
    assert!(frames.is_empty());
    assert_eq!(terminal, Terminal::Error(err.to_string()));
}

/// A valid frame around `payload`.
fn frame(payload: &str) -> Vec<u8> {
    format!("{}\n{}\n", payload.len(), payload).into_bytes()
}

/// The replies a server owes for `bytes` sent on one connection,
/// computed in process: each frame the blocking codec decodes is
/// answered as the server's dispatch answers it (`Json::parse`, then
/// `Request::from_json`, then `Engine::handle`), and a framing violation
/// ends the exchange with `err_response` of the codec's error.
fn reference_replies(bytes: &[u8], engine: &plt::serve::Engine, max_frame: usize) -> Vec<String> {
    use plt::serve::json::Json;
    use plt::serve::proto::{err_response, read_frame_limited};
    use plt::serve::Request;

    let mut replies = Vec::new();
    let mut r = std::io::BufReader::new(bytes);
    loop {
        match read_frame_limited(&mut r, max_frame) {
            Ok(Some(frame)) => replies.push(match Json::parse(&frame) {
                Err(e) => err_response(e.to_string()).to_string(),
                Ok(v) => match Request::from_json(&v) {
                    Err(e) => err_response(e).to_string(),
                    Ok(request) => engine.handle(&request),
                },
            }),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                replies.push(err_response(e.to_string()).to_string());
                return replies;
            }
            Ok(None) | Err(_) => return replies,
        }
    }
}

/// Deterministic differential on the wire: for each malformed input the
/// server answers with byte-identical replies to the in-process
/// reference over a twin engine, and so it does for a `hello` asking for
/// an envelope version the server does not speak.
#[test]
fn both_server_models_emit_identical_error_frames() {
    use std::io::Write;

    use plt::serve::{bootstrap, serve, BuilderConfig, ServerConfig};

    let warmup = vec![vec![1, 2], vec![1, 2], vec![1, 3]];
    // Each case: the bytes one connection sends, and how many reply
    // frames the reference owes for them.
    let cases: Vec<(Vec<u8>, usize)> = vec![
        (b"notanumber\n{}\n".to_vec(), 1),
        (format!("{}\n", 16 * 1024 * 1024 + 1).into_bytes(), 1),
        (b"2\n{}X".to_vec(), 1),
        (b"7\nnotjson\n".to_vec(), 1),
        (frame(r#"{"op":"warp"}"#), 1),
        // A well-framed query the parser rejects.
        (frame(r#"{"op":"query","expr":"TOP"}"#), 1),
        // Runaway header: 8 KiB of digits, no newline.
        (vec![b'9'; 8192], 1),
        // Nesting far past the JSON depth bound, in one valid frame.
        (frame(&"[".repeat(100_000)), 1),
        // A v2 hello, then a ping: the ack says version 1 and the pong
        // stays flat.
        (
            [
                frame(r#"{"op":"hello","version":2}"#),
                frame(r#"{"op":"ping"}"#),
            ]
            .concat(),
            2,
        ),
    ];

    let config = BuilderConfig {
        window_capacity: 64,
        min_support: 2,
        ..BuilderConfig::default()
    };
    let (twin, twin_builder) = bootstrap(&warmup, config.clone()).expect("bootstrap twin");
    let (engine, builder) = bootstrap(&warmup, config).expect("bootstrap");
    let server_config = ServerConfig {
        reactors: 1,
        ..ServerConfig::default()
    };
    let max_frame = server_config.max_frame;
    let handle = serve("127.0.0.1:0", engine, Some(builder.queue()), server_config).expect("bind");

    let (mut wire, mut reference) = (Vec::new(), Vec::new());
    for (bytes, count) in &cases {
        let expected = reference_replies(bytes, &twin, max_frame);
        assert_eq!(
            expected.len(),
            *count,
            "reference for {:?}",
            &bytes[..16.min(bytes.len())]
        );
        let mut s = std::net::TcpStream::connect(handle.addr()).expect("connect");
        s.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        s.write_all(bytes).expect("write");
        let mut r = std::io::BufReader::new(s);
        for _ in 0..*count {
            let mut line = String::new();
            if r.read_line(&mut line).unwrap_or(0) == 0 {
                wire.push(String::from("<closed>"));
                break;
            }
            let len: usize = line.trim().parse().expect("response header");
            let mut payload = vec![0u8; len + 1];
            std::io::Read::read_exact(&mut r, &mut payload).expect("response payload");
            payload.pop();
            wire.push(String::from_utf8(payload).expect("utf-8 response"));
        }
        reference.extend(expected);
    }
    handle.shutdown();
    builder.stop();
    twin_builder.stop();
    assert_eq!(
        wire, reference,
        "the server answered malformed input unlike the in-process reference"
    );
    let [.., ack, pong] = wire.as_slice() else {
        panic!("no replies");
    };
    assert!(ack.starts_with(r#"{"ok":true,"version":1,"#), "{ack}");
    assert!(pong.starts_with(r#"{"ok":true,"pong":true,"#), "{pong}");
}
