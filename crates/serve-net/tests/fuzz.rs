//! Property-based fuzzing of the wire-protocol parsers.
//!
//! The decode side of the protocol faces untrusted bytes from the network,
//! so the contract under test is blunt: `decode_request`, `peek_len`, and
//! the preamble checks the server and client run (`check_client_preamble`,
//! `parse_server_preamble`) must never panic, and malformed input — truncated
//! frames, bit flips, inflated length prefixes, arbitrary byte soup —
//! must be rejected cleanly (`None` / `Err`) rather than misparsed into
//! out-of-bounds reads.

use proptest::prelude::*;
use reuse_serve_net::protocol::{
    check_client_preamble, decode_f32s, decode_request, encode_client_preamble, encode_request,
    encode_server_preamble, parse_server_preamble, peek_len, read_u32, OversizedFrame, MAX_MESSAGE,
    REQUEST_HEADER,
};

/// Strategy for a request payload: bit-pattern-diverse floats (covers
/// NaNs, infinities, subnormals — the decoder must treat them as bytes).
fn payload() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec((0u32..=u32::MAX).prop_map(f32::from_bits), 0..24)
}

/// One fully encoded request message (length prefix + body).
fn encoded_request() -> impl Strategy<Value = Vec<u8>> {
    (
        0u64..=u64::MAX,
        0u32..=u32::MAX,
        0u8..=u8::MAX,
        0u32..=u32::MAX,
        payload(),
    )
        .prop_map(|(stream_id, seq, flags, deadline_us, payload)| {
            let mut buf = Vec::new();
            encode_request(&mut buf, stream_id, seq, flags, deadline_us, &payload);
            buf
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary byte soup: no panic, and any accepted body is coherent.
    #[test]
    fn decode_request_survives_random_bytes(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..128)
    ) {
        match decode_request(&bytes) {
            None => {
                prop_assert!(
                    bytes.len() < REQUEST_HEADER
                        || !(bytes.len() - REQUEST_HEADER).is_multiple_of(4)
                );
            }
            Some(req) => {
                prop_assert!(bytes.len() >= REQUEST_HEADER);
                prop_assert_eq!(4 * req.payload.len(), bytes.len() - REQUEST_HEADER);
            }
        }
    }

    /// Every strict prefix of a valid frame is rejected or, when it still
    /// spans the header and a whole number of floats, parses to a shorter
    /// payload with unchanged header fields — never a panic, never an
    /// out-of-bounds read.
    #[test]
    fn truncated_requests_reject_cleanly(frame in encoded_request(), cut in 0usize..200) {
        let body = &frame[4..]; // decode_request sees the bytes after the prefix
        let cut = cut.min(body.len());
        let truncated = &body[..cut];
        match decode_request(truncated) {
            None => {
                prop_assert!(cut < REQUEST_HEADER || !(cut - REQUEST_HEADER).is_multiple_of(4));
            }
            Some(req) => {
                // A truncation landing on a float boundary is
                // indistinguishable from a shorter frame; the header
                // fields must still match the original.
                prop_assert_eq!(4 * req.payload.len(), cut - REQUEST_HEADER);
                let full = decode_request(body).unwrap();
                prop_assert_eq!(req.stream_id, full.stream_id);
                prop_assert_eq!(req.seq, full.seq);
                prop_assert_eq!(req.flags, full.flags);
                prop_assert_eq!(req.deadline_us, full.deadline_us);
            }
        }
    }

    /// Flipping any single bit of a valid body never panics; the length is
    /// unchanged, so the body must still decode, and the float decoder is
    /// total over the corrupted payload bytes.
    #[test]
    fn bit_flipped_requests_never_panic(frame in encoded_request(), bit in 0usize..2048) {
        let mut body = frame[4..].to_vec();
        let bit = bit % (body.len() * 8);
        body[bit / 8] ^= 1 << (bit % 8);
        let req = decode_request(&body).expect("bit flip cannot change body length");
        prop_assert_eq!(4 * req.payload.len(), body.len() - REQUEST_HEADER);
        prop_assert_eq!(decode_f32s(&body[REQUEST_HEADER..]).len(), req.payload.len());
    }

    /// `peek_len` on arbitrary bytes: incomplete prefixes wait, inflated
    /// prefixes are a hard protocol error, everything else reports the
    /// exact little-endian length.
    #[test]
    fn peek_len_classifies_all_prefixes(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..12)
    ) {
        match peek_len(&bytes) {
            Ok(None) => {
                prop_assert!(bytes.len() < 4);
            }
            Ok(Some(len)) => {
                prop_assert!(bytes.len() >= 4);
                prop_assert!(len <= MAX_MESSAGE);
                prop_assert_eq!(len, read_u32(&bytes, 0));
            }
            Err(OversizedFrame) => {
                prop_assert!(bytes.len() >= 4);
                prop_assert!(read_u32(&bytes, 0) > MAX_MESSAGE);
            }
        }
    }

    /// Inflating a valid frame's length prefix past `MAX_MESSAGE` must
    /// surface as `OversizedFrame` — the reader closes the connection
    /// instead of buffering gigabytes.
    #[test]
    fn oversized_prefix_is_a_hard_error(frame in encoded_request(), excess in 1u32..1_000_000) {
        let mut frame = frame;
        let inflated = MAX_MESSAGE.saturating_add(excess);
        frame[..4].copy_from_slice(&inflated.to_le_bytes());
        prop_assert_eq!(peek_len(&frame), Err(OversizedFrame));
    }

    /// Client and server preambles: the genuine encodings are accepted,
    /// and any single corrupted byte in the magic/version region is
    /// rejected.
    #[test]
    fn corrupted_preambles_are_rejected(at in 0usize..8, xor in 1u8..=255) {
        let mut client = Vec::new();
        encode_client_preamble(&mut client);
        prop_assert!(check_client_preamble(&client).unwrap());
        client[at] ^= xor;
        prop_assert!(check_client_preamble(&client).is_err());

        let mut server = Vec::new();
        encode_server_preamble(&mut server, 12, 4);
        prop_assert_eq!(parse_server_preamble(&server).unwrap(), (12, 4));
        server[at] ^= xor;
        prop_assert!(parse_server_preamble(&server).is_err());
    }

    /// Truncated preambles (partial handshake reads) never panic and never
    /// parse: a client preamble short of 8 bytes waits, a server preamble
    /// short of 16 is rejected.
    #[test]
    fn truncated_preambles_wait_or_reject(cut in 0usize..16) {
        let mut server = Vec::new();
        encode_server_preamble(&mut server, 7, 3);
        let cut = cut.min(server.len() - 1);
        prop_assert!(parse_server_preamble(&server[..cut]).is_err());
        let client_cut = cut.min(7);
        let mut client = Vec::new();
        encode_client_preamble(&mut client);
        prop_assert!(!check_client_preamble(&client[..client_cut]).unwrap());
    }

    /// Length-prefix / body agreement: for a genuine encoding, `peek_len`
    /// reports exactly the body length and the body decodes to the
    /// original payload size.
    #[test]
    fn encoded_frames_self_describe(frame in encoded_request()) {
        let len = peek_len(&frame).unwrap().unwrap() as usize;
        prop_assert_eq!(len, frame.len() - 4);
        let req = decode_request(&frame[4..4 + len]).unwrap();
        prop_assert_eq!(4 * req.payload.len(), len - REQUEST_HEADER);
    }
}
