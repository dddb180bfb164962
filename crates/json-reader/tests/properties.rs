//! Properties of the reader on arbitrary input and on the documents the
//! workspace really writes.
//!
//! The fixtures under `tests/data/` are real output: a campaign checkpoint
//! sidecar line (`exp1_hop_interval --checkpoint-dir`), one telemetry JSONL
//! line per event kind of `timeline --demo`, and an `exp1_hop_interval`
//! artefact. Resume and `timeline` skip any line the reader rejects, so the
//! torn-line contract — every strict prefix of a document is an error — is
//! what keeps a killed writer from being half-read.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use json_reader::{parse, Value, MAX_DEPTH};
use proptest::prelude::*;

const CHECKPOINT: &str = include_str!("data/checkpoint.jsonl");
const TELEMETRY: &str = include_str!("data/telemetry.jsonl");
const ARTEFACT: &str = include_str!("data/artefact.json");

/// Bytes drawn half from JSON's own alphabet, so that generated inputs
/// get past the first byte often enough to exercise every branch, and half
/// from all 256 values.
fn json_ish_byte() -> impl Strategy<Value = u8> {
    const ALPHABET: &[u8] = b"{}[]:,\"\\ntrufalse0123456789.-+eE u/ \n";
    prop_oneof![(0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), any::<u8>()]
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(json_ish_byte(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = parse(&text) {
            prop_assert!(e.offset() <= text.len(), "{e} past the end of {text:?}");
        }
    }

    #[test]
    fn every_u64_survives_as_a_token(n in any::<u64>()) {
        let v = parse(&format!("{{\"seed\":{n},\"max\":{}}}", u64::MAX)).unwrap();
        prop_assert_eq!(v.get("seed").and_then(Value::num::<u64>), Some(n));
        prop_assert_eq!(v.get("max").and_then(Value::num::<u64>), Some(u64::MAX));
    }

    #[test]
    fn nesting_past_the_bound_is_an_error(depth in 1usize..2 * MAX_DEPTH, object in any::<bool>()) {
        let (open, close) = if object { ("{\"k\":", "}") } else { ("[", "]") };
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        prop_assert_eq!(parse(&text).is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
        // A million open brackets fail at the bound, not on the stack.
        let err = parse(&open.repeat(1_000_000)).unwrap_err();
        prop_assert_eq!(err.offset(), MAX_DEPTH * open.len());
    }
}

#[test]
fn every_strict_prefix_of_a_real_document_is_an_error() {
    let documents = [CHECKPOINT, ARTEFACT].into_iter().chain(TELEMETRY.lines());
    for doc in documents {
        // Trailing whitespace is not content.
        let doc = doc.trim_end();
        parse(doc).unwrap_or_else(|e| panic!("fixture must parse: {e}"));
        for cut in (0..doc.len()).filter(|&cut| doc.is_char_boundary(cut)) {
            let prefix = &doc[..cut];
            assert!(
                parse(prefix).is_err(),
                "a {cut}-byte prefix parsed: {prefix:?}"
            );
        }
    }
}
