//! Link-Layer PDU encodings.
//!
//! Three PDU families matter to the InjectaBLE reproduction:
//!
//! * [`advertising`] — broadcast PDUs on channels 37–39, including
//!   `CONNECT_REQ` (paper Table II), which the sniffer captures to recover
//!   all connection parameters;
//! * [`data`] — connected-mode data PDUs whose header carries the SN/NESN
//!   acknowledgement bits the attacker must forge (paper eq. 6) and observe
//!   (paper eq. 7);
//! * [`control`] — LL control PDUs: `LL_TERMINATE_IND` (scenario B),
//!   `LL_CONNECTION_UPDATE_IND` (scenarios C/D), `LL_CHANNEL_MAP_IND`,
//!   the encryption-start family, and the housekeeping opcodes.

pub mod advertising;
pub mod control;
pub mod data;

/// Error produced when PDU bytes cannot be parsed.
///
/// Every variant is a distinct malformation class, so callers (and tests)
/// can match on *why* a frame was rejected instead of string-comparing a
/// message — the sniffer treats a [`ParseError::UnknownOpcode`] very
/// differently from a truncated frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseError {
    /// Fewer bytes than the named field/structure requires.
    Truncated {
        /// What was being read when the input ran out.
        field: &'static str,
        /// Minimum number of bytes the field needs.
        expected: usize,
        /// Number of bytes actually available.
        got: usize,
    },
    /// The header's length field disagrees with the bytes on the wire.
    LengthMismatch {
        /// Length the header declares.
        declared: usize,
        /// Length actually present.
        actual: usize,
    },
    /// The reserved LLID encoding `0b00`.
    ReservedLlid,
    /// An LL control opcode this implementation does not model.
    UnknownOpcode(u8),
    /// An advertising PDU type this implementation does not model.
    UnknownAdvType(u8),
    /// A field with a structurally valid length but an invalid value.
    InvalidField(&'static str),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated {
                field,
                expected,
                got,
            } => write!(
                f,
                "malformed PDU: {field} truncated (need {expected} bytes, got {got})"
            ),
            ParseError::LengthMismatch { declared, actual } => write!(
                f,
                "malformed PDU: length field declares {declared} bytes but {actual} present"
            ),
            ParseError::ReservedLlid => write!(f, "malformed PDU: reserved LLID 0b00"),
            ParseError::UnknownOpcode(op) => {
                write!(f, "malformed PDU: unknown control opcode 0x{op:02X}")
            }
            ParseError::UnknownAdvType(ty) => {
                write!(
                    f,
                    "malformed PDU: unsupported advertising PDU type 0x{ty:X}"
                )
            }
            ParseError::InvalidField(field) => write!(f, "malformed PDU: invalid {field}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Reads a fixed-size array at `offset`, or reports what was missing.
///
/// The `try_into().expect(..)` idiom this replaces was a rule-R1 violation:
/// it relied on an earlier length check staying in sync with the slice
/// bounds. Here the bounds check and the array conversion are one fallible
/// operation.
pub(crate) fn take<const N: usize>(
    bytes: &[u8],
    offset: usize,
    field: &'static str,
) -> Result<[u8; N], ParseError> {
    bytes
        .get(offset..offset.saturating_add(N))
        .and_then(|s| <[u8; N]>::try_from(s).ok())
        .ok_or(ParseError::Truncated {
            field,
            expected: offset.saturating_add(N),
            got: bytes.len(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reads_arrays_and_reports_truncation() {
        let bytes = [1u8, 2, 3, 4, 5];
        assert_eq!(take::<2>(&bytes, 1, "field"), Ok([2, 3]));
        assert_eq!(take::<5>(&bytes, 0, "field"), Ok([1, 2, 3, 4, 5]));
        assert_eq!(
            take::<4>(&bytes, 3, "field"),
            Err(ParseError::Truncated {
                field: "field",
                expected: 7,
                got: 5
            })
        );
        // Offset overflow must not panic.
        assert!(take::<4>(&bytes, usize::MAX, "field").is_err());
    }

    #[test]
    fn display_messages_name_the_malformation() {
        let cases: [(ParseError, &str); 6] = [
            (
                ParseError::Truncated {
                    field: "header",
                    expected: 2,
                    got: 1,
                },
                "header truncated",
            ),
            (
                ParseError::LengthMismatch {
                    declared: 5,
                    actual: 3,
                },
                "declares 5",
            ),
            (ParseError::ReservedLlid, "reserved LLID"),
            (ParseError::UnknownOpcode(0xFF), "0xFF"),
            (ParseError::UnknownAdvType(0x9), "0x9"),
            (ParseError::InvalidField("interval"), "invalid interval"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
