//! Protocol invariants as debug assertions, plus masked-cast helpers.
//!
//! The protocol crates (`ble-phy`, `ble-link`, `ble-crypto`) are forbidden
//! from panicking on hot paths (rule R1 of `cargo xtask lint`), so violated
//! invariants cannot simply `panic!`. Instead they funnel through the macros
//! here, which expand to [`debug_assert!`]: a debug build (and the test
//! suite, including the property tests) aborts loudly on the first violated
//! invariant, while a release build treats the macro as documentation and
//! carries on with whatever recovery the call site implements.
//!
//! The masked-cast helpers exist because rule R2 bans truncating `as` casts
//! in PDU parsing/serialization. A call like [`len_u8`] states the intent
//! (this length provably fits a byte, mask it down) in one audited place
//! instead of scattering `as u8` across the parsers.
//!
//! This crate deliberately has **no dependencies**, so every other crate in
//! the workspace — including `ble-phy` at the bottom of the stack — can use
//! it without cycles.

#![forbid(unsafe_code)]

/// Asserts a named protocol invariant in debug builds.
///
/// The first argument is a short, stable invariant name (used in the panic
/// message); the rest is a `format!`-style explanation.
///
/// # Example
///
/// ```
/// use ble_invariants::invariant;
/// let hop = 7u8;
/// invariant!(hop >= 5 && hop <= 16, "hop", "hop increment {hop} outside 5..=16");
/// ```
#[macro_export]
macro_rules! invariant {
    ($cond:expr, $name:expr) => {
        debug_assert!($cond, "protocol invariant [{}] violated", $name);
    };
    ($cond:expr, $name:expr, $($arg:tt)+) => {
        debug_assert!(
            $cond,
            "protocol invariant [{}] violated: {}",
            $name,
            format_args!($($arg)+)
        );
    };
}

/// Asserts that a time window is well-formed: `start <= end`.
///
/// Works for any partially ordered pair — `simkit` `Instant`s bounding a
/// receive window, or plain microsecond counts. An inverted window means
/// the window-widening arithmetic (paper eq. 5) produced an opening time
/// after the closing time, which would make the radio listen for a
/// negative duration.
///
/// # Example
///
/// ```
/// use ble_invariants::invariant_window;
/// let (open, close) = (100u64, 250u64);
/// invariant_window!(open, close);
/// ```
#[macro_export]
macro_rules! invariant_window {
    ($start:expr, $end:expr) => {{
        let (start, end) = (&$start, &$end);
        debug_assert!(
            start <= end,
            "protocol invariant [window] violated: window start {:?} is after end {:?}",
            start,
            end
        );
    }};
    ($start:expr, $end:expr, $($arg:tt)+) => {{
        let (start, end) = (&$start, &$end);
        debug_assert!(
            start <= end,
            "protocol invariant [window] violated: start {:?} after end {:?}: {}",
            start,
            end,
            format_args!($($arg)+)
        );
    }};
}

/// Asserts that sequence-number state is a pair of single bits.
///
/// The Link Layer acknowledgement scheme (and the forged `SN`/`NESN`
/// values of paper eq. 6/7) only ever carries one-bit sequence numbers;
/// anything else means a header was assembled from unmasked arithmetic.
///
/// # Example
///
/// ```
/// use ble_invariants::invariant_sn_nesn;
/// let (sn, nesn) = (1u8, 0u8);
/// invariant_sn_nesn!(sn, nesn);
/// ```
#[macro_export]
macro_rules! invariant_sn_nesn {
    ($sn:expr, $nesn:expr) => {{
        let (sn, nesn) = ($sn, $nesn);
        debug_assert!(
            sn <= 1 && nesn <= 1,
            "protocol invariant [sn-nesn] violated: sn={sn} nesn={nesn} are not single bits"
        );
    }};
}

/// Asserts that a data-channel index is in range (`0..37`).
///
/// Channel-selection algorithms reduce modulo 37 and then remap through the
/// channel map; an out-of-range index escaping either step would select a
/// frequency outside the data-channel plan.
///
/// # Example
///
/// ```
/// use ble_invariants::invariant_channel;
/// invariant_channel!(36u8);
/// ```
#[macro_export]
macro_rules! invariant_channel {
    ($index:expr) => {{
        let index = $index;
        debug_assert!(
            index < 37,
            "protocol invariant [channel] violated: data channel index {index} not in 0..37"
        );
    }};
}

/// Masks a value down to its least-significant byte.
///
/// Use when the surrounding arithmetic already guarantees the value fits
/// (for example a sum reduced modulo 37 held in a wider type); the mask
/// makes the byte extraction explicit instead of relying on `as u8`
/// truncation semantics.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub const fn lsb8(v: u64) -> u8 {
    (v & 0xFF) as u8
}

/// Masks a value down to its least-significant 16 bits.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub const fn lsb16(v: u64) -> u16 {
    (v & 0xFFFF) as u16
}

/// Masks a value down to its least-significant 32 bits.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub const fn lsb32(v: u64) -> u32 {
    (v & 0xFFFF_FFFF) as u32
}

/// Converts a buffer length to the one-byte PDU `Length` field.
///
/// Debug-asserts that the length actually fits: PDU constructors bound
/// payloads to at most 255 bytes, so a larger value reaching serialization
/// is a bug upstream. Release builds mask.
#[must_use]
#[allow(clippy::cast_possible_truncation)]
pub fn len_u8(len: usize) -> u8 {
    debug_assert!(len <= 0xFF, "PDU payload length {len} exceeds one byte");
    (len & 0xFF) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_pass_on_valid_input() {
        invariant!(true, "always");
        invariant!(1 + 1 == 2, "arith", "{} plus {}", 1, 1);
        invariant_window!(0u64, 0u64);
        invariant_window!(5u64, 9u64, "listen window");
        invariant_sn_nesn!(0u8, 1u8);
        invariant_channel!(0u8);
        invariant_channel!(36u8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "protocol invariant [window]")]
    fn inverted_window_fires() {
        invariant_window!(10u64, 3u64);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "protocol invariant [sn-nesn]")]
    fn wide_sn_fires() {
        invariant_sn_nesn!(2u8, 0u8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "protocol invariant [channel]")]
    fn out_of_range_channel_fires() {
        invariant_channel!(37u8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "protocol invariant [named]")]
    fn generic_invariant_fires() {
        invariant!(false, "named", "details {}", 42);
    }

    #[test]
    fn masked_casts() {
        assert_eq!(lsb8(0x1FF), 0xFF);
        assert_eq!(lsb8(0x100), 0x00);
        assert_eq!(lsb16(0x1_FFFF), 0xFFFF);
        assert_eq!(lsb32(0x1_0000_0001), 1);
        assert_eq!(len_u8(251), 251);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "exceeds one byte")]
    fn oversized_len_fires() {
        let _ = len_u8(256);
    }
}
