//! Link-Layer timing rules.
//!
//! These are the formulas at the heart of the paper: the connection
//! interval (eq. 2), the transmit window (eq. 1) and the window widening
//! the attack exploits (eqs. 4–5).

use ble_invariants::invariant_window;
use simkit::{Duration, Instant};

/// The inter-frame spacing: 150 µs between consecutive frames of a
/// connection event.
pub const T_IFS: Duration = Duration::from_micros(150);

/// The base time unit for connection parameters: 1.25 ms.
pub const UNIT_1_25_MS: Duration = Duration::from_micros(1250);

/// The supervision-timeout unit: 10 ms.
pub const UNIT_10_MS: Duration = Duration::from_millis(10);

/// The constant instantaneous-jitter allowance in window widening: 32 µs
/// (16 µs of sleep-clock instantaneous deviation on each side).
pub const WIDENING_JITTER: Duration = Duration::from_micros(32);

/// Connection interval from the `Hop Interval` field (paper eq. 2):
/// `interval × 1.25 ms`.
///
/// # Example
///
/// ```
/// use ble_link::timing::connection_interval;
/// // The paper's smartphone default: hop interval 36 → 45 ms.
/// assert_eq!(connection_interval(36).as_micros(), 45_000);
/// ```
pub fn connection_interval(hop_interval: u16) -> Duration {
    UNIT_1_25_MS.saturating_mul(u64::from(hop_interval))
}

/// Window widening for a receiver expecting the next anchor (paper eq. 4):
///
/// `w = (SCA_m + SCA_s)/10⁶ × (t_nextAnchor − t_lastAnchor) + 32 µs`
///
/// `elapsed_since_anchor` is the time between the last *observed* anchor
/// point and the predicted next one — equal to the connection interval when
/// every event is received (paper eq. 5), and larger after missed events or
/// with nonzero slave latency.
///
/// # Example
///
/// ```
/// use ble_link::timing::{connection_interval, window_widening};
/// // 50 ppm master + 20 ppm slave over a 45 ms interval: 3.15 + 32 µs.
/// let w = window_widening(50.0, 20.0, connection_interval(36));
/// assert_eq!(w.as_nanos(), 35_150);
/// ```
pub fn window_widening(
    sca_master_ppm: f64,
    sca_slave_ppm: f64,
    elapsed_since_anchor: Duration,
) -> Duration {
    let drift = elapsed_since_anchor.mul_f64((sca_master_ppm + sca_slave_ppm) * 1e-6);
    let widening = drift.saturating_add(WIDENING_JITTER);
    // Eq. 4's constant term is a hard floor: a widening below 32 µs means
    // the drift arithmetic went negative or wrapped.
    invariant_window!(WIDENING_JITTER, widening, "widening below jitter floor");
    widening
}

/// Start offset of the transmit window relative to its reference point
/// (paper eq. 1): `1.25 ms + WinOffset × 1.25 ms`. The reference is the end
/// of `CONNECT_REQ` at connection initiation, or the would-have-been anchor
/// at a connection update's instant.
pub fn transmit_window_offset(win_offset: u16) -> Duration {
    UNIT_1_25_MS.saturating_add(UNIT_1_25_MS.saturating_mul(u64::from(win_offset)))
}

/// The least gap a multi-link node keeps between a new connection's
/// anchors and those of its other connections: one WinOffset unit.
pub const ANCHOR_GUARD: Duration = UNIT_1_25_MS;

/// The `CONNECT_IND` WinOffset that keeps a new connection's anchors apart
/// from `siblings`, the anchors of the node's other connections on the
/// same radio, which share its `hop_interval`.
///
/// The new connection's first anchor falls `transmit_window_offset(w)`
/// after `connect_end`, the end of its `CONNECT_IND`. This returns the
/// first `w` from `from` upward, wrapping to 0 below `hop_interval`, whose
/// first anchor sits at least [`ANCHOR_GUARD`] from every sibling anchor,
/// modulo the interval: `from` itself when there are no siblings. When
/// every offset is blocked, it returns the one farthest from its nearest
/// sibling.
pub fn win_offset_apart(
    from: u16,
    hop_interval: u16,
    connect_end: Instant,
    siblings: &[Instant],
) -> u16 {
    if siblings.is_empty() {
        return from;
    }
    let interval = connection_interval(hop_interval);
    let period = i64::try_from(interval.as_nanos())
        .unwrap_or(i64::MAX)
        .max(1);
    // How far an anchor at `at` sits from its nearest sibling's, modulo
    // the interval.
    let clearance = |at: Instant| {
        siblings.iter().fold(interval, |gap, &sibling| {
            let ahead = at
                .signed_delta_ns(sibling)
                .rem_euclid(period)
                .unsigned_abs();
            let ahead = Duration::from_nanos(ahead);
            gap.min(ahead).min(interval.saturating_sub(ahead))
        })
    };
    let mut farthest = (from, Duration::ZERO);
    for w in (from..hop_interval).chain(0..from.min(hop_interval)) {
        let gap = clearance(connect_end + transmit_window_offset(w));
        if gap >= ANCHOR_GUARD {
            return w;
        }
        if gap > farthest.1 {
            farthest = (w, gap);
        }
    }
    farthest.0
}

/// Size of the transmit window: `WinSize × 1.25 ms`.
pub fn transmit_window_size(win_size: u8) -> Duration {
    UNIT_1_25_MS.saturating_mul(u64::from(win_size))
}

/// Supervision timeout duration from its field value.
pub fn supervision_timeout(timeout: u16) -> Duration {
    UNIT_10_MS.saturating_mul(u64::from(timeout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_equation_5_values() {
        // Paper experiment 1 range: hop intervals 25..150 with ~50+20 ppm.
        let w25 = window_widening(50.0, 20.0, connection_interval(25));
        let w150 = window_widening(50.0, 20.0, connection_interval(150));
        // 70 ppm × 31.25 ms = 2.1875 µs; +32 → 34.1875 µs.
        assert_eq!(w25.as_nanos(), 34_188); // rounded to ns
                                            // 70 ppm × 187.5 ms = 13.125 µs; +32 → 45.125 µs.
        assert_eq!(w150.as_nanos(), 45_125);
        assert!(w150 > w25, "widening grows with the interval");
    }

    #[test]
    fn widening_has_constant_floor() {
        let w = window_widening(0.0, 0.0, Duration::from_millis(100));
        assert_eq!(w, WIDENING_JITTER);
    }

    #[test]
    fn missed_anchors_widen_further() {
        let one = window_widening(50.0, 50.0, connection_interval(36));
        let three = window_widening(50.0, 50.0, connection_interval(36) * 3);
        assert!(three > one);
    }

    /// The end of the `CONNECT_IND` in the offset picker's tests.
    fn end() -> Instant {
        Instant::from_micros(100_000)
    }

    /// The first anchor of offset `w` after a `CONNECT_IND` ending at `end()`.
    fn first_anchor(w: u16) -> Instant {
        end() + transmit_window_offset(w)
    }

    #[test]
    fn win_offset_without_siblings_is_the_configured_one() {
        assert_eq!(win_offset_apart(1, 36, end(), &[]), 1);
        assert_eq!(win_offset_apart(5, 36, end(), &[]), 5);
        // A sibling a full guard away, or more, blocks nothing.
        let clear = [
            first_anchor(1) + ANCHOR_GUARD,
            first_anchor(1) - ANCHOR_GUARD,
        ];
        assert_eq!(win_offset_apart(1, 36, end(), &clear), 1);
    }

    #[test]
    fn a_sibling_within_the_guard_pushes_the_offset_out() {
        // 0.5 ms after offset 1's anchor: offsets 1 (0.5 ms) and 2
        // (0.75 ms) are blocked, offset 3 (1.75 ms) is clear.
        let late = [first_anchor(1) + Duration::from_micros(500)];
        assert_eq!(win_offset_apart(1, 36, end(), &late), 3);
        // 1 ms before offset 1's anchor: offset 2 is 2.25 ms clear.
        let early = [first_anchor(1) - Duration::from_micros(1_000)];
        assert_eq!(win_offset_apart(1, 36, end(), &early), 2);
        // Two siblings: the first clear offset lies past both.
        let both = [
            first_anchor(1) + Duration::from_micros(200),
            first_anchor(3) + Duration::from_micros(300),
        ];
        assert_eq!(win_offset_apart(1, 36, end(), &both), 5);
    }

    #[test]
    fn the_guard_holds_across_the_intervals_wrap() {
        let interval = connection_interval(36);
        // Three intervals ahead and 0.4 ms before offset 1's anchor: the
        // raw gap is over 134 ms, but modulo the interval it is 0.4 ms.
        let ahead = [first_anchor(1) + interval * 3 - Duration::from_micros(400)];
        assert_eq!(win_offset_apart(1, 36, end(), &ahead), 2);
        // One interval behind and 0.5 ms after offset 1's anchor.
        let behind = [first_anchor(1) - interval + Duration::from_micros(500)];
        assert_eq!(win_offset_apart(1, 36, end(), &behind), 3);
        // Modulo the interval, offset 35's anchor sits 1.25 ms before
        // offset 0's. A sibling 0.1 ms before offset 0's blocks both, and
        // the search wraps on to offset 1.
        let wrap = [first_anchor(0) - Duration::from_micros(100)];
        assert_eq!(win_offset_apart(35, 36, end(), &wrap), 1);
    }

    #[test]
    fn with_every_offset_blocked_the_farthest_wins() {
        // A 7.5 ms interval has six offsets. A sibling sits on each
        // offset's anchor, except offset 3's, which sits 1 ms late: offset
        // 3 is then 1 ms clear and every other offset not at all.
        let siblings: Vec<Instant> = (0..6)
            .map(|w| match w {
                3 => first_anchor(w) + Duration::from_micros(1_000),
                _ => first_anchor(w),
            })
            .collect();
        assert_eq!(win_offset_apart(0, 6, end(), &siblings), 3);
        assert_eq!(win_offset_apart(1, 6, end(), &siblings), 3);
    }

    #[test]
    fn transmit_window_formulas() {
        assert_eq!(transmit_window_offset(0).as_micros(), 1_250);
        assert_eq!(transmit_window_offset(4).as_micros(), 6_250);
        assert_eq!(transmit_window_size(2).as_micros(), 2_500);
        assert_eq!(supervision_timeout(100).as_micros(), 1_000_000);
    }
}
