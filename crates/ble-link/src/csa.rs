//! Channel selection algorithms #1 and #2.
//!
//! A connection hops to a new data channel at every connection event. The
//! paper's attack follows connections using CSA#1 ("the most commonly used
//! algorithm", §III-B.3) and notes the approach adapts directly to CSA#2 —
//! both are implemented here, with the attacker's sniffer able to follow
//! either.

use ble_invariants::{invariant, invariant_channel, lsb16, lsb8};
use ble_phy::{AccessAddress, Channel};

use crate::channel_map::ChannelMap;

/// Channel Selection Algorithm #1 state (Core Spec Vol 6 Part B 4.5.8.2).
///
/// `unmapped(n+1) = (unmapped(n) + hopIncrement) mod 37`; unused channels
/// remap through `unmapped mod numUsed` into the used-channel table.
///
/// # Example
///
/// ```
/// use ble_link::{ChannelMap, Csa1};
/// let mut csa = Csa1::new(13);
/// let map = ChannelMap::ALL;
/// let first = csa.next_channel(&map);
/// assert_eq!(first.index(), 13);
/// let second = csa.next_channel(&map);
/// assert_eq!(second.index(), 26);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Csa1 {
    hop_increment: u8,
    last_unmapped: u8,
}

impl Csa1 {
    /// Creates the selector; the first call to [`Csa1::next_channel`]
    /// returns the first data channel of the connection.
    pub fn new(hop_increment: u8) -> Self {
        Csa1 {
            hop_increment,
            last_unmapped: 0,
        }
    }

    /// Advances to and returns the channel for the next connection event.
    pub fn next_channel(&mut self, map: &ChannelMap) -> Channel {
        // Widen before adding: a hostile hop increment ≥ 220 would overflow
        // the u8 sum before the modulo could reduce it.
        self.last_unmapped =
            lsb8((u64::from(self.last_unmapped) + u64::from(self.hop_increment)) % 37);
        let index = if map.is_used(self.last_unmapped) {
            self.last_unmapped
        } else {
            let used = map.used_indices();
            let remapping_index = usize::from(self.last_unmapped) % used.len().max(1);
            remap(&used, remapping_index, self.last_unmapped)
        };
        invariant_channel!(index);
        Channel::data_wrapped(index)
    }

    /// The current unmapped channel (after the last `next_channel` call).
    pub fn last_unmapped(&self) -> u8 {
        self.last_unmapped
    }

    /// Restores a selector mid-connection from a known unmapped channel —
    /// how a sniffer or a hijacker resumes another device's hop sequence.
    pub fn with_state(hop_increment: u8, last_unmapped: u8) -> Self {
        Csa1 {
            hop_increment,
            last_unmapped: last_unmapped % 37,
        }
    }
}

/// Remapping-table lookup shared by both algorithms: `used[remapping_index]`.
///
/// A channel map with no used channels is spec-invalid (maps carry at least
/// two used channels) and can only arrive through a hostile
/// `LL_CHANNEL_MAP_IND`; debug builds assert, release builds keep hopping on
/// the unmapped index rather than dividing by zero or panicking.
fn remap(used: &[u8], remapping_index: usize, unmapped: u8) -> u8 {
    invariant!(
        !used.is_empty(),
        "channel-map",
        "remapping through an empty channel map"
    );
    used.get(remapping_index).copied().unwrap_or(unmapped)
}

/// Channel Selection Algorithm #2 (Core Spec Vol 6 Part B 4.5.8.3),
/// the PRNG-based algorithm introduced in BLE 5.0.
///
/// Stateless in the event counter: the channel is a pure function of
/// `(accessAddress, eventCounter, channelMap)`, which is exactly what made
/// D. Cauquil's CSA#2 connection sniffing possible (paper reference 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Csa2 {
    channel_identifier: u16,
}

impl Csa2 {
    /// Derives the channel identifier from the connection's access address.
    pub fn new(access_address: AccessAddress) -> Self {
        let aa = access_address.value();
        Csa2 {
            channel_identifier: lsb16(u64::from((aa >> 16) ^ (aa & 0xFFFF))),
        }
    }

    /// The channel for connection event `counter`.
    pub fn channel_for_event(&self, counter: u16, map: &ChannelMap) -> Channel {
        let prn_e = self.prn_e(counter);
        let unmapped = lsb8(u64::from(prn_e) % 37);
        let index = if map.is_used(unmapped) {
            unmapped
        } else {
            let used = map.used_indices();
            let remapping_index = (usize::from(prn_e) * used.len()) >> 16;
            remap(&used, remapping_index, unmapped)
        };
        invariant_channel!(index);
        Channel::data_wrapped(index)
    }

    fn prn_e(&self, counter: u16) -> u16 {
        let mut x = counter ^ self.channel_identifier;
        for _ in 0..3 {
            x = Self::perm(x);
            x = Self::mam(x, self.channel_identifier);
        }
        x ^ self.channel_identifier
    }

    /// Bit-reversal within each of the two bytes.
    fn perm(x: u16) -> u16 {
        let [lo, hi] = x.to_le_bytes();
        u16::from(lo.reverse_bits()) | (u16::from(hi.reverse_bits()) << 8)
    }

    /// Multiply-add-modulo: `(17·a + b) mod 2¹⁶`.
    fn mam(a: u16, b: u16) -> u16 {
        a.wrapping_mul(17).wrapping_add(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csa1_full_map_is_modular_hopping() {
        let mut csa = Csa1::new(7);
        let map = ChannelMap::ALL;
        let mut expected = 0u8;
        for _ in 0..100 {
            expected = (expected + 7) % 37;
            assert_eq!(csa.next_channel(&map).index(), expected);
        }
    }

    #[test]
    fn csa1_cycles_through_all_channels() {
        // hop increments 5..=16 are coprime checks: 37 is prime, so any
        // increment visits all 37 channels in 37 events.
        for hop in 5..=16 {
            let mut csa = Csa1::new(hop);
            let map = ChannelMap::ALL;
            #[allow(clippy::disallowed_types)] // scratch set in test code; R7 exempts #[cfg(test)]
            let mut seen = std::collections::HashSet::new();
            for _ in 0..37 {
                seen.insert(csa.next_channel(&map).index());
            }
            assert_eq!(seen.len(), 37, "hop {hop}");
        }
    }

    #[test]
    fn csa1_remaps_unused_channels_into_used_set() {
        let map = ChannelMap::from_indices(&[1, 5, 9, 20]);
        let mut csa = Csa1::new(11);
        for _ in 0..200 {
            let ch = csa.next_channel(&map);
            assert!(map.is_used(ch.index()), "{ch}");
        }
    }

    #[test]
    fn csa1_remapping_formula_matches_spec() {
        // unmapped=2 with used {1,5,9,20}: remappingIndex = 2 mod 4 = 2 → 9.
        let map = ChannelMap::from_indices(&[1, 5, 9, 20]);
        let mut csa = Csa1::new(2); // first unmapped = 2 (unused)
        assert_eq!(csa.next_channel(&map).index(), 9);
    }

    #[test]
    fn csa1_independent_followers_stay_in_sync() {
        // The attacker's sniffer runs its own CSA#1 instance: same inputs,
        // same hops.
        let map = ChannelMap::ALL.without(3).without(17);
        let mut a = Csa1::new(9);
        let mut b = Csa1::new(9);
        for _ in 0..500 {
            assert_eq!(a.next_channel(&map), b.next_channel(&map));
        }
    }

    #[test]
    fn csa1_hostile_hop_increment_does_not_overflow() {
        // A forged CONNECT_REQ can carry any 5-bit hop field, but a raw u8
        // from a hand-built selector used to overflow `last + hop` for
        // values ≥ 220; the widened arithmetic must stay in range.
        let mut csa = Csa1::new(255);
        let map = ChannelMap::ALL;
        for _ in 0..100 {
            assert!(csa.next_channel(&map).is_data());
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "channel-map")]
    fn csa1_empty_map_trips_invariant_in_debug() {
        let map = ChannelMap::from_indices(&[]);
        let mut csa = Csa1::new(2); // first unmapped index 2 is unused
        let _ = csa.next_channel(&map);
    }

    #[test]
    fn csa2_is_deterministic_and_in_map() {
        let aa = AccessAddress::new(0x8E89_BED6 ^ 0x1234_5678);
        let csa = Csa2::new(aa);
        let map = ChannelMap::from_indices(&[0, 2, 4, 6, 8, 10, 12, 14]);
        for counter in 0..1000u16 {
            let c1 = csa.channel_for_event(counter, &map);
            let c2 = csa.channel_for_event(counter, &map);
            assert_eq!(c1, c2);
            assert!(map.is_used(c1.index()));
        }
    }

    #[test]
    fn csa2_distribution_is_roughly_uniform() {
        let csa = Csa2::new(AccessAddress::new(0x50C2_33A1));
        let map = ChannelMap::ALL;
        let mut counts = [0usize; 37];
        let n = 37 * 400;
        for counter in 0..n as u32 {
            let ch = csa.channel_for_event((counter & 0xFFFF) as u16, &map);
            counts[ch.index() as usize] += 1;
        }
        let expected = n / 37;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "channel {i} count {c} vs expected {expected}"
            );
        }
    }

    #[test]
    fn csa2_differs_between_access_addresses() {
        let a = Csa2::new(AccessAddress::new(0x50C2_33A1));
        let b = Csa2::new(AccessAddress::new(0x1234_5678));
        let map = ChannelMap::ALL;
        let same = (0..100u16)
            .filter(|&c| a.channel_for_event(c, &map) == b.channel_for_event(c, &map))
            .count();
        assert!(same < 30, "different AAs should rarely coincide ({same})");
    }

    #[test]
    fn csa2_perm_is_involution() {
        for x in [0u16, 1, 0xFF, 0x1234, 0xFFFF, 0xA5A5] {
            assert_eq!(Csa2::perm(Csa2::perm(x)), x);
        }
    }
}
