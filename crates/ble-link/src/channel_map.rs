//! The connection channel map.
//!
//! A 37-bit bitmap (carried in five bytes of `CONNECT_REQ` and
//! `LL_CHANNEL_MAP_IND`) marking which data channels a connection uses.
//! Masters blacklist noisy channels by clearing bits and broadcasting an
//! update; the channel-selection algorithms remap unused channel indices
//! onto the used set.

use std::fmt;

/// A set of used data channels (indices 0–36).
///
/// # Example
///
/// ```
/// use ble_link::ChannelMap;
/// let map = ChannelMap::ALL;
/// assert_eq!(map.used_count(), 37);
/// let narrow = ChannelMap::from_indices(&[0, 8, 32]);
/// assert!(narrow.is_used(8));
/// assert!(!narrow.is_used(9));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelMap {
    bits: u64,
}

impl ChannelMap {
    /// All 37 data channels used.
    pub const ALL: ChannelMap = ChannelMap {
        bits: (1u64 << 37) - 1,
    };

    /// Builds a map from explicit channel indices.
    ///
    /// # Panics
    ///
    /// Panics if an index exceeds 36.
    pub fn from_indices(indices: &[u8]) -> Self {
        let mut bits = 0u64;
        for &i in indices {
            assert!(i < 37, "data channel index {i} out of range");
            bits |= 1 << i;
        }
        ChannelMap { bits }
    }

    /// Parses the five-byte over-the-air encoding (little-endian bitmap).
    pub fn from_bytes(bytes: [u8; 5]) -> Self {
        let mut bits = 0u64;
        for (i, b) in bytes.iter().enumerate() {
            bits |= (*b as u64) << (8 * i);
        }
        ChannelMap {
            bits: bits & ((1 << 37) - 1),
        }
    }

    /// The five-byte over-the-air encoding.
    pub fn to_bytes(self) -> [u8; 5] {
        let mut out = [0u8; 5];
        for (i, b) in out.iter_mut().enumerate() {
            *b = ble_invariants::lsb8(self.bits >> (8 * i));
        }
        out
    }

    /// Whether a data channel is used.
    pub fn is_used(self, index: u8) -> bool {
        index < 37 && self.bits & (1 << index) != 0
    }

    /// Number of used channels.
    pub fn used_count(self) -> u32 {
        self.bits.count_ones()
    }

    /// Used channel indices in ascending order.
    pub fn used_indices(self) -> Vec<u8> {
        (0..37).filter(|&i| self.is_used(i)).collect()
    }

    /// Whether the map is valid per the specification (at least two used
    /// channels).
    pub fn is_valid(self) -> bool {
        self.used_count() >= 2
    }

    /// Returns the map with one channel removed (blacklisted).
    pub fn without(self, index: u8) -> Self {
        ChannelMap {
            bits: self.bits & !(1 << index),
        }
    }
}

impl Default for ChannelMap {
    fn default() -> Self {
        ChannelMap::ALL
    }
}

impl fmt::Debug for ChannelMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChannelMap({:010X}, {} used)",
            self.bits,
            self.used_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_37_channels() {
        assert_eq!(ChannelMap::ALL.used_count(), 37);
        assert!(ChannelMap::ALL.is_valid());
        assert_eq!(ChannelMap::ALL.used_indices().len(), 37);
    }

    #[test]
    fn byte_encoding_roundtrips() {
        let m = ChannelMap::from_indices(&[0, 1, 7, 8, 15, 16, 31, 36]);
        assert_eq!(ChannelMap::from_bytes(m.to_bytes()), m);
        // Last byte only carries 5 bits.
        assert_eq!(ChannelMap::ALL.to_bytes(), [0xFF, 0xFF, 0xFF, 0xFF, 0x1F]);
    }

    #[test]
    fn from_bytes_masks_reserved_bits() {
        let m = ChannelMap::from_bytes([0xFF; 5]);
        assert_eq!(m, ChannelMap::ALL);
    }

    #[test]
    fn without_blacklists() {
        let m = ChannelMap::ALL.without(9);
        assert!(!m.is_used(9));
        assert_eq!(m.used_count(), 36);
    }

    #[test]
    fn validity_needs_two_channels() {
        assert!(!ChannelMap::from_indices(&[5]).is_valid());
        assert!(ChannelMap::from_indices(&[5, 6]).is_valid());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_index_panics() {
        let _ = ChannelMap::from_indices(&[37]);
    }
}
