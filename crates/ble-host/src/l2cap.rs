//! L2CAP basic-mode fragmentation over LE fixed channels.
//!
//! Every host SDU is prefixed with a 4-byte header (2-byte SDU length,
//! 2-byte channel id) and cut into Link-Layer payloads: the first fragment
//! travels in an LLID `10` (start) PDU, continuations in LLID `01` PDUs.

use ble_link::Llid;

/// The ATT fixed channel.
pub const CID_ATT: u16 = 0x0004;
/// The LE signalling fixed channel.
pub const CID_SIGNALING: u16 = 0x0005;
/// The Security Manager fixed channel.
pub const CID_SMP: u16 = 0x0006;

/// Default Link-Layer payload budget per fragment (BLE 4.0 data length).
pub const DEFAULT_LL_PAYLOAD: usize = 27;

/// Splits one `(cid, sdu)` into LL fragments ready for transmission. An
/// SDU longer than the header's 16-bit length field can describe (65,535
/// bytes) is refused: it yields no fragments.
///
/// # Example
///
/// ```
/// use ble_host::l2cap::{fragment, reassemble_iter, CID_ATT};
/// let frags = fragment(CID_ATT, &[0x0A, 0x03, 0x00], 27);
/// assert_eq!(frags.len(), 1); // small SDU: single start fragment
/// ```
pub fn fragment(cid: u16, sdu: &[u8], ll_payload: usize) -> Vec<(Llid, Vec<u8>)> {
    let mut out = Vec::new();
    fragment_into(cid, sdu, ll_payload, |llid, prefix, data| {
        let mut frag = Vec::with_capacity(prefix.len() + data.len());
        frag.extend_from_slice(prefix);
        frag.extend_from_slice(data);
        out.push((llid, frag));
    });
    out
}

/// Zero-allocation variant of [`fragment`]: invokes `emit` once per
/// fragment with `(llid, prefix, data)` where the fragment bytes are
/// `prefix ++ data`.
///
/// The 4-byte L2CAP header lives on the stack, so only the first fragment
/// carries a non-empty `prefix` (the minimum `ll_payload` of 5 guarantees
/// the header never splits across fragments). Callers copy both slices into
/// their own buffer — typically a pooled one — and no heap allocation
/// happens here. Byte-for-byte identical to [`fragment`], and like it
/// refuses an SDU over 65,535 bytes without emitting anything.
pub fn fragment_into(
    cid: u16,
    sdu: &[u8],
    ll_payload: usize,
    mut emit: impl FnMut(Llid, &[u8], &[u8]),
) {
    assert!(
        ll_payload >= 5,
        "LL payload must fit the L2CAP header plus data"
    );
    let Ok(sdu_len) = u16::try_from(sdu.len()) else {
        return;
    };
    let len_bytes = sdu_len.to_le_bytes();
    let cid_bytes = cid.to_le_bytes();
    let header = [len_bytes[0], len_bytes[1], cid_bytes[0], cid_bytes[1]];
    let first_data = (ll_payload - header.len()).min(sdu.len());
    emit(Llid::StartOrComplete, &header, &sdu[..first_data]);
    let mut offset = first_data;
    while offset < sdu.len() {
        let take = (sdu.len() - offset).min(ll_payload);
        emit(Llid::ContinuationOrEmpty, &[], &sdu[offset..offset + take]);
        offset += take;
    }
}

/// Convenience: feed fragments back through a fresh [`Reassembler`].
pub fn reassemble_iter<'a>(
    fragments: impl IntoIterator<Item = &'a (Llid, Vec<u8>)>,
) -> Vec<(u16, Vec<u8>)> {
    let mut r = Reassembler::new();
    let mut out = Vec::new();
    for (llid, payload) in fragments {
        out.extend(r.push(*llid, payload));
    }
    out
}

/// Stateful L2CAP recombination: feed LL data PDUs, collect complete SDUs.
#[derive(Debug, Default)]
pub struct Reassembler {
    buffer: Vec<u8>,
    expected: Option<usize>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Feeds one LL data PDU; returns any completed `(cid, sdu)`.
    ///
    /// Malformed sequences (continuation without start, overflow) reset the
    /// reassembly state and are dropped — the resilience a real stack needs
    /// against the corrupted fragments an injection attack can leave behind.
    pub fn push(&mut self, llid: Llid, payload: &[u8]) -> Option<(u16, Vec<u8>)> {
        let mut sdu = Vec::new();
        self.push_into(llid, payload, &mut sdu)
            .map(|cid| (cid, sdu))
    }

    /// Zero-allocation variant of [`Reassembler::push`]: on SDU completion
    /// the payload replaces `out`'s contents (cleared first) and the channel
    /// id is returned. Feeding a reusable scratch buffer keeps the
    /// steady-state RX path off the heap.
    pub fn push_into(&mut self, llid: Llid, payload: &[u8], out: &mut Vec<u8>) -> Option<u16> {
        match llid {
            Llid::Control => return None,
            Llid::StartOrComplete => {
                self.buffer.clear();
                self.buffer.extend_from_slice(payload);
                self.expected = None;
            }
            Llid::ContinuationOrEmpty => {
                if payload.is_empty() {
                    return None; // empty keep-alive PDU
                }
                if self.buffer.is_empty() {
                    return None; // continuation without start: drop
                }
                self.buffer.extend_from_slice(payload);
            }
        }
        // Parse the header once available.
        if self.expected.is_none() && self.buffer.len() >= 4 {
            let len = u16::from_le_bytes([self.buffer[0], self.buffer[1]]) as usize;
            self.expected = Some(len + 4);
        }
        if let Some(total) = self.expected {
            if self.buffer.len() >= total {
                let cid = u16::from_le_bytes([self.buffer[2], self.buffer[3]]);
                out.clear();
                out.extend_from_slice(&self.buffer[4..total]);
                self.buffer.clear();
                self.expected = None;
                return Some(cid);
            }
        }
        None
    }

    /// Drops any partial reassembly in progress.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.expected = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sdu_single_fragment_roundtrip() {
        let frags = fragment(CID_ATT, &[1, 2, 3], DEFAULT_LL_PAYLOAD);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].0, Llid::StartOrComplete);
        let sdus = reassemble_iter(&frags);
        assert_eq!(sdus, vec![(CID_ATT, vec![1, 2, 3])]);
    }

    #[test]
    fn large_sdu_fragments_and_reassembles() {
        let sdu: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let frags = fragment(CID_SMP, &sdu, DEFAULT_LL_PAYLOAD);
        assert!(frags.len() > 1);
        assert_eq!(frags[0].0, Llid::StartOrComplete);
        assert!(frags[1..]
            .iter()
            .all(|(l, _)| *l == Llid::ContinuationOrEmpty));
        // Total bytes = SDU + 4-byte header.
        let total: usize = frags.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, sdu.len() + 4);
        assert_eq!(reassemble_iter(&frags), vec![(CID_SMP, sdu)]);
    }

    #[test]
    fn back_to_back_sdus() {
        let mut r = Reassembler::new();
        let mut out = Vec::new();
        for sdu in [vec![9u8; 40], vec![7u8; 3], vec![1u8]] {
            for (llid, p) in fragment(CID_ATT, &sdu, 27) {
                out.extend(r.push(llid, &p));
            }
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].1.len(), 40);
        assert_eq!(out[2].1, vec![1]);
    }

    #[test]
    fn empty_pdus_and_orphan_continuations_ignored() {
        let mut r = Reassembler::new();
        assert_eq!(r.push(Llid::ContinuationOrEmpty, &[]), None);
        assert_eq!(r.push(Llid::ContinuationOrEmpty, &[1, 2, 3]), None);
        // A proper SDU still works afterwards.
        let frags = fragment(CID_ATT, &[5], 27);
        assert_eq!(r.push(frags[0].0, &frags[0].1), Some((CID_ATT, vec![5])));
    }

    #[test]
    fn new_start_discards_partial() {
        let mut r = Reassembler::new();
        let big: Vec<u8> = vec![1; 50];
        let frags = fragment(CID_ATT, &big, 27);
        assert!(r.push(frags[0].0, &frags[0].1).is_none());
        // New start interrupts: old partial dropped, new SDU completes.
        let fresh = fragment(CID_ATT, &[9, 9], 27);
        assert_eq!(r.push(fresh[0].0, &fresh[0].1), Some((CID_ATT, vec![9, 9])));
    }

    #[test]
    fn control_pdus_pass_through_unharmed() {
        let mut r = Reassembler::new();
        let big: Vec<u8> = vec![1; 50];
        let frags = fragment(CID_ATT, &big, 27);
        r.push(frags[0].0, &frags[0].1);
        assert_eq!(r.push(Llid::Control, &[0x02, 0x13]), None);
        // Partial reassembly not corrupted by the interleaved control PDU.
        assert_eq!(r.push(frags[1].0, &frags[1].1), Some((CID_ATT, big)));
    }

    #[test]
    fn zero_length_sdu() {
        let frags = fragment(CID_ATT, &[], 27);
        assert_eq!(reassemble_iter(&frags), vec![(CID_ATT, vec![])]);
    }

    #[test]
    fn sdu_longer_than_the_length_field_is_refused() {
        let largest = vec![0xA5; usize::from(u16::MAX)];
        let frags = fragment(CID_ATT, &largest, DEFAULT_LL_PAYLOAD);
        assert_eq!(frags[0].1[..2], [0xFF, 0xFF]);
        assert_eq!(reassemble_iter(&frags), vec![(CID_ATT, largest)]);

        let oversized = vec![0xA5; usize::from(u16::MAX) + 1];
        assert!(fragment(CID_ATT, &oversized, DEFAULT_LL_PAYLOAD).is_empty());
        let mut emitted = 0;
        fragment_into(CID_ATT, &oversized, DEFAULT_LL_PAYLOAD, |_, _, _| {
            emitted += 1;
        });
        assert_eq!(emitted, 0, "a wrapped length would frame it as empty");
    }

    #[test]
    #[should_panic(expected = "payload must fit")]
    fn tiny_ll_payload_rejected() {
        let _ = fragment(CID_ATT, &[1], 4);
    }

    #[test]
    fn fragment_into_matches_fragment_bytes() {
        for (sdu_len, ll_payload) in [
            (0usize, 27),
            (3, 27),
            (23, 27),
            (24, 27),
            (200, 27),
            (50, 5),
        ] {
            let sdu: Vec<u8> = (0..sdu_len).map(|i| i as u8).collect();
            let expected = fragment(CID_SMP, &sdu, ll_payload);
            let mut got = Vec::new();
            fragment_into(CID_SMP, &sdu, ll_payload, |llid, prefix, data| {
                let mut frag = prefix.to_vec();
                frag.extend_from_slice(data);
                got.push((llid, frag));
            });
            assert_eq!(got, expected, "sdu_len={sdu_len} ll_payload={ll_payload}");
            // Only the first fragment may carry the header prefix.
            let mut calls = 0;
            fragment_into(CID_SMP, &sdu, ll_payload, |_, prefix, _| {
                assert_eq!(prefix.len(), if calls == 0 { 4 } else { 0 });
                calls += 1;
            });
        }
    }

    #[test]
    fn push_into_reuses_scratch_and_matches_push() {
        let mut r_into = Reassembler::new();
        let mut r_push = Reassembler::new();
        let mut scratch = vec![0xEE; 9]; // stale content must be replaced
        for sdu in [vec![9u8; 40], vec![], vec![1u8, 2, 3]] {
            for (llid, p) in fragment(CID_ATT, &sdu, 27) {
                let via_push = r_push.push(llid, &p);
                let via_into = r_into.push_into(llid, &p, &mut scratch);
                match via_push {
                    Some((cid, bytes)) => {
                        assert_eq!(via_into, Some(cid));
                        assert_eq!(scratch, bytes);
                    }
                    None => assert_eq!(via_into, None),
                }
            }
        }
    }
}
