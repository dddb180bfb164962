//! Bounded per-packet delivery accounting for the sharded radio medium.
//!
//! Dense-band worlds (exp6) ask a question the event stream answers only
//! implicitly: for each transmitted frame, *how many* receivers were
//! scheduled, how many were culled as unreachable, how many actually locked
//! on, and how many completed reception. The [`DeliveryTracker`] keeps this
//! per-packet ledger the way mcsim-style network simulators do — a bounded
//! map of in-flight packets with old entries evicted in arrival order —
//! plus run totals that survive eviction.
//!
//! Every other node of the world lands in exactly one of three classes per
//! frame — `scheduled`, `culled` or `suppressed` — so the three always sum
//! to the frame's peer count. A receiver whose `RxStart` is queued after
//! the frame left ([`DeliveryTracker::on_late_scheduled`]) moves from
//! `suppressed` into `scheduled`.
//!
//! The tracker is pure observation: the medium updates it outside every RNG
//! draw and event-schedule decision, so enabling it can never perturb a
//! simulation. All state is `BTreeMap`-backed (determinism rule R7) and its
//! snapshots are pure functions of the simulation history.

use std::collections::BTreeMap;

/// Per-packet delivery ledger entry: one transmitted frame's fan-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketDelivery {
    /// Channel the frame was transmitted on (0–39).
    pub channel: u8,
    /// `RxStart` events the medium scheduled for this frame, late ones
    /// included.
    pub scheduled: u32,
    /// Receivers skipped by the reachability cull (mean received power
    /// below the sensitivity floor minus the cull headroom).
    pub culled: u32,
    /// Receivers with no `RxStart` for this frame: not listening on its
    /// channel, or listening but unlocked and filtering for another access
    /// address or PHY, from the moment the frame left until it arrived, so
    /// that the edge could not act (sharded mode only; always 0 under full
    /// broadcast).
    pub suppressed: u32,
    /// Receivers that locked onto the frame's preamble (times heard).
    pub heard: u32,
    /// Receivers that completed reception and were handed the frame.
    pub delivered: u32,
}

/// Run totals: survive per-packet eviction. Like the per-packet rows,
/// `scheduled_rx_starts + culled_unreachable + suppressed_not_listening`
/// sums every frame's peer count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryTotals {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// `RxStart` events scheduled across all frames.
    pub scheduled_rx_starts: u64,
    /// Receivers skipped by the reachability cull.
    pub culled_unreachable: u64,
    /// Receivers with no `RxStart` because it could not act (see
    /// [`PacketDelivery::suppressed`]).
    pub suppressed_not_listening: u64,
    /// `RxStart` events queued after their frame left, when the receiver
    /// locked, retuned or re-filtered; included in `scheduled_rx_starts`.
    pub late_rx_starts: u64,
    /// Frame receptions that locked (preamble heard).
    pub frames_heard: u64,
    /// Frame receptions completed and delivered to a listener.
    pub frames_delivered: u64,
    /// Per-packet ledger entries evicted by the capacity bound.
    pub evicted_packets: u64,
}

/// Bounded per-packet delivery tracker (see the module docs).
///
/// Capacity bounds only the *per-packet* ledger; the [`DeliveryTotals`] are
/// unconditional. Eviction is oldest-first by transmission id, which equals
/// transmission start order.
#[derive(Debug, Clone)]
pub struct DeliveryTracker {
    capacity: usize,
    packets: BTreeMap<u64, PacketDelivery>,
    totals: DeliveryTotals,
}

impl DeliveryTracker {
    /// A tracker retaining per-packet entries for at most `capacity` recent
    /// frames (minimum 1).
    pub fn new(capacity: usize) -> Self {
        DeliveryTracker {
            capacity: capacity.max(1),
            packets: BTreeMap::new(),
            totals: DeliveryTotals::default(),
        }
    }

    /// Records a transmitted frame and its scheduling fan-out (`heard` and
    /// `delivered` start at zero), evicting the oldest ledger entries past
    /// the capacity bound.
    pub fn on_tx(&mut self, tx_id: u64, fanout: PacketDelivery) {
        self.totals.tx_frames += 1;
        self.totals.scheduled_rx_starts += u64::from(fanout.scheduled);
        self.totals.culled_unreachable += u64::from(fanout.culled);
        self.totals.suppressed_not_listening += u64::from(fanout.suppressed);
        self.packets.insert(
            tx_id,
            PacketDelivery {
                heard: 0,
                delivered: 0,
                ..fanout
            },
        );
        while self.packets.len() > self.capacity {
            self.packets.pop_first();
            self.totals.evicted_packets += 1;
        }
    }

    /// Records one `RxStart` queued after its frame left, moving its
    /// receiver from `suppressed` into `scheduled`.
    pub fn on_late_scheduled(&mut self, tx_id: u64) {
        let totals = &mut self.totals;
        totals.scheduled_rx_starts += 1;
        totals.late_rx_starts += 1;
        totals.suppressed_not_listening = totals.suppressed_not_listening.saturating_sub(1);
        if let Some(p) = self.packets.get_mut(&tx_id) {
            p.scheduled = p.scheduled.saturating_add(1);
            p.suppressed = p.suppressed.saturating_sub(1);
        }
    }

    /// Records a receiver locking onto the frame's preamble.
    pub fn on_heard(&mut self, tx_id: u64) {
        self.totals.frames_heard += 1;
        if let Some(p) = self.packets.get_mut(&tx_id) {
            p.heard = p.heard.saturating_add(1);
        }
    }

    /// Records a completed reception delivered to a listener.
    pub fn on_delivered(&mut self, tx_id: u64) {
        self.totals.frames_delivered += 1;
        if let Some(p) = self.packets.get_mut(&tx_id) {
            p.delivered = p.delivered.saturating_add(1);
        }
    }

    /// The monotone run totals.
    pub fn totals(&self) -> DeliveryTotals {
        self.totals
    }

    /// The retained ledger entry for a frame, if not yet evicted.
    pub fn packet(&self, tx_id: u64) -> Option<PacketDelivery> {
        self.packets.get(&tx_id).copied()
    }

    /// Retained ledger entries, oldest first.
    pub fn packets(&self) -> impl Iterator<Item = (u64, PacketDelivery)> + '_ {
        self.packets.iter().map(|(&id, &p)| (id, p))
    }

    /// Number of retained ledger entries.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// The retention capacity this tracker was built with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean scheduled `RxStart` events per transmitted frame over the whole
    /// run (0 when nothing was transmitted) — the quantity the channel
    /// sharding optimisation reduces.
    pub fn mean_scheduled_per_frame(&self) -> f64 {
        if self.totals.tx_frames == 0 {
            0.0
        } else {
            self.totals.scheduled_rx_starts as f64 / self.totals.tx_frames as f64
        }
    }

    /// Mean completed deliveries per transmitted frame (per-frame reach).
    pub fn mean_reach(&self) -> f64 {
        if self.totals.tx_frames == 0 {
            0.0
        } else {
            self.totals.frames_delivered as f64 / self.totals.tx_frames as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fanout(channel: u8, scheduled: u32, culled: u32, suppressed: u32) -> PacketDelivery {
        PacketDelivery {
            channel,
            scheduled,
            culled,
            suppressed,
            ..PacketDelivery::default()
        }
    }

    #[test]
    fn tracks_per_packet_counts() {
        let mut t = DeliveryTracker::new(8);
        t.on_tx(1, fanout(5, 3, 1, 10));
        t.on_heard(1);
        t.on_heard(1);
        t.on_delivered(1);
        let p = t.packet(1).expect("retained");
        assert_eq!(p.channel, 5);
        assert_eq!(p.scheduled, 3);
        assert_eq!(p.culled, 1);
        assert_eq!(p.suppressed, 10);
        assert_eq!(p.heard, 2);
        assert_eq!(p.delivered, 1);
        assert_eq!(t.totals().tx_frames, 1);
        assert_eq!(t.totals().scheduled_rx_starts, 3);
        assert_eq!(t.totals().frames_heard, 2);
        assert_eq!(t.totals().frames_delivered, 1);
    }

    #[test]
    fn evicts_oldest_past_capacity_but_keeps_totals() {
        let mut t = DeliveryTracker::new(2);
        for id in 0..5u64 {
            t.on_tx(id, fanout(0, 1, 0, 0));
        }
        assert_eq!(t.len(), 2);
        assert!(t.packet(0).is_none(), "oldest evicted");
        assert!(t.packet(4).is_some(), "newest retained");
        assert_eq!(t.totals().tx_frames, 5);
        assert_eq!(t.totals().evicted_packets, 3);
        // Updates for evicted packets still land in the totals.
        t.on_heard(0);
        assert_eq!(t.totals().frames_heard, 1);
    }

    #[test]
    fn late_scheduling_joins_the_ledger() {
        let mut t = DeliveryTracker::new(4);
        t.on_tx(7, fanout(12, 2, 1, 5));
        t.on_late_scheduled(7);
        let p = t.packet(7).expect("retained");
        assert_eq!((p.scheduled, p.culled, p.suppressed), (3, 1, 4));
        let totals = t.totals();
        assert_eq!(
            (
                totals.scheduled_rx_starts,
                totals.culled_unreachable,
                totals.suppressed_not_listening,
                totals.late_rx_starts
            ),
            (3, 1, 4, 1)
        );
    }

    #[test]
    fn the_three_classes_keep_summing_to_the_peer_count() {
        // Ten peers per frame: whatever moves late, the row and the totals
        // still add up to them.
        let mut t = DeliveryTracker::new(8);
        t.on_tx(0, fanout(1, 2, 1, 7));
        t.on_tx(1, fanout(2, 4, 0, 6));
        for id in [0, 0, 0, 1] {
            t.on_late_scheduled(id);
        }
        for (_, p) in t.packets() {
            assert_eq!(p.scheduled + p.culled + p.suppressed, 10);
        }
        let totals = t.totals();
        assert_eq!(
            totals.scheduled_rx_starts
                + totals.culled_unreachable
                + totals.suppressed_not_listening,
            20
        );
        assert_eq!(totals.late_rx_starts, 4);
    }

    #[test]
    fn rates_are_zero_on_an_empty_run() {
        let t = DeliveryTracker::new(4);
        assert_eq!(t.mean_scheduled_per_frame(), 0.0);
        assert_eq!(t.mean_reach(), 0.0);
        assert!(t.is_empty());
        assert_eq!(t.capacity(), 4);
    }

    #[test]
    fn mean_rates() {
        let mut t = DeliveryTracker::new(8);
        t.on_tx(0, fanout(0, 4, 0, 0));
        t.on_tx(1, fanout(0, 2, 0, 0));
        t.on_delivered(0);
        t.on_delivered(0);
        t.on_delivered(1);
        assert_eq!(t.mean_scheduled_per_frame(), 3.0);
        assert_eq!(t.mean_reach(), 1.5);
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let mut t = DeliveryTracker::new(0);
        t.on_tx(0, fanout(0, 1, 0, 0));
        t.on_tx(1, fanout(0, 1, 0, 0));
        assert_eq!(t.len(), 1);
        assert_eq!(t.totals().evicted_packets, 1);
    }
}
