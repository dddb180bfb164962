//! Passive connection tracking — the sniffer substrate of the attack.
//!
//! Following an established connection requires knowing every parameter of
//! `CONNECT_REQ` (paper Table II) and then mirroring the Slave's timing
//! logic: hop with CSA#1, predict anchors, widen expectations after missed
//! events, and apply `CONNECT_UPDATE` / `CHANNEL_MAP` procedures at their
//! instants. This module is the attacker's replica of that state.

use ble_link::{
    timing, ChannelMap, ConnectionParams, ControlPdu, Csa1, Csa2, DeviceAddress, UpdateRequest,
};
use ble_phy::{Channel, ReceivedFrame};
use simkit::{Duration, Instant};

/// The Slave sleep-clock accuracy the attacker assumes: 20 ppm, "the worst
/// case from the attacker's perspective" (paper §V-C).
pub const ASSUMED_SLAVE_SCA_PPM: f64 = 20.0;

/// Plan for one upcoming connection event, as computed by the tracker.
#[derive(Debug, Clone, Copy)]
pub struct EventPlan {
    /// The event's data channel.
    pub channel: Channel,
    /// The connection event counter value.
    pub counter: u16,
    /// Predicted delay from the last observed anchor to this event's anchor.
    pub delay_from_anchor: Duration,
    /// Window widening the attacker computes for this event (eq. 4/5 with
    /// the 20 ppm Slave assumption).
    pub widening: Duration,
    /// Extra uncertainty: the transmit-window size when this event follows
    /// a connection update (the Master may start anywhere inside it).
    pub window_extra: Duration,
}

/// Live replica of a victim connection's Link-Layer state.
#[derive(Debug, Clone)]
pub struct TrackedConnection {
    /// The connection parameters currently in force.
    pub params: ConnectionParams,
    /// The Master's device address.
    pub master: DeviceAddress,
    /// The Slave's device address.
    pub slave: DeviceAddress,
    csa: Csa1,
    csa2: Option<Csa2>,
    /// Counter of the next connection event (not yet planned).
    pub next_event_counter: u16,
    /// The last observed anchor point.
    pub last_anchor: Instant,
    /// Delay from `last_anchor` to the most recently planned event.
    cumulative_delay: Duration,
    /// Channel of the most recently planned event.
    pub current_channel: Channel,
    /// The Slave's last observed SN bit.
    pub sn_s: Option<bool>,
    /// The Slave's last observed NESN bit.
    pub nesn_s: Option<bool>,
    pending_update: Option<(UpdateRequest, u16)>,
    pending_chmap: Option<(ChannelMap, u16)>,
    /// Number of consecutive events without an observed anchor.
    pub missed_streak: u32,
    /// The Master's last observed SN bit.
    pub sn_m: Option<bool>,
    /// The Master's last observed NESN bit.
    pub nesn_m: Option<bool>,
    first_planned: bool,
}

impl TrackedConnection {
    /// Builds the replica from an overheard `CONNECT_REQ`.
    ///
    /// `connect_req_end` is the reception timestamp of the packet's end —
    /// the reference the transmit window is measured from (paper eq. 1).
    pub fn from_connect_req(
        master: DeviceAddress,
        slave: DeviceAddress,
        params: ConnectionParams,
        connect_req_end: Instant,
    ) -> Self {
        Self::from_connect_req_with_csa(master, slave, params, connect_req_end, false)
    }

    /// Like [`TrackedConnection::from_connect_req`] with an explicit
    /// channel-selection algorithm (the `ChSel` bit of `CONNECT_REQ`).
    pub fn from_connect_req_with_csa(
        master: DeviceAddress,
        slave: DeviceAddress,
        params: ConnectionParams,
        connect_req_end: Instant,
        csa2: bool,
    ) -> Self {
        let offset = timing::transmit_window_offset(params.win_offset);
        TrackedConnection {
            params,
            master,
            slave,
            csa: Csa1::new(params.hop_increment),
            csa2: csa2.then(|| Csa2::new(params.access_address)),
            next_event_counter: 0,
            // Chain predictions from the nominal window start.
            last_anchor: connect_req_end + offset,
            cumulative_delay: Duration::ZERO,
            current_channel: Channel::data(0).expect("data channel 0"),
            sn_s: None,
            nesn_s: None,
            pending_update: None,
            pending_chmap: None,
            missed_streak: 0,
            sn_m: None,
            nesn_m: None,
            first_planned: false,
        }
    }

    /// Plans the next connection event: applies pending procedures whose
    /// instant has arrived, selects the channel and predicts the timing.
    /// Call exactly once per connection event.
    pub fn plan_next(&mut self) -> EventPlan {
        let counter = self.next_event_counter;
        self.next_event_counter = self.next_event_counter.wrapping_add(1);

        if let Some((map, instant)) = self.pending_chmap {
            if instant == counter {
                self.params.channel_map = map;
                self.pending_chmap = None;
            }
        }
        let first = !self.first_planned;
        self.first_planned = true;
        let mut delay = self.cumulative_delay
            + if first {
                // First event: the anchor chain reference already *is* the
                // window start.
                Duration::ZERO
            } else {
                self.params.interval()
            };
        let mut window_extra = if first {
            timing::transmit_window_size(self.params.win_size)
        } else {
            Duration::ZERO
        };
        if let Some((update, instant)) = self.pending_update {
            if instant == counter {
                delay += timing::transmit_window_offset(update.win_offset);
                window_extra = timing::transmit_window_size(update.win_size);
                self.params.win_size = update.win_size;
                self.params.win_offset = update.win_offset;
                self.params.hop_interval = update.interval;
                self.params.latency = update.latency;
                self.params.timeout = update.timeout;
                self.pending_update = None;
            }
        }
        self.cumulative_delay = delay;
        let channel = match &self.csa2 {
            Some(csa2) => csa2.channel_for_event(counter, &self.params.channel_map),
            None => self.csa.next_channel(&self.params.channel_map),
        };
        self.current_channel = channel;
        let widening = timing::window_widening(
            self.params.master_sca.worst_case_ppm(),
            ASSUMED_SLAVE_SCA_PPM,
            delay.max(Duration::from_micros(1)),
        );
        EventPlan {
            channel,
            counter,
            delay_from_anchor: delay,
            widening,
            window_extra,
        }
    }

    /// Records an observed anchor point (first frame of an event).
    pub fn observe_anchor(&mut self, at: Instant) {
        self.last_anchor = at;
        self.cumulative_delay = Duration::ZERO;
        self.missed_streak = 0;
    }

    /// Records that an event passed without an observed anchor.
    pub fn missed_event(&mut self) {
        self.missed_streak += 1;
    }

    /// Records the SN/NESN bits of an observed *Slave* frame.
    pub fn observe_slave_seq(&mut self, sn: bool, nesn: bool) {
        self.sn_s = Some(sn);
        self.nesn_s = Some(nesn);
    }

    /// Records the SN/NESN bits of an observed *Master* frame.
    pub fn observe_master_seq(&mut self, sn: bool, nesn: bool) {
        self.sn_m = Some(sn);
        self.nesn_m = Some(nesn);
    }

    /// Whether the attacker has the sequence state needed to forge (eq. 6).
    pub fn has_slave_seq(&self) -> bool {
        self.sn_s.is_some() && self.nesn_s.is_some()
    }

    /// The forged SN/NESN bits per paper eq. 6:
    /// `SN_a = NESN_s`, `NESN_a = (SN_s + 1) mod 2`.
    ///
    /// # Panics
    ///
    /// Panics if no Slave frame has been observed yet.
    pub fn forge_seq(&self) -> (bool, bool) {
        let sn_a = self.nesn_s.expect("slave NESN observed");
        let nesn_a = !self.sn_s.expect("slave SN observed");
        (sn_a, nesn_a)
    }

    /// Feeds a Master-to-Slave LL control PDU into procedure tracking.
    /// Returns `true` if the connection is terminating.
    pub fn observe_master_control(&mut self, ctrl: &ControlPdu) -> bool {
        match ctrl {
            ControlPdu::TerminateInd { .. } => return true,
            ControlPdu::ConnectionUpdateInd {
                win_size,
                win_offset,
                interval,
                latency,
                timeout,
                instant,
            } => {
                self.pending_update = Some((
                    UpdateRequest {
                        win_size: *win_size,
                        win_offset: *win_offset,
                        interval: *interval,
                        latency: *latency,
                        timeout: *timeout,
                    },
                    *instant,
                ));
            }
            ControlPdu::ChannelMapInd {
                channel_map,
                instant,
            } => {
                self.pending_chmap = Some((*channel_map, *instant));
            }
            // The tracker only follows timing-relevant procedures; encryption
            // setup, feature exchange and keep-alives don't move the anchor.
            ControlPdu::EncReq { .. }
            | ControlPdu::EncRsp { .. }
            | ControlPdu::StartEncReq
            | ControlPdu::StartEncRsp
            | ControlPdu::UnknownRsp { .. }
            | ControlPdu::FeatureReq { .. }
            | ControlPdu::FeatureRsp { .. }
            | ControlPdu::VersionInd { .. }
            | ControlPdu::RejectInd { .. }
            | ControlPdu::PingReq
            | ControlPdu::PingRsp => {}
        }
        false
    }

    /// CSA#1 state for connection adoption.
    pub fn csa_unmapped(&self) -> u8 {
        self.csa.last_unmapped()
    }

    /// Whether the connection hops with Channel Selection Algorithm #2.
    pub fn uses_csa2(&self) -> bool {
        self.csa2.is_some()
    }

    /// Delay from `last_anchor` to the *next* event's predicted anchor,
    /// assuming no pending procedure shifts it. Does not consume the event
    /// (unlike [`TrackedConnection::plan_next`]) — used when a hijacker
    /// takes over exactly at an update instant.
    pub fn next_plain_delay(&self) -> Duration {
        self.cumulative_delay + self.params.interval()
    }
}

/// Scans advertising traffic for a `CONNECT_REQ` to follow.
#[derive(Debug, Clone, Default)]
pub struct ConnectionSniffer {
    /// Restrict to connections whose Slave has this address.
    pub target_slave: Option<DeviceAddress>,
}

/// Outcome of feeding one advertising-channel frame to the sniffer.
#[derive(Debug, Clone)]
pub enum SnifferEvent {
    /// Nothing interesting.
    None,
    /// A connection to follow was initiated.
    ConnectionDetected(Box<TrackedConnection>),
}

impl ConnectionSniffer {
    /// Creates a sniffer accepting any connection.
    pub fn new() -> Self {
        ConnectionSniffer::default()
    }

    /// Creates a sniffer locked to a specific Slave.
    pub fn for_slave(target: DeviceAddress) -> Self {
        ConnectionSniffer {
            target_slave: Some(target),
        }
    }

    /// Processes one advertising-channel frame.
    pub fn process(&self, frame: &ReceivedFrame) -> SnifferEvent {
        if !frame.crc_ok {
            return SnifferEvent::None;
        }
        let Ok(pdu) = ble_link::AdvertisingPdu::from_bytes(&frame.pdu) else {
            return SnifferEvent::None;
        };
        let ble_link::AdvertisingPdu::ConnectReq {
            initiator,
            advertiser,
            params,
            ch_sel,
        } = pdu
        else {
            return SnifferEvent::None;
        };
        if let Some(target) = self.target_slave {
            if advertiser.octets != target.octets {
                return SnifferEvent::None;
            }
        }
        SnifferEvent::ConnectionDetected(Box::new(TrackedConnection::from_connect_req_with_csa(
            initiator, advertiser, params, frame.end, ch_sel,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ble_link::{AddressType, SleepClockAccuracy};
    use simkit::SimRng;

    fn params(hop_interval: u16) -> ConnectionParams {
        let mut p = ConnectionParams::typical(&mut SimRng::seed_from(1), hop_interval);
        p.master_sca = SleepClockAccuracy::Ppm50;
        p.win_offset = 1;
        p.win_size = 2;
        p.hop_increment = 7;
        p
    }

    fn addr(seed: u8) -> DeviceAddress {
        DeviceAddress::new([seed; 6], AddressType::Public)
    }

    fn tracked(hop_interval: u16) -> TrackedConnection {
        TrackedConnection::from_connect_req(
            addr(0xA0),
            addr(0xB0),
            params(hop_interval),
            Instant::from_micros(1_000),
        )
    }

    #[test]
    fn first_event_plan_targets_window_start() {
        let mut t = tracked(36);
        let plan = t.plan_next();
        assert_eq!(plan.counter, 0);
        assert_eq!(plan.delay_from_anchor, Duration::ZERO);
        // Window start = connect_req_end + 1.25 ms + 1×1.25 ms.
        assert_eq!(t.last_anchor, Instant::from_micros(1_000 + 2_500));
        assert_eq!(plan.window_extra, Duration::from_micros(2_500));
        assert_eq!(plan.channel.index(), 7);
    }

    #[test]
    fn subsequent_plans_advance_by_one_interval() {
        let mut t = tracked(36);
        let _ = t.plan_next();
        t.observe_anchor(Instant::from_micros(10_000));
        let p1 = t.plan_next();
        assert_eq!(p1.delay_from_anchor, Duration::from_micros(45_000));
        assert_eq!(p1.counter, 1);
        assert_eq!(p1.channel.index(), 14);
        // Missed event: prediction extends without re-anchoring.
        t.missed_event();
        let p2 = t.plan_next();
        assert_eq!(p2.delay_from_anchor, Duration::from_micros(90_000));
        assert!(p2.widening > p1.widening, "widening grows after a miss");
    }

    #[test]
    fn widening_uses_20ppm_slave_assumption() {
        let mut t = tracked(36);
        let _ = t.plan_next();
        t.observe_anchor(Instant::from_micros(10_000));
        let plan = t.plan_next();
        let expected = timing::window_widening(50.0, 20.0, Duration::from_micros(45_000));
        assert_eq!(plan.widening, expected);
    }

    #[test]
    fn forge_seq_implements_equation_6() {
        let mut t = tracked(36);
        t.observe_slave_seq(true, false);
        let (sn_a, nesn_a) = t.forge_seq();
        assert!(!sn_a, "SN_a = NESN_s");
        assert!(!nesn_a, "NESN_a = SN_s + 1");
        t.observe_slave_seq(false, true);
        let (sn_a, nesn_a) = t.forge_seq();
        assert!(sn_a && nesn_a);
    }

    #[test]
    fn connection_update_shifts_the_instant_event() {
        let mut t = tracked(36);
        let _ = t.plan_next();
        t.observe_anchor(Instant::from_micros(10_000));
        t.observe_master_control(&ControlPdu::ConnectionUpdateInd {
            win_size: 1,
            win_offset: 4,
            interval: 80,
            latency: 0,
            timeout: 300,
            instant: 3,
        });
        let p1 = t.plan_next(); // event 1
        let p2 = t.plan_next(); // event 2
        assert_eq!(
            p2.delay_from_anchor,
            p1.delay_from_anchor + Duration::from_micros(45_000)
        );
        let p3 = t.plan_next(); // event 3 = instant
        assert_eq!(
            p3.delay_from_anchor,
            p2.delay_from_anchor + Duration::from_micros(45_000 + 1_250 + 4 * 1_250)
        );
        assert_eq!(p3.window_extra, Duration::from_micros(1_250));
        assert_eq!(t.params.hop_interval, 80);
        let p4 = t.plan_next(); // first event on the new interval
        assert_eq!(
            p4.delay_from_anchor,
            p3.delay_from_anchor + Duration::from_micros(100_000)
        );
    }

    #[test]
    fn channel_map_update_applies_at_instant() {
        let mut t = tracked(36);
        let _ = t.plan_next();
        t.observe_anchor(Instant::from_micros(10_000));
        let narrow = ChannelMap::from_indices(&[0, 1]);
        t.observe_master_control(&ControlPdu::ChannelMapInd {
            channel_map: narrow,
            instant: 2,
        });
        let _p1 = t.plan_next();
        let p2 = t.plan_next();
        assert!(narrow.is_used(p2.channel.index()));
        assert_eq!(t.params.channel_map, narrow);
    }

    #[test]
    fn terminate_detected() {
        let mut t = tracked(36);
        assert!(t.observe_master_control(&ControlPdu::TerminateInd { error_code: 0x13 }));
        assert!(!t.observe_master_control(&ControlPdu::PingReq));
    }

    #[test]
    fn tracker_follows_same_channels_as_link_layer_csa() {
        // Mirror 100 events against a raw Csa1 with the same parameters.
        let mut t = tracked(24);
        let mut reference = Csa1::new(params(24).hop_increment);
        for _ in 0..100 {
            let plan = t.plan_next();
            assert_eq!(plan.channel, reference.next_channel(&t.params.channel_map));
        }
    }

    #[test]
    fn sniffer_filters_by_target() {
        use ble_phy::{AccessAddress, ReceivedFrame};
        let make_frame = |slave_seed: u8| {
            let pdu = ble_link::AdvertisingPdu::ConnectReq {
                initiator: addr(0xA0),
                advertiser: addr(slave_seed),
                params: params(36),
                ch_sel: false,
            };
            ReceivedFrame {
                channel: Channel::new(37).unwrap(),
                access_address: AccessAddress::ADVERTISING,
                pdu: pdu.to_bytes().into(),
                crc_ok: true,
                rssi_dbm: -50.0,
                start: Instant::from_micros(0),
                end: Instant::from_micros(352),
            }
        };
        let any = ConnectionSniffer::new();
        assert!(matches!(
            any.process(&make_frame(0xB0)),
            SnifferEvent::ConnectionDetected(_)
        ));
        let targeted = ConnectionSniffer::for_slave(addr(0xB0));
        assert!(matches!(
            targeted.process(&make_frame(0xB0)),
            SnifferEvent::ConnectionDetected(_)
        ));
        assert!(matches!(
            targeted.process(&make_frame(0xB1)),
            SnifferEvent::None
        ));
        // CRC-corrupt CONNECT_REQs are ignored.
        let mut bad = make_frame(0xB0);
        bad.crc_ok = false;
        assert!(matches!(targeted.process(&bad), SnifferEvent::None));
    }
}
