//! The Link Layer state machine.
//!
//! One [`LinkLayer`] drives one radio through the BLE Link-Layer states:
//! advertising, scanning, initiating and the connected state in either
//! role. It implements the machinery the InjectaBLE paper builds on:
//!
//! * connection events anchored on the Master's transmission, with the
//!   Slave's receive window widened per paper eq. 4/5;
//! * the SN/NESN acknowledgement scheme (paper §III-B.6);
//! * the MD bit extending connection events;
//! * the `CONNECT_UPDATE` / `CHANNEL_MAP` update procedures with their
//!   `instant` semantics (paper §III-B.7) — the lever of scenarios C and D;
//! * `LL_TERMINATE_IND` handling — the lever of scenario B;
//! * AES-CCM link encryption (start-encryption procedure) — the
//!   countermeasure whose effect §VIII quantifies;
//! * supervision timeout.
//!
//! The same implementation serves the legitimate devices *and* the
//! attacker's hijack tooling ([`LinkLayer::adopt_connection`]), just as the
//! paper's dongle embeds "a minimal BLE stack … to mimic the behaviour of
//! the different roles involved in the connection" (§V-E).

use std::collections::VecDeque;

use ble_crypto::{Direction, LinkCipher, SessionKeyMaterial};
use ble_invariants::{invariant, lsb8};
use ble_phy::{AccessFilter, Channel, NodeCtx, Pdu, RadioEvent, RawFrame, ReceivedFrame, TimerKey};
use ble_telemetry::{LinkRole, TelemetryEvent};
use simkit::{Duration, Instant};

use crate::address::DeviceAddress;
use crate::channel_map::ChannelMap;
use crate::connect_params::ConnectionParams;
use crate::csa::Csa1;
use crate::delegate::{LinkLayerDelegate, Role};
use crate::pdu::advertising::AdvertisingPdu;
use crate::pdu::control::{ControlPdu, ERR_CONNECTION_TIMEOUT, ERR_MIC_FAILURE};
use crate::pdu::data::{DataPdu, Llid};
use crate::sca::SleepClockAccuracy;
use crate::timing::{
    connection_interval, transmit_window_offset, transmit_window_size, win_offset_apart,
    window_widening, T_IFS,
};

/// CRC preset for advertising channels.
const ADV_CRC_INIT: u32 = ble_phy::ADVERTISING_CRC_INIT;

/// Margin added to receive deadlines to cover radio grace periods.
const RX_DEADLINE_MARGIN: Duration = Duration::from_micros(20);

/// Maps the Link-Layer role onto the telemetry vocabulary.
fn link_role(role: Role) -> LinkRole {
    match role {
        Role::Master => LinkRole::Master,
        Role::Slave => LinkRole::Slave,
    }
}

/// How long a device listens for a response/continuation frame to *start*
/// after the inter-frame spacing.
const IFS_SLACK: Duration = Duration::from_micros(60);

/// Timer purposes (low byte of [`TimerKey`]; bits 8..56 are a generation,
/// the top byte is the owner tag of [`LinkLayer::set_timer_tag`]).
mod purpose {
    pub const ADV_NEXT: u8 = 1;
    pub const ADV_LISTEN_END: u8 = 2;
    pub const IFS_ACTION: u8 = 3;
    pub const CONN_EVENT: u8 = 4;
    pub const RX_DEADLINE: u8 = 5;
    pub const SUPERVISION: u8 = 6;
    pub const SCAN_HOP: u8 = 7;
}

/// Bit position of the owner tag inside a [`TimerKey`].
const TIMER_TAG_SHIFT: u32 = 56;
/// The timer generation occupies key bits 8..56 (48 bits — at one arm per
/// simulated microsecond that is nine years of sim time before wrap).
const TIMER_GEN_MASK: u64 = (1 << 48) - 1;

/// A connection-update request (master-initiated or attacker-forged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateRequest {
    /// New transmit window size, ×1.25 ms.
    pub win_size: u8,
    /// New transmit window offset, ×1.25 ms.
    pub win_offset: u16,
    /// New connection interval, ×1.25 ms.
    pub interval: u16,
    /// New slave latency.
    pub latency: u16,
    /// New supervision timeout, ×10 ms.
    pub timeout: u16,
}

/// State needed to adopt (hijack or resume) an existing connection.
///
/// This is the hand-off structure between the InjectaBLE sniffer — which
/// tracks a victim connection passively — and a Link Layer that then *takes
/// over* one of the roles (paper scenarios B, C, D).
#[derive(Debug, Clone)]
pub struct AdoptedConnection {
    /// Role to assume.
    pub role: Role,
    /// The connection's current parameters.
    pub params: ConnectionParams,
    /// Peer device address (informational).
    pub peer: DeviceAddress,
    /// Counter of the next connection event.
    pub next_event_counter: u16,
    /// CSA#1 unmapped channel state *after* the last completed event
    /// (ignored for CSA#2 connections).
    pub last_unmapped_channel: u8,
    /// Whether the connection hops with Channel Selection Algorithm #2.
    pub csa2: bool,
    /// Anchor time of the last completed event.
    pub last_anchor: Instant,
    /// `transmitSeqNum` to use for the next transmitted PDU.
    pub sn: bool,
    /// `nextExpectedSeqNum` for the next received PDU.
    pub nesn: bool,
    /// Delay from `last_anchor` to the first event, when it is not simply
    /// one connection interval (e.g. a hijacker entering at a connection
    /// update's transmit window). `None` means one interval.
    pub first_event_delay: Option<simkit::Duration>,
}

/// Snapshot of a live connection for tests and instrumentation.
#[derive(Debug, Clone)]
pub struct ConnectionInfo {
    /// This side's role.
    pub role: Role,
    /// Current parameters.
    pub params: ConnectionParams,
    /// Counter of the next connection event.
    pub next_event_counter: u16,
    /// Current `transmitSeqNum`.
    pub sn: bool,
    /// Current `nextExpectedSeqNum`.
    pub nesn: bool,
    /// Last anchor point.
    pub last_anchor: Instant,
    /// Whether link encryption is fully active.
    pub encrypted: bool,
    /// CSA#1 unmapped channel state.
    pub last_unmapped_channel: u8,
    /// Whether the connection hops with CSA#2.
    pub csa2: bool,
    /// The peer's device address.
    pub peer: DeviceAddress,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EncPhase {
    Off,
    /// Master: `LL_ENC_REQ` sent, awaiting `LL_ENC_RSP`.
    AwaitEncRsp,
    /// Master: cipher derived, awaiting `LL_START_ENC_REQ`.
    AwaitStartReq,
    /// Both: awaiting the final `LL_START_ENC_RSP`.
    AwaitStartRsp,
    On,
}

struct EncState {
    phase: EncPhase,
    cipher: Option<LinkCipher>,
    tx_on: bool,
    rx_on: bool,
    // Master-side stash while awaiting LL_ENC_RSP.
    ltk: Option<[u8; 16]>,
    skd_m: [u8; 8],
    iv_m: [u8; 4],
}

impl EncState {
    fn off() -> Self {
        EncState {
            phase: EncPhase::Off,
            cipher: None,
            tx_on: false,
            rx_on: false,
            ltk: None,
            skd_m: [0; 8],
            iv_m: [0; 4],
        }
    }

    fn handshake_active(&self) -> bool {
        !matches!(self.phase, EncPhase::Off | EncPhase::On)
    }
}

/// What to do when the inter-frame-spacing timer fires.
enum IfsAction {
    /// Transmit a prepared data-channel frame.
    Transmit { channel: Channel, frame: RawFrame },
    /// Transmit a `CONNECT_REQ` and become Master.
    Connect {
        channel: Channel,
        pdu: Pdu,
        params: ConnectionParams,
        peer: DeviceAddress,
    },
    /// Transmit a `SCAN_RSP`.
    ScanRsp { channel: Channel, pdu: Pdu },
}

struct AdvState {
    adv_data: Vec<u8>,
    scan_data: Vec<u8>,
    interval: Duration,
    /// Index into `Channel::ADVERTISING` for the current cycle position.
    channel_pos: usize,
    connectable: bool,
}

struct ScanState {
    channel_pos: usize,
    /// Initiating: connect to this advertiser when seen.
    target: Option<(DeviceAddress, ConnectionParams)>,
    /// Initiating: anchors of the node's other connections, which the new
    /// connection's first anchor keeps apart from ([`win_offset_apart`]).
    apart_from: Vec<Instant>,
}

/// Channel-selection engine for a connection: stateful CSA#1 or the
/// counter-keyed CSA#2 (BLE 5).
#[derive(Debug, Clone)]
enum HopSelection {
    Csa1(Csa1),
    Csa2(crate::csa::Csa2),
}

impl HopSelection {
    fn channel_for(&mut self, counter: u16, map: &ChannelMap) -> Channel {
        match self {
            HopSelection::Csa1(c) => c.next_channel(map),
            HopSelection::Csa2(c) => c.channel_for_event(counter, map),
        }
    }

    fn unmapped(&self) -> u8 {
        match self {
            HopSelection::Csa1(c) => c.last_unmapped(),
            HopSelection::Csa2(_) => 0,
        }
    }

    fn is_csa2(&self) -> bool {
        matches!(self, HopSelection::Csa2(_))
    }
}

struct WindowSpec {
    /// Extra listening span beyond `2 × widening` (transmit windows).
    extra: Duration,
    /// Widening applied when the window-open timer was armed.
    widening: Duration,
}

struct Conn {
    role: Role,
    params: ConnectionParams,
    peer: DeviceAddress,
    hop: HopSelection,
    /// Counter of the next connection event to start.
    next_event_counter: u16,
    /// Channel of the event currently in progress.
    current_channel: Channel,
    /// Last anchor point (own tx start for masters; master frame start for
    /// slaves).
    last_anchor: Instant,
    /// Slave: intervals elapsed since `last_anchor` for the *next* window.
    intervals_since_anchor: u64,
    /// Slave: specification of the currently open receive window.
    window: WindowSpec,
    sn: bool,
    nesn: bool,
    /// Last transmitted PDU awaiting acknowledgement.
    pending: Option<DataPdu>,
    /// Outgoing control PDUs (priority over host data).
    ctrl_queue: VecDeque<ControlPdu>,
    /// MD bit of the last frame received from the peer in this event.
    peer_md: bool,
    /// MD bit of the last frame we sent in this event.
    sent_md: bool,
    /// A frame synchronisation was detected in the current window.
    got_sync: bool,
    /// The anchor for the current event has been captured (slave side):
    /// only the *first* frame of an event is an anchor point.
    anchor_set: bool,
    /// A connection event is in progress.
    in_event: bool,
    /// First valid data packet seen (connection "established").
    established: bool,
    /// Pending connection update (applies at `instant`).
    pending_update: Option<(UpdateRequest, u16)>,
    /// Pending channel-map update (applies at `instant`).
    pending_chmap: Option<(ChannelMap, u16)>,
    /// Terminate after the next transmission completes.
    terminate_after_tx: Option<u8>,
    /// The most recently transmitted PDU was our LL_TERMINATE_IND.
    sent_terminate: bool,
    /// Slave: connection events skipped since last listening (latency).
    events_since_listen: u16,
    enc: EncState,
    /// Master: a version exchange has been answered already.
    version_sent: bool,
}

impl Conn {
    /// A connection before its first event: counters, sequence bits and
    /// procedures reset, the next event one interval after `last_anchor`,
    /// and no window widening.
    fn new(
        role: Role,
        params: ConnectionParams,
        peer: DeviceAddress,
        hop: HopSelection,
        last_anchor: Instant,
    ) -> Self {
        Conn {
            role,
            params,
            peer,
            hop,
            next_event_counter: 0,
            current_channel: Channel::data_wrapped(0),
            last_anchor,
            intervals_since_anchor: 1,
            window: WindowSpec {
                extra: Duration::ZERO,
                widening: Duration::ZERO,
            },
            sn: false,
            nesn: false,
            pending: None,
            ctrl_queue: VecDeque::new(),
            peer_md: false,
            sent_md: false,
            got_sync: false,
            anchor_set: false,
            in_event: false,
            established: false,
            pending_update: None,
            pending_chmap: None,
            terminate_after_tx: None,
            sent_terminate: false,
            events_since_listen: 0,
            enc: EncState::off(),
            version_sent: false,
        }
    }
}

enum State {
    Standby,
    Advertising(AdvState),
    Scanning(ScanState),
    Connected(Box<Conn>),
}

/// A Bluetooth Low Energy Link Layer driving one simulated radio.
///
/// See the module documentation for scope. Construct with
/// [`LinkLayer::new`], then call `start_advertising` / `start_initiating` /
/// `start_scanning` from a [`NodeCtx`], and route every [`RadioEvent`] to
/// [`LinkLayer::handle`].
pub struct LinkLayer {
    address: DeviceAddress,
    state: State,
    /// Generation counter for timer invalidation.
    timer_gen: u64,
    /// Expected generation per purpose (index = purpose).
    expected_gen: [u64; 8],
    /// Owner tag OR-ed into the top byte of every timer key (see
    /// [`LinkLayer::set_timer_tag`]). Zero for single-LL nodes.
    timer_tag: u64,
    ifs_action: Option<IfsAction>,
    /// A CONNECT_REQ is on the air; become master when it completes.
    pending_connect: Option<(ConnectionParams, DeviceAddress)>,
    /// Advertised sleep-clock accuracy of this device.
    own_sca: SleepClockAccuracy,
    /// Scale factor on the slave-side window widening (1.0 = spec
    /// behaviour). The paper's §VIII first countermeasure shrinks this.
    widening_scale: f64,
    /// Initiator preference: request Channel Selection Algorithm #2.
    prefer_csa2: bool,
}

impl std::fmt::Debug for LinkLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkLayer")
            .field("address", &self.address.to_string())
            .field("state", &self.state_name())
            .finish()
    }
}

impl LinkLayer {
    /// Creates a Link Layer in standby, advertising the given sleep-clock
    /// accuracy class.
    pub fn new(address: DeviceAddress, own_sca: SleepClockAccuracy) -> Self {
        LinkLayer {
            address,
            state: State::Standby,
            timer_gen: 0,
            expected_gen: [0; 8],
            timer_tag: 0,
            ifs_action: None,
            pending_connect: None,
            own_sca,
            widening_scale: 1.0,
            prefer_csa2: false,
        }
    }

    /// As an initiator, request Channel Selection Algorithm #2 (BLE 5) for
    /// future connections (the `ChSel` bit of `CONNECT_REQ`).
    pub fn set_prefer_csa2(&mut self, prefer: bool) {
        self.prefer_csa2 = prefer;
    }

    /// Scales the receive-window widening this Link Layer applies as a
    /// Slave. `1.0` is the specification behaviour; smaller values model
    /// the paper's §VIII "reduce the duration of the widening windows"
    /// countermeasure (at the cost of tolerance to clock drift).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < scale <= 1.0`.
    pub fn set_widening_scale(&mut self, scale: f64) {
        assert!(
            scale > 0.0 && scale <= 1.0,
            "widening scale must be in (0, 1]"
        );
        self.widening_scale = scale;
    }

    /// The slave-side window widening for a given span, with the
    /// countermeasure scale applied. Associated function so call sites can
    /// hold disjoint borrows into `self.state`.
    fn scaled_widening(
        master_sca_ppm: f64,
        own_sca: SleepClockAccuracy,
        scale: f64,
        elapsed: Duration,
    ) -> Duration {
        window_widening(master_sca_ppm, own_sca.worst_case_ppm(), elapsed).mul_f64(scale)
    }

    /// This device's address.
    pub fn address(&self) -> DeviceAddress {
        self.address
    }

    /// A short name of the current LL state.
    pub fn state_name(&self) -> &'static str {
        match self.state {
            State::Standby => "standby",
            State::Advertising(_) => "advertising",
            State::Scanning(_) => "scanning",
            State::Connected(_) => "connected",
        }
    }

    /// Whether a connection is active.
    pub fn is_connected(&self) -> bool {
        matches!(self.state, State::Connected(_))
    }

    /// Whether a `CONNECT_IND` this initiator sent is still awaiting its
    /// `TxDone` (the Link Layer becomes Master when it arrives).
    pub fn connect_pending(&self) -> bool {
        self.pending_connect.is_some()
    }

    /// Snapshot of the live connection, if any.
    pub fn connection_info(&self) -> Option<ConnectionInfo> {
        let State::Connected(c) = &self.state else {
            return None;
        };
        Some(ConnectionInfo {
            role: c.role,
            params: c.params,
            next_event_counter: c.next_event_counter,
            sn: c.sn,
            nesn: c.nesn,
            last_anchor: c.last_anchor,
            encrypted: c.enc.phase == EncPhase::On,
            last_unmapped_channel: c.hop.unmapped(),
            csa2: c.hop.is_csa2(),
            peer: c.peer,
        })
    }

    // ------------------------------------------------------------------
    // Timer plumbing
    // ------------------------------------------------------------------

    /// Tags every timer key this Link Layer arms with `tag` in the key's
    /// top byte, and makes [`LinkLayer::handle`] ignore timers carrying a
    /// different tag. A node driving several Link Layers (the
    /// multi-connection Central) gives each one a distinct tag so their
    /// timers can share one `NodeCtx` timer space without cross-firing.
    /// Tag 0 (the default) leaves keys exactly as a single-LL node mints
    /// them.
    pub fn set_timer_tag(&mut self, tag: u8) {
        self.timer_tag = u64::from(tag) << TIMER_TAG_SHIFT;
    }

    fn arm_local(&mut self, ctx: &mut NodeCtx<'_>, reference: Instant, delay: Duration, p: u8) {
        self.timer_gen += 1;
        let gen = self.timer_gen;
        if let Some(slot) = self.expected_gen.get_mut(usize::from(p)) {
            *slot = gen;
        } else {
            invariant!(false, "timer-purpose", "timer purpose {p} out of range");
        }
        let key = TimerKey(u64::from(p) | ((gen & TIMER_GEN_MASK) << 8) | self.timer_tag);
        ctx.set_timer_local_from(reference, delay, key);
    }

    fn disarm(&mut self, p: u8) {
        if let Some(slot) = self.expected_gen.get_mut(usize::from(p)) {
            *slot = 0;
        }
    }

    fn disarm_all(&mut self) {
        self.expected_gen = [0; 8];
        self.ifs_action = None;
    }

    fn decode_timer(&self, key: TimerKey) -> Option<u8> {
        if key.0 >> TIMER_TAG_SHIFT != self.timer_tag >> TIMER_TAG_SHIFT {
            return None; // another Link Layer's timer on a shared node
        }
        let p = lsb8(key.0);
        let gen = (key.0 >> 8) & TIMER_GEN_MASK;
        match self.expected_gen.get(usize::from(p)) {
            Some(&expected) if expected & TIMER_GEN_MASK == gen => Some(p),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Role entry points
    // ------------------------------------------------------------------

    /// Starts connectable advertising with the given AD payload and
    /// advertising interval.
    pub fn start_advertising(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        adv_data: Vec<u8>,
        scan_data: Vec<u8>,
        interval: Duration,
    ) {
        self.disarm_all();
        self.state = State::Advertising(AdvState {
            adv_data,
            scan_data,
            interval,
            channel_pos: 0,
            connectable: true,
        });
        self.advertise_on_current(ctx);
    }

    /// Starts passive scanning (observer): every advertising PDU heard is
    /// reported through the delegate.
    pub fn start_scanning(&mut self, ctx: &mut NodeCtx<'_>) {
        self.disarm_all();
        self.state = State::Scanning(ScanState {
            channel_pos: 0,
            target: None,
            apart_from: Vec::new(),
        });
        self.scan_current(ctx);
    }

    /// Starts initiating: scan for `target` and connect with `params`.
    ///
    /// `apart_from` holds the anchors of the node's other connections on
    /// the same radio (none for a single-link node). The `CONNECT_IND` then
    /// raises `params.win_offset` as far as [`win_offset_apart`] needs to
    /// keep the new connection's anchors clear of theirs.
    pub fn start_initiating(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        target: DeviceAddress,
        params: ConnectionParams,
        apart_from: Vec<Instant>,
    ) {
        self.disarm_all();
        self.state = State::Scanning(ScanState {
            channel_pos: 0,
            target: Some((target, params)),
            apart_from,
        });
        self.scan_current(ctx);
    }

    /// Adopts an existing connection — the hijacker's entry point.
    pub fn adopt_connection(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        adopt: AdoptedConnection,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        self.disarm_all();
        let interval = connection_interval(adopt.params.hop_interval);
        let first_delay = adopt.first_event_delay.unwrap_or(interval);
        let hop = if adopt.csa2 {
            HopSelection::Csa2(crate::csa::Csa2::new(adopt.params.access_address))
        } else {
            HopSelection::Csa1(Csa1::with_state(
                adopt.params.hop_increment,
                adopt.last_unmapped_channel,
            ))
        };
        let mut conn = Box::new(Conn {
            next_event_counter: adopt.next_event_counter,
            sn: adopt.sn,
            nesn: adopt.nesn,
            established: true,
            ..Conn::new(adopt.role, adopt.params, adopt.peer, hop, adopt.last_anchor)
        });
        let params = adopt.params;
        let peer = adopt.peer;
        match adopt.role {
            Role::Master => {
                let anchor = adopt.last_anchor;
                self.state = State::Connected(conn);
                self.arm_local(ctx, anchor, first_delay, purpose::CONN_EVENT);
            }
            Role::Slave => {
                let w = Self::scaled_widening(
                    adopt.params.master_sca.worst_case_ppm(),
                    self.own_sca,
                    self.widening_scale,
                    first_delay,
                );
                conn.window = WindowSpec {
                    extra: Duration::ZERO,
                    widening: w,
                };
                let anchor = adopt.last_anchor;
                self.state = State::Connected(conn);
                self.arm_local(ctx, anchor, first_delay - w, purpose::CONN_EVENT);
            }
        }
        self.arm_supervision(ctx);
        delegate.on_connected(adopt.role, &params, peer);
    }

    // ------------------------------------------------------------------
    // Host requests on a live connection
    // ------------------------------------------------------------------

    /// Queues an `LL_TERMINATE_IND`; the connection closes after it is
    /// transmitted.
    pub fn request_disconnect(&mut self, reason: u8) {
        if let State::Connected(c) = &mut self.state {
            c.ctrl_queue
                .push_back(ControlPdu::TerminateInd { error_code: reason });
            c.terminate_after_tx = Some(reason);
        }
    }

    /// Master only: queues a connection-update procedure taking effect
    /// `instant_delta` events from the next one.
    ///
    /// Calling this without a connection, or as the slave, is a host-layer
    /// bug: debug builds assert, release builds ignore the request.
    pub fn request_connection_update(&mut self, update: UpdateRequest, instant_delta: u16) {
        let State::Connected(c) = &mut self.state else {
            invariant!(
                false,
                "host-request",
                "request_connection_update: not connected"
            );
            return;
        };
        if c.role != Role::Master {
            invariant!(false, "host-request", "only the master updates parameters");
            return;
        }
        let instant = c.next_event_counter.wrapping_add(instant_delta);
        c.pending_update = Some((update, instant));
        c.ctrl_queue.push_back(ControlPdu::ConnectionUpdateInd {
            win_size: update.win_size,
            win_offset: update.win_offset,
            interval: update.interval,
            latency: update.latency,
            timeout: update.timeout,
            instant,
        });
    }

    /// Master only: queues a channel-map update.
    ///
    /// Calling this without a connection, or as the slave, is a host-layer
    /// bug: debug builds assert, release builds ignore the request.
    pub fn request_channel_map_update(&mut self, map: ChannelMap, instant_delta: u16) {
        let State::Connected(c) = &mut self.state else {
            invariant!(
                false,
                "host-request",
                "request_channel_map_update: not connected"
            );
            return;
        };
        if c.role != Role::Master {
            invariant!(false, "host-request", "only the master updates the map");
            return;
        }
        let instant = c.next_event_counter.wrapping_add(instant_delta);
        c.pending_chmap = Some((map, instant));
        c.ctrl_queue.push_back(ControlPdu::ChannelMapInd {
            channel_map: map,
            instant,
        });
    }

    /// Master only: starts the encryption procedure with the given LTK.
    ///
    /// Calling this without a connection, or as the slave, is a host-layer
    /// bug: debug builds assert, release builds ignore the request.
    pub fn request_encryption(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        ltk: [u8; 16],
        rand: [u8; 8],
        ediv: u16,
    ) {
        let State::Connected(c) = &mut self.state else {
            invariant!(false, "host-request", "request_encryption: not connected");
            return;
        };
        if c.role != Role::Master {
            invariant!(false, "host-request", "only the master starts encryption");
            return;
        }
        let mut skd_m = [0u8; 8];
        let mut iv_m = [0u8; 4];
        for b in &mut skd_m {
            *b = lsb8(ctx.rng().below(256));
        }
        for b in &mut iv_m {
            *b = lsb8(ctx.rng().below(256));
        }
        c.enc.phase = EncPhase::AwaitEncRsp;
        c.enc.ltk = Some(ltk);
        c.enc.skd_m = skd_m;
        c.enc.iv_m = iv_m;
        c.ctrl_queue.push_back(ControlPdu::EncReq {
            rand,
            ediv,
            skd_m,
            iv_m,
        });
    }

    // ------------------------------------------------------------------
    // Advertising
    // ------------------------------------------------------------------

    fn advertise_on_current(&mut self, ctx: &mut NodeCtx<'_>) {
        let State::Advertising(adv) = &self.state else {
            return;
        };
        let channel = Channel::advertising_wrapped(adv.channel_pos);
        let pdu = AdvertisingPdu::AdvInd {
            advertiser: self.address,
            data: adv.adv_data.clone(),
        };
        if ctx.is_receiving() {
            ctx.stop_rx();
        }
        ctx.transmit(
            channel,
            RawFrame::new(
                ble_phy::AccessAddress::ADVERTISING,
                pdu.to_pdu(),
                ADV_CRC_INIT,
            ),
        );
    }

    fn scan_current(&mut self, ctx: &mut NodeCtx<'_>) {
        let State::Scanning(scan) = &self.state else {
            return;
        };
        let channel = Channel::advertising_wrapped(scan.channel_pos);
        if ctx.is_receiving() {
            ctx.stop_rx();
        }
        // Another Link Layer's frame on the node's radio keeps this hop deaf.
        if !ctx.is_transmitting() {
            ctx.start_rx(
                channel,
                AccessFilter::One(ble_phy::AccessAddress::ADVERTISING),
                ADV_CRC_INIT,
            );
        }
        let now = ctx.now();
        self.arm_local(ctx, now, Duration::from_millis(10), purpose::SCAN_HOP);
    }

    // ------------------------------------------------------------------
    // Connection helpers
    // ------------------------------------------------------------------

    fn arm_supervision(&mut self, ctx: &mut NodeCtx<'_>) {
        let State::Connected(c) = &self.state else {
            return;
        };
        let timeout = if c.established {
            c.params.supervision_timeout()
        } else {
            // Establishment: six connection intervals.
            c.params.interval() * 6
        };
        let now = ctx.now();
        self.arm_local(ctx, now, timeout, purpose::SUPERVISION);
    }

    fn data_channel_frame(params: &ConnectionParams, pdu: &DataPdu) -> RawFrame {
        RawFrame::new(params.access_address, pdu.to_pdu(), params.crc_init)
    }

    /// Builds the next outgoing PDU, consuming queues as appropriate, and
    /// stores it as pending for retransmission.
    fn build_outgoing(&mut self, delegate: &mut dyn LinkLayerDelegate) -> DataPdu {
        let State::Connected(c) = &mut self.state else {
            // Only reachable from inside a connection event; outside one
            // there is nothing to send and callers re-check the state.
            invariant!(false, "link-state", "build_outgoing outside connection");
            return DataPdu::empty(false, false);
        };
        let pdu = if let Some(pending) = &c.pending {
            // Unacknowledged: retransmit with the same SN, fresh NESN.
            pending.with_seq(c.nesn, c.sn)
        } else if let Some(ctrl) = c.ctrl_queue.pop_front() {
            c.sent_terminate = matches!(ctrl, ControlPdu::TerminateInd { .. });
            let payload = ctrl.to_bytes();
            let sealed = Self::seal(c, Llid::Control, payload);
            DataPdu::new(Llid::Control, c.nesn, c.sn, false, sealed)
        } else if c.enc.handshake_active() {
            // Data is paused while encryption starts.
            DataPdu::empty(c.nesn, c.sn)
        } else {
            let mut payload = Vec::new();
            match delegate.poll_outgoing(&mut payload) {
                Some(llid) => {
                    let sealed = Self::seal(c, llid, payload);
                    DataPdu::new(llid, c.nesn, c.sn, false, sealed)
                }
                None => DataPdu::empty(c.nesn, c.sn),
            }
        };
        // MD: more control or host data waiting?
        let more =
            !c.ctrl_queue.is_empty() || (!c.enc.handshake_active() && delegate.has_outgoing());
        let pdu = pdu.with_md(more);
        c.sent_md = more;
        c.pending = Some(pdu.clone());
        pdu
    }

    /// Encrypts a payload if link encryption is active for transmit.
    fn seal(c: &mut Conn, llid: Llid, mut payload: Vec<u8>) -> Vec<u8> {
        if !c.enc.tx_on || payload.is_empty() {
            return payload;
        }
        let dir = match c.role {
            Role::Master => Direction::MasterToSlave,
            Role::Slave => Direction::SlaveToMaster,
        };
        let header = llid.bits();
        match c.enc.cipher.as_mut() {
            Some(cipher) => {
                // In place: the ciphertext reuses the plaintext buffer, only
                // the 4-byte MIC is appended.
                let mic = cipher.encrypt_in_place(dir, header, &mut payload);
                payload.extend_from_slice(&mic);
                payload
            }
            None => {
                // tx_on is only ever set after the cipher is installed;
                // release builds fall back to plaintext rather than panic.
                invariant!(false, "enc-state", "tx_on without a session cipher");
                payload
            }
        }
    }

    // ------------------------------------------------------------------
    // Main event dispatch
    // ------------------------------------------------------------------

    /// Routes one radio event through the state machine.
    pub fn handle(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        event: RadioEvent,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        match event {
            RadioEvent::Timer { key, .. } => {
                if let Some(p) = self.decode_timer(key) {
                    self.on_timer(ctx, p, delegate);
                }
            }
            RadioEvent::TxDone { at } => self.on_tx_done(ctx, at, delegate),
            RadioEvent::SyncDetected { at, .. } => {
                let _ = at;
                if let State::Connected(c) = &mut self.state {
                    if c.in_event {
                        c.got_sync = true;
                    }
                }
            }
            RadioEvent::FrameReceived(frame) => self.on_frame(ctx, frame, delegate),
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, p: u8, delegate: &mut dyn LinkLayerDelegate) {
        match p {
            purpose::ADV_NEXT => {
                if let State::Advertising(adv) = &mut self.state {
                    adv.channel_pos = 0;
                    self.advertise_on_current(ctx);
                }
            }
            purpose::ADV_LISTEN_END => {
                let next = {
                    let State::Advertising(adv) = &mut self.state else {
                        return;
                    };
                    if ctx.is_receiving() {
                        ctx.stop_rx();
                    }
                    if adv.channel_pos < 2 {
                        adv.channel_pos += 1;
                        true
                    } else {
                        false
                    }
                };
                if next {
                    self.advertise_on_current(ctx);
                } else {
                    // Cycle complete: wait the advertising interval plus the
                    // spec's 0–10 ms pseudo-random delay.
                    let State::Advertising(adv) = &self.state else {
                        return;
                    };
                    let interval = adv.interval;
                    let jitter = Duration::from_micros(ctx.rng().below(10_000));
                    let now = ctx.now();
                    self.arm_local(ctx, now, interval + jitter, purpose::ADV_NEXT);
                }
            }
            purpose::SCAN_HOP => {
                if let State::Scanning(scan) = &mut self.state {
                    scan.channel_pos = (scan.channel_pos + 1) % 3;
                    self.scan_current(ctx);
                }
            }
            purpose::IFS_ACTION => self.run_ifs_action(ctx),
            purpose::CONN_EVENT => self.on_conn_event(ctx, delegate),
            purpose::RX_DEADLINE => self.on_rx_deadline(ctx, delegate),
            purpose::SUPERVISION => {
                if matches!(self.state, State::Connected(_)) {
                    self.teardown(ctx, ERR_CONNECTION_TIMEOUT, delegate);
                }
            }
            _ => {}
        }
    }

    fn run_ifs_action(&mut self, ctx: &mut NodeCtx<'_>) {
        let Some(action) = self.ifs_action.take() else {
            return;
        };
        match action {
            IfsAction::Transmit { channel, frame } => {
                if ctx.is_transmitting() {
                    // Another Link Layer's frame is on the node's radio:
                    // the event ends here, as if this frame were lost, and
                    // an unacknowledged PDU goes out again next event.
                    if let State::Connected(c) = &mut self.state {
                        c.in_event = false;
                    }
                    return;
                }
                ctx.transmit(channel, frame);
            }
            IfsAction::ScanRsp { channel, pdu } => {
                ctx.transmit(
                    channel,
                    RawFrame::new(ble_phy::AccessAddress::ADVERTISING, pdu, ADV_CRC_INIT),
                );
            }
            IfsAction::Connect {
                channel,
                pdu,
                params,
                peer,
            } => {
                if ctx.is_transmitting() {
                    // Multi-link node: another Link Layer's frame is on the
                    // radio at our IFS deadline. Drop this attempt and
                    // resume scanning for the peer's next ADV_IND. A
                    // single-LL node is never transmitting at its own IFS
                    // deadline, so this arm is unreachable there.
                    self.scan_current(ctx);
                    return;
                }
                ctx.transmit(
                    channel,
                    RawFrame::new(ble_phy::AccessAddress::ADVERTISING, pdu, ADV_CRC_INIT),
                );
                // Connection state is created on TxDone; remember intent.
                self.pending_connect = Some((params, peer));
            }
        }
    }

    fn on_tx_done(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        at: Instant,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        // CONNECT_REQ completed? Become master.
        if let Some((params, peer)) = self.pending_connect.take() {
            self.become_master(ctx, at, params, peer, delegate);
            return;
        }
        match &mut self.state {
            State::Advertising(_) => {
                // ADV_IND or SCAN_RSP sent: listen for requests.
                let channel = {
                    let State::Advertising(adv) = &self.state else {
                        return;
                    };
                    Channel::advertising_wrapped(adv.channel_pos)
                };
                ctx.start_rx(
                    channel,
                    AccessFilter::One(ble_phy::AccessAddress::ADVERTISING),
                    ADV_CRC_INIT,
                );
                let now = ctx.now();
                self.arm_local(
                    ctx,
                    now,
                    T_IFS + Duration::from_micros(400),
                    purpose::ADV_LISTEN_END,
                );
            }
            State::Connected(c) => {
                if c.sent_terminate {
                    let reason = c.terminate_after_tx.unwrap_or(0x13);
                    self.teardown(ctx, reason, delegate);
                    return;
                }
                match c.role {
                    Role::Master => {
                        // Anchor (or continuation) frame sent: listen for the
                        // slave's response.
                        let channel = c.current_channel;
                        c.got_sync = false;
                        ctx.start_rx(
                            channel,
                            AccessFilter::One(c.params.access_address),
                            c.params.crc_init,
                        );
                        let now = ctx.now();
                        self.arm_local(ctx, now, T_IFS + IFS_SLACK, purpose::RX_DEADLINE);
                    }
                    Role::Slave => {
                        // Response sent. Continue the event if either side
                        // set MD; otherwise the event is over.
                        if c.peer_md || c.sent_md {
                            let channel = c.current_channel;
                            c.got_sync = false;
                            ctx.start_rx(
                                channel,
                                AccessFilter::One(c.params.access_address),
                                c.params.crc_init,
                            );
                            let now = ctx.now();
                            self.arm_local(ctx, now, T_IFS + IFS_SLACK, purpose::RX_DEADLINE);
                        } else {
                            c.in_event = false;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn become_master(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        connect_req_end: Instant,
        params: ConnectionParams,
        peer: DeviceAddress,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        let hop = if self.prefer_csa2 {
            HopSelection::Csa2(crate::csa::Csa2::new(params.access_address))
        } else {
            HopSelection::Csa1(Csa1::new(params.hop_increment))
        };
        let conn = Box::new(Conn::new(Role::Master, params, peer, hop, connect_req_end));
        self.disarm_all();
        self.state = State::Connected(conn);
        ctx.emit(|| TelemetryEvent::ConnectionEstablished {
            access_address: params.access_address.value(),
            interval: params.interval(),
        });
        delegate.on_connected(Role::Master, &params, peer);
        // First anchor: at the start of the transmit window.
        let offset = transmit_window_offset(params.win_offset);
        self.arm_local(ctx, connect_req_end, offset, purpose::CONN_EVENT);
        self.arm_supervision(ctx);
    }

    fn become_slave(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        connect_req_end: Instant,
        params: ConnectionParams,
        peer: DeviceAddress,
        csa2: bool,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        let offset = transmit_window_offset(params.win_offset);
        let w = Self::scaled_widening(
            params.master_sca.worst_case_ppm(),
            self.own_sca,
            self.widening_scale,
            offset,
        );
        let hop = if csa2 {
            HopSelection::Csa2(crate::csa::Csa2::new(params.access_address))
        } else {
            HopSelection::Csa1(Csa1::new(params.hop_increment))
        };
        // Provisional anchor chain reference: the nominal window start, so
        // missed first events still predict future windows.
        let mut conn = Box::new(Conn::new(
            Role::Slave,
            params,
            peer,
            hop,
            connect_req_end + offset,
        ));
        conn.intervals_since_anchor = 0;
        conn.window = WindowSpec {
            extra: transmit_window_size(params.win_size),
            widening: w,
        };
        self.disarm_all();
        self.state = State::Connected(conn);
        ctx.emit(|| TelemetryEvent::ConnectionEstablished {
            access_address: params.access_address.value(),
            interval: params.interval(),
        });
        delegate.on_connected(Role::Slave, &params, peer);
        self.arm_local(ctx, connect_req_end, offset - w, purpose::CONN_EVENT);
        self.arm_supervision(ctx);
    }

    /// A connection event begins: master transmits the anchor frame; slave
    /// opens its widened receive window.
    fn on_conn_event(&mut self, ctx: &mut NodeCtx<'_>, delegate: &mut dyn LinkLayerDelegate) {
        // Phase 1: apply updates whose instant has arrived; a connection
        // update relocates this event into its transmit window.
        let rescheduled = {
            let State::Connected(c) = &mut self.state else {
                return;
            };
            let counter = c.next_event_counter;
            if let Some((map, instant)) = c.pending_chmap {
                if instant == counter {
                    c.params.channel_map = map;
                    c.pending_chmap = None;
                }
            }
            if let Some((update, instant)) = c.pending_update {
                if instant == counter {
                    c.pending_update = None;
                    c.params.win_size = update.win_size;
                    c.params.win_offset = update.win_offset;
                    c.params.hop_interval = update.interval;
                    c.params.latency = update.latency;
                    c.params.timeout = update.timeout;
                    let offset = transmit_window_offset(update.win_offset);
                    Some((offset, update.win_size))
                } else {
                    None
                }
            } else {
                None
            }
        };
        if let Some((offset, win_size)) = rescheduled {
            let State::Connected(c) = &mut self.state else {
                return;
            };
            match c.role {
                Role::Master => {
                    // Fired at the would-have-been anchor: transmit at the
                    // new window start.
                    let now = ctx.now();
                    self.arm_local(ctx, now, offset, purpose::CONN_EVENT);
                }
                Role::Slave => {
                    // Fired `widening` early of the would-have-been anchor.
                    let old_w = c.window.widening;
                    let master_ppm = c.params.master_sca.worst_case_ppm();
                    let span = offset + connection_interval(c.params.hop_interval);
                    let w =
                        Self::scaled_widening(master_ppm, self.own_sca, self.widening_scale, span);
                    c.window = WindowSpec {
                        extra: transmit_window_size(win_size),
                        widening: w,
                    };
                    let now = ctx.now();
                    self.arm_local(ctx, now, old_w + offset - w, purpose::CONN_EVENT);
                }
            }
            return;
        }

        // Phase 2: run the event.
        let has_outgoing = delegate.has_outgoing();
        let State::Connected(c) = &mut self.state else {
            return;
        };
        // Slave latency (paper §III-B.8): an established slave with nothing
        // to send may skip `latency` events to save energy. Skipped events
        // still consume a channel-selection step and an event counter.
        if c.role == Role::Slave
            && c.params.latency > 0
            && c.established
            && c.events_since_listen < c.params.latency
            && c.pending.is_none()
            && c.ctrl_queue.is_empty()
            && c.pending_update.is_none()
            && c.pending_chmap.is_none()
            && !has_outgoing
        {
            let _skipped = c
                .hop
                .channel_for(c.next_event_counter, &c.params.channel_map);
            c.events_since_listen += 1;
            c.intervals_since_anchor += 1;
            c.next_event_counter = c.next_event_counter.wrapping_add(1);
            let elapsed = c.params.interval() * c.intervals_since_anchor;
            let w = Self::scaled_widening(
                c.params.master_sca.worst_case_ppm(),
                self.own_sca,
                self.widening_scale,
                elapsed,
            );
            c.window = WindowSpec {
                extra: Duration::ZERO,
                widening: w,
            };
            let anchor = c.last_anchor;
            self.arm_local(ctx, anchor, elapsed - w, purpose::CONN_EVENT);
            return;
        }
        if c.role == Role::Slave {
            c.events_since_listen = 0;
        }
        let channel = c
            .hop
            .channel_for(c.next_event_counter, &c.params.channel_map);
        let event_counter = c.next_event_counter;
        ctx.emit(|| TelemetryEvent::Hop {
            channel: channel.index(),
            event_counter,
        });
        let State::Connected(c) = &mut self.state else {
            return;
        };
        c.current_channel = channel;
        c.in_event = true;
        c.got_sync = false;
        c.anchor_set = false;
        c.peer_md = false;
        c.sent_md = false;
        match c.role {
            Role::Master => {
                if ctx.is_transmitting() {
                    // Another Link Layer's frame is on the node's radio:
                    // skip this event. The anchor chain, counter and
                    // channel advance; the Slave widens for the miss.
                    let now = ctx.now();
                    c.in_event = false;
                    c.last_anchor = now;
                    c.next_event_counter = c.next_event_counter.wrapping_add(1);
                    let interval = c.params.interval();
                    self.arm_local(ctx, now, interval, purpose::CONN_EVENT);
                    return;
                }
                let pdu = self.build_outgoing(delegate);
                let State::Connected(c) = &mut self.state else {
                    return;
                };
                let frame = Self::data_channel_frame(&c.params, &pdu);
                if ctx.is_receiving() {
                    ctx.stop_rx();
                }
                let tx = ctx.transmit(channel, frame);
                c.last_anchor = tx.start;
                c.next_event_counter = c.next_event_counter.wrapping_add(1);
                let interval = c.params.interval();
                ctx.emit_at(tx.start, || TelemetryEvent::Anchor {
                    role: LinkRole::Master,
                    channel: channel.index(),
                    at: tx.start,
                });
                self.arm_local(ctx, tx.start, interval, purpose::CONN_EVENT);
            }
            Role::Slave => {
                if ctx.is_receiving() {
                    ctx.stop_rx();
                }
                ctx.start_rx(
                    channel,
                    AccessFilter::One(c.params.access_address),
                    c.params.crc_init,
                );
                // Deadline: the anchor must *start* within the window.
                let deadline = c.window.widening * 2 + c.window.extra + RX_DEADLINE_MARGIN;
                let widening = c.window.widening;
                let now = ctx.now();
                ctx.emit(|| TelemetryEvent::WindowOpen {
                    channel: channel.index(),
                    widening,
                    deadline,
                });
                self.arm_local(ctx, now, deadline, purpose::RX_DEADLINE);
            }
        }
    }

    /// No frame synchronised before the window deadline.
    fn on_rx_deadline(&mut self, ctx: &mut NodeCtx<'_>, _delegate: &mut dyn LinkLayerDelegate) {
        let State::Connected(c) = &mut self.state else {
            return;
        };
        if c.got_sync {
            // A frame is mid-air; FrameReceived will close the window.
            return;
        }
        if ctx.is_receiving() {
            ctx.stop_rx();
        }
        c.in_event = false;
        match c.role {
            Role::Master => {
                // Slave silent this event; next event timer is already armed.
            }
            Role::Slave => {
                // Missed event: extend prediction from the last anchor.
                c.intervals_since_anchor += 1;
                c.next_event_counter = c.next_event_counter.wrapping_add(1);
                let elapsed = c.params.interval() * c.intervals_since_anchor;
                let w = Self::scaled_widening(
                    c.params.master_sca.worst_case_ppm(),
                    self.own_sca,
                    self.widening_scale,
                    elapsed,
                );
                c.window = WindowSpec {
                    extra: Duration::ZERO,
                    widening: w,
                };
                let anchor = c.last_anchor;
                self.arm_local(ctx, anchor, elapsed - w, purpose::CONN_EVENT);
            }
        }
    }

    fn on_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: ReceivedFrame,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        match &self.state {
            State::Advertising(_) => self.on_advertising_frame(ctx, frame, delegate),
            State::Scanning(_) => self.on_scanning_frame(ctx, frame, delegate),
            State::Connected(_) => self.on_connection_frame(ctx, frame, delegate),
            State::Standby => {}
        }
    }

    fn on_advertising_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: ReceivedFrame,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        if !frame.crc_ok {
            return;
        }
        let Ok(pdu) = AdvertisingPdu::from_bytes(&frame.pdu) else {
            return;
        };
        match pdu {
            AdvertisingPdu::ScanReq { advertiser, .. }
                if advertiser.octets == self.address.octets =>
            {
                let State::Advertising(adv) = &self.state else {
                    return;
                };
                let channel = Channel::advertising_wrapped(adv.channel_pos);
                let rsp = AdvertisingPdu::ScanRsp {
                    advertiser: self.address,
                    data: adv.scan_data.clone(),
                };
                self.ifs_action = Some(IfsAction::ScanRsp {
                    channel,
                    pdu: rsp.to_pdu(),
                });
                ctx.stop_rx();
                self.arm_local(ctx, frame.end, T_IFS, purpose::IFS_ACTION);
            }
            AdvertisingPdu::ConnectReq {
                initiator,
                advertiser,
                params,
                ch_sel,
            } if advertiser.octets == self.address.octets => {
                let State::Advertising(adv) = &self.state else {
                    return;
                };
                if !adv.connectable || !params.is_valid() {
                    return;
                }
                ctx.stop_rx();
                self.become_slave(ctx, frame.end, params, initiator, ch_sel, delegate);
            }
            // Explicit per R4: ScanReq/ConnectReq for other advertisers fall
            // through their guards; the rest are not addressed to us.
            AdvertisingPdu::ScanReq { .. }
            | AdvertisingPdu::ConnectReq { .. }
            | AdvertisingPdu::AdvInd { .. }
            | AdvertisingPdu::AdvNonconnInd { .. }
            | AdvertisingPdu::ScanRsp { .. } => {}
        }
    }

    fn on_scanning_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: ReceivedFrame,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        if !frame.crc_ok {
            return;
        }
        let Ok(pdu) = AdvertisingPdu::from_bytes(&frame.pdu) else {
            return;
        };
        delegate.on_advertising_pdu(&pdu, frame.rssi_dbm);
        let State::Scanning(scan) = &self.state else {
            return;
        };
        if let (Some((target, params)), AdvertisingPdu::AdvInd { advertiser, .. }) =
            (&scan.target, &pdu)
        {
            if advertiser.octets == target.octets {
                let channel = Channel::advertising_wrapped(scan.channel_pos);
                let peer = *advertiser;
                let connect = |params| {
                    AdvertisingPdu::ConnectReq {
                        initiator: self.address,
                        advertiser: peer,
                        params,
                        ch_sel: self.prefer_csa2,
                    }
                    .to_pdu()
                };
                // The new connection's anchors count from the CONNECT_IND's
                // end, whose length no WinOffset changes.
                let mut params = *params;
                let air = ctx.phy().airtime_for_pdu(connect(params).len());
                params.win_offset = win_offset_apart(
                    params.win_offset,
                    params.hop_interval,
                    frame.end + T_IFS + air,
                    &scan.apart_from,
                );
                let pdu = connect(params);
                ctx.stop_rx();
                self.disarm(purpose::SCAN_HOP);
                self.ifs_action = Some(IfsAction::Connect {
                    channel,
                    pdu,
                    params,
                    peer,
                });
                self.arm_local(ctx, frame.end, T_IFS, purpose::IFS_ACTION);
            }
        }
    }

    fn on_connection_frame(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        frame: ReceivedFrame,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        let State::Connected(c) = &mut self.state else {
            return;
        };
        if !c.in_event || frame.access_address != c.params.access_address {
            return;
        }
        self.disarm(purpose::RX_DEADLINE);

        let State::Connected(c) = &mut self.state else {
            return;
        };
        // The slave re-anchors on the first frame of the event with a
        // matching access address, valid CRC or not — the very property
        // InjectaBLE exploits. Continuation frames within the same event do
        // not move the anchor.
        if c.role == Role::Slave && !c.anchor_set {
            c.anchor_set = true;
            c.last_anchor = frame.start;
            c.intervals_since_anchor = 0;
            let channel = c.current_channel;
            ctx.emit_at(frame.start, || TelemetryEvent::Anchor {
                role: LinkRole::Slave,
                channel: channel.index(),
                at: frame.start,
            });
            self.schedule_next_slave_event(ctx);
        }
        let State::Connected(c) = &mut self.state else {
            return;
        };

        if !frame.crc_ok {
            // Spec: close the connection event on CRC failure; no response.
            let channel = c.current_channel;
            ctx.emit(|| TelemetryEvent::CrcFail {
                channel: channel.index(),
            });
            if ctx.is_receiving() {
                ctx.stop_rx();
            }
            c.in_event = false;
            return;
        }

        let Ok(mut pdu) = DataPdu::from_bytes(&frame.pdu) else {
            if ctx.is_receiving() {
                ctx.stop_rx();
            }
            c.in_event = false;
            return;
        };

        // Sequence-number processing (Core Spec Vol 6 Part B 4.5.9).
        let peer_acked_us = pdu.header.nesn != c.sn;
        if peer_acked_us {
            c.sn = !c.sn;
            c.pending = None;
        }
        let is_new_data = pdu.header.sn == c.nesn;
        if is_new_data {
            c.nesn = !c.nesn;
        }
        c.peer_md = pdu.header.md;
        c.established = true;
        let (role, sn, nesn) = (c.role, c.sn, c.nesn);
        ctx.emit(|| TelemetryEvent::SnNesn {
            role: link_role(role),
            sn,
            nesn,
        });
        // Refresh supervision on any valid packet.
        self.arm_supervision(ctx);
        let State::Connected(c) = &mut self.state else {
            return;
        };

        // Decrypt and deliver new data.
        let mut terminated = false;
        if is_new_data && !pdu.payload.is_empty() {
            let payload = if c.enc.rx_on {
                let dir = match c.role {
                    Role::Master => Direction::SlaveToMaster,
                    Role::Slave => Direction::MasterToSlave,
                };
                match c.enc.cipher.as_mut() {
                    Some(cipher) => {
                        // In place: decrypt reuses the parsed payload buffer.
                        let mut buf = std::mem::take(&mut pdu.payload);
                        match cipher.decrypt_in_place(dir, pdu.header.llid.bits(), &mut buf) {
                            Ok(n) => {
                                buf.truncate(n);
                                Some(buf)
                            }
                            Err(_) => {
                                // MIC failure: the spec terminates immediately —
                                // the paper's encrypted-injection DoS outcome.
                                terminated = true;
                                None
                            }
                        }
                    }
                    None => {
                        // rx_on is only ever set after the cipher is
                        // installed; treat the gap like a MIC failure.
                        invariant!(false, "enc-state", "rx_on without a session cipher");
                        terminated = true;
                        None
                    }
                }
            } else {
                Some(pdu.payload.clone())
            };
            if terminated {
                self.teardown(ctx, ERR_MIC_FAILURE, delegate);
                return;
            }
            let Some(payload) = payload else {
                return;
            };
            if pdu.header.llid == Llid::Control {
                if self.handle_control(ctx, &payload, delegate) {
                    return; // connection torn down
                }
            } else {
                delegate.on_data(pdu.header.llid, &payload);
            }
        }

        // Respond / continue the event.
        let State::Connected(c) = &mut self.state else {
            return;
        };
        match c.role {
            Role::Slave => {
                // Always respond, IFS after the received frame's end.
                let response = self.build_outgoing(delegate);
                let State::Connected(c) = &mut self.state else {
                    return;
                };
                let frame_out = Self::data_channel_frame(&c.params, &response);
                let channel = c.current_channel;
                if ctx.is_receiving() {
                    ctx.stop_rx();
                }
                self.ifs_action = Some(IfsAction::Transmit {
                    channel,
                    frame: frame_out,
                });
                self.arm_local(ctx, frame.end, T_IFS, purpose::IFS_ACTION);
            }
            Role::Master => {
                // Continue the event only as signalled by the MD bits both
                // sides actually transmitted — the slave uses the same rule
                // to decide whether to keep listening.
                if c.peer_md || c.sent_md {
                    let next = self.build_outgoing(delegate);
                    let State::Connected(c) = &mut self.state else {
                        return;
                    };
                    let frame_out = Self::data_channel_frame(&c.params, &next);
                    let channel = c.current_channel;
                    if ctx.is_receiving() {
                        ctx.stop_rx();
                    }
                    self.ifs_action = Some(IfsAction::Transmit {
                        channel,
                        frame: frame_out,
                    });
                    self.arm_local(ctx, frame.end, T_IFS, purpose::IFS_ACTION);
                } else {
                    if ctx.is_receiving() {
                        ctx.stop_rx();
                    }
                    c.in_event = false;
                }
            }
        }
    }

    fn schedule_next_slave_event(&mut self, ctx: &mut NodeCtx<'_>) {
        let State::Connected(c) = &mut self.state else {
            return;
        };
        c.intervals_since_anchor += 1;
        c.next_event_counter = c.next_event_counter.wrapping_add(1);
        let elapsed = c.params.interval() * c.intervals_since_anchor;
        let w = Self::scaled_widening(
            c.params.master_sca.worst_case_ppm(),
            self.own_sca,
            self.widening_scale,
            elapsed,
        );
        c.window = WindowSpec {
            extra: Duration::ZERO,
            widening: w,
        };
        let anchor = c.last_anchor;
        self.arm_local(ctx, anchor, elapsed - w, purpose::CONN_EVENT);
    }

    /// Handles a received LL control PDU. Returns `true` if the connection
    /// was torn down.
    ///
    /// Wrapped in an `LlProcedure` span (detail = opcode) so the profiler
    /// can attribute control-procedure handling cost; the sim-time duration
    /// is 0 (processing is instantaneous in the model), the wall-clock
    /// duration measures the handler itself.
    fn handle_control(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        payload: &[u8],
        delegate: &mut dyn LinkLayerDelegate,
    ) -> bool {
        let opcode = payload.first().copied().unwrap_or(0);
        let span = ctx.span_enter(ble_telemetry::SpanKind::LlProcedure, u32::from(opcode));
        let torn_down = self.handle_control_inner(ctx, payload, delegate);
        ctx.span_exit(span);
        torn_down
    }

    fn handle_control_inner(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        payload: &[u8],
        delegate: &mut dyn LinkLayerDelegate,
    ) -> bool {
        let Ok(ctrl) = ControlPdu::from_bytes(payload) else {
            // Unknown opcode: answer LL_UNKNOWN_RSP if we at least got one.
            if let Some(&op) = payload.first() {
                if let State::Connected(c) = &mut self.state {
                    c.ctrl_queue
                        .push_back(ControlPdu::UnknownRsp { unknown_type: op });
                }
            }
            return false;
        };
        let State::Connected(c) = &mut self.state else {
            return false;
        };
        let opcode = ctrl.opcode();
        ctx.emit(|| TelemetryEvent::LlControl { opcode });
        match ctrl {
            ControlPdu::TerminateInd { error_code } => {
                self.teardown(ctx, error_code, delegate);
                return true;
            }
            ControlPdu::ConnectionUpdateInd {
                win_size,
                win_offset,
                interval,
                latency,
                timeout,
                instant,
            } => {
                if c.role == Role::Slave {
                    let delta = instant.wrapping_sub(c.next_event_counter);
                    if delta >= 0x8000 {
                        // Instant in the past: connection is unrecoverable.
                        self.teardown(ctx, ERR_CONNECTION_TIMEOUT, delegate);
                        return true;
                    }
                    c.pending_update = Some((
                        UpdateRequest {
                            win_size,
                            win_offset,
                            interval,
                            latency,
                            timeout,
                        },
                        instant,
                    ));
                }
            }
            ControlPdu::ChannelMapInd {
                channel_map,
                instant,
            } => {
                if c.role == Role::Slave && channel_map.is_valid() {
                    c.pending_chmap = Some((channel_map, instant));
                }
            }
            ControlPdu::EncReq {
                rand,
                ediv,
                skd_m,
                iv_m,
            } => {
                if c.role == Role::Slave {
                    match delegate.ltk_lookup(&rand, ediv) {
                        Some(ltk) => {
                            let mut skd_s = [0u8; 8];
                            let mut iv_s = [0u8; 4];
                            for b in &mut skd_s {
                                *b = lsb8(ctx.rng().below(256));
                            }
                            for b in &mut iv_s {
                                *b = lsb8(ctx.rng().below(256));
                            }
                            let material = SessionKeyMaterial {
                                skd_m,
                                skd_s,
                                iv_m,
                                iv_s,
                            };
                            c.enc.cipher = Some(LinkCipher::new(&ltk, &material));
                            c.enc.phase = EncPhase::AwaitStartRsp;
                            c.ctrl_queue.push_back(ControlPdu::EncRsp { skd_s, iv_s });
                            c.ctrl_queue.push_back(ControlPdu::StartEncReq);
                            // After LL_START_ENC_REQ the master's next
                            // frames to us are encrypted.
                            c.enc.rx_on = true;
                        }
                        None => {
                            c.ctrl_queue
                                .push_back(ControlPdu::RejectInd { error_code: 0x06 });
                        }
                    }
                }
            }
            ControlPdu::EncRsp { skd_s, iv_s } => {
                if c.role == Role::Master && c.enc.phase == EncPhase::AwaitEncRsp {
                    let material = SessionKeyMaterial {
                        skd_m: c.enc.skd_m,
                        skd_s,
                        iv_m: c.enc.iv_m,
                        iv_s,
                    };
                    let Some(ltk) = c.enc.ltk else {
                        // AwaitEncRsp is only entered by request_encryption,
                        // which stores the LTK; ignore the response otherwise.
                        invariant!(false, "enc-state", "AwaitEncRsp without an LTK");
                        return false;
                    };
                    c.enc.cipher = Some(LinkCipher::new(&ltk, &material));
                    c.enc.phase = EncPhase::AwaitStartReq;
                }
            }
            ControlPdu::StartEncReq => {
                if c.role == Role::Master && c.enc.phase == EncPhase::AwaitStartReq {
                    c.enc.phase = EncPhase::AwaitStartRsp;
                    c.enc.tx_on = true;
                    c.enc.rx_on = true;
                    c.ctrl_queue.push_back(ControlPdu::StartEncRsp);
                }
            }
            ControlPdu::StartEncRsp => match (c.role, c.enc.phase) {
                (Role::Slave, EncPhase::AwaitStartRsp) => {
                    c.enc.tx_on = true;
                    c.enc.phase = EncPhase::On;
                    c.ctrl_queue.push_back(ControlPdu::StartEncRsp);
                    delegate.on_encryption_change(true);
                }
                (Role::Master, EncPhase::AwaitStartRsp) => {
                    c.enc.phase = EncPhase::On;
                    delegate.on_encryption_change(true);
                }
                _ => {}
            },
            ControlPdu::FeatureReq { features } => {
                c.ctrl_queue.push_back(ControlPdu::FeatureRsp { features });
            }
            ControlPdu::VersionInd { .. } => {
                if !c.version_sent {
                    c.version_sent = true;
                    c.ctrl_queue.push_back(ControlPdu::VersionInd {
                        version: 9, // BLE 5.0
                        company: 0x0059,
                        subversion: 0x0100,
                    });
                }
            }
            ControlPdu::PingReq => c.ctrl_queue.push_back(ControlPdu::PingRsp),
            ControlPdu::FeatureRsp { .. }
            | ControlPdu::PingRsp
            | ControlPdu::UnknownRsp { .. }
            | ControlPdu::RejectInd { .. } => {}
        }
        false
    }

    fn teardown(
        &mut self,
        ctx: &mut NodeCtx<'_>,
        reason: u8,
        delegate: &mut dyn LinkLayerDelegate,
    ) {
        if ctx.is_receiving() {
            ctx.stop_rx();
        }
        ctx.emit(|| TelemetryEvent::ConnectionClosed { reason });
        self.disarm_all();
        self.state = State::Standby;
        delegate.on_disconnected(reason);
    }
}
