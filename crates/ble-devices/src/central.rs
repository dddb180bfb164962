//! A smartphone-like Central.
//!
//! Initiates connections to a target peripheral, keeps them alive, can pair
//! and encrypt, and re-establishes the connection after a loss — the role
//! the paper fills with a Mirage-driven HCI Central (experiments 1–2) and a
//! real smartphone (experiment 3).
//!
//! # Multiple connections
//!
//! A real smartphone keeps several peripherals connected at once by
//! time-multiplexing one radio across their connection events. This Central
//! does the same: [`Central::add_peer`] claims one of
//! [`CENTRAL_SLOTS`] fixed connection slots (a
//! [`ConnectionManager`] slot with a generation-checked
//! [`ConnHandle`]) and gives it its own [`LinkLayer`] + [`HostStack`] pair.
//! All slots share the node's single radio and timer space, and no slot
//! ever starts a frame while another slot's frame is on the air:
//!
//! - every extra slot's Link Layer tags its timer keys with the slot index
//!   ([`LinkLayer::set_timer_tag`]), so timers route back to their owner;
//! - received frames route by access address (each live connection has a
//!   unique one; advertising frames go to the slot currently initiating);
//! - `TxDone` routes to the slot whose event handling started the frame;
//! - connection establishment is serialised — one slot scans at a time —
//!   exactly as a single-radio Central must;
//! - a slot's `CONNECT_IND` picks the WinOffset that puts its anchors at
//!   least [`ANCHOR_GUARD`] from every live sibling's, modulo the shared
//!   connection interval ([`win_offset_apart`]);
//! - a slot whose frame is due while the radio transmits does not send
//!   it: a Master skips that connection event (its counter and channel
//!   still advance, and its Slave widens for the miss), a continuation
//!   frame ends the event, and a `CONNECT_IND` waits for the peer's next
//!   `ADV_IND`; a scan hop that finds the radio transmitting leaves the
//!   receiver closed.
//!
//! All host stacks of a multi-peer Central draw TX buffers from one shared
//! [`PacketPool`] under a [`QosPolicy::ReserveN`] policy, so one chatty
//! connection cannot starve the others. A single-peer Central (no
//! `add_peer` call) behaves — and schedules — byte-identically to the
//! historical single-connection implementation.
//!
//! [`ANCHOR_GUARD`]: ble_link::timing::ANCHOR_GUARD
//! [`win_offset_apart`]: ble_link::timing::win_offset_apart

use std::collections::VecDeque;

use ble_host::{
    ConnHandle, ConnectionManager, GattServer, HostEvent, HostStack, PacketPool, QosPolicy,
    SecurityAction, DEFAULT_BUF_CAPACITY, MAX_POOL_CLIENTS,
};
use ble_invariants::invariant;
use ble_link::timing::transmit_window_offset;
use ble_link::{ConnectionInfo, ConnectionParams, DeviceAddress, LinkLayer, SleepClockAccuracy};
use ble_phy::{AccessAddress, NodeCtx, RadioEvent, RadioListener, TimerKey};
use ble_telemetry::TelemetryEvent;
use simkit::{Duration, Instant, SimRng};

use crate::peripheral::APP_TIMER_BASE;

const RECONNECT_TIMER: u64 = APP_TIMER_BASE;

/// Fixed number of connection slots a [`Central`] arbitrates (slot 0 is the
/// primary connection every scenario has; up to 7 more via
/// [`Central::add_peer`]).
pub const CENTRAL_SLOTS: usize = 8;

/// Per-slot link state for the extra (non-primary) connections.
struct PeerLink {
    ll: LinkLayer,
    host: HostStack,
    target: DeviceAddress,
    params: ConnectionParams,
}

/// A Central device: connection initiator and application driver.
pub struct Central {
    /// The Link Layer of the primary connection (slot 0).
    pub ll: LinkLayer,
    /// The host stack of the primary connection (ATT client + GATT server
    /// with a GAP name).
    pub host: HostStack,
    target: DeviceAddress,
    params: ConnectionParams,
    /// Reconnect automatically after disconnection.
    pub auto_reconnect: bool,
    reconnect_delay: Duration,
    /// Number of connections successfully initiated (all slots).
    pub connections: usize,
    /// Number of disconnections observed (all slots).
    pub disconnections: usize,
    /// Reason of the last disconnection.
    pub last_disconnect_reason: Option<u8>,
    /// Application events drained from the hosts, for inspection by tests
    /// and experiment harnesses.
    pub event_log: VecDeque<HostEvent>,
    /// Writes to enqueue on (re)connection: (handle, value, acknowledged).
    /// Applied to every slot (the multi-peer presets connect to identical
    /// device profiles).
    pub on_connect_writes: Vec<(u16, Vec<u8>, bool)>,
    /// Pair (and then encrypt) automatically on connection (slot 0 only).
    pub pair_on_connect: bool,
    rng: SimRng,
    conns: ConnectionManager<CENTRAL_SLOTS>,
    extras: Vec<PeerLink>,
    /// Slot currently scanning/initiating (establishment is serialised).
    initiating: Option<usize>,
    /// Slots waiting for the radio to finish the current initiation.
    pending_initiations: VecDeque<usize>,
    /// Slot whose Link Layer started the frame on the air, or the last one
    /// (`TxDone` routing).
    tx_owner: usize,
    /// Shared TX pool once the Central goes multi-peer.
    shared_pool: Option<PacketPool>,
    /// Telemetry high-water mark already reported.
    seen_high_water: usize,
    /// Per-client pool denials already reported.
    seen_pool_denials: [u64; MAX_POOL_CLIENTS],
    /// Slot-allocation denials already reported.
    seen_slot_denials: u64,
}

impl Central {
    /// Creates a Central that will connect to `target` using `params`.
    ///
    /// # Example
    ///
    /// ```
    /// use ble_devices::Central;
    /// use ble_link::{AddressType, ConnectionParams, DeviceAddress};
    /// use simkit::SimRng;
    /// let mut rng = SimRng::seed_from(1);
    /// let params = ConnectionParams::typical(&mut rng, 36);
    /// let central = Central::new(0xA0, DeviceAddress::new([0xB1; 6], AddressType::Public), params, rng);
    /// assert_eq!(central.connections, 0);
    /// ```
    pub fn new(
        addr_seed: u8,
        target: DeviceAddress,
        params: ConnectionParams,
        mut rng: SimRng,
    ) -> Central {
        let address = DeviceAddress::new([addr_seed; 6], ble_link::AddressType::Public);
        let host_rng = SimRng::seed_from(rng.below(u64::MAX - 1));
        let host = HostStack::new(address, GattServer::new(), host_rng);
        let mut conns = ConnectionManager::new();
        conns.allocate_at(0, target);
        Central {
            ll: LinkLayer::new(address, SleepClockAccuracy::Ppm50),
            host,
            target,
            params,
            auto_reconnect: true,
            reconnect_delay: Duration::from_millis(50),
            connections: 0,
            disconnections: 0,
            last_disconnect_reason: None,
            event_log: VecDeque::new(),
            on_connect_writes: Vec::new(),
            pair_on_connect: false,
            rng,
            conns,
            extras: Vec::new(),
            initiating: None,
            pending_initiations: VecDeque::new(),
            tx_owner: 0,
            shared_pool: None,
            seen_high_water: 0,
            seen_pool_denials: [0; MAX_POOL_CLIENTS],
            seen_slot_denials: 0,
        }
    }

    /// Starts scanning/initiating (call once from `World::with_ctx`).
    /// With extra peers added, slot 0 initiates first and the remaining
    /// slots queue behind it.
    pub fn start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.initiating = Some(0);
        for slot in 1..=self.extras.len() {
            self.pending_initiations.push_back(slot);
        }
        self.initiate(ctx, 0);
    }

    /// Requests Channel Selection Algorithm #2 (BLE 5) for future
    /// connections on the primary slot.
    pub fn set_prefer_csa2(&mut self, prefer: bool) {
        self.ll.set_prefer_csa2(prefer);
    }

    /// The parameters used for primary-slot connections.
    pub fn params(&self) -> ConnectionParams {
        self.params
    }

    /// Queues a write to be sent immediately (if connected) on slot 0.
    pub fn write(&mut self, handle: u16, value: Vec<u8>) {
        self.host.write(handle, value);
    }

    // ------------------------------------------------------------------
    // Connection slots
    // ------------------------------------------------------------------

    /// Claims a connection slot for an additional peripheral. Call before
    /// the world starts (establishment is queued behind slot 0). Returns
    /// `None` when all [`CENTRAL_SLOTS`] slots are taken — the denial is
    /// counted and reported as a `SlotDenied` telemetry event.
    ///
    /// The first added peer switches every slot's host stack onto one
    /// shared [`QosPolicy::ReserveN`] packet pool.
    pub fn add_peer(
        &mut self,
        target: DeviceAddress,
        params: ConnectionParams,
    ) -> Option<ConnHandle> {
        let slot = 1 + self.extras.len();
        let handle = self.conns.allocate_at(slot, target)?;
        if self.shared_pool.is_none() {
            // Going multi-peer: one pool, two buffers reserved per slot,
            // the rest first-come-first-served.
            let pool = PacketPool::new(
                4 * CENTRAL_SLOTS,
                DEFAULT_BUF_CAPACITY,
                QosPolicy::ReserveN {
                    reserve: [2; MAX_POOL_CLIENTS],
                },
            );
            self.host.set_pool(pool.clone(), 0);
            self.shared_pool = Some(pool);
        }
        let address = self.ll.address();
        let host_rng = SimRng::seed_from(self.rng.below(u64::MAX - 1));
        let mut host = HostStack::new(address, GattServer::new(), host_rng);
        if let Some(pool) = &self.shared_pool {
            host.set_pool(pool.clone(), slot);
        }
        let mut ll = LinkLayer::new(address, SleepClockAccuracy::Ppm50);
        ll.set_timer_tag(slot as u8);
        self.extras.push(PeerLink {
            ll,
            host,
            target,
            params,
        });
        Some(handle)
    }

    /// The slot bookkeeping: states, peers and generation-checked handles.
    pub fn conn_manager(&self) -> &ConnectionManager<CENTRAL_SLOTS> {
        &self.conns
    }

    /// Current-generation handles of every occupied slot, slot order.
    pub fn conn_handles(&self) -> Vec<ConnHandle> {
        (0..CENTRAL_SLOTS)
            .filter_map(|i| self.conns.handle_at(i))
            .collect()
    }

    /// How many slots hold a live Link Layer connection right now.
    pub fn live_connections(&self) -> usize {
        let primary = usize::from(self.ll.is_connected());
        primary + self.extras.iter().filter(|p| p.ll.is_connected()).count()
    }

    /// The Link Layer behind `handle`, or `None` for a stale handle.
    pub fn ll_for(&self, handle: ConnHandle) -> Option<&LinkLayer> {
        if !self.conns.is_current(handle) {
            return None;
        }
        self.slot_ll(handle.index())
    }

    /// Requests a Link-Layer disconnect of the connection behind `handle`.
    /// The owning slot re-establishes on its own (auto-reconnect), sending
    /// a fresh `CONNECT_IND`. Returns `false` — and sends nothing — for a
    /// stale handle or a slot whose link is already down.
    pub fn disconnect(&mut self, handle: ConnHandle, reason: u8) -> bool {
        if !self.conns.is_current(handle) {
            return false;
        }
        let Some((ll, _)) = self.slot_mut(handle.index()) else {
            return false;
        };
        if !ll.is_connected() {
            return false;
        }
        ll.request_disconnect(reason);
        true
    }

    /// The shared multi-peer packet pool, once [`Central::add_peer`] built
    /// it.
    pub fn shared_pool(&self) -> Option<&PacketPool> {
        self.shared_pool.as_ref()
    }

    fn multi_peer(&self) -> bool {
        !self.extras.is_empty()
    }

    fn slot_ll(&self, slot: usize) -> Option<&LinkLayer> {
        match slot {
            0 => Some(&self.ll),
            i => self.extras.get(i - 1).map(|p| &p.ll),
        }
    }

    fn slot_mut(&mut self, slot: usize) -> Option<(&mut LinkLayer, &mut HostStack)> {
        match slot {
            0 => Some((&mut self.ll, &mut self.host)),
            i => self.extras.get_mut(i - 1).map(|p| (&mut p.ll, &mut p.host)),
        }
    }

    /// The peripheral a slot connects to, and with which parameters.
    fn slot_peer(&self, slot: usize) -> Option<(DeviceAddress, ConnectionParams)> {
        match slot {
            0 => Some((self.target, self.params)),
            i => self.extras.get(i - 1).map(|p| (p.target, p.params)),
        }
    }

    /// Starts `slot`'s initiation. Its `CONNECT_IND` places the new
    /// connection's anchors apart from every other live slot's, so that
    /// no two slots' connection events start together on the one radio.
    fn initiate(&mut self, ctx: &mut NodeCtx<'_>, slot: usize) {
        let apart_from = (0..=self.extras.len())
            .filter(|&s| s != slot)
            .filter_map(|s| self.slot_ll(s)?.connection_info())
            .map(|info| anchor(&info))
            .collect();
        let Some((target, params)) = self.slot_peer(slot) else {
            return;
        };
        if let Some((ll, _)) = self.slot_mut(slot) {
            ll.start_initiating(ctx, target, params, apart_from);
        }
    }

    // ------------------------------------------------------------------
    // Event routing
    // ------------------------------------------------------------------

    /// Which slot an incoming frame's access address belongs to.
    fn slot_for_aa(&self, aa: AccessAddress) -> usize {
        if aa == AccessAddress::ADVERTISING {
            return self.initiating.unwrap_or(0);
        }
        if let Some(info) = self.ll.connection_info() {
            if info.params.access_address == aa {
                return 0;
            }
        }
        for (i, p) in self.extras.iter().enumerate() {
            if let Some(info) = p.ll.connection_info() {
                if info.params.access_address == aa {
                    return i + 1;
                }
            }
        }
        // A data access address no live slot owns yet: the CONNECT_IND was
        // just sent and the first slave frame arrives before the initiating
        // Link Layer flipped to connected.
        self.initiating.unwrap_or(0)
    }

    fn route(&self, event: &RadioEvent) -> usize {
        if self.extras.is_empty() {
            return 0;
        }
        match event {
            RadioEvent::Timer { key, .. } => (key.0 >> 56) as usize,
            RadioEvent::TxDone { .. } => self.tx_owner,
            RadioEvent::FrameReceived(frame) => self.slot_for_aa(frame.access_address),
        }
    }

    fn dispatch(&mut self, ctx: &mut NodeCtx<'_>, slot: usize, event: RadioEvent) {
        let was_transmitting = ctx.is_transmitting();
        let Some((ll, host)) = self.slot_mut(slot) else {
            return;
        };
        ll.handle(ctx, event, host);
        // No slot starts a frame while another's is on the air, so a frame
        // start is the busy flag's rising edge, and its `TxDone` is this
        // slot's.
        if !was_transmitting && ctx.is_transmitting() {
            self.tx_owner = slot;
        }
        self.pump(ctx, slot);
        if self.multi_peer() {
            self.emit_pool_telemetry(ctx);
        }
        invariant!(
            (0..=self.extras.len()).all(|s| {
                self.slot_ll(s).is_none_or(|ll| !ll.connect_pending())
                    || (self.tx_owner == s && ctx.is_transmitting())
            }),
            "connect-owns-radio",
            "a slot awaits its CONNECT_IND's TxDone but does not own the radio's frame"
        );
    }

    /// Hands the radio to the next queued slot once the current initiation
    /// resolved (connected or torn down).
    fn start_next_initiation(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.initiating.is_some() {
            return;
        }
        let Some(slot) = self.pending_initiations.pop_front() else {
            return;
        };
        self.initiating = Some(slot);
        self.initiate(ctx, slot);
    }

    fn note_established(&mut self, ctx: &mut NodeCtx<'_>, slot: usize) {
        if let Some(h) = self.conns.handle_at(slot) {
            self.conns.establish(h);
            if self.multi_peer() {
                ctx.emit(|| TelemetryEvent::ConnEstablished { handle: h.to_raw() });
            }
        }
        if self.initiating == Some(slot) {
            self.initiating = None;
            self.start_next_initiation(ctx);
        }
    }

    fn note_released(&mut self, ctx: &mut NodeCtx<'_>, slot: usize) {
        if let Some(h) = self.conns.handle_at(slot) {
            self.conns.begin_disconnect(h);
            self.conns.release(h);
            if self.multi_peer() {
                ctx.emit(|| TelemetryEvent::ConnReleased { handle: h.to_raw() });
            }
        }
        if self.initiating == Some(slot) {
            self.initiating = None;
            self.start_next_initiation(ctx);
        }
    }

    /// Reports pool pressure and slot denials the bookkeeping accumulated
    /// since the last pump (multi-peer only — a single-connection Central
    /// emits exactly the historical event stream).
    fn emit_pool_telemetry(&mut self, ctx: &mut NodeCtx<'_>) {
        if let Some(pool) = &self.shared_pool {
            let stats = pool.stats();
            if stats.high_water > self.seen_high_water {
                self.seen_high_water = stats.high_water;
                let in_use = stats.high_water as u32;
                ctx.emit(|| TelemetryEvent::PoolHighWater { in_use });
            }
            for (c, now) in stats.denials.iter().enumerate() {
                if *now > self.seen_pool_denials[c] {
                    self.seen_pool_denials[c] = *now;
                    let client = c as u32;
                    ctx.emit(|| TelemetryEvent::PoolExhausted { client });
                }
            }
        }
        if self.conns.denials() > self.seen_slot_denials {
            self.seen_slot_denials = self.conns.denials();
            ctx.emit(|| TelemetryEvent::SlotDenied);
        }
    }

    /// Drains one slot's host: starts the encryption its security actions
    /// ask for, and handles its connection events.
    fn pump(&mut self, ctx: &mut NodeCtx<'_>, slot: usize) {
        self.run_security_actions(ctx, slot);
        loop {
            let Some((_, host)) = self.slot_mut(slot) else {
                return;
            };
            let Some(event) = host.poll_event() else {
                break;
            };
            match &event {
                HostEvent::Connected { .. } => {
                    self.connections += 1;
                    let writes = self.on_connect_writes.clone();
                    let pair = self.pair_on_connect && slot == 0;
                    if let Some((_, host)) = self.slot_mut(slot) {
                        for (handle, value, acknowledged) in writes {
                            if acknowledged {
                                host.write(handle, value);
                            } else {
                                host.write_command(handle, &value);
                            }
                        }
                        if pair {
                            if host.bonded_key().is_some() {
                                host.encrypt_with_bonded_key();
                            } else {
                                host.start_pairing();
                            }
                        }
                    }
                    self.note_established(ctx, slot);
                }
                HostEvent::Disconnected { reason } => {
                    self.disconnections += 1;
                    self.last_disconnect_reason = Some(*reason);
                    self.note_released(ctx, slot);
                    if self.auto_reconnect {
                        let jitter = Duration::from_micros(self.rng.below(20_000));
                        let key = RECONNECT_TIMER | ((slot as u64) << 8);
                        ctx.set_timer_local(self.reconnect_delay + jitter, TimerKey(key));
                    }
                }
                _ => {}
            }
            self.event_log.push_back(event);
        }
        // Re-run actions that event handling may have queued (pairing
        // completion queues StartEncryption).
        self.run_security_actions(ctx, slot);
    }

    fn run_security_actions(&mut self, ctx: &mut NodeCtx<'_>, slot: usize) {
        let Some((ll, host)) = self.slot_mut(slot) else {
            return;
        };
        while let Some(action) = host.take_action() {
            match action {
                SecurityAction::StartEncryption { key, rand, ediv } => {
                    if ll.is_connected() {
                        ll.request_encryption(ctx, key, rand, ediv);
                    }
                }
            }
        }
    }

    fn on_reconnect_timer(&mut self, ctx: &mut NodeCtx<'_>, slot: usize) {
        if slot == 0 {
            if self.ll.is_connected() {
                return;
            }
            if self.conns.handle_at(0).is_none() {
                self.conns.allocate_at(0, self.target);
            }
            if self.multi_peer() {
                // Respect the single-radio queue discipline (with priority):
                // stealing the initiating token mid-flight would strand the
                // other slot's scan — advertising frames route to the
                // initiating slot, so a clobbered slot never sees another
                // ADV_IND and wedges in `Connecting`.
                if self.initiating.is_none() {
                    self.pending_initiations.push_front(0);
                    self.start_next_initiation(ctx);
                } else if self.initiating != Some(0) && !self.pending_initiations.contains(&0) {
                    self.pending_initiations.push_front(0);
                }
                return;
            }
            // The primary slot always restarts immediately — the historical
            // single-connection behaviour.
            self.initiating = Some(0);
            self.initiate(ctx, 0);
            return;
        }
        let Some(p) = self.extras.get_mut(slot - 1) else {
            return;
        };
        if p.ll.is_connected() {
            return;
        }
        let target = p.target;
        if self.conns.handle_at(slot).is_none() {
            self.conns.allocate_at(slot, target);
        }
        if self.initiating.is_none() {
            self.pending_initiations.push_back(slot);
            self.start_next_initiation(ctx);
        } else if !self.pending_initiations.contains(&slot) {
            self.pending_initiations.push_back(slot);
        }
    }
}

/// The anchor a live Master's connection events repeat from: its last one
/// or, before its first event, the one its `CONNECT_IND` set.
fn anchor(info: &ConnectionInfo) -> Instant {
    if info.next_event_counter == 0 {
        info.last_anchor + transmit_window_offset(info.params.win_offset)
    } else {
        info.last_anchor
    }
}

impl RadioListener for Central {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        self.start(ctx);
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { key, .. } = &event {
            if key.0 & 0xFF >= APP_TIMER_BASE {
                if key.0 & 0xFF == RECONNECT_TIMER {
                    let slot = ((key.0 >> 8) & 0xFF) as usize;
                    self.on_reconnect_timer(ctx, slot);
                }
                return;
            }
        }
        let slot = self.route(&event);
        self.dispatch(ctx, slot, event);
    }
}
