//! The shared radio medium and simulation driver.
//!
//! [`World`] is a central arena: it owns the event queue, the node radios,
//! the set of in-flight transmissions *and every protocol state machine*
//! (as `Box<dyn Node>` keyed by [`NodeId`]). Frame delivery follows
//! first-lock-wins radio semantics: a receiver synchronises on the first
//! frame whose preamble it hears (passing its access-address filter), and
//! any frame overlapping the locked reception contributes interference. At
//! the end of the locked frame the [`crate::CaptureModel`] decides — from
//! the signal-to-interference ratio and the overlap duration — whether the
//! frame survived or was corrupted.
//!
//! This is precisely the mechanism the InjectaBLE race exploits: the
//! attacker's frame, transmitted at the start of the widened receive
//! window, arrives *first*, so the victim locks onto it; the legitimate
//! Master frame then only matters as interference.

use std::collections::VecDeque;

use ble_invariants::invariant;
use ble_telemetry::{
    DeliveryTracker, FaultKind, PacketDelivery, SharedRegistry, SpanId, SpanKind, Telemetry,
    TelemetryEvent, TelemetryRecord, TelemetrySink,
};
use simkit::{Duration, EventQueue, FaultPlan, Instant, ReservedIds, SimRng};

use crate::access_address::AccessAddress;
use crate::channel::Channel;
use crate::fault::FaultState;
use crate::frame::{RawFrame, ReceivedFrame};
use crate::phy_mode::PhyMode;
use crate::propagation::Environment;
use crate::radio::{AccessFilter, Node, NodeConfig, NodeCtx, NodeId, RadioEvent, TimerKey};

/// Frame-delivery scheduling strategy of the medium.
///
/// Both modes produce **event-for-event identical** simulations — the
/// sharded fast path only skips scheduling `RxStart` edges that the
/// broadcast path would have discarded without any state or RNG effect
/// (wrong channel, not listening, mean power below the reachability cull,
/// or an unlocked receiver filtering for another frame). The equivalence
/// is pinned by the `sharding_equivalence` integration tests, which run
/// the same seeded world under both modes and compare their telemetry
/// records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Key every node's `RxStart` edge at transmit, under an event id
    /// reserved for it in node order, and queue each edge at the first
    /// moment it can act: at transmit for a listener on the frame's
    /// channel (per-channel listener index) that clears the reachability
    /// cull and is locked or whose access-address filter and PHY match the
    /// frame; otherwise when the receiver locks, retunes or re-filters
    /// before the edge's key has fired. An edge that never acts is never
    /// queued. The default.
    #[default]
    Sharded,
    /// Schedule `RxStart` at every other node for every frame, as the
    /// medium originally did — O(nodes) per transmission. Retained as the
    /// oracle for the sharded/broadcast equivalence tests and for
    /// apples-to-apples benchmarks.
    FullBroadcast,
}

/// Handle describing a transmission that was just started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxHandle {
    /// When the first preamble bit left the antenna.
    pub start: Instant,
    /// When the last bit will leave the antenna.
    pub end: Instant,
    pub(crate) id: u64,
}

#[derive(Debug)]
enum SimEvent {
    TxEnd {
        node: NodeId,
    },
    RxStart {
        node: NodeId,
        tx_id: u64,
    },
    RxEnd {
        node: NodeId,
        tx_id: u64,
    },
    Timer {
        node: NodeId,
        key: TimerKey,
    },
    /// Edge `edge` of fault-plan item `item` (see [`FaultState::edge`]):
    /// telemetry only — impairments are evaluated arithmetically per frame,
    /// not from these events. Each item keeps at most one of these pending;
    /// firing edge `n` schedules edge `n + 1`. So a boundary that falls at
    /// exactly the same instant as an event scheduled after the previous
    /// boundary fired fires after that event (a schedule queued in full at
    /// install would fire it first). That orders JSONL lines at equal
    /// timestamps only, never simulation state.
    Fault {
        item: usize,
        edge: u64,
    },
}

#[derive(Debug, Clone, Copy)]
struct Interference {
    power_dbm: f64,
    overlap: Duration,
}

/// Interferers observed during one locked reception. Almost every collision
/// involves one or two frames (the injection race is exactly two), so the
/// first few entries live inline in the lock and the common case never
/// touches the heap; pathological pile-ups spill into a `Vec` rather than
/// being dropped.
const INLINE_INTERFERERS: usize = 4;

#[derive(Debug, Clone)]
struct InterferenceBuf {
    /// Occupied prefix of `inline`.
    len: usize,
    inline: [Interference; INLINE_INTERFERERS],
    /// Overflow beyond the inline capacity; empty in steady state.
    spill: Vec<Interference>,
}

impl InterferenceBuf {
    const fn new() -> Self {
        InterferenceBuf {
            len: 0,
            inline: [Interference {
                power_dbm: 0.0,
                overlap: Duration::ZERO,
            }; INLINE_INTERFERERS],
            spill: Vec::new(),
        }
    }

    /// Appends an interferer. Returns whether the entry spilled past the
    /// inline capacity onto the heap — callers emit
    /// [`TelemetryEvent::InterferenceSpill`] so pathological pile-ups are
    /// observable.
    fn push(&mut self, entry: Interference) -> bool {
        if let Some(slot) = self.inline.get_mut(self.len) {
            *slot = entry;
            self.len += 1;
            false
        } else {
            self.spill.push(entry);
            true
        }
    }

    /// Entries in push order (inline prefix, then spill).
    fn iter(&self) -> impl Iterator<Item = &Interference> {
        self.inline.iter().take(self.len).chain(self.spill.iter())
    }

    fn count(&self) -> usize {
        self.len + self.spill.len()
    }
}

#[derive(Debug)]
struct RxLock {
    tx_id: u64,
    arrival: Instant,
    end: Instant,
    signal_dbm: f64,
    interference: InterferenceBuf,
}

#[derive(Debug)]
enum RadioState {
    Idle,
    Rx {
        channel: Channel,
        filter: AccessFilter,
        crc_init: u32,
        lock: Option<RxLock>,
    },
    Tx {
        until: Instant,
    },
}

struct NodeState {
    config: NodeConfig,
    rng: SimRng,
    radio: RadioState,
    /// The open `ChannelAirtime` span for this node's in-flight
    /// transmission ([`SpanId::DISABLED`] when idle or telemetry is off).
    tx_span: SpanId,
}

/// Receivers whose `RxStart` edge for one transmission is on the queue
/// (sharded delivery only), so that no edge is queued twice. The first 128
/// node ids live in an inline bitmask, the rest in heap words that
/// [`ScheduledSet::cover`] sizes at transmit to the world's node count,
/// the extent of the frame's reserved ids; sets are reused across frames,
/// so a steady band allocates nothing.
#[derive(Debug, Default)]
struct ScheduledSet {
    low: u128,
    high: Vec<u64>,
}

impl ScheduledSet {
    /// Makes room for every node id below `nodes`.
    fn cover(&mut self, nodes: usize) {
        let words = nodes.saturating_sub(128).div_ceil(64);
        if self.high.len() < words {
            self.high.resize(words, 0);
        }
    }

    fn insert(&mut self, node: NodeId) {
        match node.0.checked_sub(128) {
            Some(bit) => {
                if let Some(w) = self.high.get_mut(bit / 64) {
                    *w |= 1u64 << (bit % 64);
                }
            }
            None => self.low |= 1u128 << node.0,
        }
    }

    fn contains(&self, node: NodeId) -> bool {
        match node.0.checked_sub(128) {
            Some(bit) => self
                .high
                .get(bit / 64)
                .is_some_and(|w| w & (1u64 << (bit % 64)) != 0),
            None => self.low & (1u128 << node.0) != 0,
        }
    }

    /// Empties the set, keeping its heap words for reuse.
    fn clear(&mut self) {
        self.low = 0;
        self.high.fill(0);
    }
}

struct ActiveTx {
    from: NodeId,
    channel: Channel,
    phy: PhyMode,
    frame: RawFrame,
    start: Instant,
    end: Instant,
    /// The event ids of this frame's `RxStart` edges, reserved at transmit,
    /// one per node in node order (sharded delivery only; empty under
    /// [`DeliveryMode::FullBroadcast`], which queues every edge at once).
    edges: ReservedIds,
    /// Receivers whose edge is on the queue (sharded delivery only).
    scheduled: ScheduledSet,
    /// The next retained transmission on the same channel.
    next_on_channel: Option<u64>,
}

/// One channel's retained transmissions, oldest to newest, linked through
/// [`ActiveTx::next_on_channel`].
#[derive(Debug, Clone, Copy, Default)]
struct ChannelList {
    oldest: Option<u64>,
    newest: Option<u64>,
}

/// The retained transmissions, in id order: `slots[i]` is transmission
/// `first + i`, so a lookup by id is one subtraction. A transmission
/// leaves from the front, on the first push after it ended more than
/// [`TX_RETENTION`] ago; a frame that ends before an older one waits
/// behind it. Keeping a frame longer changes nothing: every scan skips a
/// frame whose last bit has passed, and every event that names a frame
/// fires before its retention ends.
struct TxRing {
    first: u64,
    slots: VecDeque<ActiveTx>,
    /// `channels[c]`: the retained transmissions on channel `c`, in
    /// ascending id order, so the scans visit only co-channel frames.
    channels: Vec<ChannelList>,
    /// Cleared [`ScheduledSet`]s of departed transmissions, reused by later
    /// pushes so that a steady stream of frames allocates nothing.
    spare: Vec<ScheduledSet>,
}

/// Index into [`TxRing::slots`] of transmission `id`, if it is at or after
/// the front.
fn slot_index(first: u64, id: u64) -> Option<usize> {
    usize::try_from(id.checked_sub(first)?).ok()
}

impl TxRing {
    fn new() -> Self {
        TxRing {
            first: 0,
            slots: VecDeque::new(),
            channels: vec![ChannelList::default(); usize::from(Channel::COUNT)],
            spare: Vec::new(),
        }
    }

    fn get(&self, id: u64) -> Option<&ActiveTx> {
        self.slots.get(slot_index(self.first, id)?)
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut ActiveTx> {
        self.slots.get_mut(slot_index(self.first, id)?)
    }

    /// The oldest retained transmission on `channel`; follow
    /// [`ActiveTx::next_on_channel`] for the rest.
    fn oldest_on(&self, channel: Channel) -> Option<u64> {
        self.channels.get(usize::from(channel.index()))?.oldest
    }

    /// Drops the transmissions at the front that ended more than
    /// [`TX_RETENTION`] before `now`, then appends `tx` and returns its id.
    fn push(&mut self, now: Instant, mut tx: ActiveTx) -> u64 {
        while let Some(gone) = self.slots.front_mut() {
            if gone.end + TX_RETENTION >= now {
                break;
            }
            // The front is the lowest id, so it is also its channel's oldest.
            if let Some(list) = self.channels.get_mut(usize::from(gone.channel.index())) {
                invariant!(
                    list.oldest == Some(self.first),
                    "tx-ring",
                    "transmission #{} left the ring but its channel list began at {:?}",
                    self.first,
                    list.oldest
                );
                list.oldest = gone.next_on_channel;
                if list.oldest.is_none() {
                    list.newest = None;
                }
            }
            let mut set = std::mem::take(&mut gone.scheduled);
            set.clear();
            self.spare.push(set);
            self.slots.pop_front();
            self.first += 1;
        }
        tx.scheduled = self.spare.pop().unwrap_or_default();
        tx.next_on_channel = None;
        let id = self.first + u64::try_from(self.slots.len()).unwrap_or(u64::MAX);
        if let Some(list) = self.channels.get_mut(usize::from(tx.channel.index())) {
            let newest = list
                .newest
                .and_then(|newest| slot_index(self.first, newest))
                .and_then(|i| self.slots.get_mut(i));
            match newest {
                Some(newest) => newest.next_on_channel = Some(id),
                None => list.oldest = Some(id),
            }
            list.newest = Some(id);
        }
        self.slots.push_back(tx);
        id
    }
}

/// Whether the `RxStart` of co-channel frame `tx_id`, with access address
/// `aa`, acts on a receiver in state `radio`: a receiver locked on another
/// frame draws its power as interference (or a relock), an unlocked one
/// tries to lock if its filter and PHY match. Anything else returns before
/// any draw.
fn rx_start_acts(radio: &RadioState, tx_id: u64, phy_matches: bool, aa: AccessAddress) -> bool {
    match radio {
        RadioState::Rx {
            lock: Some(lock), ..
        } => lock.tx_id != tx_id,
        RadioState::Rx { filter, .. } => phy_matches && filter.matches(aa),
        RadioState::Idle | RadioState::Tx { .. } => false,
    }
}

/// Internal simulation state shared between the driver and [`NodeCtx`].
pub(crate) struct SimInner {
    queue: EventQueue<SimEvent>,
    env: Environment,
    nodes: Vec<NodeState>,
    txs: TxRing,
    rng: SimRng,
    telemetry: Telemetry,
    faults: FaultState,
    delivery_mode: DeliveryMode,
    /// Per-channel listener index: `listeners[c]` holds, in ascending
    /// `NodeId` order, exactly the nodes whose radio is `Rx` on channel
    /// `c`. Maintained in **both** delivery modes (the upkeep is two
    /// binary searches per retune) so the mode can be chosen per world
    /// without index rebuilds. Update sites are the radio-state writes:
    /// `start_rx` (retune), `stop_rx` and `transmit` (abandoning a
    /// reception); `finish_tx` and `handle_rx_end` never enter or leave
    /// `Rx`, so they leave the index alone.
    listeners: Vec<Vec<NodeId>>,
    /// Per-packet delivery ledger ([`World::enable_delivery_tracker`]);
    /// `None` costs one branch per hook.
    delivery: Option<DeliveryTracker>,
}

/// How long finished transmissions are retained for interference
/// accounting after their last bit.
const TX_RETENTION: Duration = Duration::from_millis(1);

impl SimInner {
    pub(crate) fn now(&self) -> Instant {
        self.queue.now()
    }

    /// Central node lookup. A `NodeId` is only minted by
    /// [`World::add_node`], so the table is non-empty whenever one exists
    /// and the modulo is an identity in correct programs; an out-of-range
    /// id is an internal bug caught by the invariant in debug builds.
    fn node_state(&self, node: NodeId) -> &NodeState {
        invariant!(
            node.0 < self.nodes.len(),
            "node-id",
            "NodeId({}) out of range ({} nodes)",
            node.0,
            self.nodes.len()
        );
        &self.nodes[node.0 % self.nodes.len()]
    }

    fn node_state_mut(&mut self, node: NodeId) -> &mut NodeState {
        invariant!(
            node.0 < self.nodes.len(),
            "node-id",
            "NodeId({}) out of range ({} nodes)",
            node.0,
            self.nodes.len()
        );
        let len = self.nodes.len();
        &mut self.nodes[node.0 % len]
    }

    pub(crate) fn node_label(&self, node: NodeId) -> &str {
        &self.node_state(node).config.label
    }

    pub(crate) fn node_clock(&self, node: NodeId) -> &simkit::DriftClock {
        &self.node_state(node).config.clock
    }

    pub(crate) fn node_phy(&self, node: NodeId) -> PhyMode {
        self.node_state(node).config.phy
    }

    pub(crate) fn node_rng(&mut self, node: NodeId) -> &mut SimRng {
        &mut self.node_state_mut(node).rng
    }

    /// Whether the metrics block or a telemetry sink is on. Emit sites bail
    /// out on `false` before building events.
    #[inline]
    pub(crate) fn telemetry_active(&self) -> bool {
        self.telemetry.is_enabled()
    }

    /// Emits a typed event to the metrics block and the telemetry sinks
    /// ([`Telemetry::emit`]). The closure only runs when either is on, so
    /// disabled telemetry costs a load or two and a branch.
    #[inline]
    pub(crate) fn emit(
        &mut self,
        at: Instant,
        node: Option<NodeId>,
        build: impl FnOnce() -> TelemetryEvent,
    ) {
        let node = node.and_then(|n| u32::try_from(n.0).ok());
        self.telemetry.emit(at, node, build);
    }

    /// Opens a hierarchical span attributed to `node` (or the simulation
    /// when `None`). Branch-and-return ([`SpanId::DISABLED`]) when
    /// telemetry is off.
    #[inline]
    pub(crate) fn span_enter(
        &mut self,
        at: Instant,
        node: Option<NodeId>,
        kind: SpanKind,
        detail: u32,
    ) -> SpanId {
        let node = node.and_then(|n| u32::try_from(n.0).ok());
        self.telemetry.span_enter(at, node, kind, detail)
    }

    /// Closes a span opened by [`SimInner::span_enter`].
    #[inline]
    pub(crate) fn span_exit(&mut self, at: Instant, id: SpanId) {
        self.telemetry.span_exit(at, id);
    }

    /// Inserts `node` into the sorted listener list of `channel` (no-op if
    /// already present).
    fn listeners_insert(listeners: &mut [Vec<NodeId>], channel: Channel, node: NodeId) {
        if let Some(list) = listeners.get_mut(usize::from(channel.index())) {
            if let Err(i) = list.binary_search(&node) {
                list.insert(i, node);
            }
        }
    }

    /// Removes `node` from the sorted listener list of `channel` (no-op if
    /// absent).
    fn listeners_remove(listeners: &mut [Vec<NodeId>], channel: Channel, node: NodeId) {
        if let Some(list) = listeners.get_mut(usize::from(channel.index())) {
            if let Ok(i) = list.binary_search(&node) {
                list.remove(i);
            }
        }
    }

    /// Mean received power for the `from → to` link.
    fn mean_power_dbm(&self, from: NodeId, to: NodeId) -> f64 {
        let tx = &self.node_state(from).config;
        let rx = &self.node_state(to).config;
        self.env
            .mean_received_power_dbm(tx.tx_power_dbm, tx.position, rx.position)
    }

    /// One per-frame received-power realisation on top of a mean:
    /// a multipath fading draw, minus any fault-plan fading episode.
    fn received_power_from_mean(&mut self, mean: f64) -> f64 {
        let mut power = mean + self.env.fading_db(&mut self.rng);
        if self.faults.enabled() {
            // Fading episodes attenuate the whole medium symmetrically.
            power -= self.faults.fading_db(self.now());
        }
        power
    }

    pub(crate) fn transmit(&mut self, node: NodeId, channel: Channel, frame: RawFrame) -> TxHandle {
        let now = self.now();
        let phy = self.node_state(node).config.phy;
        // Half-duplex: transmitting abandons any reception in progress.
        // Starting a second transmission is a protocol-machine bug — debug
        // builds assert; release builds abandon the in-flight frame and
        // switch to the new one. The abandoned frame stays on the air to
        // its full end, so it still interferes and still reaches a
        // receiver locked onto it, but its `TxEnd` finds the radio sending
        // the new frame and raises no `TxDone`.
        invariant!(
            !matches!(self.node_state(node).radio, RadioState::Tx { .. }),
            "half-duplex",
            "{}: transmit() while already transmitting",
            self.node_label(node)
        );
        // Abandoning a reception stops the node listening, so it leaves
        // the per-channel index before the radio flips to `Tx`.
        if let RadioState::Rx { channel: old, .. } = self.node_state(node).radio {
            Self::listeners_remove(&mut self.listeners, old, node);
        }
        let airtime = frame.airtime(phy);
        let end = now + airtime;
        self.node_state_mut(node).radio = RadioState::Tx { until: end };

        // Per-channel airtime span: one per transmission, closed by
        // `finish_tx`. A release-mode double-transmit abandons the previous
        // frame, so its span closes here instead.
        let stale = self.node_state(node).tx_span;
        self.span_exit(now, stale);
        let tx_span = self.span_enter(
            now,
            Some(node),
            SpanKind::ChannelAirtime,
            u32::from(channel.index()),
        );
        self.node_state_mut(node).tx_span = tx_span;

        let aa = frame.access_address;
        let pdu_len = u32::try_from(frame.pdu.len()).unwrap_or(u32::MAX);
        self.emit(now, Some(node), || TelemetryEvent::TxStart {
            channel: channel.index(),
            access_address: aa.value(),
            pdu_len,
            end,
        });
        self.queue.schedule_at(end, SimEvent::TxEnd { node });
        let mode = self.delivery_mode;
        // Both modes key receivers' edges here, in ascending node order,
        // keeping same-instant event ties identical between them: the
        // broadcast loop by scheduling them, sharded delivery by reserving
        // one id per node.
        let edges = match mode {
            DeliveryMode::Sharded => self.queue.reserve(self.nodes.len()),
            DeliveryMode::FullBroadcast => ReservedIds::default(),
        };
        let tx_id = self.txs.push(
            now,
            ActiveTx {
                from: node,
                channel,
                phy,
                frame,
                start: now,
                end,
                edges,
                scheduled: ScheduledSet::default(),
                next_on_channel: None,
            },
        );
        let from_pos = self.node_state(node).config.position;
        let tx_power_dbm = self.node_state(node).config.tx_power_dbm;
        // Split-field borrow: arrival times and the cull read `env`/`nodes`,
        // scheduling writes `queue` — disjoint, so no intermediate
        // collection needed.
        let SimInner {
            queue,
            env,
            nodes,
            listeners,
            txs,
            delivery,
            ..
        } = self;
        let mut fanout = PacketDelivery {
            channel: channel.index(),
            ..PacketDelivery::default()
        };
        match mode {
            DeliveryMode::FullBroadcast => {
                for (other, state) in nodes.iter().enumerate() {
                    if other == node.0 {
                        continue;
                    }
                    let arrival = now + env.propagation_delay(from_pos, state.config.position);
                    queue.schedule_at(
                        arrival,
                        SimEvent::RxStart {
                            node: NodeId(other),
                            tx_id,
                        },
                    );
                    fanout.scheduled += 1;
                }
            }
            DeliveryMode::Sharded => {
                let tx = txs.get_mut(tx_id);
                let listening = listeners.get(usize::from(channel.index()));
                if let (Some(tx), Some(listening)) = (tx, listening) {
                    tx.scheduled.cover(nodes.len());
                    for &other in listening {
                        if other == node {
                            continue;
                        }
                        let Some(state) = nodes.get(other.0) else {
                            continue;
                        };
                        // RNG-free reachability cull: a mean this far under
                        // the floor fails `try_lock`'s sensitivity check for
                        // every realistic fading draw, and the broadcast
                        // path applies the identical predicate before its
                        // draw — skipping here shifts no RNG stream.
                        let mean = env.mean_received_power_dbm(
                            tx_power_dbm,
                            from_pos,
                            state.config.position,
                        );
                        if !env.reachable_mean_dbm(mean) {
                            fanout.culled += 1;
                            continue;
                        }
                        // An edge that would return before any draw stays off
                        // the queue; `release_edges` queues it if its
                        // receiver locks or re-filters before it fires.
                        let Some(id) = tx.edges.get(other.0) else {
                            continue;
                        };
                        if rx_start_acts(&state.radio, tx_id, state.config.phy == phy, aa) {
                            let arrival =
                                now + env.propagation_delay(from_pos, state.config.position);
                            queue.schedule_reserved(
                                arrival,
                                id,
                                SimEvent::RxStart { node: other, tx_id },
                            );
                            tx.scheduled.insert(other);
                            fanout.scheduled += 1;
                        }
                    }
                }
            }
        }
        if let Some(tracker) = delivery {
            let peers = u32::try_from(nodes.len().saturating_sub(1)).unwrap_or(u32::MAX);
            fanout.suppressed = peers
                .saturating_sub(fanout.scheduled)
                .saturating_sub(fanout.culled);
            tracker.on_tx(tx_id, fanout);
        }
        TxHandle {
            start: now,
            end,
            id: tx_id,
        }
    }

    pub(crate) fn start_rx(
        &mut self,
        node: NodeId,
        channel: Channel,
        filter: AccessFilter,
        crc_init: u32,
    ) {
        let now = self.now();
        // Opening the receiver mid-transmission is a protocol-machine bug —
        // debug builds assert; release builds ignore the request and let the
        // transmission finish.
        if matches!(self.node_state(node).radio, RadioState::Tx { .. }) {
            invariant!(
                false,
                "half-duplex",
                "{}: start_rx() while transmitting",
                self.node_label(node)
            );
            return;
        }
        // Maintain the per-channel listener index across the retune. The
        // same-channel re-open (the reopen-after-frame hot path) skips the
        // sorted-Vec edits entirely, keeping steady-state delivery
        // allocation-free.
        let prev = match self.node_state(node).radio {
            RadioState::Rx { channel, .. } => Some(channel),
            _ => None,
        };
        if prev != Some(channel) {
            if let Some(old) = prev {
                Self::listeners_remove(&mut self.listeners, old, node);
            }
            Self::listeners_insert(&mut self.listeners, channel, node);
        }
        self.node_state_mut(node).radio = RadioState::Rx {
            channel,
            filter,
            crc_init,
            lock: None,
        };
        // Late lock: a frame whose preamble began moments ago can still be
        // caught — required for window semantics where a receiver opens
        // just in time.
        let phy = self.node_state(node).config.phy;
        let grace = phy.preamble_duration() / 4;
        let mut best: Option<(u64, Instant)> = None;
        let rx_pos = self.node_state(node).config.position;
        let mut next = self.txs.oldest_on(channel);
        while let Some(tx_id) = next {
            let Some(tx) = self.txs.get(tx_id) else {
                break;
            };
            next = tx.next_on_channel;
            if tx.from == node || tx.phy != phy || !filter.matches(tx.frame.access_address) {
                continue;
            }
            let Some(tx_state) = self.nodes.get(tx.from.0) else {
                continue;
            };
            let delay = self.env.propagation_delay(tx_state.config.position, rx_pos);
            let arrival = tx.start + delay;
            if arrival <= now
                && now <= arrival + grace
                && tx.end + delay > now
                && best.is_none_or(|(_, a)| arrival < a)
            {
                best = Some((tx_id, arrival));
            }
        }
        // A lock releases the node's edges itself.
        let locked = best.is_some_and(|(tx_id, arrival)| self.try_lock(node, tx_id, arrival, None));
        if !locked {
            self.release_edges(node);
        }
    }

    /// Attempts to lock `node`'s receiver onto transmission `tx_id` whose
    /// leading edge arrived at `arrival`. `known_power` reuses an already
    /// drawn per-frame fading realisation. Returns whether the lock
    /// happened.
    fn try_lock(
        &mut self,
        node: NodeId,
        tx_id: u64,
        arrival: Instant,
        known_power: Option<f64>,
    ) -> bool {
        let (tx_start, tx_end, tx_from) = {
            let Some(tx) = self.txs.get(tx_id) else {
                invariant!(false, "tx-id", "try_lock on unknown transmission #{tx_id}");
                return false;
            };
            (tx.start, tx.end, tx.from)
        };
        let signal_dbm = match known_power {
            Some(power) => power,
            None => {
                // Reachability cull — RNG-free and applied identically in
                // both delivery modes *before* the fading draw, so a culled
                // link consumes no randomness anywhere.
                let mean = self.mean_power_dbm(tx_from, node);
                if !self.env.reachable_mean_dbm(mean) {
                    return false;
                }
                self.received_power_from_mean(mean)
            }
        };
        if signal_dbm < self.env.sensitivity_dbm {
            return false;
        }
        if self.faults.enabled() {
            // Frame-loss rules kill the preamble before sync: the receiver
            // never locks and keeps listening (its own window-close timers
            // handle the silence).
            let rx_channel = match &self.node_state(node).radio {
                RadioState::Rx { channel, .. } => Some(channel.index()),
                _ => None,
            };
            if let Some(ch) = rx_channel {
                if self.faults.draw_loss(arrival, ch) {
                    self.emit(arrival, Some(node), || TelemetryEvent::FaultFrame {
                        kind: FaultKind::Loss,
                        channel: ch,
                    });
                    return false;
                }
            }
        }
        let lock_end = arrival + (tx_end - tx_start);
        // Frames that started earlier and are still in the air interfere
        // from the very start of this lock.
        let interference = self.scan_existing_interference(node, tx_id, arrival, lock_end);
        let channel = {
            let RadioState::Rx { lock, channel, .. } = &mut self.node_state_mut(node).radio else {
                return false;
            };
            *lock = Some(RxLock {
                tx_id,
                arrival,
                end: lock_end,
                signal_dbm,
                interference,
            });
            *channel
        };
        self.queue
            .schedule_at(lock_end, SimEvent::RxEnd { node, tx_id });
        self.emit(arrival, Some(node), || TelemetryEvent::RxLock {
            channel: channel.index(),
        });
        if let Some(tracker) = &mut self.delivery {
            tracker.on_heard(tx_id);
        }
        self.release_edges(node);
        true
    }

    /// Interference from transmissions already on the air at lock time.
    fn scan_existing_interference(
        &mut self,
        node: NodeId,
        locked_tx: u64,
        window_start: Instant,
        window_end: Instant,
    ) -> InterferenceBuf {
        let mut out = InterferenceBuf::new();
        let rx_pos = self.node_state(node).config.position;
        let channel = match self.txs.get(locked_tx) {
            Some(tx) => tx.channel,
            None => return out,
        };
        // Split-field borrow: candidate geometry reads `txs`/`nodes`/`env`,
        // the fading draw needs `rng` — disjoint fields, single pass, no
        // intermediate collection. Fading is drawn per overlapping candidate
        // in ascending tx-id (= transmission start order) on the channel:
        // the RNG draw sequence is a pure function of the simulation
        // history, never of hash seeding.
        let SimInner {
            txs,
            env,
            nodes,
            rng,
            faults,
            ..
        } = self;
        let fault_fade_db = if faults.enabled() {
            faults.fading_db(window_start)
        } else {
            0.0
        };
        let mut next = txs.oldest_on(channel);
        while let Some(id) = next {
            let Some(tx) = txs.get(id) else {
                break;
            };
            next = tx.next_on_channel;
            if id == locked_tx || tx.from == node {
                continue;
            }
            let Some(tx_state) = nodes.get(tx.from.0) else {
                continue;
            };
            let tx_cfg = &tx_state.config;
            let delay = env.propagation_delay(tx_cfg.position, rx_pos);
            let arrival = tx.start + delay;
            let end = tx.end + delay;
            if arrival <= window_start && end > window_start {
                let overlap = end.min(window_end) - window_start;
                let mean =
                    env.mean_received_power_dbm(tx_cfg.tx_power_dbm, tx_cfg.position, rx_pos);
                // Reachability cull, RNG-free and pre-draw: an inaudible
                // interferer is skipped before its fading realisation, in
                // both delivery modes alike.
                if !env.reachable_mean_dbm(mean) {
                    continue;
                }
                let power_dbm = mean + env.fading_db(rng) - fault_fade_db;
                out.push(Interference { power_dbm, overlap });
            }
        }
        for _ in 0..out.spill.len() {
            self.emit(window_start, Some(node), || {
                TelemetryEvent::InterferenceSpill {
                    channel: channel.index(),
                }
            });
        }
        out
    }

    /// Processes the arrival of `tx_id`'s leading edge at `node`: a lock,
    /// a relock or interference on the locked reception.
    fn handle_rx_start(&mut self, node: NodeId, tx_id: u64) {
        let now = self.now();
        let (tx_channel, tx_aa, tx_from, tx_len) = {
            let Some(tx) = self.retained_tx(tx_id) else {
                return;
            };
            (
                tx.channel,
                tx.frame.access_address,
                tx.from,
                tx.end - tx.start,
            )
        };
        let already_locked = {
            let RadioState::Rx { channel, lock, .. } = &self.node_state(node).radio else {
                return;
            };
            if *channel != tx_channel {
                return;
            }
            match lock {
                // The receiver opened at exactly this instant and locked
                // onto this frame late, in `start_rx`: the frame must not
                // be drawn a second time.
                Some(lock) if lock.tx_id == tx_id => return,
                lock => lock.is_some(),
            }
        };
        if already_locked {
            // Reachability cull — identical RNG-free predicate as the
            // sharded fan-out, checked *before* the power draw so both
            // delivery modes consume the same random stream.
            let mean = self.mean_power_dbm(tx_from, node);
            if !self.env.reachable_mean_dbm(mean) {
                return;
            }
            let power_dbm = self.received_power_from_mean(mean);
            // A dominant late arrival steals the lock (receiver
            // re-synchronisation): the previously locked frame is lost.
            let (steals, matches_filter) = {
                let RadioState::Rx {
                    lock: Some(lock),
                    filter,
                    ..
                } = &self.node_state(node).radio
                else {
                    return;
                };
                (
                    power_dbm >= lock.signal_dbm + self.env.capture.relock_threshold_db,
                    filter.matches(tx_aa),
                )
            };
            let rx_phy = self.node_state(node).config.phy;
            let phy_matches = self.txs.get(tx_id).is_some_and(|tx| tx.phy == rx_phy);
            if steals && matches_filter && phy_matches {
                self.emit(now, Some(node), || TelemetryEvent::Relock {
                    channel: tx_channel.index(),
                });
                self.try_lock(node, tx_id, now, Some(power_dbm));
                return;
            }
            // Otherwise: interference on the locked reception.
            let RadioState::Rx {
                lock: Some(lock), ..
            } = &mut self.node_state_mut(node).radio
            else {
                return;
            };
            let mut spilled = false;
            if now < lock.end {
                let overlap = (now + tx_len).min(lock.end) - now;
                spilled = lock.interference.push(Interference { power_dbm, overlap });
            }
            if spilled {
                self.emit(now, Some(node), || TelemetryEvent::InterferenceSpill {
                    channel: tx_channel.index(),
                });
            }
            return;
        }
        // Unlocked: try to synchronise.
        let (filter, phy) = {
            let RadioState::Rx { filter, .. } = &self.node_state(node).radio else {
                return;
            };
            (*filter, self.node_state(node).config.phy)
        };
        if !self.txs.get(tx_id).is_some_and(|tx| tx.phy == phy) || !filter.matches(tx_aa) {
            return;
        }
        self.try_lock(node, tx_id, now, None);
    }

    /// Completes a locked reception. Returns the frame to deliver.
    fn handle_rx_end(&mut self, node: NodeId, tx_id: u64) -> Option<ReceivedFrame> {
        self.retained_tx(tx_id)?;
        let mut lock = {
            let RadioState::Rx { lock, .. } = &mut self.node_state_mut(node).radio else {
                return None;
            };
            match lock.take() {
                Some(l) if l.tx_id == tx_id => l,
                other => {
                    *lock = other;
                    return None;
                }
            }
        };
        let (channel, rx_crc_init) = match &self.node_state(node).radio {
            RadioState::Rx {
                channel, crc_init, ..
            } => (*channel, *crc_init),
            _ => return None,
        };
        let (tx_crc_init, aa, mut pdu) = {
            let tx = self.txs.get(tx_id)?;
            // An inline-buffer clone: a stack memcpy, not a heap allocation.
            (
                tx.frame.crc_init,
                tx.frame.access_address,
                tx.frame.pdu.clone(),
            )
        };

        // Injected impairments: interference bursts overlapping the locked
        // reception join the interferer set (and so feed the capture model
        // below), and corruption rules force bit errors outright.
        let mut forced_corruption = false;
        if self.faults.enabled() {
            let ch = channel.index();
            let (arrival, end) = (lock.arrival, lock.end);
            let spill_before = lock.interference.spill.len();
            self.faults
                .burst_interference(ch, arrival, end, |power_dbm, overlap| {
                    lock.interference.push(Interference { power_dbm, overlap });
                });
            for _ in 0..lock.interference.spill.len().saturating_sub(spill_before) {
                self.emit(end, Some(node), || TelemetryEvent::InterferenceSpill {
                    channel: ch,
                });
            }
            if self.faults.draw_corruption(end, ch) {
                forced_corruption = true;
                self.emit(end, Some(node), || TelemetryEvent::FaultFrame {
                    kind: FaultKind::Corruption,
                    channel: ch,
                });
            }
        }

        // Collision resolution: the locked frame must survive every
        // interferer independently (capture effect). The lock is owned here
        // and the capture model is read straight from the environment — no
        // clones on the delivery path.
        let mut survived = true;
        for i in lock.interference.iter() {
            let sir_db = lock.signal_dbm - i.power_dbm;
            let p = self
                .env
                .capture
                .survival_probability(sir_db, i.overlap.as_micros_f64());
            if !self.rng.chance(p) {
                survived = false;
            }
        }
        if forced_corruption {
            survived = false;
        }
        if !survived && !pdu.is_empty() {
            // Corrupt a few bits so higher layers see garbage that fails CRC.
            let flips = 1 + self.rng.below(3);
            let bit_count = pdu.len() as u64 * 8;
            for _ in 0..flips {
                let bit = usize::try_from(self.rng.below(bit_count)).unwrap_or(0);
                if let Some(byte) = pdu.get_mut(bit / 8) {
                    *byte ^= 1 << (bit % 8);
                }
            }
        }
        let crc_ok = survived && rx_crc_init == tx_crc_init;
        let interferers = u32::try_from(lock.interference.count()).unwrap_or(u32::MAX);
        // `interferers > 0` always held before fault injection existed (a
        // frame only failed capture against at least one interferer); forced
        // corruption can now fail a clean frame, which is reported as
        // `FaultFrame` above rather than a phantom collision.
        if !survived && interferers > 0 {
            self.emit(lock.end, Some(node), || TelemetryEvent::Collision {
                channel: channel.index(),
                interferers,
            });
        }
        self.emit(lock.end, Some(node), || TelemetryEvent::RxEnd {
            channel: channel.index(),
            access_address: aa.value(),
            crc_ok,
            interferers,
        });
        if let Some(tracker) = &mut self.delivery {
            tracker.on_delivered(tx_id);
        }
        Some(ReceivedFrame {
            channel,
            access_address: aa,
            pdu,
            crc_ok,
            rssi_dbm: lock.signal_dbm,
            start: lock.arrival,
            end: lock.end,
        })
    }

    fn finish_tx(&mut self, node: NodeId) -> Option<RadioEvent> {
        let now = self.now();
        match self.node_state(node).radio {
            RadioState::Tx { until } if until <= now => {
                let state = self.node_state_mut(node);
                state.radio = RadioState::Idle;
                let tx_span = state.tx_span;
                state.tx_span = SpanId::DISABLED;
                self.span_exit(now, tx_span);
                self.emit(now, Some(node), || TelemetryEvent::TxEnd);
                Some(RadioEvent::TxDone { at: now })
            }
            _ => None,
        }
    }

    pub(crate) fn stop_rx(&mut self, node: NodeId) {
        let state = self.node_state_mut(node);
        if let RadioState::Rx { channel, .. } = state.radio {
            state.radio = RadioState::Idle;
            Self::listeners_remove(&mut self.listeners, channel, node);
        }
    }

    /// Whether `node`'s receiver holds a lock: from `try_lock` until the
    /// locked frame's `RxEnd`, or until the radio leaves the reception.
    pub(crate) fn is_locked(&self, node: NodeId) -> bool {
        matches!(
            self.node_state(node).radio,
            RadioState::Rx { lock: Some(_), .. }
        )
    }

    pub(crate) fn is_transmitting(&self, node: NodeId) -> bool {
        matches!(self.node_state(node).radio, RadioState::Tx { .. })
    }

    pub(crate) fn set_timer_local_from(
        &mut self,
        node: NodeId,
        reference: Instant,
        local_delay: Duration,
        key: TimerKey,
    ) {
        let local_delay = if self.faults.enabled() {
            // Drift excursions stretch (or shrink) this node's local clock
            // on top of its configured static drift.
            self.faults.drift_adjusted(node, reference, local_delay)
        } else {
            local_delay
        };
        let at = {
            let state = self.node_state_mut(node);
            let clock = state.config.clock.clone();
            clock.true_after_jittered(reference, local_delay, &mut state.rng)
        };
        self.queue.schedule_at(at, SimEvent::Timer { node, key });
    }

    pub(crate) fn set_timer_at(&mut self, node: NodeId, at: Instant, key: TimerKey) {
        self.queue.schedule_at(at, SimEvent::Timer { node, key });
    }

    /// Queues edge `edge` of fault-plan item `item`, if the item has one.
    fn schedule_fault_edge(&mut self, item: usize, edge: u64) {
        if let Some((at, ..)) = self.faults.edge(item, edge) {
            self.queue.schedule_at(at, SimEvent::Fault { item, edge });
        }
    }

    /// The transmission an `RxStart` or `RxEnd` event names.
    /// Each fires before its frame's retention ends, so it always finds it;
    /// a miss is a medium bug, which debug builds catch.
    fn retained_tx(&self, tx_id: u64) -> Option<&ActiveTx> {
        let tx = self.txs.get(tx_id);
        invariant!(
            tx.is_some(),
            "tx-retained",
            "transmission #{tx_id} left the ring before an event that names it"
        );
        tx
    }

    /// Queues each `RxStart` edge of `node` that now acts and is not
    /// queued yet, under the id reserved for it at transmit: an edge of a
    /// frame on the receiver's channel that passes the reachability cull
    /// and whose key the queue has not passed. Such an edge pops exactly
    /// where [`DeliveryMode::FullBroadcast`] pops it; an edge whose key has
    /// passed fired there as a no-op, because it could not act until now.
    /// Called wherever an edge can start to act: at the end of `start_rx`
    /// (a retune or re-filter) and of `try_lock` (a lock).
    fn release_edges(&mut self, node: NodeId) {
        let SimInner {
            queue,
            env,
            nodes,
            txs,
            delivery,
            ..
        } = self;
        let Some(rx) = nodes.get(node.0) else {
            return;
        };
        let RadioState::Rx { channel, .. } = rx.radio else {
            return;
        };
        let mut next = txs.oldest_on(channel);
        while let Some(tx_id) = next {
            let Some(tx) = txs.get_mut(tx_id) else {
                break;
            };
            next = tx.next_on_channel;
            // Frames sent under `FullBroadcast` reserved no ids.
            let Some(id) = tx.edges.get(node.0) else {
                continue;
            };
            let phy_matches = rx.config.phy == tx.phy;
            if tx.from == node
                || tx.scheduled.contains(node)
                || !rx_start_acts(&rx.radio, tx_id, phy_matches, tx.frame.access_address)
            {
                continue;
            }
            let Some(from) = nodes.get(tx.from.0) else {
                continue;
            };
            let (from, to) = (&from.config, rx.config.position);
            let arrival = tx.start + env.propagation_delay(from.position, to);
            if queue.has_fired(arrival, id)
                || !env.reachable_mean_dbm(env.mean_received_power_dbm(
                    from.tx_power_dbm,
                    from.position,
                    to,
                ))
            {
                continue;
            }
            queue.schedule_reserved(arrival, id, SimEvent::RxStart { node, tx_id });
            tx.scheduled.insert(node);
            if let Some(tracker) = delivery {
                tracker.on_late_scheduled(tx_id);
            }
        }
    }
}

/// A discrete-event BLE radio simulation: the arena that owns every node.
///
/// The `World` owns each protocol state machine as a `Box<dyn Node>` keyed
/// by the [`NodeId`] returned from [`World::add_node`]. Dispatch borrows
/// the node and the medium as two disjoint fields, so events are delivered
/// with plain `&mut` access — no shared ownership, no runtime borrow
/// checks. Because every node is [`Send`], a fully built world can be moved
/// to another thread wholesale.
///
/// See the crate-level documentation for the overall architecture.
pub struct World {
    inner: SimInner,
    nodes: Vec<Box<dyn Node>>,
}

impl World {
    /// Creates a world with the given environment and random seed source.
    pub fn new(env: Environment, rng: SimRng) -> Self {
        World {
            inner: SimInner {
                queue: EventQueue::new(),
                env,
                nodes: Vec::new(),
                txs: TxRing::new(),
                rng,
                telemetry: Telemetry::default(),
                faults: FaultState::disabled(),
                delivery_mode: DeliveryMode::default(),
                listeners: vec![Vec::new(); usize::from(Channel::COUNT)],
                delivery: None,
            },
            nodes: Vec::new(),
        }
    }

    /// Selects the frame-delivery scheduling strategy. The two modes are
    /// event-for-event identical (pinned by the `sharding_equivalence`
    /// tests); pick one **before the first transmission** — switching with
    /// frames in flight leaves those frames scheduled under the old
    /// strategy.
    pub fn set_delivery_mode(&mut self, mode: DeliveryMode) {
        self.inner.delivery_mode = mode;
    }

    /// The active frame-delivery strategy.
    pub fn delivery_mode(&self) -> DeliveryMode {
        self.inner.delivery_mode
    }

    /// Attaches a per-packet delivery tracker retaining per-frame ledger
    /// rows for the most recent `capacity` transmissions (older rows are
    /// evicted; the run-wide totals keep counting regardless).
    pub fn enable_delivery_tracker(&mut self, capacity: usize) {
        self.inner.delivery = Some(DeliveryTracker::new(capacity));
    }

    /// The per-packet delivery tracker, when enabled.
    pub fn delivery_tracker(&self) -> Option<&DeliveryTracker> {
        self.inner.delivery.as_ref()
    }

    /// Installs a deterministic [`FaultPlan`] into the medium.
    ///
    /// Call after every [`World::add_node`] so drift excursions can resolve
    /// their node labels. The plan's impairments draw only from the plan's
    /// own seeded RNG; an **empty** plan is a strict no-op — nothing is
    /// scheduled, no RNG stream is touched, and simulation output stays
    /// byte-identical to a world where this was never called.
    ///
    /// Episode boundaries are replayed lazily: each plan item holds at
    /// most one pending event, whatever the length of its burst train.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        let state = FaultState::install(plan, |label| {
            self.inner
                .nodes
                .iter()
                .position(|s| s.config.label == label)
                .map(NodeId)
        });
        self.inner.faults = state;
        for item in 0..self.inner.faults.item_count() {
            self.inner.schedule_fault_edge(item, 0);
        }
    }

    /// Attaches a telemetry sink. [`ble_telemetry::TelemetryEvent::NodeAdded`]
    /// records for nodes that joined *before* attachment are replayed into
    /// the sink first, so every sink can map node indices to labels.
    pub fn add_telemetry_sink(&mut self, mut sink: Box<dyn TelemetrySink>) {
        let now = self.inner.now();
        for (idx, state) in self.inner.nodes.iter().enumerate() {
            sink.emit(&TelemetryRecord {
                at: now,
                node: u32::try_from(idx).ok(),
                event: TelemetryEvent::NodeAdded {
                    label: state.config.label.clone(),
                },
            });
        }
        self.inner.telemetry.add_sink(sink);
    }

    /// Turns on the world's metrics block and returns the handle that
    /// [`World::flush_telemetry`] publishes it to. Every record from here
    /// on is tallied, and so is a `NodeAdded` for each node that joined
    /// before, as a sink attached now would see them.
    pub fn enable_metrics(&mut self) -> SharedRegistry {
        let joined = u64::try_from(self.inner.nodes.len()).unwrap_or(u64::MAX);
        self.inner.telemetry.enable_metrics(joined)
    }

    /// Installs the wall clock used for span wall-time attribution — a
    /// monotonic-nanoseconds function injected by the harness (the bench
    /// crate's `wallclock` quarantine) so no protocol crate reads
    /// `std::time` itself. Without a clock, span wall durations read 0.
    pub fn set_span_clock(&mut self, clock: fn() -> u64) {
        self.inner.telemetry.set_span_clock(clock);
    }

    /// Opens a simulation-global span (`node: None`) — e.g. the bench
    /// harness's trial phases. Node-attributed spans are opened through
    /// [`NodeCtx::span_enter`] instead.
    pub fn span_enter(&mut self, kind: SpanKind, detail: u32) -> SpanId {
        let now = self.inner.now();
        self.inner.span_enter(now, None, kind, detail)
    }

    /// Closes a span opened by [`World::span_enter`].
    pub fn span_exit(&mut self, id: SpanId) {
        let now = self.inner.now();
        self.inner.span_exit(now, id);
    }

    /// Publishes the metrics block to its handle and flushes every
    /// attached telemetry sink (call at end of run before reading
    /// artefacts). Still-open spans are closed first (topmost first) so the
    /// block and the sinks always see a balanced enter/exit stream.
    pub fn flush_telemetry(&mut self) {
        let now = self.inner.now();
        self.inner.telemetry.flush_at(now);
    }

    /// Current simulation time.
    pub fn now(&self) -> Instant {
        self.inner.now()
    }

    /// The deepest the event queue has been in this world's lifetime (see
    /// [`EventQueue::high_water`]).
    pub fn queue_high_water(&self) -> u64 {
        self.inner.queue.high_water()
    }

    /// The environment (read-only).
    pub fn env(&self) -> &Environment {
        &self.inner.env
    }

    /// Adds a node to the arena; the world takes ownership and returns the
    /// node's identifier. The node is *not* bootstrapped yet — call
    /// [`World::start`] once every participant is in place.
    pub fn add_node<N: Node>(&mut self, config: NodeConfig, node: N) -> NodeId {
        self.add_boxed_node(config, Box::new(node))
    }

    /// [`World::add_node`] for an already type-erased node.
    pub fn add_boxed_node(&mut self, config: NodeConfig, node: Box<dyn Node>) -> NodeId {
        let rng = self.inner.rng.fork();
        let id = NodeId(self.inner.nodes.len());
        // A scenario adds its nodes before telemetry turns on, so this
        // closure, and its label clone, usually never runs.
        let now = self.inner.now();
        self.inner
            .emit(now, Some(id), || TelemetryEvent::NodeAdded {
                label: config.label.clone(),
            });
        self.inner.nodes.push(NodeState {
            config,
            rng,
            radio: RadioState::Idle,
            tx_span: SpanId::DISABLED,
        });
        self.nodes.push(node);
        id
    }

    /// Bootstraps one node by invoking its
    /// [`crate::RadioListener::on_start`] hook with a live [`NodeCtx`].
    /// Start order is part of a scenario's deterministic schedule: call
    /// this for every node, in a fixed order, after all `add_node` calls.
    pub fn start(&mut self, node: NodeId) {
        let Some(n) = self.nodes.get_mut(node.0) else {
            invariant!(false, "node-id", "start of unknown NodeId({})", node.0);
            return;
        };
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        n.on_start(&mut ctx);
    }

    /// Typed read access to an arena node. Returns `None` when the id is
    /// unknown or the node is not a `T`.
    pub fn node<T: std::any::Any>(&self, node: NodeId) -> Option<&T> {
        self.nodes.get(node.0)?.as_any().downcast_ref::<T>()
    }

    /// Typed mutable access to an arena node. Returns `None` when the id is
    /// unknown or the node is not a `T`.
    pub fn node_mut<T: std::any::Any>(&mut self, node: NodeId) -> Option<&mut T> {
        self.nodes.get_mut(node.0)?.as_any_mut().downcast_mut::<T>()
    }

    /// Runs a closure with typed mutable access to a node *and* a live
    /// [`NodeCtx`] for it — the arena replacement for the old pattern of
    /// borrowing an `Rc<RefCell<…>>` inside [`World::with_ctx`]. Returns
    /// `None` when the id is unknown or the node is not a `T`.
    pub fn with_node_ctx<T: std::any::Any, R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut T, &mut NodeCtx<'_>) -> R,
    ) -> Option<R> {
        let n = self
            .nodes
            .get_mut(node.0)?
            .as_any_mut()
            .downcast_mut::<T>()?;
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        Some(f(n, &mut ctx))
    }

    /// Runs a closure with a [`NodeCtx`] for `node` — the way device state
    /// machines are bootstrapped (arming their first timer, opening RX).
    pub fn with_ctx<R>(&mut self, node: NodeId, f: impl FnOnce(&mut NodeCtx<'_>) -> R) -> R {
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        f(&mut ctx)
    }

    /// Processes the next pending event. Returns `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some((at, event)) = self.inner.queue.pop() else {
            return false;
        };
        match event {
            SimEvent::Timer { node, key } => {
                self.dispatch(node, RadioEvent::Timer { key, at });
            }
            SimEvent::TxEnd { node } => {
                if let Some(ev) = self.inner.finish_tx(node) {
                    self.dispatch(node, ev);
                }
            }
            SimEvent::RxStart { node, tx_id } => self.inner.handle_rx_start(node, tx_id),
            SimEvent::RxEnd { node, tx_id } => {
                if let Some(frame) = self.inner.handle_rx_end(node, tx_id) {
                    self.dispatch(node, RadioEvent::FrameReceived(frame));
                }
            }
            SimEvent::Fault { item, edge } => {
                if let Some((_, node, event)) = self.inner.faults.edge(item, edge) {
                    self.inner.emit(at, node, || event);
                }
                self.inner.schedule_fault_edge(item, edge.saturating_add(1));
            }
        }
        true
    }

    /// Runs all events up to and including time `t`, then advances the
    /// clock to `t`.
    pub fn run_until(&mut self, t: Instant) {
        self.run_until_or(t, |_| false);
    }

    /// [`World::run_until`] that stops at the event which makes `stop`
    /// hold. `stop` is checked before the first step and after every
    /// event; once it holds this returns `true` with the clock at that
    /// event's instant and any events due at the same instant still
    /// queued, so a later `run_until` resumes exactly where a plain run
    /// would have been. Returns `false`, with the clock at `t`, when `stop`
    /// never held.
    pub fn run_until_or(&mut self, t: Instant, mut stop: impl FnMut(&World) -> bool) -> bool {
        if stop(self) {
            return true;
        }
        while self.inner.queue.peek_time().is_some_and(|next| next <= t) {
            self.step();
            if stop(self) {
                return true;
            }
        }
        self.inner.queue.advance_to(t);
        false
    }

    /// Runs for a span of simulated time from *now*.
    pub fn run_for(&mut self, d: Duration) {
        let t = self.now() + d;
        self.run_until(t);
    }

    fn dispatch(&mut self, node: NodeId, event: RadioEvent) {
        // Disjoint-field borrow: the node comes out of `self.nodes`, the
        // context wraps `self.inner` — plain `&mut` on the hot path.
        let Some(listener) = self.nodes.get_mut(node.0) else {
            invariant!(false, "node-id", "dispatch to unknown NodeId({})", node.0);
            return;
        };
        let mut ctx = NodeCtx {
            node,
            sim: &mut self.inner,
        };
        listener.on_event(&mut ctx, event);
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("nodes", &self.inner.nodes.len())
            .field("pending_events", &self.inner.queue.len())
            .finish()
    }
}
