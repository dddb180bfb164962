//! Declarative scenario construction for the InjectaBLE reproduction.
//!
//! Every experiment, example and integration test in the workspace builds
//! the same basic scene: a victim Peripheral at the origin, a legitimate
//! Central on the +x axis, and (usually) an attacker nearby — the paper's
//! §VII testbed triangle. [`ScenarioBuilder`] is the single place that
//! scene is assembled: geometry and walls, device kind, connection
//! parameters, clock models, attacker placement and telemetry capture are
//! all knobs on the builder, and [`ScenarioBuilder::build`] performs the
//! RNG forks and node insertions in one fixed order so that a given preset
//! and seed always produce the identical world.
//!
//! The built [`Scenario`] owns its [`World`] (the arena owns every node;
//! see `ble-phy`), so it is `Send` and can be moved across threads for
//! parallel trials. Nodes are reached through typed accessors
//! ([`Scenario::victim`], [`Scenario::central_mut`], …) that downcast the
//! arena slot; post-build mutation (arming missions, installing
//! on-connect writes) happens through those before the world runs.
//!
//! # Example
//!
//! ```
//! use ble_scenario::{DeviceKind, ScenarioBuilder};
//!
//! let mut sc = ScenarioBuilder::legit(1).world_seed(2).build();
//! assert_eq!(sc.kind, DeviceKind::Lightbulb);
//! let control = sc.victim_control_handle();
//! sc.central_mut().on_connect_writes =
//!     vec![(control, ble_devices::bulb_payloads::power_on(), true)];
//! sc.run_for(simkit::Duration::from_secs(2));
//! assert!(sc.victim::<ble_devices::Lightbulb>().app.on);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod background;

pub use background::{BackgroundRx, BackgroundSchedule, BackgroundTx, RX_LEAD};

use std::path::PathBuf;

use ble_devices::{Central, Keyfob, Lightbulb, Smartwatch, CENTRAL_SLOTS};
use ble_host::ConnHandle;
use ble_link::{ConnectionParams, DeviceAddress, LinkLayer};
use ble_phy::{
    AccessAddress, Environment, Node, NodeConfig, NodeId, PhyMode, Position, Wall, World,
};
use ble_telemetry::{JsonlSink, SharedRegistry};
use injectable::{Attacker, AttackerConfig, ResyncPolicy};
use simkit::{DriftClock, Duration, FaultPlan, Instant, SimRng};

/// Which victim Peripheral the scenario stars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// RGB lightbulb (control characteristic; the paper's main target).
    Lightbulb,
    /// Key fob (immediate-alert characteristic).
    Keyfob,
    /// Smartwatch (message/SMS characteristic).
    Smartwatch,
}

impl DeviceKind {
    /// The address byte conventionally used for this device in the paper
    /// reproduction (`B1`/`F0`/`CC`).
    pub fn addr_byte(self) -> u8 {
        match self {
            DeviceKind::Lightbulb => 0xB1,
            DeviceKind::Keyfob => 0xF0,
            DeviceKind::Smartwatch => 0xCC,
        }
    }

    /// Conventional node label for the device.
    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::Lightbulb => "bulb",
            DeviceKind::Keyfob => "fob",
            DeviceKind::Smartwatch => "watch",
        }
    }
}

/// How per-node sleep clocks draw their frequency error from the scenario
/// RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockModel {
    /// Gaussian error well inside the advertised bound
    /// ([`DriftClock::realistic`]) — a crystal at room temperature.
    Realistic,
    /// Uniform error across the whole bound
    /// ([`DriftClock::with_random_error`]) — worst-case spread.
    RandomError,
}

/// How the built world captures telemetry.
#[derive(Debug, Clone, Default)]
pub enum TelemetryMode {
    /// No metrics and no sinks: every emit is a single branch-and-return
    /// (the configuration the criterion benchmarks pin).
    Off,
    /// The world's metrics block (counters + µs histograms), readable
    /// through [`Scenario::metrics`] after a flush. The default.
    #[default]
    Metrics,
    /// Metrics plus a JSONL event stream written to this path, replayable
    /// with the `timeline` binary. Parallel trials share the path and
    /// overwrite each other — use this for single trials.
    Jsonl(PathBuf),
}

/// Declarative description of an experiment scene; [`build`] turns it into
/// a running [`Scenario`].
///
/// [`build`]: ScenarioBuilder::build
#[derive(Debug)]
pub struct ScenarioBuilder {
    seed: u64,
    world_seed: Option<u64>,
    kind: DeviceKind,
    victim_label: Option<&'static str>,
    clock_model: ClockModel,
    victim_sca_ppm: f64,
    attacker_sca_ppm: f64,
    phy: PhyMode,
    hop_interval: u16,
    central_distance: f64,
    with_attacker: bool,
    attacker_distance: f64,
    attacker_y_sign: f64,
    attacker_pos_override: Option<Position>,
    attacker_tx_dbm: f64,
    attacker_anchor_noise_us: Option<f64>,
    attacker_resync: Option<ResyncPolicy>,
    widening_scale: f64,
    wall: Option<Wall>,
    telemetry: TelemetryMode,
    span_clock: Option<fn() -> u64>,
    faults: Option<FaultPlan>,
    extra_peripherals: usize,
    environment: Option<Environment>,
    background_pairs: usize,
    delivery_tracker: Option<usize>,
}

impl ScenarioBuilder {
    fn base(
        seed: u64,
        clock_model: ClockModel,
        attacker_y_sign: f64,
        attacker_tx_dbm: f64,
    ) -> Self {
        ScenarioBuilder {
            seed,
            world_seed: None,
            kind: DeviceKind::Lightbulb,
            victim_label: None,
            clock_model,
            victim_sca_ppm: 50.0,
            attacker_sca_ppm: 20.0,
            phy: PhyMode::Le1M,
            hop_interval: 36,
            central_distance: 2.0,
            with_attacker: true,
            attacker_distance: 2.0,
            attacker_y_sign,
            attacker_pos_override: None,
            attacker_tx_dbm,
            attacker_anchor_noise_us: None,
            attacker_resync: None,
            widening_scale: 1.0,
            wall: None,
            telemetry: TelemetryMode::Off,
            span_clock: None,
            faults: None,
            extra_peripherals: 0,
            environment: None,
            background_pairs: 0,
            delivery_tracker: None,
        }
    }

    /// The bench/paper experiment rig: realistic clocks (50/20 ppm), the
    /// attacker at (0, −d) with an nRF52840's default 0 dBm, the optional
    /// wall at y = −0.5 m between attacker and room.
    pub fn paper_rig(seed: u64) -> Self {
        Self::base(seed, ClockModel::Realistic, -1.0, 0.0)
    }

    /// The injectable integration-test rig: uniform clock errors, the
    /// attacker at (0, +d) transmitting at +8 dBm.
    pub fn attack_rig(seed: u64) -> Self {
        Self::base(seed, ClockModel::RandomError, 1.0, 8.0)
    }

    /// The §VI scenario-table scene: like [`paper_rig`] but the victim node
    /// is labelled `"victim"`.
    ///
    /// [`paper_rig`]: ScenarioBuilder::paper_rig
    pub fn scene(seed: u64) -> Self {
        let mut b = Self::base(seed, ClockModel::Realistic, -1.0, 0.0);
        b.victim_label = Some("victim");
        b
    }

    /// The documentation examples' scene: realistic clocks, the attacker at
    /// (0, +2) with 0 dBm.
    pub fn example(seed: u64) -> Self {
        Self::base(seed, ClockModel::Realistic, 1.0, 0.0)
    }

    /// A legitimate-traffic-only scene (no attacker), uniform clock errors —
    /// the device-crate test preset.
    pub fn legit(seed: u64) -> Self {
        let mut b = Self::base(seed, ClockModel::RandomError, 1.0, 0.0);
        b.with_attacker = false;
        b
    }

    /// Puts `n` peripherals of the scene's device kind on the air (clamped
    /// to the Central's [`CENTRAL_SLOTS`]). The first is the classic victim
    /// at the origin; the remaining `n − 1` are added to the scene *after*
    /// every classic node, each claiming one Central connection slot, so
    /// `multi_peripheral(1)` builds a world byte-identical to not calling
    /// this at all. Establishment is serialised: the Central connects the
    /// victim first, then each extra peer in slot order. The attacker is
    /// aimed at the newest slot's peer ([`Scenario::target_slot`]).
    pub fn multi_peripheral(mut self, n: usize) -> Self {
        self.extra_peripherals = n.clamp(1, CENTRAL_SLOTS) - 1;
        self
    }

    /// Seeds the world's own RNG independently of the scenario RNG (some
    /// legacy tests separate the two).
    pub fn world_seed(mut self, seed: u64) -> Self {
        self.world_seed = Some(seed);
        self
    }

    /// Replaces the default indoor propagation environment (a `wall_db` /
    /// `wall` knob still applies on top of this environment).
    pub fn environment(mut self, env: Environment) -> Self {
        self.environment = Some(env);
        self
    }

    /// Loads the scene with `n` background connection pairs — lockstep
    /// transmitter/receiver couples hopping the 37 data channels on their
    /// own schedules (see [`BackgroundTx`]). Pairs are laid out on a 12 m
    /// grid away from the rig triangle and are added to the world strictly
    /// *after* every classic node, so `background_pairs(0)` (the default)
    /// builds a world byte-identical to not calling this at all.
    pub fn background_pairs(mut self, n: usize) -> Self {
        self.background_pairs = n;
        self
    }

    /// Enables the medium's per-packet [`ble_telemetry::DeliveryTracker`]
    /// with row capacity `capacity` before any node bootstraps, so the
    /// run-wide scheduling totals cover every transmission in the scene.
    pub fn delivery_tracker(mut self, capacity: usize) -> Self {
        self.delivery_tracker = Some(capacity);
        self
    }

    /// Selects the victim device.
    pub fn device(mut self, kind: DeviceKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the victim node's label (defaults to the device kind's).
    pub fn victim_label(mut self, label: &'static str) -> Self {
        self.victim_label = Some(label);
        self
    }

    /// Connection hop interval (×1.25 ms).
    pub fn hop_interval(mut self, hop: u16) -> Self {
        self.hop_interval = hop;
        self
    }

    /// Central distance from the victim, in metres.
    pub fn central_distance(mut self, metres: f64) -> Self {
        self.central_distance = metres;
        self
    }

    /// Attacker distance from the victim, in metres (placed on the y axis,
    /// the side chosen by the preset).
    pub fn attacker_distance(mut self, metres: f64) -> Self {
        self.attacker_distance = metres;
        self
    }

    /// Places the attacker at an arbitrary position, overriding the
    /// distance/side placement.
    pub fn attacker_position(mut self, pos: Position) -> Self {
        self.attacker_pos_override = Some(pos);
        self
    }

    /// Attacker transmit power in dBm.
    pub fn attacker_tx_dbm(mut self, dbm: f64) -> Self {
        self.attacker_tx_dbm = dbm;
        self
    }

    /// Override of the attacker's anchor-timestamp noise (µs).
    pub fn attacker_anchor_noise_us(mut self, us: f64) -> Self {
        self.attacker_anchor_noise_us = Some(us);
        self
    }

    /// Override of the attacker's resynchronisation policy (campaign
    /// length, backoff, retry budget). The default policy never leaves its
    /// first campaign in a healthy run; tighter policies make impaired
    /// runs give up (and their trials end) sooner.
    pub fn attacker_resync(mut self, policy: ResyncPolicy) -> Self {
        self.attacker_resync = Some(policy);
        self
    }

    /// Victim sleep-clock accuracy bound (ppm).
    pub fn victim_sca_ppm(mut self, ppm: f64) -> Self {
        self.victim_sca_ppm = ppm;
        self
    }

    /// Attacker sleep-clock accuracy bound (ppm).
    pub fn attacker_sca_ppm(mut self, ppm: f64) -> Self {
        self.attacker_sca_ppm = ppm;
        self
    }

    /// Scale on the victim slave's window widening (§VIII countermeasure 1;
    /// 1.0 = spec behaviour).
    pub fn widening_scale(mut self, scale: f64) -> Self {
        self.widening_scale = scale;
        self
    }

    /// PHY mode for every node (LE 1M in all paper experiments).
    pub fn phy(mut self, phy: PhyMode) -> Self {
        self.phy = phy;
        self
    }

    /// Adds the paper's wall between the attacker and the room: a segment
    /// at y = −0.5 m spanning x = ±100 m with this attenuation (dB).
    pub fn wall_db(mut self, db: f64) -> Self {
        self.wall = Some(Wall::new(
            Position::new(-100.0, -0.5),
            Position::new(100.0, -0.5),
            db,
        ));
        self
    }

    /// Adds an arbitrary wall segment.
    pub fn wall(mut self, wall: Wall) -> Self {
        self.wall = Some(wall);
        self
    }

    /// Selects the telemetry capture mode (default: off).
    pub fn telemetry(mut self, mode: TelemetryMode) -> Self {
        self.telemetry = mode;
        self
    }

    /// Installs the wall-clock source for span telemetry. The harness
    /// injects its quarantined monotonic reader here; scenario and protocol
    /// code never touch `std::time` themselves (lint rule R8). Without a
    /// clock, spans still measure simulated time and report 0 wall-clock.
    pub fn span_clock(mut self, clock: fn() -> u64) -> Self {
        self.span_clock = Some(clock);
        self
    }

    /// Installs a deterministic [`FaultPlan`] into the built world's radio
    /// medium. The plan draws only from its own seed; an empty plan (and
    /// `None`, the default) leaves the simulation byte-identical to a world
    /// built without this knob.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Builds the world: forks the scenario RNG, constructs the devices,
    /// inserts the nodes and starts them — always in the same order, so a
    /// given configuration and seed reproduce the identical simulation.
    pub fn build(self) -> Scenario {
        let mut rng = SimRng::seed_from(self.seed);
        let mut env = self
            .environment
            .clone()
            .unwrap_or_else(Environment::indoor_default);
        if let Some(wall) = self.wall {
            env = env.with_wall(wall);
        }
        let world_rng = match self.world_seed {
            Some(ws) => SimRng::seed_from(ws),
            None => rng.fork(),
        };
        let mut world = World::new(env, world_rng);
        if let Some(capacity) = self.delivery_tracker {
            world.enable_delivery_tracker(capacity);
        }

        let (victim, victim_addr): (Box<dyn Node>, DeviceAddress) = {
            let device_rng = rng.fork();
            match self.kind {
                DeviceKind::Lightbulb => {
                    let mut d = Lightbulb::new(self.kind.addr_byte(), device_rng);
                    d.ll.set_widening_scale(self.widening_scale);
                    let addr = d.ll.address();
                    (Box::new(d), addr)
                }
                DeviceKind::Keyfob => {
                    let mut d = Keyfob::new(self.kind.addr_byte(), device_rng);
                    d.ll.set_widening_scale(self.widening_scale);
                    let addr = d.ll.address();
                    (Box::new(d), addr)
                }
                DeviceKind::Smartwatch => {
                    let mut d = Smartwatch::new(self.kind.addr_byte(), device_rng);
                    d.ll.set_widening_scale(self.widening_scale);
                    let addr = d.ll.address();
                    (Box::new(d), addr)
                }
            }
        };

        let params = ConnectionParams::typical(&mut rng, self.hop_interval);
        let central = Central::new(0xA0, victim_addr, params, rng.fork());

        let attacker = self.with_attacker.then(|| {
            let mut cfg = AttackerConfig {
                target_slave: Some(victim_addr),
                ..AttackerConfig::default()
            };
            if let Some(noise) = self.attacker_anchor_noise_us {
                cfg.anchor_noise_us = noise;
            }
            if let Some(policy) = &self.attacker_resync {
                cfg.resync = policy.clone();
            }
            Attacker::new(cfg)
        });

        let clock = |sca: f64, rng: &mut SimRng| match self.clock_model {
            ClockModel::Realistic => DriftClock::realistic(sca, rng).with_jitter_us(1.0),
            ClockModel::RandomError => DriftClock::with_random_error(sca, rng).with_jitter_us(1.0),
        };

        let victim_label = self.victim_label.unwrap_or_else(|| self.kind.label());
        let victim_id = world.add_boxed_node(
            NodeConfig::new(victim_label, Position::new(0.0, 0.0))
                .with_phy(self.phy)
                .with_clock(clock(self.victim_sca_ppm, &mut rng)),
            victim,
        );
        let mut central_cfg = NodeConfig::new("phone", Position::new(self.central_distance, 0.0))
            .with_phy(self.phy)
            .with_clock(clock(self.victim_sca_ppm, &mut rng));
        if self.extra_peripherals > 0 {
            // Multi-link Central: several Link Layers share one radio, so
            // overlapping TX/RX requests are expected contention (modelled
            // as collisions), not protocol-machine bugs.
            central_cfg = central_cfg.with_shared_radio();
        }
        let central_id = world.add_node(central_cfg, central);
        let attacker_pos = self
            .attacker_pos_override
            .unwrap_or_else(|| Position::new(0.0, self.attacker_y_sign * self.attacker_distance));
        let attacker_id = attacker.map(|attacker| {
            world.add_node(
                NodeConfig::new("attacker", attacker_pos)
                    .with_tx_power(self.attacker_tx_dbm)
                    .with_phy(self.phy)
                    .with_clock(clock(self.attacker_sca_ppm, &mut rng)),
                attacker,
            )
        });

        // Extra peripherals come strictly *after* every classic node and
        // draw — with zero extras nothing below touches `rng` or the world,
        // so single-peripheral scenes stay byte-identical to the historical
        // build order.
        let mut extra_peripheral_ids = Vec::new();
        let mut extra_peers = Vec::new();
        for k in 0..self.extra_peripherals {
            let device_rng = rng.fork();
            let addr_seed = 0xD0 + k as u8;
            let (node, addr): (Box<dyn Node>, DeviceAddress) = match self.kind {
                DeviceKind::Lightbulb => {
                    let mut d = Lightbulb::new(addr_seed, device_rng);
                    d.ll.set_widening_scale(self.widening_scale);
                    let addr = d.ll.address();
                    (Box::new(d), addr)
                }
                DeviceKind::Keyfob => {
                    let mut d = Keyfob::new(addr_seed, device_rng);
                    d.ll.set_widening_scale(self.widening_scale);
                    let addr = d.ll.address();
                    (Box::new(d), addr)
                }
                DeviceKind::Smartwatch => {
                    let mut d = Smartwatch::new(addr_seed, device_rng);
                    d.ll.set_widening_scale(self.widening_scale);
                    let addr = d.ll.address();
                    (Box::new(d), addr)
                }
            };
            let params = ConnectionParams::typical(&mut rng, self.hop_interval);
            let id = world.add_boxed_node(
                NodeConfig::new(
                    format!("peer{}", k + 1),
                    Position::new(0.0, 0.6 * (k + 1) as f64),
                )
                .with_phy(self.phy)
                .with_clock(clock(self.victim_sca_ppm, &mut rng)),
                node,
            );
            extra_peripheral_ids.push(id);
            extra_peers.push((addr, params));
        }
        let mut extra_conn_handles = Vec::new();
        if !extra_peers.is_empty() {
            if let Some(central) = world.node_mut::<Central>(central_id) {
                for (addr, params) in &extra_peers {
                    extra_conn_handles.extend(central.add_peer(*addr, *params));
                }
            }
        }

        // Background pairs come last of all nodes and draw from a single
        // fork taken only when pairs were requested, so scenes without them
        // stay byte-identical to the historical build order.
        let mut background_ids = Vec::new();
        if self.background_pairs > 0 {
            let mut bg_rng = rng.fork();
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let cols = (self.background_pairs as f64).sqrt().ceil() as usize;
            for k in 0..self.background_pairs {
                let period_us = 7_500 + bg_rng.below(7_500);
                let schedule = BackgroundSchedule {
                    aa: AccessAddress::new(
                        0xB000_0000 + u32::try_from(k).expect("pair count fits u32"),
                    ),
                    crc_init: 0x0B_0B00 + u32::try_from(k).expect("pair count fits u32"),
                    start_channel: u8::try_from(bg_rng.below(37)).expect("channel index fits u8"),
                    hop: u8::try_from(1 + bg_rng.below(36)).expect("hop fits u8"),
                    period: Duration::from_micros(period_us),
                    phase: Duration::from_micros(period_us + bg_rng.below(period_us)),
                };
                // 12 m grid starting well outside the rig triangle; the
                // pair's own link is a fixed 1 m hop.
                let x = 8.0 + (k % cols.max(1)) as f64 * 12.0;
                let y = 8.0 + (k / cols.max(1)) as f64 * 12.0;
                let tx_id = world.add_node(
                    NodeConfig::new(format!("bgtx{k}"), Position::new(x, y)),
                    BackgroundTx::new(schedule),
                );
                let rx_id = world.add_node(
                    NodeConfig::new(format!("bgrx{k}"), Position::new(x + 1.0, y)),
                    BackgroundRx::new(schedule),
                );
                background_ids.push((tx_id, rx_id));
            }
        }

        // Telemetry turns on *before* bootstrap so metrics and sinks observe
        // the nodes' first actions — in particular the spans opened in
        // `on_start` hooks (the attacker's initial scan campaign). Telemetry
        // is observation-only: turning it on earlier cannot perturb the
        // simulation's RNG streams or schedule.
        if let Some(clock) = self.span_clock {
            world.set_span_clock(clock);
        }
        let mut telemetry_downgraded = false;
        let metrics = match &self.telemetry {
            TelemetryMode::Off => None,
            TelemetryMode::Metrics => Some(world.enable_metrics()),
            TelemetryMode::Jsonl(path) => {
                match JsonlSink::create(path) {
                    Ok(sink) => world.add_telemetry_sink(Box::new(sink)),
                    Err(err) => {
                        telemetry_downgraded = true;
                        eprintln!(
                            "warning: cannot write JSONL telemetry to {}: {err}",
                            path.display()
                        );
                    }
                }
                Some(world.enable_metrics())
            }
        };

        world.start(victim_id);
        world.start(central_id);
        if let Some(id) = attacker_id {
            world.start(id);
        }
        for id in &extra_peripheral_ids {
            world.start(*id);
        }
        for (tx_id, rx_id) in &background_ids {
            // Receiver first: its window-opening tick leads the
            // transmitter's within every period.
            world.start(*rx_id);
            world.start(*tx_id);
        }

        // After every node exists (drift excursions resolve labels here) and
        // after bootstrap, so same-instant fault boundaries sort behind the
        // nodes' first timers. The plan carries its own RNG seed, so the
        // frozen fork order above is untouched.
        if let Some(plan) = self.faults {
            world.install_faults(plan);
        }

        let mut scenario = Scenario {
            world,
            kind: self.kind,
            victim_id,
            central_id,
            attacker_id,
            victim_addr,
            attacker_pos,
            metrics,
            telemetry_downgraded,
            extra_peripheral_ids,
            extra_conn_handles,
            background_ids,
            bounces: 0,
        };
        // The attacker targets the newest slot. Establishment is serialised
        // with the victim first, so that is the last link to come up.
        if let (Some(_), Some(&target)) = (attacker_id, scenario.extra_conn_handles.last()) {
            scenario.aim_attacker_at(target);
        }
        scenario
    }
}

/// A built, running scene. The [`World`] arena owns every node; the typed
/// accessors below downcast the well-known slots.
pub struct Scenario {
    /// The simulation world.
    pub world: World,
    /// Which victim device the scene stars.
    pub kind: DeviceKind,
    /// Arena id of the victim Peripheral.
    pub victim_id: NodeId,
    /// Arena id of the legitimate Central.
    pub central_id: NodeId,
    /// Arena id of the attacker, when the scene has one.
    pub attacker_id: Option<NodeId>,
    /// The victim's advertised device address.
    pub victim_addr: DeviceAddress,
    /// Where the attacker was placed (useful for co-locating MITM halves).
    pub attacker_pos: Position,
    metrics: Option<SharedRegistry>,
    /// Whether a requested JSONL telemetry sink could not be opened and the
    /// scene silently fell back to metrics only.
    pub telemetry_downgraded: bool,
    /// Arena ids of the extra peripherals added by
    /// [`ScenarioBuilder::multi_peripheral`], slot order (slot 1 first).
    pub extra_peripheral_ids: Vec<NodeId>,
    /// Central connection-slot handles of the extra peripherals, matching
    /// [`Scenario::extra_peripheral_ids`] index for index.
    pub extra_conn_handles: Vec<ConnHandle>,
    /// `(transmitter, receiver)` arena ids of the background pairs added by
    /// [`ScenarioBuilder::background_pairs`], pair order.
    pub background_ids: Vec<(NodeId, NodeId)>,
    /// How many times [`Scenario::bounce_target`] has dropped the target
    /// link.
    pub bounces: u32,
}

impl Scenario {
    /// The victim, downcast to its concrete device type.
    ///
    /// # Panics
    /// If `P` is not the victim's type.
    pub fn victim<P: std::any::Any>(&self) -> &P {
        self.world
            .node::<P>(self.victim_id)
            .expect("victim has the requested type")
    }

    /// Mutable access to the victim.
    ///
    /// # Panics
    /// If `P` is not the victim's type.
    pub fn victim_mut<P: std::any::Any>(&mut self) -> &mut P {
        self.world
            .node_mut::<P>(self.victim_id)
            .expect("victim has the requested type")
    }

    /// The legitimate Central.
    pub fn central(&self) -> &Central {
        self.world
            .node::<Central>(self.central_id)
            .expect("central slot holds a Central")
    }

    /// Mutable access to the legitimate Central.
    pub fn central_mut(&mut self) -> &mut Central {
        self.world
            .node_mut::<Central>(self.central_id)
            .expect("central slot holds a Central")
    }

    /// The attacker.
    ///
    /// # Panics
    /// If the scene was built without one.
    pub fn attacker(&self) -> &Attacker {
        let id = self.attacker_id.expect("scene has an attacker");
        self.world
            .node::<Attacker>(id)
            .expect("attacker slot holds an Attacker")
    }

    /// Mutable access to the attacker.
    ///
    /// # Panics
    /// If the scene was built without one.
    pub fn attacker_mut(&mut self) -> &mut Attacker {
        let id = self.attacker_id.expect("scene has an attacker");
        self.world
            .node_mut::<Attacker>(id)
            .expect("attacker slot holds an Attacker")
    }

    /// The shared metrics registry, when built with
    /// [`TelemetryMode::Metrics`] or [`TelemetryMode::Jsonl`]. It holds the
    /// world's tallies as of the last `world.flush_telemetry()`.
    pub fn metrics(&self) -> Option<&SharedRegistry> {
        self.metrics.as_ref()
    }

    /// An extra peripheral (from [`ScenarioBuilder::multi_peripheral`]),
    /// downcast to its concrete device type. Index 0 is slot 1.
    ///
    /// # Panics
    /// If the index is out of range or `P` is not the device's type.
    pub fn extra_peripheral<P: std::any::Any>(&self, index: usize) -> &P {
        self.world
            .node::<P>(self.extra_peripheral_ids[index])
            .expect("extra peripheral has the requested type")
    }

    /// How many of the Central's connection slots hold a live Link Layer
    /// connection right now (1 = just the classic victim link).
    pub fn live_connections(&self) -> usize {
        self.central().live_connections()
    }

    /// `(sent, received)` frame totals summed over every background pair.
    pub fn background_frames(&self) -> (u64, u64) {
        let mut sent = 0;
        let mut received = 0;
        for (tx_id, rx_id) in &self.background_ids {
            sent += self
                .world
                .node::<BackgroundTx>(*tx_id)
                .expect("background slot holds a BackgroundTx")
                .sent;
            received += self
                .world
                .node::<BackgroundRx>(*rx_id)
                .expect("background slot holds a BackgroundRx")
                .received;
        }
        (sent, received)
    }

    /// Run-wide delivery-scheduling totals, when the scene was built with
    /// [`ScenarioBuilder::delivery_tracker`].
    pub fn delivery_totals(&self) -> Option<ble_telemetry::DeliveryTotals> {
        self.world.delivery_tracker().map(|t| t.totals())
    }

    /// Aims the attacker's sniffer at the peer behind one Central
    /// connection slot. Returns `false` — leaving the attacker untouched —
    /// for a stale handle. Call before the world runs (the sniffer restarts
    /// its campaign from scratch).
    ///
    /// # Panics
    /// If the scene was built without an attacker.
    pub fn aim_attacker_at(&mut self, handle: ConnHandle) -> bool {
        let Some(peer) = self.central().conn_manager().peer(handle) else {
            return false;
        };
        self.attacker_mut().retarget_slave(peer);
        true
    }

    /// Tears down the connection behind `handle` (Central-initiated). The
    /// owning slot re-establishes on its own, and the fresh `CONNECT_IND`
    /// gives a re-aimed attacker sniffer something to latch onto. Returns
    /// `false` for a stale handle or an already-down link.
    pub fn bounce_connection(&mut self, handle: ConnHandle) -> bool {
        self.central_mut().disconnect(handle, 0x13)
    }

    /// Advances the simulation.
    pub fn run_for(&mut self, d: Duration) {
        self.world.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.world.now()
    }

    /// Whether the victim's link layer currently holds a connection.
    pub fn victim_connected(&self) -> bool {
        match self.kind {
            DeviceKind::Lightbulb => self.victim::<Lightbulb>().ll.is_connected(),
            DeviceKind::Keyfob => self.victim::<Keyfob>().ll.is_connected(),
            DeviceKind::Smartwatch => self.victim::<Smartwatch>().ll.is_connected(),
        }
    }

    /// Handle of the victim's primary writable characteristic (bulb
    /// control / fob alert / watch message).
    pub fn victim_control_handle(&self) -> u16 {
        match self.kind {
            DeviceKind::Lightbulb => self.victim::<Lightbulb>().control_handle(),
            DeviceKind::Keyfob => self.victim::<Keyfob>().alert_handle(),
            DeviceKind::Smartwatch => self.victim::<Smartwatch>().message_handle(),
        }
    }

    /// Stops the victim from re-advertising after disconnection (used by
    /// hijack scenarios so the evicted slave stays evicted).
    pub fn set_victim_auto_readvertise(&mut self, value: bool) {
        match self.kind {
            DeviceKind::Lightbulb => self.victim_mut::<Lightbulb>().auto_readvertise = value,
            DeviceKind::Keyfob => self.victim_mut::<Keyfob>().auto_readvertise = value,
            DeviceKind::Smartwatch => self.victim_mut::<Smartwatch>().auto_readvertise = value,
        }
    }

    /// Central connection slot of the link the attacker is aimed at: the
    /// newest slot, so slot 0 (the victim's) in a single-link scene.
    pub fn target_slot(&self) -> usize {
        self.extra_conn_handles.len()
    }

    /// The peripheral behind [`Scenario::target_slot`], downcast to its
    /// concrete device type.
    ///
    /// # Panics
    /// If `P` is not the target's type.
    pub fn target<P: std::any::Any>(&self) -> &P {
        let id = self
            .extra_peripheral_ids
            .last()
            .copied()
            .unwrap_or(self.victim_id);
        self.world
            .node::<P>(id)
            .expect("target has the requested type")
    }

    /// Bounces the target link: drops it if it is up, so that its slot
    /// re-establishes and the sniffer sees a fresh `CONNECT_IND`, and
    /// restarts the attacker's scan in case its resync loop went quiet (a
    /// no-op while the attacker is already scanning or following).
    /// [`Scenario::run_bouncing`] bounces this way.
    ///
    /// # Panics
    /// If the scene was built without an attacker.
    pub fn bounce_target(&mut self) {
        if let Some(current) = self.central().conn_manager().handle_at(self.target_slot()) {
            if self.bounce_connection(current) {
                self.bounces += 1;
            }
        }
        let attacker = self.attacker_id.expect("scene has an attacker");
        self.world
            .with_node_ctx::<Attacker, _>(attacker, |a, ctx| a.restart_resync(ctx));
    }

    /// Runs until every Central slot holds a live connection and the
    /// attacker follows the target link with the Slave's sequence bits,
    /// and stops at the event that makes both hold (see
    /// [`Scenario::run_bouncing`], which bounces an unfollowed target).
    /// Returns `false` when `budget` runs out first.
    ///
    /// # Panics
    /// If the scene was built without an attacker.
    pub fn wait_synchronised(&mut self, budget: Duration) -> bool {
        let deadline = self.world.now() + budget;
        let central = self.central_id;
        let slots = self.target_slot() + 1;
        let all_up = |w: &World| {
            w.node::<Central>(central)
                .is_some_and(|c| c.live_connections() >= slots)
        };
        self.world.run_until_or(deadline, all_up)
            && self.run_bouncing(deadline, |w, a| {
                a.connection().is_some_and(|conn| conn.has_slave_seq()) && all_up(w)
            })
    }

    /// Runs until `done` holds for the world and its attacker, and stops at
    /// the event that makes it hold (see [`World::run_until_or`]). Returns
    /// `false` when `deadline` comes first.
    ///
    /// The sniffer follows a link only from its `CONNECT_IND`, which it can
    /// miss because it scans one advertising channel at a time, and a link
    /// that stays up never sends another. So whenever the attacker follows
    /// nothing while the target link has run a connection event, the run
    /// bounces the target ([`Scenario::bounce_target`]) and runs until it is
    /// down before it looks again: during set-up at the link's first event,
    /// and during an attack at the event where the attacker loses the link.
    /// It waits for that first event rather than the Central's `TxDone`,
    /// because the sniffer decodes the `CONNECT_IND` a propagation delay
    /// after the Central has sent it.
    ///
    /// Each event reads the attacker first, and the Central only while the
    /// attacker follows nothing.
    ///
    /// # Panics
    /// If the scene was built without an attacker.
    pub fn run_bouncing(
        &mut self,
        deadline: Instant,
        mut done: impl FnMut(&World, &Attacker) -> bool,
    ) -> bool {
        let (central, slot) = (self.central_id, self.target_slot());
        let attacker = self.attacker_id.expect("scene has an attacker");
        loop {
            let mut finished = false;
            let done_or_unfollowed = |w: &World| {
                let Some(a) = w.node::<Attacker>(attacker) else {
                    return false;
                };
                finished = done(w, a);
                finished
                    || a.connection().is_none()
                        && w.node::<Central>(central)
                            .and_then(|c| held_link(c, slot))
                            .and_then(LinkLayer::connection_info)
                            .is_some_and(|info| info.next_event_counter >= 1)
            };
            if !self.world.run_until_or(deadline, done_or_unfollowed) {
                return false;
            }
            if finished {
                return true;
            }
            self.bounce_target();
            let down = |w: &World| {
                w.node::<Central>(central)
                    .and_then(|c| held_link(c, slot))
                    .is_none_or(|ll| !ll.is_connected())
            };
            if !self.world.run_until_or(deadline, down) {
                return false;
            }
        }
    }
}

/// The Link Layer of the Central's connection slot `slot`, while the slot
/// holds a connection (a bounce releases it until the slot reconnects).
fn held_link(central: &Central, slot: usize) -> Option<&LinkLayer> {
    central.ll_for(central.conn_manager().handle_at(slot)?)
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("kind", &self.kind)
            .field("victim_id", &self.victim_id)
            .field("central_id", &self.central_id)
            .field("attacker_id", &self.attacker_id)
            .field("now", &self.world.now())
            .finish_non_exhaustive()
    }
}

/// Builds the raw LL payload of an ATT Write Request (L2CAP framed) — the
/// canonical injected frame shape used across tests and examples.
pub fn att_write_frame(handle: u16, value: Vec<u8>) -> Vec<u8> {
    let att = ble_host::att::AttPdu::WriteRequest { handle, value }.to_bytes();
    let frags = ble_host::l2cap::fragment(ble_host::l2cap::CID_ATT, &att, 27);
    assert_eq!(frags.len(), 1);
    frags.into_iter().next().expect("single L2CAP fragment").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Scenario>();
    }

    #[test]
    fn same_seed_same_world() {
        let build = || {
            let mut sc = ScenarioBuilder::attack_rig(7).build();
            sc.run_for(Duration::from_secs(2));
            (
                sc.now(),
                sc.central().ll.is_connected(),
                sc.victim_connected(),
            )
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn legit_preset_has_no_attacker() {
        let sc = ScenarioBuilder::legit(1).build();
        assert!(sc.attacker_id.is_none());
    }

    #[test]
    fn device_kinds_expose_their_handles() {
        for kind in [
            DeviceKind::Lightbulb,
            DeviceKind::Keyfob,
            DeviceKind::Smartwatch,
        ] {
            let sc = ScenarioBuilder::legit(3).device(kind).build();
            assert!(sc.victim_control_handle() > 0);
            assert!(!sc.victim_connected());
        }
    }

    #[test]
    fn multi_peripheral_one_adds_nothing() {
        let sc = ScenarioBuilder::legit(1).multi_peripheral(1).build();
        assert!(sc.extra_peripheral_ids.is_empty());
        assert!(sc.extra_conn_handles.is_empty());
        assert_eq!(sc.central().conn_handles().len(), 1);
    }

    #[test]
    fn multi_peripheral_connects_every_slot() {
        let mut sc = ScenarioBuilder::legit(5).multi_peripheral(4).build();
        assert_eq!(sc.extra_peripheral_ids.len(), 3);
        assert_eq!(sc.extra_conn_handles.len(), 3);
        assert_eq!(sc.target_slot(), 3);
        let central = sc.central_id;
        let all_up = sc
            .world
            .run_until_or(sc.now() + Duration::from_secs(20), |w| {
                w.node::<Central>(central)
                    .is_some_and(|c| c.live_connections() >= 4)
            });
        assert!(all_up, "only {} of 4 connections up", sc.live_connections());
        // Every occupied slot reports Established in the manager too.
        let central = sc.central();
        for h in central.conn_handles() {
            assert_eq!(
                central.conn_manager().state(h),
                Some(ble_host::SlotState::Established),
                "slot {h} not established"
            );
        }
        // A Master comes up at its CONNECT_IND's `TxDone`, with that instant
        // as its anchor reference and no connection event run yet. Exactly
        // one slot must read so: the run stopped at that event.
        let now = sc.now();
        let just_up: Vec<_> = central
            .conn_handles()
            .into_iter()
            .filter(|&h| {
                central
                    .ll_for(h)
                    .and_then(ble_link::LinkLayer::connection_info)
                    .is_some_and(|c| c.next_event_counter == 0 && c.last_anchor == now)
            })
            .collect();
        assert_eq!(just_up.len(), 1, "slots up at {now:?}: {just_up:?}");
    }

    #[test]
    fn background_pairs_exchange_frames_in_lockstep() {
        let mut sc = ScenarioBuilder::legit(9)
            .background_pairs(6)
            .delivery_tracker(32)
            .build();
        assert_eq!(sc.background_ids.len(), 6);
        sc.run_for(Duration::from_secs(2));
        let (sent, received) = sc.background_frames();
        assert!(sent > 0, "pairs must transmit");
        // Lockstep schedules on a 1 m link: virtually every frame lands
        // (collisions between pairs sharing an instant and channel are the
        // only loss mechanism).
        assert!(
            received * 10 >= sent * 9,
            "background pairs out of lockstep: {received} of {sent} frames"
        );
        let totals = sc.delivery_totals().expect("tracker was enabled");
        assert!(totals.tx_frames >= sent);
    }

    #[test]
    fn background_pairs_zero_is_byte_identical_to_none() {
        let run = |with_knob: bool| {
            let b = ScenarioBuilder::legit(4);
            let b = if with_knob { b.background_pairs(0) } else { b };
            let mut sc = b.build();
            sc.run_for(Duration::from_secs(2));
            (
                sc.now(),
                sc.central().ll.is_connected(),
                sc.victim_connected(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn environment_knob_replaces_the_default() {
        let sc = ScenarioBuilder::legit(2)
            .environment(ble_phy::Environment::dense_hall())
            .build();
        // dense_hall's exponent (3.4) is hotter than indoor (1.8).
        assert!(sc.world.env().path_loss_exponent > 3.0);
    }

    #[test]
    fn long_burst_plans_keep_the_event_queue_shallow() {
        // `ablation_faults`' burst plan: every data channel jammed for 20%
        // of each 100 ms period over 95 s — 950 windows per train. Each
        // train holds one pending boundary event, so the plan deepens the
        // queue by at most one entry per train over the unimpaired world
        // (whose own high water is mostly cancelled supervision timers
        // waiting to be popped).
        let span = Duration::from_secs(95);
        let plan = (0..37u8).fold(FaultPlan::seeded(0xB0057), |plan, channel| {
            plan.with_burst(simkit::InterferenceBurst::duty_cycle(
                channel,
                simkit::Instant::ZERO,
                span,
                Duration::from_millis(100),
                0.2,
                -42.0,
            ))
        });
        let trains = u64::try_from(plan.bursts.len()).expect("train count fits");
        let high_water = |plan: Option<FaultPlan>| {
            let builder = ScenarioBuilder::attack_rig(11);
            let mut sc = match plan {
                Some(plan) => builder.faults(plan),
                None => builder,
            }
            .build();
            sc.run_for(Duration::from_secs(5));
            sc.world.queue_high_water()
        };
        let unimpaired = high_water(None);
        let impaired = high_water(Some(plan));
        assert!(unimpaired < 64, "unimpaired queue high water {unimpaired}");
        assert!(
            impaired <= unimpaired + trains,
            "queue high water {impaired} with the plan, {unimpaired} without"
        );
    }

    #[test]
    fn att_write_frame_is_l2cap_framed() {
        let f = att_write_frame(6, vec![1, 2, 3]);
        // 4 L2CAP header + 3 ATT write header + 3 value bytes.
        assert_eq!(f.len(), 10);
    }
}
