//! The experiment rig: the paper's testbed geometry in simulation.
//!
//! Every trial closure builds its scene with
//! [`ble_scenario::ScenarioBuilder::paper_rig`]: Peripheral (lightbulb) at
//! the origin, Central 2 m away on the +x axis, attacker 2 m away on the −y
//! axis (the vertices of the paper's testbed triangle, §VII-A, Figure 8),
//! hop interval 36, realistic 50/20 ppm clocks, LE 1M. Experiments vary it
//! with the builder's knobs (`hop_interval`, `attacker_distance`, `wall_db`
//! for the 8 dB wall between the attacker and the room, …).

/// Attacker transmit power, the `paper_rig` default: an nRF52840 dongle's
/// default 0 dBm.
pub const ATTACKER_TX_DBM: f64 = 0.0;
