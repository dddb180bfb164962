//! Simulated Bluetooth Low Energy physical layer.
//!
//! This crate replaces the 2.4 GHz radio hardware used by the InjectaBLE
//! paper (an nRF52840 dongle plus commercial devices) with a discrete-event
//! radio medium that preserves the two properties the attack depends on:
//!
//! 1. **Microsecond-accurate frame timing** — who starts transmitting first,
//!    how long a frame stays on the air (LE 1M: 8 µs per byte), and when a
//!    receiver's window is open. The injection race of the paper is decided
//!    entirely by these quantities.
//! 2. **Received-power physics** — log-distance path loss, wall attenuation,
//!    per-attempt multipath fading and the FM *capture effect* that lets the
//!    stronger of two colliding frames survive. The paper's sensitivity
//!    experiments (distance, wall) probe exactly this behaviour.
//!
//! The crate also provides the bit-level PHY algorithms of the
//! specification — data whitening and the CRC-24 — which the Link Layer and
//! the attack tooling build on.
//!
//! # Architecture
//!
//! A [`World`] is a central arena owning a set of nodes. Each node has a
//! radio (position, transmit power, sleep clock) and a protocol state
//! machine implementing [`RadioListener`]; the world stores it as a
//! `Box<dyn Node>` keyed by [`NodeId`]. Listeners receive [`RadioEvent`]s
//! (frame received, transmission complete, timer fired) and react through a
//! [`NodeCtx`] handle (transmit, tune the receiver, arm timers). Dispatch
//! uses plain `&mut` access — no shared ownership, no runtime borrow
//! checks — and a built world is [`Send`].
//!
//! # Example
//!
//! ```
//! use ble_phy::{Environment, World, NodeConfig, Position};
//! use simkit::SimRng;
//!
//! let env = Environment::indoor_default();
//! let world = World::new(env, SimRng::seed_from(1));
//! assert_eq!(world.now(), simkit::Instant::ZERO);
//! let _ = NodeConfig::new("sniffer", Position::new(1.0, 2.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests may panic freely; the denies below only harden non-test code.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::cast_possible_truncation
    )
)]

mod access_address;
mod capture;
mod channel;
mod crc;
mod fault;
mod frame;
mod geometry;
mod medium;
mod pdu;
mod phy_mode;
mod propagation;
mod radio;
mod whitening;

pub use access_address::AccessAddress;
pub use capture::CaptureModel;
pub use channel::Channel;
pub use crc::{crc24, crc24_bitwise, crc24_bytes, ADVERTISING_CRC_INIT, CRC_LEN};
pub use frame::{RawFrame, ReceivedFrame, ACCESS_ADDRESS_LEN, PREAMBLE_LEN};
pub use geometry::{Position, Wall};
pub use medium::{DeliveryMode, TxHandle, World};
pub use pdu::{Pdu, PduCapacityError, PDU_MAX_LEN};
pub use phy_mode::PhyMode;
pub use propagation::{Environment, CULL_HEADROOM_DB};
pub use radio::{
    AccessFilter, Node, NodeConfig, NodeCtx, NodeId, RadioEvent, RadioListener, TimerKey,
};
pub use whitening::{whiten_in_place, whiten_in_place_bitwise, whitened};
