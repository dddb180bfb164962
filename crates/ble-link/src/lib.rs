//! The Bluetooth Low Energy Link Layer, simulated.
//!
//! This crate implements the protocol machinery the InjectaBLE paper
//! (DSN 2021) attacks: frame formats (paper Tables I–II), the
//! channel-selection algorithms, connection events with anchor points and
//! window widening (paper §III-B, eqs. 1–5), acknowledgement flow control,
//! the parameter-update procedures and link encryption — everything needed
//! to stand up *legitimate* BLE devices whose connections the attack
//! tooling in the `injectable` crate can then sniff, inject into and
//! hijack.
//!
//! # Layering
//!
//! ```text
//!  ble-devices (lightbulb, keyfob, smartwatch, phone)   injectable (attack)
//!         │  LinkLayerDelegate callbacks                        │
//!  ┌──────▼─────────────────────────────────────────────────────▼──────┐
//!  │ ble-link: LinkLayer state machine (this crate)   sniffer/injector │
//!  └──────┬─────────────────────────────────────────────────────┬──────┘
//!         │  RadioListener events                               │
//!  ┌──────▼─────────────────────────────────────────────────────▼──────┐
//!  │ ble-phy: radio medium, timing, path loss, capture effect          │
//!  └────────────────────────────────────────────────────────────────-──┘
//! ```
//!
//! # Example
//!
//! ```
//! use ble_link::{timing, ConnectionParams, Csa1, ChannelMap};
//! use simkit::SimRng;
//!
//! // The quantities the attacker computes from a sniffed CONNECT_REQ:
//! let params = ConnectionParams::typical(&mut SimRng::seed_from(1), 36);
//! let interval = timing::connection_interval(params.hop_interval);
//! let w = timing::window_widening(params.master_sca.worst_case_ppm(), 20.0, interval);
//! assert!(w > timing::WIDENING_JITTER);
//! let mut hops = Csa1::new(params.hop_increment);
//! let _first_channel = hops.next_channel(&ChannelMap::ALL);
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

mod address;
mod channel_map;
mod connect_params;
mod csa;
mod delegate;
mod ll;
pub mod pdu;
mod sca;
pub mod timing;

pub use address::{AddressType, DeviceAddress};
pub use channel_map::ChannelMap;
pub use connect_params::ConnectionParams;
pub use csa::{Csa1, Csa2};
pub use delegate::{LinkLayerDelegate, Role};
pub use ll::{AdoptedConnection, ConnectionInfo, LinkLayer, UpdateRequest};
pub use pdu::advertising::AdvertisingPdu;
pub use pdu::control::{
    ControlPdu, ERR_CONNECTION_TIMEOUT, ERR_MIC_FAILURE, ERR_REMOTE_USER_TERMINATED,
};
pub use pdu::data::{DataHeader, DataPdu, Llid};
pub use sca::SleepClockAccuracy;
