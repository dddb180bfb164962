//! Simulated BLE devices reproducing the InjectaBLE paper's testbed.
//!
//! The paper's experiments (§VI–VII) target three commercial devices — "a
//! lightbulb, a keyfob and a smartwatch" — driven by a smartphone Central.
//! That hardware is replaced here by behavioural models running on the full
//! `ble-link`/`ble-host` stack:
//!
//! * [`Lightbulb`] — vendor control characteristic: power, RGB colour,
//!   brightness (the device used for all three sensitivity experiments);
//! * [`Keyfob`] — Immediate Alert profile: the attacker makes it ring;
//! * [`Smartwatch`] — message characteristic: the attacker forges an SMS;
//! * [`Central`] — a smartphone-like initiator that establishes (and
//!   re-establishes) connections and drives the peripherals.
//!
//! All of them are [`ble_phy::RadioListener`]s; add them to a
//! [`ble_phy::World`] and bootstrap with [`ble_phy::World::with_ctx`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bulb;
mod central;
mod keyfob;
mod peripheral;
mod watch;

pub use bulb::{
    payloads as bulb_payloads, BulbApp, Lightbulb, BULB_CONTROL_UUID, BULB_SERVICE_UUID,
};
pub use central::{Central, CENTRAL_SLOTS};
pub use keyfob::{Keyfob, KeyfobApp};
pub use peripheral::{Peripheral, PeripheralApp, APP_TIMER_BASE};
pub use watch::{Smartwatch, WatchApp, WATCH_MESSAGE_UUID, WATCH_SERVICE_UUID};
