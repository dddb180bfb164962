//! Discrete-event simulation kernel used by the InjectaBLE reproduction.
//!
//! This crate is protocol-agnostic: it provides nanosecond-resolution virtual
//! time ([`Instant`], [`Duration`]), a cancellable min-heap event queue
//! ([`EventQueue`]), drifting sleep-clock models ([`DriftClock`]) and
//! deterministic randomness plumbing ([`SimRng`]).
//!
//! The Bluetooth Low Energy attack studied in the paper is fundamentally a
//! *timing race*: the window-widening mechanism of the BLE Link Layer exists
//! to compensate for sleep-clock drift, and the attacker wins by transmitting
//! at the very start of the widened receive window. Faithfully reproducing
//! the attack therefore requires an explicit model of imperfect clocks, which
//! is what this crate supplies.
//!
//! # Example
//!
//! ```
//! use simkit::{Duration, EventQueue, Instant};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.schedule_after(Duration::from_micros(150), "inter-frame spacing elapsed");
//! queue.schedule_after(Duration::from_micros(50), "early event");
//! let (at, ev) = queue.pop().expect("an event is pending");
//! assert_eq!(ev, "early event");
//! assert_eq!(at, Instant::ZERO + Duration::from_micros(50));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backoff;
mod clock;
mod fault;
mod queue;
mod rng;
mod time;

pub use backoff::ExponentialBackoff;
pub use clock::DriftClock;
pub use fault::{DriftExcursion, FadingEpisode, FaultPlan, FrameLossRule, InterferenceBurst};
pub use queue::{EventId, EventQueue, ReservedIds};
pub use rng::SimRng;
pub use time::{Duration, Instant};
