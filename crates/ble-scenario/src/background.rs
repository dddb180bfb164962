//! Lightweight background "connections" for the dense-band workload.
//!
//! Experiment 6 loads the radio medium with hundreds of unrelated links
//! sharing the 37 data channels while the paper rig runs its injection.
//! Modelling each as a full Link Layer connection would dominate the
//! sweep's wall time without changing what it measures — channel
//! occupancy — so a background pair is the minimal deterministic stand-in:
//! a transmitter and a receiver sharing a hop schedule (start channel, hop
//! increment, period, phase), exactly like a BLE connection's channel
//! sequence with the protocol machine stripped away.
//!
//! The pair stays in lockstep by construction: both nodes run fixed-period
//! timers on drift-free clocks, the receiver's tick leading the
//! transmitter's by [`RX_LEAD`] so its window is already open when the
//! frame starts. A frame (22-byte payload, ~240 µs on air at LE 1M) always
//! fits inside the shortest period.

use ble_phy::{
    AccessAddress, AccessFilter, Channel, NodeCtx, RadioEvent, RadioListener, RawFrame, TimerKey,
};
use simkit::Duration;

/// How far the receiver's tick leads the transmitter's within each period.
pub const RX_LEAD: Duration = Duration::from_micros(150);

/// The shared hop schedule of one background pair.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundSchedule {
    /// Access address both ends use (unique per pair).
    pub aa: AccessAddress,
    /// CRC init shared by the pair.
    pub crc_init: u32,
    /// First data-channel index (0..37).
    pub start_channel: u8,
    /// Channel increment per period; 37 is prime, so any 1..=36 increment
    /// walks the whole band.
    pub hop: u8,
    /// Tick period (one frame per period).
    pub period: Duration,
    /// Offset of the pair's first transmitter tick from world start.
    pub phase: Duration,
}

/// Background transmitter: one frame per period on the scheduled channel.
#[derive(Debug)]
pub struct BackgroundTx {
    schedule: BackgroundSchedule,
    channel: u8,
    /// Frames put on the air so far.
    pub sent: u64,
}

impl BackgroundTx {
    /// A transmitter at the start of its schedule.
    pub fn new(schedule: BackgroundSchedule) -> Self {
        BackgroundTx {
            schedule,
            channel: schedule.start_channel,
            sent: 0,
        }
    }
}

impl RadioListener for BackgroundTx {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.set_timer_local(self.schedule.phase, TimerKey(1));
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        if let RadioEvent::Timer { .. } = event {
            if !ctx.is_transmitting() {
                let frame = RawFrame::new(self.schedule.aa, [0x42; 22], self.schedule.crc_init);
                ctx.transmit(Channel::data_wrapped(self.channel), frame);
                self.sent += 1;
            }
            self.channel = (self.channel + self.schedule.hop) % 37;
            ctx.set_timer_local(self.schedule.period, TimerKey(1));
        }
    }
}

/// Background receiver: opens its window just before the paired
/// transmitter's tick, on the same scheduled channel.
#[derive(Debug)]
pub struct BackgroundRx {
    schedule: BackgroundSchedule,
    channel: u8,
    /// CRC-valid frames received so far.
    pub received: u64,
}

impl BackgroundRx {
    /// A receiver at the start of its schedule.
    pub fn new(schedule: BackgroundSchedule) -> Self {
        BackgroundRx {
            schedule,
            channel: schedule.start_channel,
            received: 0,
        }
    }
}

impl RadioListener for BackgroundRx {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // phase >= period > RX_LEAD, so the lead never underflows.
        ctx.set_timer_local(self.schedule.phase - RX_LEAD, TimerKey(1));
    }

    fn on_event(&mut self, ctx: &mut NodeCtx<'_>, event: RadioEvent) {
        match event {
            RadioEvent::Timer { .. } => {
                ctx.start_rx(
                    Channel::data_wrapped(self.channel),
                    AccessFilter::One(self.schedule.aa),
                    self.schedule.crc_init,
                );
                self.channel = (self.channel + self.schedule.hop) % 37;
                ctx.set_timer_local(self.schedule.period, TimerKey(1));
            }
            RadioEvent::FrameReceived(frame) if frame.crc_ok => {
                self.received += 1;
            }
            _ => {}
        }
    }
}
