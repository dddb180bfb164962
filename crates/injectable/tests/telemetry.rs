//! Telemetry integration: a scenario-A attack streams its typed events
//! into attached sinks in storyline order (sync → attempt → verdict), and
//! the metrics registry agrees with the attacker's own statistics.

use ble_devices::bulb_payloads;
use ble_host::att::AttPdu;
use ble_scenario::ScenarioBuilder;
use ble_telemetry::{Hist, RingBufferSink, TelemetryEvent, Verdict};
use injectable::{Mission, MissionState};
use simkit::Duration;

#[test]
fn scenario_a_emits_attempt_then_verdict_into_sinks() {
    let mut s = ScenarioBuilder::attack_rig(1).hop_interval(36).build();
    let ring = RingBufferSink::new(1 << 16);
    let records = ring.handle();
    s.world.add_telemetry_sink(Box::new(ring));
    let registry = s.world.enable_metrics();
    assert!(s.wait_synchronised(Duration::from_secs(10)));

    let att = AttPdu::WriteRequest {
        handle: s.victim_control_handle(),
        value: bulb_payloads::power_off(),
    }
    .to_bytes();
    s.attacker_mut().arm(Mission::InjectAtt { att });
    s.run_for(Duration::from_secs(20));
    assert_eq!(s.attacker().mission_state(), MissionState::Complete);

    let ring = records.lock();
    // The attack storyline appears in order: the sniffer synchronises, an
    // injection attempt fires, a heuristic verdict confirms a success.
    let sync = ring
        .position(|r| matches!(r.event, TelemetryEvent::SnifferSync { .. }))
        .expect("sniffer sync event");
    let attempt = ring
        .position(|r| matches!(r.event, TelemetryEvent::InjectionAttempt { .. }))
        .expect("injection attempt event");
    let success = ring
        .position(|r| {
            matches!(
                r.event,
                TelemetryEvent::HeuristicVerdict {
                    verdict: Verdict::Success,
                    ..
                }
            )
        })
        .expect("confirmed-success verdict event");
    assert!(
        sync < attempt,
        "sync ({sync}) must precede attempt ({attempt})"
    );
    assert!(
        attempt < success,
        "attempt ({attempt}) must precede verdict ({success})"
    );

    // Every attempt received exactly one verdict.
    let attempts = ring.count_events(|e| matches!(e, TelemetryEvent::InjectionAttempt { .. }));
    let verdicts = ring.count_events(|e| matches!(e, TelemetryEvent::HeuristicVerdict { .. }));
    assert!(attempts >= 1);
    assert_eq!(attempts, verdicts);

    // The world's metrics block classified the same stream consistently,
    // and agrees with the attacker's own statistics. (The block reaches the
    // registry when the world flushes.) The ring guard must be released first:
    // flushing closes still-open spans, which emits records into every
    // attached sink — including the ring whose mutex the guard holds.
    drop(ring);
    s.world.flush_telemetry();
    let reg = registry.lock();
    let stats_attempts = u64::from(s.attacker().stats().attempts_total);
    assert_eq!(reg.counter("attack.attempts"), stats_attempts);
    assert!(reg.counter("attack.success") >= 1);
    assert!(
        reg.counter("link.anchor") > 0,
        "link-layer anchors recorded"
    );
    assert!(reg.counter("phy.tx") > 0, "PHY transmissions recorded");
    let lead = reg.hist(Hist::LeadUs).expect("lead histogram");
    assert_eq!(lead.count(), stats_attempts);
    let anchor_err = reg
        .hist(Hist::AnchorErrorUs)
        .expect("anchor error histogram");
    assert!(anchor_err.count() > 0);
}

#[test]
fn ring_buffer_attaches_mid_run_and_keeps_newest() {
    let mut s = ScenarioBuilder::attack_rig(2).hop_interval(36).build();
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    // Attach late, with a tiny capacity: the sink must replay node labels
    // and then keep only the newest records.
    let ring = RingBufferSink::new(16);
    let records = ring.handle();
    s.world.add_telemetry_sink(Box::new(ring));
    s.run_for(Duration::from_secs(2));
    let ring = records.lock();
    assert_eq!(ring.len(), 16);
    assert!(
        ring.evicted() > 0,
        "connection traffic must overflow 16 slots"
    );
}
