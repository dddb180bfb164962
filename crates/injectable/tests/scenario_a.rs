//! Scenario A end-to-end: injecting ATT requests into a live connection to
//! trigger device features (paper §VI-A).

use ble_devices::{bulb_payloads, Lightbulb};
use ble_host::att::AttPdu;
use ble_scenario::{att_write_frame, Scenario, ScenarioBuilder};
use injectable::{AttemptOutcome, Mission, MissionState};
use simkit::Duration;

fn rig(seed: u64, hop_interval: u16) -> Scenario {
    ScenarioBuilder::attack_rig(seed)
        .hop_interval(hop_interval)
        .build()
}

#[test]
fn injected_write_turns_the_bulb_off() {
    let mut s = rig(1, 36);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    let control = s.victim_control_handle();
    assert!(!s.victim::<Lightbulb>().app.on);
    // Legitimate traffic first: the central turns the bulb on.
    s.central_mut().write(control, bulb_payloads::power_on());
    s.run_for(Duration::from_millis(500));
    assert!(s.victim::<Lightbulb>().app.on, "precondition: bulb on");

    // Attack: inject a Write Request turning it off.
    let att = AttPdu::WriteRequest {
        handle: control,
        value: bulb_payloads::power_off(),
    }
    .to_bytes();
    s.attacker_mut().arm(Mission::InjectAtt { att });
    s.run_for(Duration::from_secs(20));

    let bulb = s.victim::<Lightbulb>();
    let attacker = s.attacker();
    assert_eq!(
        attacker.mission_state(),
        MissionState::Complete,
        "attempts: {:?}",
        attacker.stats()
    );
    assert!(!bulb.app.on, "bulb turned off by the injection");
    assert!(attacker.stats().successes() >= 1);
    // The connection survived the injection: both sides still connected.
    assert!(s.central().ll.is_connected(), "master unaware");
    assert!(bulb.ll.is_connected(), "slave still in the connection");
    assert_eq!(bulb.disconnections, 0);
}

#[test]
fn injected_read_captures_the_device_name() {
    let mut s = rig(2, 36);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    let name_handle = s
        .victim::<Lightbulb>()
        .host
        .server()
        .handle_of(ble_host::Uuid::DEVICE_NAME)
        .expect("GAP device name");
    let att = AttPdu::ReadRequest {
        handle: name_handle,
    }
    .to_bytes();
    s.attacker_mut().arm(Mission::InjectAtt { att });
    s.run_for(Duration::from_secs(20));

    let attacker = s.attacker();
    assert_eq!(attacker.mission_state(), MissionState::Complete);
    // The Slave's response contained the ATT Read Response with the name —
    // the paper's confidentiality impact.
    let captured = attacker.captured();
    assert!(!captured.is_empty(), "no response captured");
    let found = captured
        .iter()
        .any(|payload| payload.windows(9).any(|w| w == b"SmartBulb"));
    assert!(found, "device name not found in {captured:?}");
}

#[test]
fn repeated_injections_all_land() {
    let mut s = rig(3, 75);
    let control = s.victim_control_handle();
    // Pace the campaign so the legitimate Master keeps seeing responses on
    // the non-attacked events and the connection stays healthy throughout.
    s.attacker_mut().set_inject_gap(2);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    s.attacker_mut().arm(Mission::InjectRaw {
        llid: ble_link::Llid::StartOrComplete,
        payload: att_write_frame(control, bulb_payloads::colour(1, 2, 3)),
        wanted_successes: 5,
    });
    s.run_for(Duration::from_secs(60));
    let attacker = s.attacker();
    assert_eq!(attacker.mission_state(), MissionState::Complete);
    assert_eq!(attacker.stats().successes(), 5);
    assert_eq!(s.victim::<Lightbulb>().app.rgb, (1, 2, 3));
    // Median attempts stays low, as in the paper.
    let attempts = &s.attacker().stats().attempts_per_success;
    let mut sorted = attempts.clone();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    assert!(
        median <= 10,
        "median attempts {median}, history {attempts:?}"
    );
}

#[test]
fn injection_attempts_eventually_succeed_even_with_failures() {
    // Attacker far away (8 m) vs central at 2 m: more collisions lost, but
    // the attack still lands (paper experiment 3's headline result).
    let mut s = ScenarioBuilder::attack_rig(4)
        .hop_interval(36)
        .attacker_distance(8.0)
        .central_distance(2.0)
        .build();
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    let att = AttPdu::WriteRequest {
        handle: s.victim_control_handle(),
        value: bulb_payloads::power_on(),
    }
    .to_bytes();
    s.attacker_mut().arm(Mission::InjectAtt { att });
    s.run_for(Duration::from_secs(120));
    let attacker = s.attacker();
    assert_eq!(
        attacker.mission_state(),
        MissionState::Complete,
        "stats {:?}",
        attacker.stats()
    );
    assert!(s.victim::<Lightbulb>().app.on);
    // From that far away at least some attempts typically fail first.
    let outcomes: Vec<AttemptOutcome> = s.attacker().stats().log.iter().map(|(_, o)| *o).collect();
    assert!(!outcomes.is_empty());
}
