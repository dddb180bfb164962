//! The §VIII IDS countermeasure end-to-end: a passive monitor watching the
//! victim connection raises alerts when InjectaBLE attempts start, and
//! stays quiet on clean traffic.

use ble_devices::bulb_payloads;
use ble_host::att::AttPdu;
use ble_phy::NodeId;
use ble_scenario::{att_write_frame, Scenario, ScenarioBuilder};
use injectable::{DetectorConfig, InjectionDetector, Mission};
use simkit::Duration;

fn rig_with_detector(seed: u64) -> (Scenario, NodeId) {
    let mut s = ScenarioBuilder::attack_rig(seed).hop_interval(36).build();
    let detector = InjectionDetector::new(DetectorConfig::default()).for_slave(s.victim_addr);
    let id = s.world.add_node(
        ble_phy::NodeConfig::new("ids", ble_phy::Position::new(1.0, 1.0)),
        detector,
    );
    s.world.start(id);
    (s, id)
}

fn detector(s: &Scenario, id: NodeId) -> &InjectionDetector {
    s.world.node::<InjectionDetector>(id).expect("ids node")
}

#[test]
fn clean_traffic_raises_no_alerts() {
    let (mut s, id) = rig_with_detector(70);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    let control = s.victim_control_handle();
    // Plenty of legitimate traffic, including real writes.
    for i in 0..10u8 {
        s.central_mut()
            .write(control, bulb_payloads::brightness(i * 10));
        s.run_for(Duration::from_secs(1));
    }
    let d = detector(&s, id);
    assert!(d.is_monitoring(), "monitor followed the connection");
    assert!(
        d.events_observed() > 100,
        "observed {}",
        d.events_observed()
    );
    assert!(
        d.alerts().is_empty(),
        "false positives on clean traffic: {:?}",
        d.alerts()
    );
}

#[test]
fn injection_campaign_is_detected() {
    let (mut s, id) = rig_with_detector(71);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    s.run_for(Duration::from_secs(2)); // detector warm-up
    let control = s.victim_control_handle();

    let att = AttPdu::WriteRequest {
        handle: control,
        value: bulb_payloads::power_on(),
    }
    .to_bytes();
    // A sustained campaign (several successes) gives the IDS several
    // injected frames to witness.
    s.attacker_mut().set_inject_gap(2);
    s.attacker_mut().arm(Mission::InjectRaw {
        llid: ble_link::Llid::StartOrComplete,
        payload: att_write_frame(control, bulb_payloads::power_on()),
        wanted_successes: 5,
    });
    let _ = att;
    s.run_for(Duration::from_secs(30));

    let d = detector(&s, id);
    let attempts = s.attacker().stats().attempts_total;
    assert!(attempts >= 5, "attack ran ({attempts} attempts)");
    assert!(
        !d.alerts().is_empty(),
        "IDS must flag the campaign ({attempts} attempts, {} events observed)",
        d.events_observed()
    );
    // Most alerts should be the early-anchor signature — the injected frame
    // arriving a whole window-widening before the legitimate anchor.
    let early = d
        .alerts()
        .iter()
        .filter(|a| matches!(a, injectable::Alert::EarlyAnchor { .. }))
        .count();
    assert!(early > 0, "early-anchor alerts expected: {:?}", d.alerts());
}
