//! Scenario B end-to-end: evicting the Slave with an injected
//! `LL_TERMINATE_IND` and impersonating it towards the Master (paper §VI-B).

use ble_devices::Lightbulb;
use ble_host::gatt::props;
use ble_host::{GattServer, HostEvent, HostStack, Uuid};
use ble_link::{AddressType, DeviceAddress, Role};
use ble_scenario::{Scenario, ScenarioBuilder};
use injectable::{Mission, MissionState};
use simkit::{Duration, SimRng};

/// The host stack the attacker serves after the takeover: the paper's
/// forged "Hacked" device name.
fn hacked_host() -> Box<HostStack> {
    let mut server = GattServer::new();
    server
        .service(Uuid::GAP_SERVICE)
        .characteristic(Uuid::DEVICE_NAME, props::READ, b"Hacked".to_vec())
        .finish();
    Box::new(HostStack::new(
        DeviceAddress::new([0xAD; 6], AddressType::Random),
        server,
        SimRng::seed_from(999),
    ))
}

/// The standard rig, synchronised, with both auto-recovery behaviours
/// then disabled: the bulb must not re-advertise instantly, or the real
/// central reconnects to it. They stay on during the set-up wait, which
/// may bounce the link.
fn rig(seed: u64, hop_interval: u16) -> Scenario {
    let mut s = ScenarioBuilder::attack_rig(seed)
        .hop_interval(hop_interval)
        .build();
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    s.set_victim_auto_readvertise(false);
    s.central_mut().auto_reconnect = false;
    s
}

#[test]
fn slave_hijack_evicts_bulb_and_serves_forged_name() {
    let mut s = rig(10, 36);

    s.attacker_mut().arm(Mission::HijackSlave {
        host: hacked_host(),
    });
    s.run_for(Duration::from_secs(30));

    {
        let attacker = s.attacker();
        assert_eq!(
            attacker.mission_state(),
            MissionState::TakenOver,
            "stats: {:?}",
            attacker.stats()
        );
        let ll = attacker.takeover_ll().expect("takeover LL");
        assert!(ll.is_connected(), "attacker-as-slave connected");
        assert_eq!(ll.connection_info().unwrap().role, Role::Slave);
    }
    // The real slave was evicted by the injected TERMINATE_IND...
    let bulb = s.victim::<Lightbulb>();
    assert!(!bulb.ll.is_connected(), "bulb evicted");
    assert_eq!(bulb.disconnections, 1);
    assert_eq!(
        bulb.last_disconnect_reason,
        Some(ble_link::ERR_REMOTE_USER_TERMINATED)
    );
    // ...while the master still believes the connection is healthy.
    assert!(s.central().ll.is_connected(), "master unaware");

    // The master reads the Device Name and gets the forged value.
    let name_handle = s
        .attacker()
        .takeover_host()
        .unwrap()
        .server()
        .handle_of(Uuid::DEVICE_NAME)
        .expect("forged GAP profile");
    s.central_mut().host.read(name_handle);
    s.run_for(Duration::from_secs(2));
    let central = s.central();
    let got: Vec<&HostEvent> = central
        .event_log
        .iter()
        .filter(|e| matches!(e, HostEvent::ReadResponse { .. }))
        .collect();
    assert!(
        got.iter()
            .any(|e| matches!(e, HostEvent::ReadResponse { value } if value == b"Hacked")),
        "master read {:?}",
        got
    );
}

#[test]
fn slave_hijack_keeps_master_connection_alive_long_term() {
    let mut s = rig(11, 24);
    s.attacker_mut().arm(Mission::HijackSlave {
        host: hacked_host(),
    });
    s.run_for(Duration::from_secs(30));
    assert_eq!(s.attacker().mission_state(), MissionState::TakenOver);
    // Run for several more seconds: the fake slave must keep answering the
    // master's connection events (no supervision timeout on either side).
    s.run_for(Duration::from_secs(10));
    assert!(s.central().ll.is_connected(), "master still alive");
    assert!(
        s.attacker().takeover_ll().unwrap().is_connected(),
        "fake slave still alive"
    );
    assert_eq!(s.central().disconnections, 0);
}
