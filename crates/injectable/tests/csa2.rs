//! BLE 5 / CSA#2 extension: the paper notes its approach "can be easily
//! adapted" to Channel Selection Algorithm #2 (§III-B.3). Verify that the
//! whole pipeline — connection, sniffing, injection, hijack — works when
//! the connection hops with CSA#2.

use ble_devices::{bulb_payloads, Lightbulb};
use ble_host::att::AttPdu;
use ble_scenario::{Scenario, ScenarioBuilder};
use injectable::{Mission, MissionState};
use simkit::Duration;

fn csa2_rig(seed: u64) -> Scenario {
    let mut s = ScenarioBuilder::attack_rig(seed).hop_interval(36).build();
    s.central_mut().set_prefer_csa2(true);
    // Restart the connection so it is established with CSA#2.
    s.central_mut().ll.request_disconnect(0x13);
    s
}

#[test]
fn connection_and_traffic_work_over_csa2() {
    let mut s = csa2_rig(40);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    let control = s.victim_control_handle();
    {
        let central = s.central();
        let info = central.ll.connection_info().unwrap();
        assert!(info.csa2, "connection must be using CSA#2");
    }
    assert!(s.victim::<Lightbulb>().ll.connection_info().unwrap().csa2);
    s.central_mut().write(control, bulb_payloads::power_on());
    s.run_for(Duration::from_secs(1));
    assert!(
        s.victim::<Lightbulb>().app.on,
        "GATT write over a CSA#2 connection"
    );
    // Long-run stability: both sides keep hopping in sync.
    s.run_for(Duration::from_secs(5));
    assert!(s.central().ll.is_connected());
    assert!(s.victim_connected());
}

#[test]
fn sniffer_follows_csa2_connections() {
    let mut s = csa2_rig(41);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    s.run_for(Duration::from_secs(3));
    let attacker = s.attacker();
    let conn = attacker.connection().expect("following");
    assert!(conn.uses_csa2(), "tracker recognised the ChSel bit");
    assert!(conn.next_event_counter > 40, "followed many CSA#2 events");
    assert!(conn.has_slave_seq());
}

#[test]
fn injection_works_over_csa2() {
    let mut s = csa2_rig(42);
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    let att = AttPdu::WriteRequest {
        handle: s.victim_control_handle(),
        value: bulb_payloads::colour(9, 8, 7),
    }
    .to_bytes();
    s.attacker_mut().arm(Mission::InjectAtt { att });
    s.run_for(Duration::from_secs(20));
    let attacker = s.attacker();
    assert_eq!(
        attacker.mission_state(),
        MissionState::Complete,
        "stats: {:?}",
        attacker.stats()
    );
    assert_eq!(s.victim::<Lightbulb>().app.rgb, (9, 8, 7));
    assert!(s.central().ll.is_connected(), "victims unaware");
}

#[test]
fn master_hijack_works_over_csa2() {
    use ble_host::{GattServer, HostStack};
    use ble_link::{AddressType, DeviceAddress, UpdateRequest};
    let mut s = csa2_rig(43);
    s.central_mut().auto_reconnect = true;
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    s.central_mut().auto_reconnect = false;
    let control = s.victim_control_handle();
    s.attacker_mut().arm(Mission::HijackMaster {
        update: UpdateRequest {
            win_size: 2,
            win_offset: 3,
            interval: 60,
            latency: 0,
            timeout: 300,
        },
        instant_delta: 6,
        host: Box::new(HostStack::new(
            DeviceAddress::new([0xAD; 6], AddressType::Random),
            GattServer::new(),
            simkit::SimRng::seed_from(5),
        )),
        on_takeover_writes: vec![(control, bulb_payloads::power_on())],
        mitm: None,
    });
    s.run_for(Duration::from_secs(40));
    assert_eq!(
        s.attacker().mission_state(),
        MissionState::TakenOver,
        "stats: {:?}",
        s.attacker().stats()
    );
    s.run_for(Duration::from_secs(5));
    assert!(
        s.victim::<Lightbulb>().app.on,
        "hijacked master drives the CSA#2 slave"
    );
    let attacker = s.attacker();
    let info = attacker.takeover_ll().unwrap().connection_info().unwrap();
    assert!(info.csa2, "the hijacked connection still hops with CSA#2");
}
