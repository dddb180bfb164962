//! Scenarios C and D end-to-end: hijacking the Master via a forged
//! `LL_CONNECTION_UPDATE_IND`, and the full Man-in-the-Middle
//! (paper §VI-C/D).

use ble_devices::{bulb_payloads, Lightbulb};
use ble_host::{GattServer, HostStack};
use ble_link::{AddressType, DeviceAddress, Role, UpdateRequest};
use ble_scenario::{Scenario, ScenarioBuilder};
use injectable::{new_handoff, Mission, MissionState, MitmSlaveHalf, RewriteRule};
use simkit::{Duration, SimRng};

/// The standard rig, synchronised, with the Central's reconnection then
/// disabled. It stays on during the set-up wait, which may bounce the link.
fn rig(seed: u64) -> Scenario {
    let mut s = ScenarioBuilder::attack_rig(seed).hop_interval(36).build();
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    s.central_mut().auto_reconnect = false;
    s
}

fn attacker_master_host(seed: u64) -> Box<HostStack> {
    Box::new(HostStack::new(
        DeviceAddress::new([0xAD; 6], AddressType::Random),
        GattServer::new(),
        SimRng::seed_from(seed),
    ))
}

fn forged_update() -> UpdateRequest {
    UpdateRequest {
        win_size: 2,
        win_offset: 3,
        interval: 60,
        latency: 0,
        timeout: 300,
    }
}

/// The slave half's GATT mirror of the bulb's attribute layout, so the
/// legitimate master's writes land on matching handles.
fn bulb_mirror() -> HostStack {
    use ble_host::gatt::props;
    use ble_host::Uuid;
    let mut host = HostStack::new(
        DeviceAddress::new([0xEE; 6], AddressType::Random),
        GattServer::new(),
        SimRng::seed_from(5),
    );
    host.server_mut()
        .service(Uuid::GAP_SERVICE)
        .characteristic(Uuid::DEVICE_NAME, props::READ, b"SmartBulb".to_vec())
        .finish();
    host.server_mut()
        .service(ble_devices::BULB_SERVICE_UUID)
        .characteristic(
            ble_devices::BULB_CONTROL_UUID,
            props::READ | props::WRITE | props::WRITE_WITHOUT_RESPONSE,
            vec![0],
        )
        .finish();
    host
}

/// Adds the MITM slave half to the world, co-located with the attacker.
fn add_slave_half(s: &mut Scenario, half: MitmSlaveHalf) -> ble_phy::NodeId {
    let id = s.world.add_node(
        ble_phy::NodeConfig::new("mitm-slave-half", s.attacker_pos).with_tx_power(8.0),
        half,
    );
    s.world.start(id);
    id
}

#[test]
fn master_hijack_steals_the_slave_and_drives_its_features() {
    let mut s = rig(20);
    assert!(!s.victim::<Lightbulb>().app.on);
    let control = s.victim_control_handle();

    s.attacker_mut().arm(Mission::HijackMaster {
        update: forged_update(),
        instant_delta: 6,
        host: attacker_master_host(1),
        on_takeover_writes: vec![(control, bulb_payloads::power_on())],
        mitm: None,
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
        assert!(
            ll.is_connected(),
            "attacker-as-master connected to the slave"
        );
        assert_eq!(ll.connection_info().unwrap().role, Role::Master);
        // The hijacked connection runs on the forged parameters.
        assert_eq!(ll.connection_info().unwrap().params.hop_interval, 60);
    }
    // The attacker drove the slave's feature, as in scenario A but from a
    // fully hijacked Master role.
    assert!(s.victim::<Lightbulb>().app.on, "attacker's write applied");
    // The slave never disconnected: the hijack is seamless on its side.
    assert_eq!(s.victim::<Lightbulb>().disconnections, 0);
    assert!(s.victim_connected());

    // The legitimate master, meanwhile, starves and hits its supervision
    // timeout ("it leaves the connection due to timeout", §VI-C).
    let central = s.central();
    assert!(!central.ll.is_connected(), "legitimate master timed out");
    assert_eq!(
        central.last_disconnect_reason,
        Some(ble_link::ERR_CONNECTION_TIMEOUT)
    );
}

#[test]
fn mitm_intercepts_and_rewrites_traffic_on_the_fly() {
    let mut s = rig(21);
    let control = s.victim_control_handle();

    // Scenario D: the slave half mirrors the bulb's GATT profile.
    let handoff = new_handoff();
    // Rewrite rule: red becomes green (the paper rewrote RGB values).
    let rewrite = RewriteRule {
        handle: Some(control),
        find: bulb_payloads::colour(255, 0, 0),
        replace: bulb_payloads::colour(0, 255, 0),
    };
    let half_id = add_slave_half(
        &mut s,
        MitmSlaveHalf::new(bulb_mirror(), handoff.clone(), vec![rewrite]),
    );

    s.attacker_mut().arm(Mission::HijackMaster {
        update: forged_update(),
        instant_delta: 6,
        host: attacker_master_host(2),
        on_takeover_writes: vec![],
        mitm: Some(handoff.clone()),
    });
    s.run_for(Duration::from_secs(30));
    assert_eq!(
        s.attacker().mission_state(),
        MissionState::TakenOver,
        "stats: {:?}",
        s.attacker().stats()
    );
    // Both halves are connected: full MITM established mid-connection.
    assert!(s.attacker().takeover_ll().unwrap().is_connected());
    assert!(
        s.world
            .node::<MitmSlaveHalf>(half_id)
            .expect("mitm half")
            .ll
            .is_connected(),
        "slave half holds the master"
    );
    assert!(s.central().ll.is_connected(), "legit master unaware");
    assert!(s.victim_connected(), "slave unaware");

    // The legitimate master sets the bulb red; the MITM rewrites to green.
    s.central_mut()
        .write(control, bulb_payloads::colour(255, 0, 0));
    s.run_for(Duration::from_secs(5));

    let bulb = s.victim::<Lightbulb>();
    assert_eq!(bulb.app.rgb, (0, 255, 0), "colour rewritten on the fly");
    let shared = handoff.lock();
    assert!(
        shared
            .intercepted
            .iter()
            .any(|(h, v)| *h == control && v == &bulb_payloads::colour(255, 0, 0)),
        "original write intercepted: {:?}",
        shared.intercepted
    );
}

#[test]
fn mitm_blackhole_denies_service() {
    // §VIII: "initiating a Man-in-the-Middle and not forwarding the
    // legitimate traffic to perform a denial of service".
    let mut s = rig(22);
    let control = s.victim_control_handle();
    let handoff = new_handoff();
    handoff.lock().forward = false;
    add_slave_half(
        &mut s,
        MitmSlaveHalf::new(bulb_mirror(), handoff.clone(), vec![]),
    );
    s.attacker_mut().arm(Mission::HijackMaster {
        update: forged_update(),
        instant_delta: 6,
        host: attacker_master_host(3),
        on_takeover_writes: vec![],
        mitm: Some(handoff.clone()),
    });
    s.run_for(Duration::from_secs(30));
    assert_eq!(s.attacker().mission_state(), MissionState::TakenOver);
    s.central_mut().write(control, bulb_payloads::power_on());
    s.run_for(Duration::from_secs(5));
    // Intercepted but never delivered.
    assert!(!handoff.lock().intercepted.is_empty());
    assert!(!s.victim::<Lightbulb>().app.on, "write blackholed");
}
