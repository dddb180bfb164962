//! Reproduces the paper's §VI scenario table: all four attack scenarios
//! against the three victim devices, reporting success and attempt counts.
//!
//! Paper claims being checked:
//!   A — "injection attacks targeting three commercial devices" triggering
//!       lightbulb power/colour/brightness, keyfob ring, smartwatch SMS;
//!   B — Slave hijacking serving a forged "Hacked" device name, on all
//!       three devices;
//!   C — Master hijacking driving the same features as scenario A;
//!   D — MITM rewriting an SMS and RGB values on the fly.

use bench::trial::SYNC_BUDGET;
use ble_devices::{bulb_payloads, Keyfob, Lightbulb, Smartwatch};
use ble_host::att::AttPdu;
use ble_host::gatt::props;
use ble_host::{GattServer, HostEvent, HostStack, Uuid};
use ble_link::{AddressType, DeviceAddress, UpdateRequest};
use ble_phy::NodeConfig;
use ble_scenario::{DeviceKind, Scenario, ScenarioBuilder};
use injectable::{new_handoff, Mission, MissionState, MitmSlaveHalf, RewriteRule};
use simkit::{Duration, SimRng};

struct Row {
    scenario: &'static str,
    device: &'static str,
    action: &'static str,
    success: bool,
    attempts: Option<u32>,
}

fn print_table(rows: &[Row]) {
    println!();
    println!("=== Attack scenarios (paper §VI) ===");
    println!(
        "{:<10} | {:<10} | {:<34} | {:<7} | injection attempts",
        "scenario", "device", "action", "success"
    );
    println!("{}", "-".repeat(88));
    for r in rows {
        println!(
            "{:<10} | {:<10} | {:<34} | {:<7} | {}",
            r.scenario,
            r.device,
            r.action,
            if r.success { "yes" } else { "NO" },
            r.attempts
                .map(|a| a.to_string())
                .unwrap_or_else(|| "-".into())
        );
    }
    println!();
    let failures = rows.iter().filter(|r| !r.success).count();
    println!(
        "{} / {} scenario checks succeeded",
        rows.len() - failures,
        rows.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// Generic scene: one peripheral device + central + attacker at the paper's
/// 2 m triangle. Returns at the event where the attacker follows the
/// connection with the Slave's sequence bits; a scene that never gets there
/// shows up as a failed row.
fn scene(seed: u64, kind: DeviceKind) -> Scenario {
    let mut s = ScenarioBuilder::scene(seed).device(kind).build();
    s.wait_synchronised(SYNC_BUDGET);
    s
}

fn inject_att(s: &mut Scenario, att: Vec<u8>) -> Option<u32> {
    // Arming pre-forges the Link-Layer payload (L2CAP fragmentation
    // included) once; every retry below then encodes into an inline `Pdu`
    // without rebuilding the byte vectors per attempt.
    s.attacker_mut().arm(Mission::InjectAtt { att });
    for _ in 0..200 {
        s.run_for(Duration::from_millis(200));
        if s.attacker().mission_state() == MissionState::Complete {
            return s.attacker().stats().attempts_to_first_success();
        }
    }
    None
}

fn hacked_host(seed: u64) -> Box<HostStack> {
    let mut server = GattServer::new();
    server
        .service(Uuid::GAP_SERVICE)
        .characteristic(Uuid::DEVICE_NAME, props::READ, b"Hacked".to_vec())
        .finish();
    Box::new(HostStack::new(
        DeviceAddress::new([0xAD; 6], AddressType::Random),
        server,
        SimRng::seed_from(seed),
    ))
}

/// An ATT action to inject plus the device-state predicate proving it took
/// effect.
type BulbAction = (&'static str, Vec<u8>, Box<dyn Fn(&Lightbulb) -> bool>);

fn scenario_a(rows: &mut Vec<Row>) {
    // Lightbulb: off, colour, brightness.
    let bulb_actions: [BulbAction; 4] = [
        ("turn on", bulb_payloads::power_on(), Box::new(|b| b.app.on)),
        (
            "turn off",
            bulb_payloads::power_off(),
            Box::new(|b| !b.app.on),
        ),
        (
            "set colour to red",
            bulb_payloads::colour(255, 0, 0),
            Box::new(|b| b.app.rgb == (255, 0, 0)),
        ),
        (
            "set brightness to 10%",
            bulb_payloads::brightness(10),
            Box::new(|b| b.app.brightness == 10),
        ),
    ];
    for (i, (action, payload, check)) in bulb_actions.into_iter().enumerate() {
        let mut s = scene(100 + i as u64, DeviceKind::Lightbulb);
        let handle = s.victim_control_handle();
        let attempts = inject_att(
            &mut s,
            AttPdu::WriteRequest {
                handle,
                value: payload,
            }
            .to_bytes(),
        );
        rows.push(Row {
            scenario: "A",
            device: "lightbulb",
            action,
            success: attempts.is_some() && check(s.victim::<Lightbulb>()),
            attempts,
        });
    }
    // Keyfob: ring.
    let mut s = scene(110, DeviceKind::Keyfob);
    let handle = s.victim_control_handle();
    let attempts = inject_att(
        &mut s,
        AttPdu::WriteRequest {
            handle,
            value: vec![2],
        }
        .to_bytes(),
    );
    rows.push(Row {
        scenario: "A",
        device: "keyfob",
        action: "make it ring (high alert)",
        success: attempts.is_some() && s.victim::<Keyfob>().app.rings > 0,
        attempts,
    });
    // Smartwatch: forged SMS.
    let mut s = scene(111, DeviceKind::Smartwatch);
    let handle = s.victim_control_handle();
    let attempts = inject_att(
        &mut s,
        AttPdu::WriteRequest {
            handle,
            value: b"Forged SMS".to_vec(),
        }
        .to_bytes(),
    );
    rows.push(Row {
        scenario: "A",
        device: "smartwatch",
        action: "deliver a forged SMS",
        success: attempts.is_some()
            && s.victim::<Smartwatch>()
                .inbox_strings()
                .contains(&"Forged SMS".to_string()),
        attempts,
    });
}

fn scenario_b(rows: &mut Vec<Row>) {
    let outcomes = [
        ("lightbulb", run_b_peripheral(120, DeviceKind::Lightbulb)),
        ("keyfob", run_b_peripheral(121, DeviceKind::Keyfob)),
        ("smartwatch", run_b_peripheral(122, DeviceKind::Smartwatch)),
    ];
    for (device, (success, attempts)) in outcomes {
        rows.push(Row {
            scenario: "B",
            device,
            action: "evict slave, serve name 'Hacked'",
            success,
            attempts,
        });
    }
}

/// Runs scenario B against one peripheral type.
fn run_b_peripheral(seed: u64, kind: DeviceKind) -> (bool, Option<u32>) {
    let mut s = scene(seed, kind);
    s.set_victim_auto_readvertise(false);
    s.central_mut().auto_reconnect = false;
    s.attacker_mut().arm(Mission::HijackSlave {
        host: hacked_host(seed),
    });
    for _ in 0..300 {
        s.run_for(Duration::from_millis(200));
        if s.attacker().mission_state() == MissionState::TakenOver {
            break;
        }
    }
    if s.attacker().mission_state() != MissionState::TakenOver {
        return (false, None);
    }
    // The master reads the Device Name from the impostor.
    let name_handle = s
        .attacker()
        .takeover_host()
        .unwrap()
        .server()
        .handle_of(Uuid::DEVICE_NAME)
        .unwrap();
    s.central_mut().host.read(name_handle);
    s.run_for(Duration::from_secs(2));
    let got_hacked = s
        .central()
        .event_log
        .iter()
        .any(|e| matches!(e, HostEvent::ReadResponse { value } if value == b"Hacked"));
    let attempts = s.attacker().stats().attempts_per_success.last().copied();
    (
        got_hacked && !s.victim_connected() && s.central().ll.is_connected(),
        attempts,
    )
}

fn scenario_c(rows: &mut Vec<Row>) {
    let mut s = scene(140, DeviceKind::Lightbulb);
    s.central_mut().auto_reconnect = false;
    let handle = s.victim_control_handle();
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
            SimRng::seed_from(555),
        )),
        on_takeover_writes: vec![(handle, bulb_payloads::colour(9, 9, 9))],
        mitm: None,
    });
    for _ in 0..300 {
        s.run_for(Duration::from_millis(200));
        if s.attacker().mission_state() == MissionState::TakenOver {
            break;
        }
    }
    s.run_for(Duration::from_secs(5));
    let success = s.attacker().mission_state() == MissionState::TakenOver
        && s.victim::<Lightbulb>().app.rgb == (9, 9, 9)
        && !s.central().ll.is_connected()
        && s.victim_connected();
    rows.push(Row {
        scenario: "C",
        device: "lightbulb",
        action: "hijack master, drive colour",
        success,
        attempts: s.attacker().stats().attempts_per_success.first().copied(),
    });
}

fn scenario_d(rows: &mut Vec<Row>) {
    let mut s = scene(150, DeviceKind::Smartwatch);
    s.central_mut().auto_reconnect = false;
    let msg_handle = s.victim_control_handle();

    let handoff = new_handoff();
    let mirror = {
        let mut host = HostStack::new(
            DeviceAddress::new([0xEE; 6], AddressType::Random),
            GattServer::new(),
            SimRng::seed_from(7),
        );
        host.server_mut()
            .service(Uuid::GAP_SERVICE)
            .characteristic(Uuid::DEVICE_NAME, props::READ, b"SmartWatch".to_vec())
            .finish();
        host.server_mut()
            .service(ble_devices::WATCH_SERVICE_UUID)
            .characteristic(
                ble_devices::WATCH_MESSAGE_UUID,
                props::WRITE | props::WRITE_WITHOUT_RESPONSE,
                vec![],
            )
            .finish();
        host
    };
    let rewrite = RewriteRule {
        handle: Some(msg_handle),
        find: b"noon".to_vec(),
        replace: b"MIDNIGHT".to_vec(),
    };
    let half = MitmSlaveHalf::new(mirror, handoff.clone(), vec![rewrite]);
    let half_id = s
        .world
        .add_node(NodeConfig::new("mitm-half", s.attacker_pos), half);
    s.world.start(half_id);
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
            SimRng::seed_from(556),
        )),
        on_takeover_writes: vec![],
        mitm: Some(handoff.clone()),
    });
    for _ in 0..300 {
        s.run_for(Duration::from_millis(200));
        if s.attacker().mission_state() == MissionState::TakenOver {
            break;
        }
    }
    // Legit phone sends an SMS; the MITM rewrites it.
    s.central_mut().write(msg_handle, b"meet at noon".to_vec());
    s.run_for(Duration::from_secs(5));
    let inbox = s.victim::<Smartwatch>().inbox_strings();
    let success =
        inbox.contains(&"meet at MIDNIGHT".to_string()) && !handoff.lock().intercepted.is_empty();
    rows.push(Row {
        scenario: "D",
        device: "smartwatch",
        action: "MITM: rewrite SMS on the fly",
        success,
        attempts: s.attacker().stats().attempts_per_success.first().copied(),
    });
}

fn main() {
    let mut rows = Vec::new();
    scenario_a(&mut rows);
    scenario_b(&mut rows);
    scenario_c(&mut rows);
    scenario_d(&mut rows);
    print_table(&rows);
}
