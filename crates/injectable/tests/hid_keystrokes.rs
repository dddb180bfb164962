//! The paper's §IX future-work sketch, implemented: after hijacking the
//! Slave role, the attacker exposes a malicious HID-over-GATT keyboard
//! profile and injects keystrokes to the Master via notifications.

use ble_host::gatt::props;
use ble_host::{GattServer, HostEvent, HostStack, Uuid};
use ble_link::{AddressType, DeviceAddress};
use ble_scenario::ScenarioBuilder;
use injectable::{Mission, MissionState};
use simkit::{Duration, SimRng};

/// HID service and Report characteristic UUIDs.
const HID_SERVICE: Uuid = Uuid::Short(0x1812);
const HID_REPORT: Uuid = Uuid::Short(0x2A4D);

/// A boot-keyboard input report for a single key press (modifier, reserved,
/// six key slots).
fn key_report(keycode: u8) -> Vec<u8> {
    vec![0, 0, keycode, 0, 0, 0, 0, 0]
}

#[test]
fn hijacked_slave_injects_keystrokes_via_hid_profile() {
    let mut s = ScenarioBuilder::attack_rig(60).hop_interval(36).build();
    assert!(s.wait_synchronised(Duration::from_secs(10)));
    s.set_victim_auto_readvertise(false);
    s.central_mut().auto_reconnect = false;

    // The forged device: keyboard profile instead of the bulb's.
    let mut server = GattServer::new();
    server
        .service(Uuid::GAP_SERVICE)
        .characteristic(Uuid::DEVICE_NAME, props::READ, b"Keyboard".to_vec())
        .finish();
    let report_handle = server
        .service(HID_SERVICE)
        .characteristic(HID_REPORT, props::READ | props::NOTIFY, key_report(0))
        .finish();
    let host = Box::new(HostStack::new(
        DeviceAddress::new([0xAD; 6], AddressType::Random),
        server,
        SimRng::seed_from(1),
    ));
    s.attacker_mut().arm(Mission::HijackSlave { host });
    for _ in 0..300 {
        s.run_for(Duration::from_millis(200));
        if s.attacker().mission_state() == MissionState::TakenOver {
            break;
        }
    }
    assert_eq!(
        s.attacker().mission_state(),
        MissionState::TakenOver,
        "stats: {:?}",
        s.attacker().stats()
    );

    // Inject a keystroke sequence: press/release for three keys.
    // (HID usage ids: H=0x0B, I=0x0C, !=...; sequence just needs to arrive
    // in order.)
    let keys = [0x0B, 0x0C, 0x28]; // H, I, Enter
    for key in keys {
        s.attacker_mut()
            .takeover_host_mut()
            .unwrap()
            .notify(report_handle, &key_report(key));
        s.attacker_mut()
            .takeover_host_mut()
            .unwrap()
            .notify(report_handle, &key_report(0)); // release
        s.run_for(Duration::from_millis(500));
    }

    // The Master (host OS in the real attack) received the keystrokes in
    // order.
    let central = s.central();
    let reports: Vec<Vec<u8>> = central
        .event_log
        .iter()
        .filter_map(|e| match e {
            HostEvent::Notification { handle, value } if *handle == report_handle => {
                Some(value.to_vec())
            }
            _ => None,
        })
        .collect();
    let pressed: Vec<u8> = reports
        .iter()
        .filter(|r| r.len() == 8 && r[2] != 0)
        .map(|r| r[2])
        .collect();
    assert_eq!(
        pressed,
        vec![0x0B, 0x0C, 0x28],
        "keystrokes delivered in order"
    );
    // Interleaved releases arrived too.
    assert!(reports.len() >= 6, "{} reports", reports.len());
    assert!(
        central.ll.is_connected(),
        "master still connected to the 'keyboard'"
    );
}
