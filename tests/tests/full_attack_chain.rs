//! Whole-system integration: the complete InjectaBLE kill chain in one
//! simulation, plus a crowded radio environment with bystander connections.

use ble_devices::{bulb_payloads, Central, Keyfob, Lightbulb};
use ble_host::att::AttPdu;
use ble_host::gatt::props;
use ble_host::{GattServer, HostStack, Uuid};
use ble_link::{AddressType, ConnectionParams, DeviceAddress, UpdateRequest};
use ble_phy::{Environment, NodeConfig, Position, World};
use injectable::{Attacker, AttackerConfig, Mission, MissionState};
use simkit::{DriftClock, Duration, SimRng};

fn clock(rng: &mut SimRng, bound: f64) -> DriftClock {
    DriftClock::realistic(bound, rng).with_jitter_us(1.0)
}

/// The full kill chain in one world: sniff, inject (scenario A), then
/// escalate to a master hijack (scenario C) on the *same* connection state
/// machinery, with a bystander connection running throughout.
#[test]
fn full_kill_chain_with_bystanders() {
    let mut rng = SimRng::seed_from(0x4B11);
    let mut sim = World::new(Environment::indoor_default(), rng.fork());

    // Victims.
    let bulb = Lightbulb::new(0xB1, rng.fork());
    let control = bulb.control_handle();
    let bulb_addr = bulb.ll.address();
    let params = ConnectionParams::typical(&mut rng, 36);
    let phone = Central::new(0xA0, bulb_addr, params, rng.fork());

    // A bystander pair on an unrelated connection (different AA/hops).
    let fob = Keyfob::new(0xF0, rng.fork());
    let fob_addr = fob.ll.address();
    let bystander_params = ConnectionParams::typical(&mut rng, 24);
    let bystander = Central::new(0xA9, fob_addr, bystander_params, rng.fork());

    // The attacker, targeting only the bulb.
    let attacker = Attacker::new(AttackerConfig {
        target_slave: Some(bulb_addr),
        ..AttackerConfig::default()
    });

    let b = sim.add_node(
        NodeConfig::new("bulb", Position::new(0.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
        bulb,
    );
    let p = sim.add_node(
        NodeConfig::new("phone", Position::new(2.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
        phone,
    );
    let f = sim.add_node(
        NodeConfig::new("fob", Position::new(4.0, 4.0)).with_clock(clock(&mut rng, 50.0)),
        fob,
    );
    let bp = sim.add_node(
        NodeConfig::new("bystander", Position::new(5.0, 4.0)).with_clock(clock(&mut rng, 50.0)),
        bystander,
    );
    let a = sim.add_node(
        NodeConfig::new("attacker", Position::new(0.0, 2.0)).with_clock(clock(&mut rng, 20.0)),
        attacker,
    );
    for id in [b, p, f, bp, a] {
        sim.start(id);
    }
    // Phase 0: everything connects; attacker locks onto the right target.
    // The sniffer needs to be on the right advertising channel when the
    // CONNECT_REQ flies; bounce the connection until it catches one, as the
    // paper's operators did between injection runs.
    let mut ticks = 0u32;
    for _ in 0..400 {
        sim.run_for(Duration::from_millis(100));
        let following = sim
            .node::<Attacker>(a)
            .unwrap()
            .connection()
            .map(|t| t.has_slave_seq())
            .unwrap_or(false);
        let ready = sim.node::<Central>(p).unwrap().ll.is_connected()
            && sim.node::<Central>(bp).unwrap().ll.is_connected()
            && following;
        if ready {
            break;
        }
        ticks += 1;
        if !following
            && sim.node::<Central>(p).unwrap().ll.is_connected()
            && ticks.is_multiple_of(30)
        {
            sim.node_mut::<Central>(p)
                .unwrap()
                .ll
                .request_disconnect(0x13);
        }
    }
    // Stop reconnect churn for the attack phases.
    sim.node_mut::<Central>(p).unwrap().auto_reconnect = false;
    sim.run_for(Duration::from_millis(500));
    {
        let att = sim.node::<Attacker>(a).unwrap();
        let conn = att.connection().expect("attacker synchronised");
        assert_eq!(
            conn.slave.octets, bulb_addr.octets,
            "targeted the bulb, not the fob"
        );
    }

    // Phase 1 (scenario A): inject a colour change.
    let att_pdu = AttPdu::WriteRequest {
        handle: control,
        value: bulb_payloads::colour(1, 2, 3),
    }
    .to_bytes();
    sim.node_mut::<Attacker>(a)
        .unwrap()
        .arm(Mission::InjectAtt { att: att_pdu });
    for _ in 0..150 {
        sim.run_for(Duration::from_millis(200));
        if sim.node::<Attacker>(a).unwrap().mission_state() == MissionState::Complete {
            break;
        }
    }
    assert_eq!(
        sim.node::<Attacker>(a).unwrap().mission_state(),
        MissionState::Complete
    );
    assert_eq!(
        sim.node::<Lightbulb>(b).unwrap().app.rgb,
        (1, 2, 3),
        "scenario A landed"
    );

    // Phase 2 (scenario C): escalate to a full master hijack.
    sim.node_mut::<Attacker>(a)
        .unwrap()
        .arm(Mission::HijackMaster {
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
                SimRng::seed_from(77),
            )),
            on_takeover_writes: vec![(control, bulb_payloads::power_on())],
            mitm: None,
        });
    for _ in 0..300 {
        sim.run_for(Duration::from_millis(200));
        if sim.node::<Attacker>(a).unwrap().mission_state() == MissionState::TakenOver {
            break;
        }
    }
    sim.run_for(Duration::from_secs(5));
    assert_eq!(
        sim.node::<Attacker>(a).unwrap().mission_state(),
        MissionState::TakenOver
    );
    assert!(
        sim.node::<Lightbulb>(b).unwrap().app.on,
        "attacker drives the bulb as master"
    );
    assert!(
        !sim.node::<Central>(p).unwrap().ll.is_connected(),
        "legit master starved out"
    );

    // Bystanders were never disturbed.
    assert!(
        sim.node::<Central>(bp).unwrap().ll.is_connected(),
        "bystander connection untouched"
    );
    assert_eq!(sim.node::<Keyfob>(f).unwrap().app.rings, 0);
    assert_eq!(sim.node::<Keyfob>(f).unwrap().disconnections, 0);
}

/// The attacker must ignore CONNECT_REQs for other slaves while scanning.
#[test]
fn targeted_sniffer_skips_unrelated_connections() {
    let mut rng = SimRng::seed_from(0x5EED);
    let mut sim = World::new(Environment::indoor_default(), rng.fork());

    let fob = Keyfob::new(0xF0, rng.fork());
    let fob_addr = fob.ll.address();
    let fob_params = ConnectionParams::typical(&mut rng, 24);
    let fob_central = Central::new(0xA9, fob_addr, fob_params, rng.fork());

    // Attacker targets a bulb that never appears.
    let ghost = DeviceAddress::new([0xDD; 6], AddressType::Public);
    let attacker = Attacker::new(AttackerConfig {
        target_slave: Some(ghost),
        ..AttackerConfig::default()
    });

    let f = sim.add_node(
        NodeConfig::new("fob", Position::new(0.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
        fob,
    );
    let c = sim.add_node(
        NodeConfig::new("central", Position::new(1.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
        fob_central,
    );
    let a = sim.add_node(
        NodeConfig::new("attacker", Position::new(0.0, 1.0)).with_clock(clock(&mut rng, 20.0)),
        attacker,
    );
    for id in [f, c, a] {
        sim.start(id);
    }

    sim.run_for(Duration::from_secs(5));
    assert!(
        sim.node::<Central>(c).unwrap().ll.is_connected(),
        "unrelated pair connects fine"
    );
    let attacker = sim.node::<Attacker>(a).unwrap();
    assert!(attacker.connection().is_none(), "sniffer stays unlocked");
    assert_eq!(attacker.stats().connections_followed, 0);
}

/// Determinism across the whole stack: same seed, same attack trace.
#[test]
fn entire_attack_is_reproducible_from_a_seed() {
    let run = |seed: u64| -> (Option<u32>, (u8, u8, u8)) {
        let mut rng = SimRng::seed_from(seed);
        let mut sim = World::new(Environment::indoor_default(), rng.fork());
        let bulb = Lightbulb::new(0xB1, rng.fork());
        let control = bulb.control_handle();
        let bulb_addr = bulb.ll.address();
        let params = ConnectionParams::typical(&mut rng, 36);
        let central = Central::new(0xA0, bulb_addr, params, rng.fork());
        let attacker = Attacker::new(AttackerConfig {
            target_slave: Some(bulb_addr),
            ..AttackerConfig::default()
        });
        let b = sim.add_node(
            NodeConfig::new("bulb", Position::new(0.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
            bulb,
        );
        let c = sim.add_node(
            NodeConfig::new("phone", Position::new(2.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
            central,
        );
        let a = sim.add_node(
            NodeConfig::new("attacker", Position::new(0.0, 2.0)).with_clock(clock(&mut rng, 20.0)),
            attacker,
        );
        let _ = c;
        for id in [b, c, a] {
            sim.start(id);
        }
        sim.run_for(Duration::from_secs(2));
        let att = AttPdu::WriteRequest {
            handle: control,
            value: bulb_payloads::colour(42, 43, 44),
        }
        .to_bytes();
        sim.node_mut::<Attacker>(a)
            .unwrap()
            .arm(Mission::InjectAtt { att });
        sim.run_for(Duration::from_secs(20));
        let attempts = sim
            .node::<Attacker>(a)
            .unwrap()
            .stats()
            .attempts_to_first_success();
        let rgb = sim.node::<Lightbulb>(b).unwrap().app.rgb;
        (attempts, rgb)
    };
    let a = run(31337);
    let b = run(31337);
    assert_eq!(a, b, "same seed must replay bit-for-bit");
    assert_eq!(a.1, (42, 43, 44));
}

/// A forged GATT profile can be anything — here the attacker impersonates
/// the bulb with an extended profile after a slave hijack, and the master
/// discovers the forged services.
#[test]
fn hijacked_slave_serves_arbitrary_forged_profile() {
    let mut rng = SimRng::seed_from(0xFACE);
    let mut sim = World::new(Environment::indoor_default(), rng.fork());
    let mut bulb = Lightbulb::new(0xB1, rng.fork());
    bulb.auto_readvertise = false;
    let bulb_addr = bulb.ll.address();
    let params = ConnectionParams::typical(&mut rng, 36);
    let mut phone = Central::new(0xA0, bulb_addr, params, rng.fork());
    phone.auto_reconnect = false;
    let attacker = Attacker::new(AttackerConfig {
        target_slave: Some(bulb_addr),
        ..AttackerConfig::default()
    });
    let b = sim.add_node(
        NodeConfig::new("bulb", Position::new(0.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
        bulb,
    );
    let p = sim.add_node(
        NodeConfig::new("phone", Position::new(2.0, 0.0)).with_clock(clock(&mut rng, 50.0)),
        phone,
    );
    let a = sim.add_node(
        NodeConfig::new("attacker", Position::new(0.0, 2.0)).with_clock(clock(&mut rng, 20.0)),
        attacker,
    );
    for id in [b, p, a] {
        sim.start(id);
    }
    for _ in 0..100 {
        sim.run_for(Duration::from_millis(100));
        if sim.node::<Central>(p).unwrap().ll.is_connected()
            && sim
                .node::<Attacker>(a)
                .unwrap()
                .connection()
                .map(|t| t.has_slave_seq())
                .unwrap_or(false)
        {
            break;
        }
    }
    sim.run_for(Duration::from_millis(400));

    // Forged profile: a fake HID-like service (the paper's future-work idea
    // of exposing a malicious keyboard profile after a slave hijack).
    let mut server = GattServer::new();
    server
        .service(Uuid::GAP_SERVICE)
        .characteristic(Uuid::DEVICE_NAME, props::READ, b"Hacked".to_vec())
        .finish();
    server
        .service(Uuid::short(0x1812)) // HID service
        .characteristic(Uuid::short(0x2A4D), props::READ | props::NOTIFY, vec![0, 0])
        .finish();
    let host = Box::new(HostStack::new(
        DeviceAddress::new([0xAD; 6], AddressType::Random),
        server,
        SimRng::seed_from(3),
    ));
    sim.node_mut::<Attacker>(a)
        .unwrap()
        .arm(Mission::HijackSlave { host });
    for _ in 0..300 {
        sim.run_for(Duration::from_millis(200));
        if sim.node::<Attacker>(a).unwrap().mission_state() == MissionState::TakenOver {
            break;
        }
    }
    assert_eq!(
        sim.node::<Attacker>(a).unwrap().mission_state(),
        MissionState::TakenOver
    );

    // The phone re-discovers services and finds the forged HID service.
    sim.node_mut::<Central>(p).unwrap().host.discover_services();
    sim.run_for(Duration::from_secs(2));
    let phone_ref = sim.node::<Central>(p).unwrap();
    let discovered = phone_ref
        .event_log
        .iter()
        .filter_map(|e| match e {
            ble_host::HostEvent::ServicesDiscovered { data, entry_len } => {
                Some((data.clone(), *entry_len))
            }
            _ => None,
        })
        .next_back()
        .expect("service discovery response");
    let (data, entry_len) = discovered;
    let mut uuids = Vec::new();
    for entry in data.chunks(entry_len as usize) {
        if entry.len() == entry_len as usize && entry_len == 6 {
            uuids.push(u16::from_le_bytes([entry[4], entry[5]]));
        }
    }
    assert!(
        uuids.contains(&0x1812),
        "forged HID service visible: {uuids:04X?}"
    );
}
