//! Detection experiment for the paper's §VIII monitoring countermeasure:
//! a passive Link-Layer IDS watching the victim connection.
//!
//! Measures, over many independent runs: false-positive rate on clean
//! traffic, and detection rate (+ alerts per attempt) under an InjectaBLE
//! campaign. Run `i` uses seed `base + i` (`--seed` sets the base, default
//! 11 000), with and without the attack.

use ble_devices::Lightbulb;
use ble_scenario::ScenarioBuilder;
use injectable::{DetectorConfig, InjectionDetector, Mission};
use simkit::Duration;

struct RunResult {
    events: u32,
    alerts: usize,
    attempts: u32,
}

fn run(seed: u64, attack: bool) -> RunResult {
    let mut sc = ScenarioBuilder::paper_rig(seed).build();
    let slave = sc.victim::<Lightbulb>().ll.address();
    let detector = InjectionDetector::new(DetectorConfig::default()).for_slave(slave);
    let id = sc.world.add_node(
        ble_phy::NodeConfig::new("ids", ble_phy::Position::new(1.0, 1.0)),
        detector,
    );
    sc.world.start(id);
    sc.wait_synchronised(Duration::from_secs(30));
    sc.run_for(Duration::from_secs(2));
    if attack {
        sc.attacker_mut().set_inject_gap(2);
        sc.attacker_mut().arm(Mission::InjectRaw {
            llid: ble_link::Llid::StartOrComplete,
            payload: bench::trial::canonical_write_payload(),
            wanted_successes: 5,
        });
    }
    sc.run_for(Duration::from_secs(30));
    let (events, alerts) = {
        let d = sc.world.node::<InjectionDetector>(id).expect("ids node");
        (d.events_observed(), d.alerts().len())
    };
    let attempts = sc.attacker().stats().attempts_total;
    RunResult {
        events,
        alerts,
        attempts,
    }
}

fn main() {
    let cli = bench::Cli::parse(15);
    let runs = cli.trials;
    let base = cli.seed_base(11_000);
    println!();
    println!("=== IDS detection (paper §VIII, countermeasure 3) ===");
    println!();
    for (label, attack) in [("clean traffic", false), ("under attack", true)] {
        let mut detected = 0u64;
        let mut total_alerts = 0usize;
        let mut total_events = 0u64;
        let mut total_attempts = 0u64;
        for i in 0..runs {
            let r = run(base + i, attack);
            detected += u64::from(r.alerts > 0);
            total_alerts += r.alerts;
            total_events += u64::from(r.events);
            total_attempts += u64::from(r.attempts);
        }
        println!(
            "{label:<14}: runs flagged {detected}/{runs}   alerts {total_alerts:>4}   events observed {total_events:>6}   injection attempts {total_attempts:>4}"
        );
    }
    println!();
    println!("Expected shape: 0 runs flagged on clean traffic (no false positives),");
    println!("every attacked run flagged, with multiple alerts per campaign.");
}
