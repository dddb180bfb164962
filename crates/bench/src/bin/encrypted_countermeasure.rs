//! The §VIII countermeasure experiment: what injection achieves against an
//! AES-CCM encrypted connection.
//!
//! Paper claims being checked:
//!   * enabling the native encryption prevents forged frames from being
//!     accepted (no feature triggered);
//!   * "the vulnerability itself remains, with at least an impact on
//!     availability" — the injected plaintext fails MIC validation and the
//!     Slave tears the connection down (DoS).
//!
//! Trial seeds are drawn from a stream seeded with `--seed` (default
//! `0xC0DE`). A seed whose encryption never comes up is reported as a
//! setup failure and counts as neither a triggered feature nor a DoS.

use ble_devices::{bulb_payloads, Lightbulb};
use ble_host::att::AttPdu;
use ble_scenario::ScenarioBuilder;
use injectable::Mission;
use simkit::{Duration, SimRng};

struct Outcome {
    feature_triggered: bool,
    dos_disconnect: bool,
    attempts: u32,
}

/// One trial, or `None` when pairing never brought encryption up.
fn run_one(seed: u64) -> Option<Outcome> {
    let mut sc = ScenarioBuilder::paper_rig(seed).build();
    sc.central_mut().pair_on_connect = true;
    // Wait for pairing + encryption.
    let mut encrypted = false;
    for _ in 0..200 {
        sc.run_for(Duration::from_millis(100));
        if sc.central().host.is_encrypted() && sc.victim::<Lightbulb>().host.is_encrypted() {
            encrypted = true;
            break;
        }
    }
    if !encrypted {
        return None;
    }
    sc.run_for(Duration::from_millis(500));

    let att = AttPdu::WriteRequest {
        handle: sc.victim_control_handle(),
        value: bulb_payloads::power_on(),
    }
    .to_bytes();
    sc.attacker_mut().arm(Mission::InjectAtt { att });
    let mut dos = false;
    for _ in 0..200 {
        sc.run_for(Duration::from_millis(200));
        if sc.victim::<Lightbulb>().last_disconnect_reason == Some(ble_link::ERR_MIC_FAILURE) {
            dos = true;
            break;
        }
    }
    let bulb = sc.victim::<Lightbulb>();
    Some(Outcome {
        feature_triggered: bulb.app.on || !bulb.app.command_log.is_empty(),
        dos_disconnect: dos,
        attempts: sc.attacker().stats().attempts_total,
    })
}

fn main() {
    let cli = bench::Cli::parse(10);
    let runs = cli.trials;
    println!();
    println!("=== Encryption countermeasure (paper §IV/§VIII) ===");
    println!("Injecting a plaintext ATT Write into an AES-CCM encrypted connection.");
    println!();
    println!(
        "{:>6} | {:>18} | {:>22} | {:>9}",
        "seed", "feature triggered", "DoS (MIC disconnect)", "attempts"
    );
    println!("{}", "-".repeat(68));
    let mut triggered = 0;
    let mut dos = 0;
    let mut setup_failures = 0;
    let mut rng = SimRng::seed_from(cli.seed_base(0xC0DE));
    for _ in 0..runs {
        let seed = 5_000 + rng.below(1_000_000);
        let Some(o) = run_one(seed) else {
            println!("{seed:>6} | setup failure: encryption never came up");
            setup_failures += 1;
            continue;
        };
        println!(
            "{:>6} | {:>18} | {:>22} | {:>9}",
            seed,
            if o.feature_triggered {
                "YES (bad!)"
            } else {
                "no"
            },
            if o.dos_disconnect { "yes" } else { "no" },
            o.attempts
        );
        triggered += u32::from(o.feature_triggered);
        dos += u32::from(o.dos_disconnect);
    }
    println!();
    println!("features triggered: {triggered}/{runs} (paper: 0 — encryption blocks the payload)");
    println!(
        "availability impact: {dos}/{runs} connections torn down by MIC failure (paper: DoS remains possible)"
    );
    if setup_failures > 0 {
        println!("setup failures: {setup_failures}/{runs} (encryption never came up)");
    }
    if triggered > 0 {
        std::process::exit(1);
    }
}
