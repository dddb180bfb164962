//! Fault ablation: attacker cost under deterministic channel impairments.
//!
//! The paper's experiments run on a clean channel; a real 2.4 GHz band is
//! not clean. This sweep prices the injection attack against the two
//! dominant impairments a deployment would see — WiFi-coexistence style
//! interference bursts across the data channels, and flat per-frame
//! loss/corruption — using the medium's deterministic [`FaultPlan`] layer,
//! so every point is exactly reproducible from its seed.
//!
//! Two series share one artefact:
//!
//! * `burst_duty` — every data channel is jammed for the given fraction of
//!   each 100 ms period (advertising channels stay clean, so the attacker
//!   can still synchronise and the sweep isolates the attack phase);
//! * `loss_prob` — every data-channel frame is lost with the given
//!   probability (and the survivors corrupted with half of it), degrading
//!   both the legitimate connection and the attacker's anchor tracking.
//!
//! The zero row of each series runs with **no plan installed** and is the
//! control: it must match an unimpaired run of the same seeds exactly.
//! Trials use a tightened resynchronisation policy so hopeless runs are
//! abandoned by the attacker's bounded retry loop instead of idling out
//! the whole simulation budget.

use bench::{print_series, run_point, run_trial, Cli, SeriesReport, TrialConfig};
use ble_scenario::ScenarioBuilder;
use injectable::ResyncPolicy;
use simkit::{Duration, FaultPlan, FrameLossRule, Instant, InterferenceBurst};

/// Impairments cover the sync phase (≤ 30 s) plus the attack budget.
const FAULT_SPAN_US: u64 = 95_000_000;

/// A resync policy that gives up after ≈45 s of fruitless scanning instead
/// of the default's "outlast any healthy run" dormancy.
fn tight_resync() -> ResyncPolicy {
    ResyncPolicy {
        campaign_hops: 900,
        backoff_base: Duration::from_millis(250),
        backoff_cap: Duration::from_secs(2),
        max_retries: 4,
    }
}

/// Jams all 37 data channels for `duty` of every 100 ms period, at a power
/// comparable to the legitimate signal at the paper's 2 m geometry.
fn burst_plan(duty: f64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(0xB0057);
    for channel in 0..37u8 {
        plan = plan.with_burst(InterferenceBurst::duty_cycle(
            channel,
            Instant::ZERO,
            Duration::from_micros(FAULT_SPAN_US),
            Duration::from_millis(100),
            duty,
            -42.0,
        ));
    }
    plan
}

/// Loses every data-channel frame with probability `p` (and corrupts the
/// survivors with `p/2`). Advertising stays clean for the same reason the
/// bursts leave it alone: a lost `CONNECT_REQ` fails the *sync* phase,
/// which would swamp the attack-phase signal this sweep is after.
fn loss_plan(p: f64) -> FaultPlan {
    let mut plan = FaultPlan::seeded(0x1055);
    for channel in 0..37u8 {
        plan = plan.with_loss(FrameLossRule {
            from: Instant::ZERO,
            until: Instant::from_micros(FAULT_SPAN_US),
            channel: Some(channel),
            loss_prob: p,
            corrupt_prob: p * 0.5,
        });
    }
    plan
}

fn sweep(
    cli: &Cli,
    parameter: &str,
    levels: &[f64],
    seed_base: u64,
    plan_for: impl Fn(f64) -> FaultPlan,
) -> Vec<SeriesReport> {
    let cfg = TrialConfig {
        sim_budget: Duration::from_secs(60),
        ..TrialConfig::default()
    };
    let mut rows = Vec::new();
    for (i, &level) in levels.iter().enumerate() {
        let plan = (level > 0.0).then(|| plan_for(level));
        let rig = |seed| {
            let rig = ScenarioBuilder::paper_rig(seed).attacker_resync(tight_resync());
            match &plan {
                Some(plan) => rig.faults(plan.clone()),
                None => rig,
            }
        };
        rows.push(run_point(
            cli,
            "ablation_faults",
            parameter,
            level,
            seed_base + i as u64,
            |seed| run_trial(rig(seed), &cfg),
        ));
        eprintln!("{parameter} {level}: done");
    }
    rows
}

fn main() {
    let cli = Cli::parse(25);
    let base = cli.seed_base(11_000);
    let burst_rows = sweep(
        &cli,
        "burst_duty",
        &[0.0, 0.2, 0.4, 0.6, 0.8],
        base,
        burst_plan,
    );
    let loss_rows = sweep(
        &cli,
        "loss_prob",
        &[0.0, 0.2, 0.35, 0.5, 0.6],
        base + 100,
        loss_plan,
    );
    print_series(
        "ablation_faults_bursts",
        "Fault ablation — data-channel interference bursts",
        &burst_rows,
    );
    print_series(
        "ablation_faults_loss",
        "Fault ablation — flat frame loss/corruption",
        &loss_rows,
    );
    println!("Reading: the zero rows are the unimpaired controls; rising burst");
    println!("duty or loss probability costs the attacker more attempts and, at");
    println!("the top of the loss sweep, the success rate itself. Attempt means");
    println!("are computed over successful trials only, and every trial of a");
    println!("loss row replays the plan's one loss and corruption sequence, so");
    println!("a loss row's attempt columns move as one draw, not as independent");
    println!("ones, and need not rise monotonically with loss.");
    if let Some(path) = cli.json.as_deref() {
        let mut combined = burst_rows;
        combined.extend(loss_rows);
        match bench::report::write_json_to(path, &combined) {
            Ok(()) => println!("[artefact] {}", path.display()),
            Err(err) => eprintln!(
                "warning: could not write JSON artefact to {}: {err}",
                path.display()
            ),
        }
    }
}
