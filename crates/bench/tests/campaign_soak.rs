//! RSS-flat soak for the streaming campaign runner.
//!
//! The old in-memory path buffered every `TrialOutcome` (~hundreds of
//! bytes each), so peak RSS grew linearly with campaign size and a
//! million-trial campaign was an allocation bomb. The streaming path folds
//! each outcome into the `SeriesAccumulator` as it arrives; per-trial
//! state is the 4-byte `raw` attempts entry the artefact format itself
//! publishes. This soak runs 10 000 trials, records the process
//! high-water mark (`VmHWM`), then runs 1 000 000 trials and requires the
//! high-water mark to move by less than a fixed budget — two orders of
//! magnitude more trials must not cost two orders of magnitude more
//! memory.
//!
//! Trials are a cheap deterministic synthetic (a splitmix64 scramble of
//! the per-trial seed), mirroring the unit-test runner: the soak measures
//! the *aggregation machinery*, not the simulator. Both campaign sizes are
//! cross-checked against independent folds of the same outcomes, so the
//! flat memory profile cannot come from dropping data.
//!
//! `VmHWM` is a process-lifetime high-water mark, so both runs live in
//! this one test, small first — and this file is its own integration-test
//! binary so no other test inflates the baseline.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code may panic freely

use bench::campaign::{run_campaign_with, CampaignConfig, SeriesAccumulator};
use bench::report::{peak_rss_kb, rows_to_json};
use bench::trial::trial_seed;
use bench::{SeriesReport, TimingBlock, TrialMetrics, TrialOutcome};

const SEED: u64 = 4_242;
const SMALL: u64 = 10_000;
const BIG: u64 = 1_000_000;
/// Allowed `VmHWM` growth between the 10k and 1M runs. The 1M run's own
/// bounded state (two 4 MB `raw` vectors plus the ~8 MB artefact strings
/// the cross-check renders) fits comfortably; the ~300 MB a buffered
/// `Vec<TrialOutcome>` would need does not.
const BUDGET_KB: u64 = 64 * 1024;

#[test]
fn a_trial_outcome_stays_small_by_value() {
    // Up to `chunk_size × workers × 32` outcomes wait for the fold, so
    // their by-value size is what the budget above prices. Histograms
    // carried inline once pushed this soak to 84.6 MB, and inlining today's
    // two fixed-layout histograms (a 440-byte outcome) moved its growth
    // from 33 to 51 MB. The timing block stays boxed, and the outcome may
    // not outgrow the 248 bytes it had with heap histograms.
    let size = std::mem::size_of::<TrialOutcome>();
    assert!(size <= 248, "TrialOutcome is {size} bytes by value");
}

/// Deterministic synthetic trial: a splitmix64 scramble of the per-trial
/// seed, shaped like a plausible outcome.
fn synth(seed: u64) -> TrialOutcome {
    let mut x = seed;
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let attempts = (!x.is_multiple_of(16)).then_some(u32::try_from(x % 50).unwrap_or(0) + 1);
    let mut timing = TimingBlock::default();
    timing.lead_time.record((x % 200) as f64);
    let metrics = TrialMetrics {
        timing: Box::new(timing),
        events_total: x % 1000,
        events_per_sec: (x % 1000) as f64 / 3.0,
        counters: Vec::new(),
    };
    TrialOutcome {
        attempts,
        sim_seconds: (x % 500) as f64 / 10.0,
        effect_observed: attempts.is_some(),
        metrics: Some(metrics),
        telemetry_downgraded: false,
    }
}

fn campaign(count: u64) -> SeriesReport {
    let run = run_campaign_with(SEED, count, "soak", 1.0, &CampaignConfig::default(), synth);
    assert!(run.finished);
    run.report
}

#[test]
fn million_trial_campaign_holds_rss_flat_and_drops_no_data() {
    std::env::set_var("BENCH_THREADS", "4");

    // 10k: the streamed row must equal a fold over buffered outcomes.
    let outcomes: Vec<TrialOutcome> = (0..SMALL).map(|i| synth(trial_seed(SEED, i))).collect();
    let in_memory = SeriesReport::from_outcomes("soak", 1.0, &outcomes);
    drop(outcomes);
    assert_eq!(
        rows_to_json(&[campaign(SMALL)]),
        rows_to_json(&[in_memory]),
        "10k campaign must match a fold over buffered outcomes byte-for-byte"
    );
    let rss_small = peak_rss_kb().expect("VmHWM in /proc/self/status");

    // 1M: the streamed row must equal a sequential one-at-a-time fold
    // (no buffered reference vector — it would dominate the RSS budget).
    let mut reference = SeriesAccumulator::new(BIG);
    for i in 0..BIG {
        reference.fold(&synth(trial_seed(SEED, i)));
    }
    assert_eq!(
        rows_to_json(&[campaign(BIG)]),
        rows_to_json(&[reference.report("soak", 1.0)]),
        "1M campaign must match a sequential fold byte-for-byte"
    );
    let rss_big = peak_rss_kb().expect("VmHWM in /proc/self/status");

    let growth = rss_big.saturating_sub(rss_small);
    eprintln!("peak RSS growth from 10k to 1M trials: {growth} kB");
    assert!(
        growth < BUDGET_KB,
        "peak RSS grew {growth} kB between the 10k and 1M campaigns \
         (budget {BUDGET_KB} kB): the runner is buffering per-trial state"
    );
}
