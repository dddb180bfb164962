//! End-to-end attack benchmarks: how much wall-clock the simulator needs
//! per simulated second of a victim connection, and per complete injection
//! trial — the numbers that size the Figure 9 sweeps.

use bench::telemetry::TelemetryMode;
use bench::trial::{run_trial, TrialConfig};
use ble_scenario::ScenarioBuilder;
use criterion::{criterion_group, criterion_main, Criterion};
use simkit::Duration;

fn bench_connection_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    group.sample_size(10);
    group.bench_function("one_second_of_connection", |b| {
        b.iter_batched(
            || {
                let mut sc = ScenarioBuilder::paper_rig(99).build();
                sc.wait_synchronised(Duration::from_secs(20));
                sc
            },
            |mut sc| {
                sc.run_for(Duration::from_secs(1));
                std::hint::black_box(sc.now())
            },
            criterion::BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_full_injection_trial(c: &mut Criterion) {
    let mut group = c.benchmark_group("attack");
    group.sample_size(10);
    group.bench_function("injection_trial_to_first_success", |b| {
        // Telemetry off: this benchmark prices the simulator itself and
        // doubles as the no-regression check for disabled telemetry.
        let cfg = TrialConfig {
            telemetry: TelemetryMode::Off,
            ..TrialConfig::default()
        };
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            std::hint::black_box(run_trial(ScenarioBuilder::paper_rig(7_000 + seed), &cfg))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_connection_simulation,
    bench_full_injection_trial
);
criterion_main!(benches);
