//! `e2e`: the repository benchmark's command line. See `README.md`.

use std::process::{Command, ExitCode};

use e2e::catalogue::{workload, Workload, WORKLOADS};
use e2e::compare::{compare, load_declared, table, to_json};
use e2e::run::{run_e2e, Options, RUN_SECONDS};
use e2e::runner::{build_binaries, build_tracer};

const USAGE: &str = "usage:
  e2e run     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
  e2e compare <set-A> <set-B>";

struct Args {
    workloads: Vec<&'static Workload>,
    trace: bool,
    opts: Options,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().collect(),
        trace: false,
        opts: Options {
            seed: None,
            seconds: RUN_SECONDS,
            quick: false,
        },
    };
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            parsed.opts.quick = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workloads =
                    vec![workload(&value).ok_or(format!("unknown workload {value:?}"))?];
            }
            "--seed" => parsed.opts.seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0);
                parsed.opts.seconds = s.ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

fn measure(args: &Args) -> Result<(), String> {
    build_binaries()?;
    if !args.trace {
        for w in &args.workloads {
            run_e2e(w, &args.opts)?.print();
        }
        return Ok(());
    }
    let tracer = build_tracer()?;
    for w in &args.workloads {
        let mut cmd = Command::new(&tracer);
        cmd.args([
            "--workload",
            w.name,
            "--seconds",
            &args.opts.seconds.to_string(),
        ]);
        if let Some(seed) = args.opts.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if args.opts.quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("cannot run {}: {e}", tracer.display()))?;
        if !status.success() {
            return Err(format!("traced run of {} failed ({status})", w.name));
        }
    }
    Ok(())
}

fn compare_sets(a: &str, b: &str) -> Result<(), String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let rows = compare(&read(a)?, &read(b)?, &load_declared()?);
    if rows.is_empty() {
        return Err("the two sets share no (workload, end-to-end metric)".into());
    }
    print!("{}", table(&rows));
    println!("{}", to_json(&rows));
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let usage = |e: String| format!("{e}\n{USAGE}");
    let result = match args.next().as_deref() {
        Some("run") => parse(args).map_err(usage).and_then(|a| measure(&a)),
        Some("compare") => match (args.next(), args.next(), args.next()) {
            (Some(a), Some(b), None) => compare_sets(&a, &b),
            _ => Err(usage("compare takes two files".into())),
        },
        _ => Err(usage("no command".into())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2e: {e}");
            ExitCode::FAILURE
        }
    }
}
