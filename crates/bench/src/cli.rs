//! Shared command-line parsing for the experiment binaries.
//!
//! Every `exp*`/`ablation*` binary takes the same five arguments: an
//! optional positional trial count, `--seed <n>` to shift the seed base,
//! `--json <path>` to write the `SeriesReport` rows to an extra artefact
//! path (on top of the default `target/experiments/<name>.json`), and two
//! campaign controls. Every sweep point streams through the
//! [`crate::campaign`] engine; `--checkpoint-dir <path>` makes it keep a
//! JSONL resume sidecar per point in that directory (without it no sidecar
//! is read or written), and `--campaign-max-chunks <n>` stops each point
//! after merging `n` chunks — a simulated kill that a re-run with the same
//! `--checkpoint-dir` resumes (`cargo xtask gate` does exactly this). A
//! resumed run's rows are byte-identical to an uninterrupted one's.

use std::path::PathBuf;

/// Parsed experiment command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cli {
    /// Trials per sweep point.
    pub trials: u64,
    /// Seed-base override (`--seed`).
    pub seed: Option<u64>,
    /// Extra JSON artefact path (`--json`).
    pub json: Option<PathBuf>,
    /// Campaign checkpoint sidecar directory (`--checkpoint-dir`).
    pub checkpoint_dir: Option<PathBuf>,
    /// Stop each campaign point after merging this many chunks
    /// (`--campaign-max-chunks`).
    pub campaign_max_chunks: Option<u64>,
}

impl Cli {
    /// Parses `std::env::args()` with the binary's default trial count.
    pub fn parse(default_trials: u64) -> Cli {
        Self::from_args(std::env::args().skip(1), default_trials)
    }

    /// Parses an explicit argument list (first argument onwards). Unknown
    /// or malformed arguments are reported on stderr and skipped, keeping
    /// the historical "anything unparseable means the default" behaviour.
    pub fn from_args(args: impl IntoIterator<Item = String>, default_trials: u64) -> Cli {
        let mut cli = Cli {
            trials: default_trials,
            seed: None,
            json: None,
            checkpoint_dir: None,
            campaign_max_chunks: None,
        };
        let mut args = args.into_iter();
        let mut positional_taken = false;
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => cli.seed = Some(v),
                    None => eprintln!("warning: --seed expects an integer; ignored"),
                },
                "--json" => match args.next() {
                    Some(v) => cli.json = Some(PathBuf::from(v)),
                    None => eprintln!("warning: --json expects a path; ignored"),
                },
                "--checkpoint-dir" => match args.next() {
                    Some(v) => cli.checkpoint_dir = Some(PathBuf::from(v)),
                    None => eprintln!("warning: --checkpoint-dir expects a path; ignored"),
                },
                "--campaign-max-chunks" => match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) if v > 0 => cli.campaign_max_chunks = Some(v),
                    _ => eprintln!(
                        "warning: --campaign-max-chunks expects a positive integer; ignored"
                    ),
                },
                other if other.starts_with("--") => {
                    eprintln!("warning: unrecognised flag {other:?}; ignored");
                }
                other => {
                    if !positional_taken {
                        positional_taken = true;
                        match other.parse() {
                            Ok(v) => cli.trials = v,
                            Err(_) => {
                                eprintln!(
                                    "warning: expected a trial count, got {other:?}; \
                                     using default {default_trials}"
                                );
                            }
                        }
                    } else {
                        eprintln!("warning: unrecognised argument {other:?}; ignored");
                    }
                }
            }
        }
        cli
    }

    /// The seed base for the sweep: the `--seed` override, or the binary's
    /// historical default.
    pub fn seed_base(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Cli {
        Cli::from_args(args.iter().map(|s| s.to_string()), 25)
    }

    #[test]
    fn defaults_apply_with_no_args() {
        let cli = parse(&[]);
        assert_eq!(cli.trials, 25);
        assert_eq!(cli.seed, None);
        assert_eq!(cli.json, None);
    }

    #[test]
    fn positional_trial_count() {
        assert_eq!(parse(&["3"]).trials, 3);
    }

    #[test]
    fn malformed_count_keeps_default() {
        assert_eq!(parse(&["lots"]).trials, 25);
    }

    #[test]
    fn flags_parse_in_any_order() {
        let cli = parse(&["--json", "out.json", "7", "--seed", "99"]);
        assert_eq!(cli.trials, 7);
        assert_eq!(cli.seed, Some(99));
        assert_eq!(cli.json.as_deref(), Some(std::path::Path::new("out.json")));
        assert_eq!(cli.seed_base(1_000), 99);
        assert_eq!(parse(&[]).seed_base(1_000), 1_000);
    }

    #[test]
    fn missing_flag_values_are_ignored() {
        let cli = parse(&["--seed"]);
        assert_eq!(cli.seed, None);
        let cli = parse(&["--json"]);
        assert_eq!(cli.json, None);
    }

    #[test]
    fn campaign_flags_parse() {
        let cli = parse(&[]);
        assert_eq!(cli.checkpoint_dir, None);
        assert_eq!(cli.campaign_max_chunks, None);
        let cli = parse(&["--checkpoint-dir", "cp", "--campaign-max-chunks", "2", "9"]);
        assert_eq!(
            cli.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("cp"))
        );
        assert_eq!(cli.campaign_max_chunks, Some(2));
        assert_eq!(cli.trials, 9);
        // Zero is not a usable chunk budget.
        assert_eq!(
            parse(&["--campaign-max-chunks", "0"]).campaign_max_chunks,
            None
        );
    }

    #[test]
    fn unknown_flags_do_not_take_the_trial_count_slot() {
        let cli = parse(&["--no-such-flag", "7"]);
        assert_eq!(cli.trials, 7);
        assert_eq!(cli, parse(&["7"]));
    }
}
