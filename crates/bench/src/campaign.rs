//! The campaign engine: every sweep point's trials stream through here.
//!
//! [`run_point`] is how an experiment binary runs one sweep point. It
//! shards the point's trials into chunks, fans the chunks out over worker
//! threads, and folds each outcome into a [`SeriesAccumulator`] **in seed
//! order** the moment its chunk is merged — no `Vec<TrialOutcome>` ever
//! exists, so memory stays flat however many trials a point asks for.
//!
//! Determinism: workers may finish chunks in any order, but the merger
//! folds them strictly in ascending chunk order, and the accumulator folds
//! trials within a chunk in seed order.
//! Every floating-point sum is therefore evaluated in the same order
//! whatever the thread count, so the report is byte-identical at a fixed
//! seed regardless of `BENCH_THREADS`. The chunk size is a function of the
//! trial count alone ([`chunk_size_for`]), never of the thread count.
//!
//! Checkpointing is opt-in: with [`CampaignConfig::checkpoint`] set (the
//! binaries' `--checkpoint-dir`), the accumulator plus the next-chunk
//! cursor are appended to a JSONL sidecar every
//! [`CampaignConfig::checkpoint_every_chunks`] merged chunks (and once more
//! when the run stops). A killed campaign resumes from the last complete
//! line without re-running the chunks it covers; `f64` state is stored as
//! IEEE-754 bit patterns so the resumed fold is bit-exact. A sidecar whose
//! header (seed, trial count, chunk size, parameter) does not match the
//! requested campaign is discarded with a warning, never silently merged.
//! Without a checkpoint no sidecar is read or written, and every trial is
//! recomputed.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, PoisonError};

use ble_telemetry::HistogramUs;
use json_reader::Value;

use crate::cli::Cli;
use crate::report::SeriesReport;
use crate::stats::Summary;
use crate::telemetry::TimingBlock;
use crate::trial::{trial_seed, with_span_weight, TrialOutcome};

/// Chunks each worker may run ahead of the fold in the multi-threaded
/// engine: the bound on finished chunks waiting to be folded. Wide, so a
/// slow trial at the head of the fold does not stall the other workers
/// (exp5's trials differ in cost by two orders of magnitude).
const WINDOW_CHUNKS_PER_WORKER: u64 = 32;

/// Default merged-chunk cadence between checkpoint lines.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 16;

/// Trials per chunk for a point of `count` trials: about 64 chunks, at
/// least 1 and at most 256 trials each. Small points keep one trial per
/// chunk, so slow trials still balance over the workers; large points
/// amortise the channel and reorder overhead and re-run little on resume.
/// A pure function of the count, so a sidecar resumes at any
/// `BENCH_THREADS`.
pub fn chunk_size_for(count: u64) -> u64 {
    count.div_ceil(64).clamp(1, 256)
}

/// Worker-thread count for a fan-out over `max` parallelisable units:
/// `BENCH_THREADS` when set (`cargo xtask gate` pins 1 vs. 4), else
/// the machine's available parallelism, clamped to `[1, max]`.
pub fn bench_threads(max: u64) -> usize {
    let n = std::env::var("BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
    n.min(usize::try_from(max).unwrap_or(usize::MAX)).max(1)
}

// ---------------------------------------------------------------------
// Streaming accumulator
// ---------------------------------------------------------------------

/// Incremental fold of [`TrialOutcome`]s into the state a
/// [`SeriesReport`] row needs — the streaming replacement for holding a
/// `Vec<TrialOutcome>`.
///
/// Fold order matters: `f64` addition is not associative, so byte-identity
/// across thread counts requires folding trials in seed order. The
/// campaign engine guarantees that; [`SeriesReport::from_outcomes`] is
/// itself a sequential fold through this type.
///
/// Memory: everything here is O(1) per trial except `raw`, which keeps one
/// `u32` per *successful* trial because the artefact format publishes the
/// raw attempt counts in seed order. Four bytes per trial is the floor the
/// format imposes — a `TrialOutcome` and its boxed timing block, about
/// 730 bytes, is what streaming eliminates.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesAccumulator {
    requested: u64,
    completed: u64,
    panicked: u64,
    raw: Vec<u32>,
    unconfirmed_effects: u64,
    telemetry_downgrades: u64,
    timing: TimingBlock,
    events_sum: f64,
    events_n: u64,
    counters: Vec<(String, u64)>,
}

impl SeriesAccumulator {
    /// An empty accumulator for a series of `requested` trials. Report
    /// denominators come from this number, not from how many outcomes
    /// happened to be folded, so panicked trials can never shrink them.
    pub fn new(requested: u64) -> Self {
        SeriesAccumulator {
            requested,
            completed: 0,
            panicked: 0,
            raw: Vec::new(),
            unconfirmed_effects: 0,
            telemetry_downgrades: 0,
            timing: TimingBlock::default(),
            events_sum: 0.0,
            events_n: 0,
            counters: Vec::new(),
        }
    }

    /// Folds one completed trial. Call in seed order.
    pub fn fold(&mut self, o: &TrialOutcome) {
        self.completed = self.completed.saturating_add(1);
        if let Some(a) = o.attempts {
            self.raw.push(a);
        }
        if let Some(m) = o.metrics.as_ref() {
            self.timing.merge(&m.timing);
            if m.events_per_sec > 0.0 {
                self.events_sum += m.events_per_sec;
                self.events_n = self.events_n.saturating_add(1);
            }
            for &(name, n) in &m.counters {
                match self.counters.iter_mut().find(|(have, _)| have == name) {
                    Some((_, sum)) => *sum = sum.saturating_add(n),
                    None => self.counters.push((name.to_string(), n)),
                }
            }
        }
        if o.unconfirmed_effect() {
            self.unconfirmed_effects = self.unconfirmed_effects.saturating_add(1);
        }
        if o.telemetry_downgraded {
            self.telemetry_downgrades = self.telemetry_downgrades.saturating_add(1);
        }
    }

    /// Folds one panicked trial: first-class data, not a silent gap. The
    /// trial counts against the requested denominator and nowhere else.
    pub fn fold_panicked(&mut self) {
        self.panicked = self.panicked.saturating_add(1);
    }

    /// Trials requested for the series.
    pub fn requested(&self) -> u64 {
        self.requested
    }

    /// Trials folded so far (panicked ones excluded).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Panicked trials folded so far.
    pub fn panicked(&self) -> u64 {
        self.panicked
    }

    /// Builds the report row for the folded state.
    pub fn report(&self, parameter: &str, value: f64) -> SeriesReport {
        let attempts = if self.raw.is_empty() {
            Summary::empty()
        } else {
            Summary::of(&self.raw)
        };
        let summary = |h: &HistogramUs| (!h.is_empty()).then(|| h.summary());
        SeriesReport {
            parameter: parameter.to_string(),
            value,
            succeeded: self.raw.len() as u64,
            trials: self.requested,
            attempts,
            raw: self.raw.clone(),
            anchor_error_us: summary(&self.timing.anchor_error),
            lead_time_us: summary(&self.timing.lead_time),
            events_per_sec: (self.events_n > 0).then(|| self.events_sum / self.events_n as f64),
            trials_per_sec: 0.0,
            peak_rss_kb: None,
            unconfirmed_effects: self.unconfirmed_effects,
            telemetry_downgrades: self.telemetry_downgrades,
            panicked_trials: self.panicked,
            phase_profile: self.timing.phase_profile(),
            counters: self.counters.clone(),
            extras: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// Chunked engine
// ---------------------------------------------------------------------

/// One chunk's outcomes in trial order; `None` marks a panicked trial.
pub type ChunkOutcomes = Vec<Option<TrialOutcome>>;

/// Shards trials `[start_chunk * chunk_size, count)` into chunks, runs
/// trial `i` as `runner(trial_seed(seed_base, i))` on worker threads, and
/// hands each chunk to `on_chunk` **strictly in ascending chunk order**.
/// Stops after merging `max_chunks` chunks when set (the kill-and-resume
/// hook). Returns the number of chunks merged.
///
/// A chunk's first trial runs with the chunk's length as its span weight
/// and the others with 0, so [`crate::run_trial`] times one trial per
/// chunk. A panicking trial is caught, reported on stderr with its seed,
/// and handed on as `None`. All cursors are `u64`: a campaign larger than the
/// platform's `usize` never truncates. Workers claim chunks in order but
/// never more than [`WINDOW_CHUNKS_PER_WORKER`] per worker ahead of the
/// fold, and the caller folds each chunk as soon as its predecessors are
/// folded, so live outcomes stay at `O(chunk_size × workers)` regardless
/// of `count`. A single-worker run executes chunks inline on the caller's
/// thread; the fold order is identical either way.
pub(crate) fn run_chunked<F, G>(
    seed_base: u64,
    count: u64,
    chunk_size: u64,
    start_chunk: u64,
    max_chunks: Option<u64>,
    runner: &F,
    mut on_chunk: G,
) -> u64
where
    F: Fn(u64) -> TrialOutcome + Sync,
    G: FnMut(u64, ChunkOutcomes),
{
    assert!(chunk_size > 0, "chunk_size must be positive");
    let n_chunks = count.div_ceil(chunk_size);
    let target = n_chunks
        .saturating_sub(start_chunk)
        .min(max_chunks.unwrap_or(u64::MAX));
    if target == 0 {
        return 0;
    }
    // No chunk at or past `stop_chunk` is ever claimed, so an early stop
    // wastes no work.
    let stop_chunk = start_chunk + target;
    let run_one = |c: u64| -> ChunkOutcomes {
        let lo = c.saturating_mul(chunk_size);
        let hi = lo.saturating_add(chunk_size).min(count);
        let mut buf: ChunkOutcomes = Vec::with_capacity(usize::try_from(hi - lo).unwrap_or(0));
        for i in lo..hi {
            let seed = trial_seed(seed_base, i);
            // Only a chunk's first trial reads the span clock; it stands
            // for the whole chunk in the row's wall columns.
            let weight = if i == lo { hi - lo } else { 0 };
            let ran = with_span_weight(weight, || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| runner(seed)))
            });
            match ran {
                Ok(outcome) => buf.push(Some(outcome)),
                Err(_) => {
                    eprintln!(
                        "[bench] trial {i} (seed {seed}) panicked; \
                         counted as panicked in the series"
                    );
                    buf.push(None);
                }
            }
        }
        buf
    };
    let threads = bench_threads(target);
    let mut merged = 0u64;
    if threads == 1 {
        // Single worker: run chunks inline on the caller's thread. More
        // than a simplification — with a spawned worker the merger
        // allocates concurrently with the sim, which pushes glibc onto
        // extra malloc arenas and inflates peak RSS at every call.
        for c in start_chunk..stop_chunk {
            on_chunk(c, run_one(c));
            merged += 1;
        }
        return merged;
    }
    let window = threads as u64 * WINDOW_CHUNKS_PER_WORKER;
    let pipe = Mutex::new(Pipeline {
        next: start_chunk,
        folded: start_chunk,
        failed: false,
        ready: (0..window).map(|_| None).collect(),
    });
    let changed = Condvar::new();
    let lock = || pipe.lock().unwrap_or_else(PoisonError::into_inner);
    let wait = |p| changed.wait(p).unwrap_or_else(PoisonError::into_inner);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let _abort = AbortOnUnwind(&pipe, &changed);
                loop {
                    let c = {
                        let mut p = lock();
                        while !p.failed && p.next < stop_chunk && p.next >= p.folded + window {
                            p = wait(p);
                        }
                        if p.failed || p.next >= stop_chunk {
                            return;
                        }
                        p.next += 1;
                        p.next - 1
                    };
                    let buf = run_one(c);
                    lock().ready[(c % window) as usize] = Some(buf);
                    changed.notify_all();
                }
            });
        }
        let _abort = AbortOnUnwind(&pipe, &changed);
        for c in start_chunk..stop_chunk {
            let buf = {
                let mut p = lock();
                loop {
                    if let Some(buf) = p.ready[(c % window) as usize].take() {
                        p.folded = c + 1;
                        break buf;
                    }
                    if p.failed {
                        // A worker unwound; the scope re-raises its panic.
                        return;
                    }
                    p = wait(p);
                }
            };
            changed.notify_all();
            on_chunk(c, buf);
            merged += 1;
        }
    });
    merged
}

/// State the multi-threaded engine's workers and fold share.
struct Pipeline {
    /// The next chunk a worker may claim.
    next: u64,
    /// Every chunk below this one has been folded.
    folded: u64,
    /// Set when a thread unwinds, so no peer waits for it forever.
    failed: bool,
    /// Finished chunks waiting for the fold: chunk `c` in slot
    /// `c % window`. A worker claims `c` only once `c - window` is folded,
    /// so its slot is free.
    ready: Vec<Option<ChunkOutcomes>>,
}

/// Marks the pipeline failed and wakes every waiter if its thread unwinds.
struct AbortOnUnwind<'a>(&'a Mutex<Pipeline>, &'a Condvar);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().unwrap_or_else(PoisonError::into_inner).failed = true;
            self.1.notify_all();
        }
    }
}

// ---------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------

/// Checkpoint and stopping knobs for one campaign series.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// JSONL sidecar for checkpoint/resume; `None` (the default) neither
    /// reads nor writes one.
    pub checkpoint: Option<PathBuf>,
    /// Merged chunks between checkpoint lines (a final line is always
    /// written when the run stops, so resume-after-kill only loses work
    /// since the last cadence line).
    pub checkpoint_every_chunks: u64,
    /// Stop after merging this many chunks this invocation — simulates a
    /// mid-campaign kill for resume tests and the gate's kill/resume legs.
    pub max_chunks: Option<u64>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            checkpoint: None,
            checkpoint_every_chunks: DEFAULT_CHECKPOINT_EVERY,
            max_chunks: None,
        }
    }
}

/// Result of one [`run_campaign_with`] invocation.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// The series row for everything folded so far (all requested trials
    /// when `finished`, a prefix otherwise).
    pub report: SeriesReport,
    /// Whether every chunk of the campaign has been merged.
    pub finished: bool,
    /// The chunk cursor a checkpoint resumed from, when one was used.
    pub resumed_at_chunk: Option<u64>,
}

/// Runs a campaign of `count` trials, trial `i` as
/// `runner(trial_seed(seed_base, i))`, streaming outcomes into a
/// [`SeriesAccumulator`] in chunks of [`chunk_size_for`]`(count)`, with
/// checkpoint/resume when `cfg.checkpoint` is set.
pub fn run_campaign_with<F>(
    seed_base: u64,
    count: u64,
    parameter: &str,
    value: f64,
    cfg: &CampaignConfig,
    runner: F,
) -> CampaignRun
where
    F: Fn(u64) -> TrialOutcome + Sync,
{
    let chunk_size = chunk_size_for(count);
    let n_chunks = count.div_ceil(chunk_size);
    let header = CampaignHeader {
        seed: seed_base,
        count,
        chunk_size,
        parameter: parameter.to_string(),
        value,
    };
    let mut acc = SeriesAccumulator::new(count);
    let mut start_chunk = 0u64;
    let mut resumed_at_chunk = None;
    if let Some(path) = cfg.checkpoint.as_deref() {
        match load_checkpoint(path, &header) {
            Loaded::Resume(next, loaded) => {
                eprintln!(
                    "[campaign] {parameter}={value}: resuming at chunk {next}/{n_chunks} \
                     from {}",
                    path.display()
                );
                acc = *loaded;
                start_chunk = next;
                resumed_at_chunk = Some(next);
            }
            Loaded::Fresh => {}
            Loaded::Mismatch => {
                eprintln!(
                    "[campaign] {parameter}={value}: checkpoint {} belongs to a \
                     different campaign (seed/count/chunk-size/parameter); starting fresh",
                    path.display()
                );
                if let Err(err) = std::fs::write(path, b"") {
                    eprintln!(
                        "[campaign] warning: could not reset {}: {err}",
                        path.display()
                    );
                }
            }
        }
    }
    let cadence = cfg.checkpoint_every_chunks.max(1);
    let mut merged_this_run = 0u64;
    let merged = run_chunked(
        seed_base,
        count,
        chunk_size,
        start_chunk,
        cfg.max_chunks,
        &runner,
        |c, buf| {
            for slot in &buf {
                match slot {
                    Some(outcome) => acc.fold(outcome),
                    None => acc.fold_panicked(),
                }
            }
            merged_this_run += 1;
            if merged_this_run.is_multiple_of(cadence) {
                if let Some(path) = cfg.checkpoint.as_deref() {
                    write_checkpoint(path, &header, c + 1, &acc);
                }
            }
        },
    );
    let next = start_chunk + merged;
    let finished = next >= n_chunks;
    // Always leave a line at the exact stop point (unless nothing ran and
    // the campaign was already complete), so an interrupted run resumes
    // without redoing merged chunks.
    if merged > 0 || start_chunk == 0 {
        if let Some(path) = cfg.checkpoint.as_deref() {
            write_checkpoint(path, &header, next, &acc);
        }
    }
    if !finished {
        eprintln!(
            "[campaign] {parameter}={value}: stopped after {merged} chunk(s); \
             next chunk {next}/{n_chunks}"
        );
    }
    CampaignRun {
        report: acc.report(parameter, value),
        finished,
        resumed_at_chunk,
    }
}

/// Sidecar path for one campaign series point.
pub fn checkpoint_path(dir: &Path, exp: &str, parameter: &str, value: f64) -> PathBuf {
    dir.join(format!("{exp}_{parameter}_{value}.jsonl"))
}

/// Runs one sweep point of experiment `exp`: `cli.trials` trials, trial
/// `i` as `trial(trial_seed(seed_base, i))`, streamed through the campaign
/// engine. The sidecar lives under `--checkpoint-dir` when one is given
/// and nowhere otherwise; `--campaign-max-chunks` stops the point early.
/// The row is priced with its wall-clock throughput.
pub fn run_point<F>(
    cli: &Cli,
    exp: &str,
    parameter: &str,
    value: f64,
    seed_base: u64,
    trial: F,
) -> SeriesReport
where
    F: Fn(u64) -> TrialOutcome + Sync,
{
    let row_start = crate::wallclock::Stopwatch::start();
    let cfg = CampaignConfig {
        checkpoint: cli
            .checkpoint_dir
            .as_deref()
            .map(|dir| checkpoint_path(dir, exp, parameter, value)),
        max_chunks: cli.campaign_max_chunks,
        ..CampaignConfig::default()
    };
    run_campaign_with(seed_base, cli.trials, parameter, value, &cfg, trial)
        .report
        .with_throughput(row_start.elapsed_s())
}

// ---------------------------------------------------------------------
// Checkpoint sidecar (JSONL, hand-rolled like the artefact writer)
// ---------------------------------------------------------------------

/// Identity of a campaign: a checkpoint line only resumes a campaign whose
/// header matches all of these (value compared by bit pattern).
#[derive(Debug, Clone, PartialEq)]
struct CampaignHeader {
    seed: u64,
    count: u64,
    chunk_size: u64,
    parameter: String,
    value: f64,
}

/// Sidecar format version (2 added the per-trial counters; 3 stores the
/// timing block's fixed layout, bucket counts and span totals by position).
const CHECKPOINT_VERSION: u64 = 3;

fn f64_bits_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn f64_from_bits_hex(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A JSON array of the items' `Display` forms.
fn json_list<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|x| x.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn hist_checkpoint_json(h: &HistogramUs) -> String {
    format!(
        "{{\"counts\":{},\"count\":{},\"sum_bits\":\"{}\",\"min_bits\":\"{}\",\
         \"max_bits\":\"{}\"}}",
        json_list(h.bucket_counts()),
        h.count(),
        f64_bits_hex(h.sum()),
        f64_bits_hex(h.min_value()),
        f64_bits_hex(h.max_value()),
    )
}

fn checkpoint_line(header: &CampaignHeader, next_chunk: u64, acc: &SeriesAccumulator) -> String {
    debug_assert!(
        !header.parameter.contains(['"', '\\'])
            && acc.counters.iter().all(|(n, _)| !n.contains(['"', '\\'])),
        "parameter and counter names are plain identifiers"
    );
    let counters: Vec<String> = acc
        .counters
        .iter()
        .map(|(name, n)| format!("\"{name}\":{n}"))
        .collect();
    format!(
        "{{\"v\":{CHECKPOINT_VERSION},\"seed\":{},\"count\":{},\"chunk_size\":{},\
         \"parameter\":\"{}\",\"value_bits\":\"{}\",\"next_chunk\":{next_chunk},\
         \"acc\":{{\"requested\":{},\"completed\":{},\"panicked\":{},\
         \"unconfirmed\":{},\"downgrades\":{},\"events_n\":{},\"events_sum_bits\":\"{}\",\
         \"raw\":{},\"anchor\":{},\"lead\":{},\"spans\":{},\"counters\":{{{}}}}}}}",
        header.seed,
        header.count,
        header.chunk_size,
        header.parameter,
        f64_bits_hex(header.value),
        acc.requested,
        acc.completed,
        acc.panicked,
        acc.unconfirmed_effects,
        acc.telemetry_downgrades,
        acc.events_n,
        f64_bits_hex(acc.events_sum),
        json_list(&acc.raw),
        hist_checkpoint_json(&acc.timing.anchor_error),
        hist_checkpoint_json(&acc.timing.lead_time),
        json_list(acc.timing.spans.iter().map(json_list)),
        counters.join(","),
    )
}

/// Appends one checkpoint line; failures warn on stderr but never bring the
/// campaign down (a checkpoint is an optimisation, not a result).
fn write_checkpoint(
    path: &Path,
    header: &CampaignHeader,
    next_chunk: u64,
    acc: &SeriesAccumulator,
) {
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut line = checkpoint_line(header, next_chunk, acc);
        line.push('\n');
        file.write_all(line.as_bytes())
    };
    if let Err(err) = write() {
        eprintln!(
            "[campaign] warning: could not write checkpoint {}: {err}",
            path.display()
        );
    }
}

enum Loaded {
    /// No usable sidecar: start from chunk 0.
    Fresh,
    /// Resume at this chunk cursor with this accumulator state (boxed so
    /// the no-checkpoint variants stay pointer-sized).
    Resume(u64, Box<SeriesAccumulator>),
    /// The sidecar exists and parses, but describes a different campaign.
    Mismatch,
}

/// Reads the sidecar and returns the **last** line whose header matches.
/// Torn or corrupt lines (a kill mid-append) are skipped — the previous
/// complete line still resumes the campaign.
fn load_checkpoint(path: &Path, header: &CampaignHeader) -> Loaded {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Loaded::Fresh;
    };
    let mut best: Option<(u64, SeriesAccumulator)> = None;
    let mut saw_any_valid = false;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(obj) = json_reader::parse(line) else {
            continue;
        };
        if obj.as_obj().is_none() {
            continue;
        }
        saw_any_valid = true;
        if !header_matches(&obj, header) {
            continue;
        }
        let Some(next_chunk) = obj.get("next_chunk").and_then(Value::num) else {
            continue;
        };
        let Some(acc) = obj.get("acc").and_then(|v| acc_from_json(v, header)) else {
            continue;
        };
        best = Some((next_chunk, acc));
    }
    match best {
        Some((next, acc)) => Loaded::Resume(next, Box::new(acc)),
        None if saw_any_valid => Loaded::Mismatch,
        None => Loaded::Fresh,
    }
}

fn header_matches(obj: &Value, header: &CampaignHeader) -> bool {
    let num = |key| obj.get(key).and_then(Value::num::<u64>);
    let text = |key| obj.get(key).and_then(Value::as_str);
    num("v") == Some(CHECKPOINT_VERSION)
        && num("seed") == Some(header.seed)
        && num("count") == Some(header.count)
        && num("chunk_size") == Some(header.chunk_size)
        && text("parameter") == Some(header.parameter.as_str())
        && text("value_bits") == Some(f64_bits_hex(header.value).as_str())
}

/// An `f64` the writer stored as its bit pattern in hex.
fn f64_field(obj: &Value, key: &str) -> Option<f64> {
    obj.get(key)?.as_str().and_then(f64_from_bits_hex)
}

/// A JSON array of exactly `N` items, each read by `item`.
fn array_of<T: Copy + Default, const N: usize>(
    v: &Value,
    item: impl Fn(&Value) -> Option<T>,
) -> Option<[T; N]> {
    let items = v.as_arr()?;
    if items.len() != N {
        return None;
    }
    let mut out = [T::default(); N];
    for (slot, v) in out.iter_mut().zip(items) {
        *slot = item(v)?;
    }
    Some(out)
}

fn hist_from_json(v: &Value) -> Option<HistogramUs> {
    HistogramUs::from_parts(
        array_of(v.get("counts")?, Value::num)?,
        v.get("count")?.num()?,
        f64_field(v, "sum_bits")?,
        f64_field(v, "min_bits")?,
        f64_field(v, "max_bits")?,
    )
}

fn acc_from_json(v: &Value, header: &CampaignHeader) -> Option<SeriesAccumulator> {
    let num = |key| v.get(key).and_then(Value::num::<u64>);
    let requested = num("requested")?;
    if requested != header.count {
        return None;
    }
    let completed = num("completed")?;
    let raw: Vec<u32> = v
        .get("raw")?
        .as_arr()?
        .iter()
        .map(Value::num)
        .collect::<Option<_>>()?;
    if (raw.len() as u64) > completed {
        return None;
    }
    Some(SeriesAccumulator {
        requested,
        completed,
        panicked: num("panicked")?,
        raw,
        unconfirmed_effects: num("unconfirmed")?,
        telemetry_downgrades: num("downgrades")?,
        timing: TimingBlock {
            anchor_error: hist_from_json(v.get("anchor")?)?,
            lead_time: hist_from_json(v.get("lead")?)?,
            spans: array_of(v.get("spans")?, |row| array_of(row, Value::num))?,
        },
        events_sum: f64_field(v, "events_sum_bits")?,
        events_n: num("events_n")?,
        counters: v
            .get("counters")?
            .as_obj()?
            .iter()
            .map(|(name, n)| Some((name.clone(), n.num()?)))
            .collect::<Option<_>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{PhaseProfile, TrialMetrics};
    use ble_telemetry::SpanKind;

    /// Cheap deterministic synthetic outcome: a splitmix64-style scramble
    /// of the trial seed decides success, attempts, a metric block and two
    /// per-trial counters.
    fn synth_outcome(seed: u64) -> TrialOutcome {
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
            counters: vec![("frames", x % 10_000), ("drops", x % 3)],
        };
        TrialOutcome {
            attempts,
            sim_seconds: (x % 500) as f64 / 10.0,
            effect_observed: attempts.is_some(),
            metrics: Some(metrics),
            telemetry_downgraded: false,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bench-campaign-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn json_row(report: SeriesReport) -> String {
        crate::report::rows_to_json(&[report])
    }

    #[test]
    fn chunk_size_depends_on_the_count_alone() {
        assert_eq!(chunk_size_for(0), 1);
        assert_eq!(chunk_size_for(25), 1);
        assert_eq!(chunk_size_for(64), 1);
        assert_eq!(chunk_size_for(65), 2);
        assert_eq!(chunk_size_for(5_000), 79);
        assert_eq!(chunk_size_for(1_000_000), 256);
    }

    #[test]
    fn engine_merges_chunks_in_order_and_respects_max_chunks() {
        let mut seen = Vec::new();
        let merged = run_chunked(11, 103, 10, 0, None, &synth_outcome, |c, buf| {
            seen.push((c, buf.len()));
        });
        assert_eq!(merged, 11);
        let chunks: Vec<u64> = seen.iter().map(|(c, _)| *c).collect();
        assert_eq!(chunks, (0..11).collect::<Vec<_>>(), "ascending chunk order");
        assert_eq!(seen.last(), Some(&(10, 3)), "tail chunk is short");
        // An early stop merges exactly `max_chunks` chunks...
        let merged = run_chunked(11, 103, 10, 0, Some(4), &synth_outcome, |_, _| {});
        assert_eq!(merged, 4);
        // ...and a resume picks up the remainder.
        let merged = run_chunked(11, 103, 10, 4, None, &synth_outcome, |_, _| {});
        assert_eq!(merged, 7);
        // A fully-consumed campaign runs nothing.
        assert_eq!(
            run_chunked(11, 103, 10, 11, None, &synth_outcome, |_, _| {}),
            0
        );
    }

    #[test]
    fn a_panicking_fold_unwinds_instead_of_hanging_the_workers() {
        // Workers run ahead of the fold and wait for room; a fold that
        // panics must release them, or the scope would wait forever.
        let caught = std::panic::catch_unwind(|| {
            run_chunked(13, 400, 1, 0, None, &synth_outcome, |c, _| {
                assert!(c < 3, "fixture: the fold panics at chunk 3");
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn accumulator_report_matches_the_in_memory_path() {
        let outcomes: Vec<TrialOutcome> =
            (0..57).map(|i| synth_outcome(trial_seed(77, i))).collect();
        let expected = SeriesReport::from_outcomes("p", 4.0, &outcomes);
        let run = run_campaign_with(77, 57, "p", 4.0, &CampaignConfig::default(), synth_outcome);
        assert!(run.finished);
        assert_eq!(run.report.counters, expected.counters);
        assert_eq!(json_row(run.report), json_row(expected));
    }

    #[test]
    fn campaign_equals_in_memory_fold_regardless_of_chunk_size() {
        let outcomes: Vec<TrialOutcome> =
            (0..101).map(|i| synth_outcome(trial_seed(5, i))).collect();
        let expected = json_row(SeriesReport::from_outcomes("p", 1.0, &outcomes));
        for chunk_size in [1u64, 7, 64, 200] {
            let mut acc = SeriesAccumulator::new(101);
            run_chunked(5, 101, chunk_size, 0, None, &synth_outcome, |_, buf| {
                for o in buf.iter().flatten() {
                    acc.fold(o);
                }
            });
            assert_eq!(
                json_row(acc.report("p", 1.0)),
                expected,
                "chunk_size {chunk_size}"
            );
        }
    }

    #[test]
    fn only_each_chunks_first_trial_is_timed_and_it_stands_for_its_chunk() {
        use crate::trial::span_weight;
        use std::collections::BTreeMap;

        for count in [1u64, 5, 64, 65, 100, 5_000] {
            let chunk = chunk_size_for(count);
            let weights = Mutex::new(BTreeMap::new());
            run_chunked(
                3,
                count,
                chunk,
                0,
                None,
                &|seed| {
                    weights.lock().unwrap().insert(seed, span_weight());
                    synth_outcome(seed)
                },
                |_, _| {},
            );
            let weights = weights.into_inner().unwrap();
            let by_index: Vec<u64> = (0..count).map(|i| weights[&trial_seed(3, i)]).collect();
            for (i, &w) in (0u64..).zip(&by_index) {
                let chunk_len = chunk.min(count - i);
                let expected = if i % chunk == 0 { chunk_len } else { 0 };
                assert_eq!(w, expected, "count {count}, trial {i}");
            }
            assert_eq!(by_index.iter().sum::<u64>(), count, "count {count}");
        }
        assert_eq!(span_weight(), 1, "outside the engine every trial is timed");
    }

    #[test]
    fn timing_one_trial_per_chunk_keeps_the_profile_and_weights_its_wall() {
        use crate::trial::{run_trial, TrialConfig};
        use ble_scenario::ScenarioBuilder;

        let cli = Cli::from_args(Vec::new(), 130);
        let cfg = TrialConfig::default();
        let trial = |seed| run_trial(ScenarioBuilder::paper_rig(seed), &cfg);
        let sampled = run_point(&cli, "test", "p", 1.0, 31, trial);
        let mut every = SeriesAccumulator::new(130);
        for i in 0..130 {
            every.fold(&trial(trial_seed(31, i)));
        }
        let every = every.report("p", 1.0);
        assert_eq!(sampled.raw, every.raw);
        let sim = |r: &PhaseProfile| (r.phase, r.count, r.sim_ns, r.self_sim_ns);
        assert_eq!(
            sampled.phase_profile.iter().map(sim).collect::<Vec<_>>(),
            every.phase_profile.iter().map(sim).collect::<Vec<_>>(),
        );
        for row in &sampled.phase_profile {
            assert!(row.wall_ns >= row.self_wall_ns, "{row:?}");
        }
        let timed = |phase| {
            sampled
                .phase_profile
                .iter()
                .find(|r| r.phase == phase)
                .map_or(0, |r| r.wall_ns)
        };
        assert!(timed("trial-sync") > 0 && timed("trial-follow") > 0);
        // A timed trial's wall stands for its weight in trials, and an
        // untimed one reads no clock and adds no wall.
        let weight = 1 << 20;
        let rows = |w| {
            let out = with_span_weight(w, || trial(trial_seed(31, 1)));
            out.metrics.expect("metrics on").timing.phase_profile()
        };
        let weighted = rows(weight);
        assert!(weighted.iter().any(|r| r.wall_ns > 0));
        assert!(weighted
            .iter()
            .all(|r| r.wall_ns % weight == 0 && r.self_wall_ns % weight == 0));
        let untimed = rows(0);
        assert!(!untimed.is_empty());
        assert!(untimed
            .iter()
            .all(|r| r.wall_ns == 0 && r.self_wall_ns == 0));
    }

    #[test]
    fn f64_bit_hex_round_trips_exactly() {
        for v in [0.0, -0.0, 1.5, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300] {
            let enc = f64_bits_hex(v);
            assert_eq!(f64_from_bits_hex(&enc).map(f64::to_bits), Some(v.to_bits()));
        }
        assert_eq!(f64_from_bits_hex("xyz"), None);
        assert_eq!(f64_from_bits_hex("00"), None);
    }

    #[test]
    fn checkpoint_line_round_trips_the_accumulator() {
        let mut acc = SeriesAccumulator::new(40);
        for i in 0..30 {
            acc.fold(&synth_outcome(trial_seed(9, i)));
        }
        acc.fold_panicked();
        // Span totals round-trip by position, not by phase name.
        acc.timing.spans[SpanKind::TrialSync.index()] = [3, 100, 90, 5, 4];
        assert_eq!(acc.counters.len(), 2, "the fixture carries counters");
        let header = CampaignHeader {
            seed: 9,
            count: 40,
            chunk_size: 8,
            parameter: "p".into(),
            value: 2.5,
        };
        let line = checkpoint_line(&header, 4, &acc);
        let obj = json_reader::parse(&line).expect("checkpoint line parses");
        assert!(header_matches(&obj, &header));
        assert_eq!(obj.get("next_chunk").and_then(Value::num::<u64>), Some(4));
        let decoded = acc_from_json(obj.get("acc").unwrap(), &header).unwrap();
        assert_eq!(decoded, acc);
    }

    #[test]
    fn a_deeply_nested_sidecar_line_is_skipped_not_a_stack_overflow() {
        let dir = scratch("nested");
        let path = dir.join("sidecar.jsonl");
        std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
        let header = CampaignHeader {
            seed: 5,
            count: 20,
            chunk_size: 5,
            parameter: "p".into(),
            value: 1.0,
        };
        assert!(matches!(load_checkpoint(&path, &header), Loaded::Fresh));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_checkpoint_takes_the_last_line_and_skips_torn_tails() {
        let dir = scratch("torn");
        let path = dir.join("sidecar.jsonl");
        let header = CampaignHeader {
            seed: 3,
            count: 20,
            chunk_size: 5,
            parameter: "p".into(),
            value: 1.0,
        };
        let mut acc = SeriesAccumulator::new(20);
        write_checkpoint(&path, &header, 1, &acc);
        acc.fold(&synth_outcome(3));
        write_checkpoint(&path, &header, 2, &acc);
        // A hand-edited histogram sum that decodes to NaN would resume into
        // a row whose `mean` prints as `NaN`, which is not JSON.
        let sum_bits = |v: f64| format!("\"sum_bits\":\"{}\"", f64_bits_hex(v));
        let nan = checkpoint_line(&header, 3, &acc).replacen(
            &sum_bits(acc.timing.lead_time.sum()),
            &sum_bits(f64::NAN),
            1,
        );
        assert!(nan.contains(&sum_bits(f64::NAN)));
        // Simulate a kill mid-append: a torn final line.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(f, "{nan}").unwrap();
            f.write_all(b"{\"v\":3,\"seed\":3,\"count\":20,\"chu")
                .unwrap();
        }
        match load_checkpoint(&path, &header) {
            Loaded::Resume(next, loaded) => {
                assert_eq!(next, 2);
                assert_eq!(*loaded, acc);
            }
            _ => panic!("expected resume from the last complete line"),
        }
        // A different campaign must refuse the sidecar.
        let other = CampaignHeader {
            seed: 4,
            ..header.clone()
        };
        assert!(matches!(load_checkpoint(&path, &other), Loaded::Mismatch));
        // So must a sidecar of the previous format.
        let v2 = dir.join("v2.jsonl");
        let line = checkpoint_line(&header, 2, &acc).replacen("{\"v\":3,", "{\"v\":2,", 1);
        std::fs::write(&v2, format!("{line}\n")).unwrap();
        assert!(matches!(load_checkpoint(&v2, &header), Loaded::Mismatch));
        // A missing file is a fresh start, not an error.
        assert!(matches!(
            load_checkpoint(&dir.join("absent.jsonl"), &header),
            Loaded::Fresh
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_campaign_resumes_without_rerunning_chunks() {
        let dir = scratch("resume");
        let path = dir.join("resume.jsonl");
        // 95 trials → chunks of 2, 48 chunks.
        let uninterrupted =
            run_campaign_with(21, 95, "p", 3.0, &CampaignConfig::default(), synth_outcome);
        assert!(uninterrupted.finished);
        // First invocation stops after 3 of 48 chunks.
        let mut cfg = CampaignConfig {
            checkpoint: Some(path.clone()),
            checkpoint_every_chunks: 2,
            max_chunks: Some(3),
        };
        let first = run_campaign_with(21, 95, "p", 3.0, &cfg, synth_outcome);
        assert!(!first.finished);
        assert_eq!(first.resumed_at_chunk, None);
        assert_eq!(first.report.trials, 95, "denominator stays requested");
        // Second invocation resumes at chunk 3 and finishes; a runner
        // that refuses the first three chunks' seeds proves they are not
        // re-run.
        cfg.max_chunks = None;
        let done_seeds: Vec<u64> = (0..6).map(|i| trial_seed(21, i)).collect();
        let resumed = run_campaign_with(21, 95, "p", 3.0, &cfg, |seed| {
            assert!(!done_seeds.contains(&seed), "chunk re-run after resume");
            synth_outcome(seed)
        });
        assert!(resumed.finished);
        assert_eq!(resumed.resumed_at_chunk, Some(3));
        assert_eq!(resumed.report.panicked_trials, 0);
        assert_eq!(
            json_row(resumed.report),
            json_row(uninterrupted.report),
            "resumed campaign must be byte-identical to an uninterrupted one"
        );
        // A third invocation sees the completed checkpoint and runs nothing.
        let done = run_campaign_with(21, 95, "p", 3.0, &cfg, synth_outcome);
        assert!(done.finished);
        assert_eq!(done.resumed_at_chunk, Some(48));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn counters_survive_a_kill_and_resume_bit_exactly_at_any_thread_count() {
        let dir = scratch("counters");
        let reference =
            run_campaign_with(61, 300, "p", 1.0, &CampaignConfig::default(), synth_outcome).report;
        let frames = reference.counter("frames");
        assert!(frames > 0 && reference.counter("drops") > 0);
        let expected: u64 = (0..300)
            .map(|i| synth_outcome(trial_seed(61, i)).metrics.unwrap().counters[0].1)
            .sum();
        assert_eq!(frames, expected, "counters are plain per-trial sums");
        for threads in ["1", "4"] {
            std::env::set_var("BENCH_THREADS", threads);
            let path = dir.join(format!("t{threads}.jsonl"));
            let mut cfg = CampaignConfig {
                checkpoint: Some(path.clone()),
                checkpoint_every_chunks: 1,
                max_chunks: Some(5),
            };
            let killed = run_campaign_with(61, 300, "p", 1.0, &cfg, synth_outcome);
            assert!(!killed.finished);
            assert!(killed.report.counter("frames") < frames);
            cfg.max_chunks = None;
            let resumed = run_campaign_with(61, 300, "p", 1.0, &cfg, synth_outcome);
            assert_eq!(resumed.resumed_at_chunk, Some(5), "threads {threads}");
            assert_eq!(
                resumed.report.counters, reference.counters,
                "threads {threads}"
            );
            assert_eq!(json_row(resumed.report), json_row(reference.clone()));
        }
        std::env::remove_var("BENCH_THREADS");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mismatched_sidecar_starts_fresh_and_resets_the_file() {
        let dir = scratch("mismatch");
        let path = dir.join("mismatch.jsonl");
        let cfg = CampaignConfig {
            checkpoint: Some(path.clone()),
            ..CampaignConfig::default()
        };
        let first = run_campaign_with(31, 40, "p", 1.0, &cfg, synth_outcome);
        assert!(first.finished);
        // Same sidecar, different seed: must not resume, must still finish.
        let second = run_campaign_with(32, 40, "p", 1.0, &cfg, synth_outcome);
        assert!(second.finished);
        assert_eq!(second.resumed_at_chunk, None);
        assert_eq!(second.report.trials, 40);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plain_points_recompute_every_trial_and_checkpointed_points_resume() {
        let dir = scratch("plain");
        let ran = std::sync::atomic::AtomicU64::new(0);
        let counting = |seed| {
            ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            synth_outcome(seed)
        };
        let runs = |args: &[&str]| {
            let cli = Cli::from_args(args.iter().map(|a| a.to_string()), 20);
            run_point(&cli, "exp", "p", 1.0, 8, counting);
            ran.swap(0, std::sync::atomic::Ordering::Relaxed)
        };
        assert_eq!(runs(&[]), 20);
        assert_eq!(runs(&[]), 20, "no sidecar: a re-run recomputes everything");
        let cp = ["--checkpoint-dir", dir.to_str().unwrap()];
        assert_eq!(runs(&cp), 20);
        assert!(checkpoint_path(&dir, "exp", "p", 1.0).is_file());
        assert_eq!(runs(&cp), 0, "a finished sidecar resumes past every trial");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_trials_are_first_class_campaign_data() {
        let panicky = |seed: u64| -> TrialOutcome {
            if seed.is_multiple_of(3) {
                panic!("synthetic trial failure");
            }
            synth_outcome(seed)
        };
        // Silence the default panic hook for the duration: the panics here
        // are the fixture, not noise worth printing backtraces for.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let run = run_campaign_with(51, 30, "p", 1.0, &CampaignConfig::default(), panicky);
        std::panic::set_hook(prev);
        assert!(run.finished);
        let expected_panics = (0..30)
            .filter(|&i| trial_seed(51, i).is_multiple_of(3))
            .count() as u64;
        assert!(expected_panics > 0, "fixture must actually panic");
        assert_eq!(run.report.panicked_trials, expected_panics);
        assert_eq!(run.report.trials, 30, "denominator is requested trials");
        assert_eq!(
            run.report.succeeded as usize,
            run.report.raw.len(),
            "panicked trials never contribute attempts"
        );
    }

    #[test]
    fn bench_threads_clamps_to_the_unit_count() {
        assert_eq!(bench_threads(1), 1);
        assert!(bench_threads(u64::MAX) >= 1);
    }

    #[test]
    fn checkpoint_paths_are_stable_per_point() {
        let p = checkpoint_path(Path::new("/tmp/cp"), "exp1", "hop_interval", 25.0);
        assert_eq!(p, Path::new("/tmp/cp/exp1_hop_interval_25.jsonl"));
    }
}
