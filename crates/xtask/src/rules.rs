//! The protocol lint rules R1–R9.
//!
//! | rule | scope                  | forbids                                                     |
//! |------|------------------------|-------------------------------------------------------------|
//! | R1   | protocol crates        | `panic!`/`unwrap`/`expect`/`unreachable!` and unchecked indexing |
//! | R2   | protocol crates        | truncating `as` casts to narrow or platform-width integer types |
//! | R3   | protocol crates        | raw arithmetic on extracted time tick counts                |
//! | R4   | whole workspace        | `_` wildcard arms in matches over PDU/LL-control/telemetry enums |
//! | R5   | arena consumers        | `Rc<RefCell<…>>` shared-node graphs (use the `World` arena) |
//! | R6   | frame-facing           | `Vec<u8>` in `pub` struct fields (use the inline `Pdu`)     |
//! | R7   | order-sensitive crates | `HashMap`/`HashSet` (hash-order iteration corrupts replayability) |
//! | R8   | all but `bench::wallclock` | `std::time::{Instant, SystemTime}` and their `::now()` reads |
//! | R9   | whole workspace        | RNG construction without an explicit seed (`from_entropy`, `thread_rng`, `rand::random`, `OsRng`) |
//!
//! R7–R9 are the **determinism rules**: fixed seeds must replay every
//! experiment byte-for-byte, so simulation-order-sensitive code may not
//! iterate hash-ordered collections, read the host clock, or construct RNGs
//! the seed does not control. Wall-clock throughput/RSS measurement lives in
//! the single audited `bench::wallclock` quarantine module.
//!
//! Test-only code (`#[cfg(test)]`) is exempt from every rule. A violation on
//! line *N* can be waived with `// xtask-allow: R<n> — reason` on line *N*
//! or *N − 1*; waivers are for audited exceptions (e.g. lossless casts in
//! `const fn` contexts where `From` is unavailable, or a membership-only
//! `HashSet` behind a deterministic hasher whose iteration order is never
//! observed), never for silencing real hot-path panics. The reason suffix is
//! mandatory: `cargo xtask lint --waivers` audits every waiver and fails on
//! bare ones.

use std::collections::BTreeSet;

use crate::lexer::{matching, strip_cfg_test, tokenize, Token};

/// Which rules run on a file.
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    pub r1: bool,
    pub r2: bool,
    pub r3: bool,
    pub r4: bool,
    pub r5: bool,
    pub r6: bool,
    pub r7: bool,
    pub r8: bool,
    pub r9: bool,
}

impl RuleSet {
    /// No rules at all; the base the named sets build on.
    pub const fn none() -> Self {
        RuleSet {
            r1: false,
            r2: false,
            r3: false,
            r4: false,
            r5: false,
            r6: false,
            r7: false,
            r8: false,
            r9: false,
        }
    }

    /// The hot-path rules: the protocol crates. The workspace-wide
    /// determinism rules R8/R9 ride along.
    pub fn protocol() -> Self {
        RuleSet {
            r1: true,
            r2: true,
            r3: true,
            r4: true,
            r8: true,
            r9: true,
            ..Self::none()
        }
    }

    /// Exhaustive-match plus the workspace-wide determinism rules: attack
    /// tooling, device models, benches.
    pub fn general() -> Self {
        RuleSet {
            r4: true,
            r8: true,
            r9: true,
            ..Self::none()
        }
    }

    /// Adds the no-`Rc<RefCell<…>>` rule: code that builds worlds must use
    /// the arena (`World::add_node` + `NodeId`), not a shared-pointer graph.
    pub fn with_r5(mut self) -> Self {
        self.r5 = true;
        self
    }

    /// Adds the no-`Vec<u8>`-field rule: frame-facing structs must carry
    /// their bytes in the inline `ble_phy::Pdu` buffer, not on the heap.
    pub fn with_r6(mut self) -> Self {
        self.r6 = true;
        self
    }

    /// Adds the no-hash-collections rule: simulation-order-sensitive crates
    /// may not iterate `HashMap`/`HashSet` (hash order is not stable across
    /// runs, platforms, or std versions).
    pub fn with_r7(mut self) -> Self {
        self.r7 = true;
        self
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule number, 1–9.
    pub rule: u8,
    /// 1-based source line.
    pub line: u32,
    pub msg: String,
}

/// Lints one file's source, returning unwaived violations sorted by line.
pub fn lint_source(src: &str, rules: RuleSet) -> Vec<Violation> {
    let waivers = collect_waivers(src);
    let tokens = strip_cfg_test(tokenize(src));
    let mut v = Vec::new();
    if rules.r1 {
        r1_panics(&tokens, &mut v);
        r1_indexing(&tokens, &mut v);
    }
    if rules.r2 {
        r2_casts(&tokens, &mut v);
    }
    if rules.r3 {
        r3_time_arith(&tokens, &mut v);
    }
    if rules.r4 {
        r4_wildcards(&tokens, &mut v);
    }
    if rules.r5 {
        r5_rc_refcell(&tokens, &mut v);
    }
    if rules.r6 {
        r6_vec_u8_fields(&tokens, &mut v);
    }
    if rules.r7 {
        r7_hash_collections(&tokens, &mut v);
    }
    if rules.r8 {
        r8_wall_clock(&tokens, &mut v);
    }
    if rules.r9 {
        r9_unseeded_rng(&tokens, &mut v);
    }
    v.retain(|vi| !waivers.contains(&(vi.line, vi.rule)));
    v.sort_by_key(|vi| (vi.line, vi.rule));
    v
}

/// One `// xtask-allow:` waiver comment, as audited by
/// `cargo xtask lint --waivers`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaiverEntry {
    /// 1-based line the waiver comment sits on.
    pub line: u32,
    /// Rules the waiver silences, in source order.
    pub rules: Vec<u8>,
    /// The reason after the `—`/`--` separator, if any. `None` for a bare
    /// waiver (an audit failure) — every waiver must say *why* the rule is
    /// safe to break at this site.
    pub reason: Option<String>,
}

/// Collects every waiver comment in a file for the audit listing, keeping
/// the reason text (unlike `collect_waivers`, which only needs the
/// silenced coordinates).
pub fn collect_waiver_entries(src: &str) -> Vec<WaiverEntry> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("xtask-allow:") else {
            continue;
        };
        let rest = &line[pos + "xtask-allow:".len()..];
        let (list, reason) = split_waiver_reason(rest);
        let mut rules = Vec::new();
        let mut chars = list.chars().peekable();
        while let Some(c) = chars.next() {
            if c == 'R' || c == 'r' {
                if let Some(d) = chars.peek().and_then(|d| d.to_digit(10)) {
                    chars.next();
                    rules.push(d as u8);
                }
            }
        }
        out.push(WaiverEntry {
            line: idx as u32 + 1,
            rules,
            reason,
        });
    }
    out
}

/// Splits waiver text into the rule list and the (trimmed, non-empty)
/// reason after the `—` or `--` separator.
fn split_waiver_reason(rest: &str) -> (&str, Option<String>) {
    for sep in ["—", "--"] {
        if let Some((list, reason)) = rest.split_once(sep) {
            let reason = reason.trim();
            return (list, (!reason.is_empty()).then(|| reason.to_owned()));
        }
    }
    (rest, None)
}

/// Parses `// xtask-allow: R1, R3 — reason` waivers. A waiver on line *N*
/// covers lines *N* and *N + 1*. Only the rule list before the reason
/// separator (`—` or `--`) is parsed, so a reason that *mentions* a rule
/// ("R2 is syntactic here") does not accidentally waive it.
fn collect_waivers(src: &str) -> BTreeSet<(u32, u8)> {
    let mut waivers = BTreeSet::new();
    for entry in collect_waiver_entries(src) {
        for rule in entry.rules {
            waivers.insert((entry.line, rule));
            waivers.insert((entry.line + 1, rule));
        }
    }
    waivers
}

fn is_number(t: &Token) -> bool {
    t.text.chars().next().is_some_and(|c| c.is_ascii_digit())
}

fn is_ident(t: &Token) -> bool {
    t.text
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
        && !t.text.starts_with('<')
}

// ---------------------------------------------------------------------
// R1: no panic paths in protocol hot code
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

fn r1_panics(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if PANIC_MACROS.contains(&t.text.as_str())
            && tokens.get(i + 1).is_some_and(|n| n.text == "!")
        {
            out.push(Violation {
                rule: 1,
                line: t.line,
                msg: format!(
                    "`{}!` in a protocol hot path; recover gracefully and \
                     document with a `ble_invariants` macro",
                    t.text
                ),
            });
        }
        if t.text == "."
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.text == "unwrap" || n.text == "expect")
            && tokens.get(i + 2).is_some_and(|n| n.text == "(")
        {
            let name = &tokens[i + 1];
            out.push(Violation {
                rule: 1,
                line: name.line,
                msg: format!(
                    "`.{}()` in a protocol hot path; use a match/`let else` \
                     with a recovery path",
                    name.text
                ),
            });
        }
    }
}

/// Statement-position keywords after which `[` opens an array literal or
/// pattern rather than an index expression.
const NON_POSTFIX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "return", "in", "if", "else", "match", "move", "as", "break", "continue",
    "where", "const", "static", "type", "box", "dyn", "impl", "pub", "use", "yield", "for",
];

fn r1_indexing(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "[" || i == 0 {
            continue;
        }
        let prev = &tokens[i - 1];
        let postfix = (is_ident(prev) && !NON_POSTFIX_KEYWORDS.contains(&prev.text.as_str()))
            || prev.text == ")"
            || prev.text == "]";
        if !postfix {
            continue;
        }
        let close = matching(tokens, i);
        let idx = &tokens[i + 1..close.min(tokens.len())];
        if idx.is_empty() {
            continue;
        }
        let all_literal = idx
            .iter()
            .all(|t| is_number(t) || t.text == ".." || t.text == "..=");
        let modular = idx.iter().any(|t| t.text == "%");
        if !all_literal && !modular {
            let expr: Vec<&str> = idx.iter().map(|t| t.text.as_str()).collect();
            out.push(Violation {
                rule: 1,
                line: t.line,
                msg: format!(
                    "unchecked index `[{}]`; use `.get()`/`.get_mut()`, a \
                     literal index, or a modulo-reduced index",
                    expr.join(" ")
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R2: no truncating `as` casts
// ---------------------------------------------------------------------

/// Cast targets R2 rejects: the narrow fixed-width integers plus the
/// platform-width pair. `u64 as usize` silently truncates on 32-bit
/// hosts, and `count as usize` buffer pre-allocation is exactly how the
/// old in-memory trial runner capped campaigns at `usize::MAX` trials —
/// use `usize::try_from(..)` and make the fallback explicit.
const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "usize", "isize"];

fn r2_casts(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.text == "as"
            && tokens
                .get(i + 1)
                .is_some_and(|n| NARROW_INTS.contains(&n.text.as_str()))
        {
            out.push(Violation {
                rule: 2,
                line: t.line,
                msg: format!(
                    "`as {}` can truncate; use `From`/`try_into` or the \
                     `ble_invariants::lsb*` masked helpers",
                    tokens[i + 1].text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R3: no raw arithmetic on extracted time tick counts
// ---------------------------------------------------------------------

/// Methods that turn a typed `Duration`/`Instant` into a bare integer.
const TIME_EXTRACTORS: &[&str] = &["as_micros", "as_nanos", "as_millis", "as_secs", "as_ticks"];

const ARITH_OPS: &[&str] = &["+", "-", "*", "/"];

fn r3_time_arith(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if !TIME_EXTRACTORS.contains(&t.text.as_str()) {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|n| n.text == "(")
            && tokens.get(i + 2).is_some_and(|n| n.text == ")"))
        {
            continue;
        }
        // `d.as_micros() + x`
        let after = tokens.get(i + 3);
        let fires_after = after.is_some_and(|n| ARITH_OPS.contains(&n.text.as_str()));
        // `x + d.as_micros()`: walk back over the receiver's postfix chain.
        let mut j = i as isize - 1; // the `.` before the method
        j -= 1;
        while j >= 0 {
            let tok = &tokens[j as usize];
            match tok.text.as_str() {
                ")" | "]" => match open_backward(tokens, j as usize) {
                    Some(open) => j = open as isize - 1,
                    None => break,
                },
                "." | "::" => j -= 1,
                _ if is_ident(tok) || is_number(tok) => j -= 1,
                _ => break,
            }
        }
        let fires_before = j >= 0 && ARITH_OPS.contains(&tokens[j as usize].text.as_str());
        if fires_after || fires_before {
            out.push(Violation {
                rule: 3,
                line: t.line,
                msg: format!(
                    "raw arithmetic on `.{}()`; keep arithmetic in the typed \
                     `Duration`/`Instant` domain or use `checked_*`/`saturating_*`",
                    t.text
                ),
            });
        }
    }
}

/// Finds the opener matching the closer at `close`, scanning backward.
fn open_backward(tokens: &[Token], close: usize) -> Option<usize> {
    let (o, c) = match tokens[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        _ => return None,
    };
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if tokens[i].text == c {
            depth += 1;
        } else if tokens[i].text == o {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

// ---------------------------------------------------------------------
// R4: exhaustive matches on PDU / LL-control enums
// ---------------------------------------------------------------------

/// Enums carrying protocol opcodes or PDU variants: new over-the-air
/// vocabulary must force every match site to make a decision. The typed
/// telemetry event is held to the same bar so adding an event variant
/// surfaces every consumer (sinks, timeline rendering) that must handle it,
/// and the fault taxonomy likewise so a new impairment kind surfaces every
/// site that renders or tallies faults.
const PDU_ENUMS: &[&str] = &[
    "ControlPdu",
    "AdvertisingPdu",
    "Llid",
    "TelemetryEvent",
    "FaultKind",
    "SpanKind",
    "SlotState",
    "QosPolicy",
];

fn r4_wildcards(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "match" {
            continue;
        }
        // Find the match-body `{`: the first one at group depth 0 (braces
        // inside the scrutinee only occur within parens/brackets, e.g.
        // closures, because Rust bans bare struct literals there).
        let mut depth = 0usize;
        let mut body = None;
        for (j, tj) in tokens.iter().enumerate().skip(i + 1) {
            match tj.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => {
                    body = Some(j);
                    break;
                }
                "{" => {
                    // A brace at group depth > 0 belongs to a closure in the
                    // scrutinee; it is closed before its group closes.
                }
                ";" if depth == 0 => break, // not a match expression after all
                _ => {}
            }
            if j > i + 256 {
                break; // degenerate; give up on this `match`
            }
        }
        let Some(body) = body else { continue };
        let end = matching(tokens, body);
        check_match_arms(&tokens[body + 1..end.min(tokens.len())], out);
    }
}

/// Analyzes the top-level arms of one match body (tokens between the match
/// braces). Nested matches are analyzed by their own `match` token in the
/// outer scan.
fn check_match_arms(body: &[Token], out: &mut Vec<Violation>) {
    let mut saw_pdu_enum = false;
    let mut wildcard: Option<u32> = None;
    let mut k = 0usize;
    let mut pattern: Vec<&Token> = Vec::new();
    while k < body.len() {
        let t = &body[k];
        match t.text.as_str() {
            "(" | "[" | "{" => {
                // Groups within a pattern stay opaque.
                let close = matching_rel(body, k);
                for tok in &body[k..close.min(body.len())] {
                    pattern.push(tok);
                }
                k = close + 1;
            }
            "=>" => {
                analyze_pattern(&pattern, &mut saw_pdu_enum, &mut wildcard);
                pattern.clear();
                // Skip the arm body: a braced block, or tokens to the next
                // top-level comma.
                k += 1;
                if body.get(k).is_some_and(|n| n.text == "{") {
                    k = matching_rel(body, k) + 1;
                    if body.get(k).is_some_and(|n| n.text == ",") {
                        k += 1;
                    }
                } else {
                    let mut depth = 0usize;
                    while k < body.len() {
                        match body[k].text.as_str() {
                            "(" | "[" | "{" => depth += 1,
                            ")" | "]" | "}" => depth = depth.saturating_sub(1),
                            "," if depth == 0 => {
                                k += 1;
                                break;
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
            }
            _ => {
                pattern.push(t);
                k += 1;
            }
        }
    }
    if saw_pdu_enum {
        if let Some(line) = wildcard {
            out.push(Violation {
                rule: 4,
                line,
                msg: "`_` wildcard arm in a match over a PDU/LL-control enum; \
                      list the remaining variants explicitly so new opcodes \
                      force a decision here"
                    .to_owned(),
            });
        }
    }
}

fn matching_rel(body: &[Token], open: usize) -> usize {
    matching(body, open)
}

fn analyze_pattern(pattern: &[&Token], saw_pdu_enum: &mut bool, wildcard: &mut Option<u32>) {
    for w in pattern.windows(2) {
        if PDU_ENUMS.contains(&w[0].text.as_str()) && w[1].text == "::" {
            *saw_pdu_enum = true;
        }
    }
    if let Some(first) = pattern.first() {
        if first.text == "_" && pattern.len() == 1 && wildcard.is_none() {
            *wildcard = Some(first.line);
        }
    }
}

// ---------------------------------------------------------------------
// R5: no shared-pointer node graphs in arena consumers
// ---------------------------------------------------------------------

/// The pre-arena world wired nodes as `Rc<RefCell<dyn RadioListener>>` and
/// every call site paid for it in `.borrow_mut()` noise and runtime borrow
/// panics. `World` now owns nodes outright (`add_node` → `NodeId`,
/// `node::<T>()` / `node_mut::<T>()` for access), so the shared-pointer
/// pattern is banned from the crates that build worlds.
fn r5_rc_refcell(tokens: &[Token], out: &mut Vec<Violation>) {
    // `std::cell::RefCell` and `RefCell` must both match: skip any
    // `ident ::` path-qualifier pairs before comparing.
    fn is_refcell_at(tokens: &[Token], mut i: usize) -> bool {
        loop {
            match tokens.get(i) {
                Some(t) if t.text == "RefCell" => return true,
                Some(t) if is_ident(t) && tokens.get(i + 1).is_some_and(|n| n.text == "::") => {
                    i += 2;
                }
                _ => return false,
            }
        }
    }
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "Rc" {
            continue;
        }
        // The type: `Rc<RefCell<…>>` (possibly path-qualified).
        let as_type =
            tokens.get(i + 1).is_some_and(|n| n.text == "<") && is_refcell_at(tokens, i + 2);
        // The constructor: `Rc::new(RefCell::new(…))`.
        let as_ctor = tokens.get(i + 1).is_some_and(|n| n.text == "::")
            && tokens.get(i + 2).is_some_and(|n| n.text == "new")
            && tokens.get(i + 3).is_some_and(|n| n.text == "(")
            && is_refcell_at(tokens, i + 4);
        if as_type || as_ctor {
            out.push(Violation {
                rule: 5,
                line: t.line,
                msg: "`Rc<RefCell<…>>` node graph; own the node in the arena \
                      (`World::add_node` → `NodeId`, access via `node::<T>()` \
                      / `node_mut::<T>()` / `with_node_ctx`)"
                    .to_owned(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R6: no heap-allocated byte buffers in frame-facing struct fields
// ---------------------------------------------------------------------

/// The inline-`Pdu` rework removed every `Vec<u8>` from the structs that
/// cross the radio medium (`RawFrame`, `ReceivedFrame`); a `Vec<u8>` field
/// reintroduced on a `pub` frame-facing struct silently puts a heap
/// allocation (and a clone per receiver) back on every delivery.
///
/// Detects `pub [vis-qualifier] name: Vec<u8>` field declarations. Function
/// parameters and locals never carry `pub`, so the pattern only matches
/// struct fields. Private fields are deliberately out of scope: they cannot
/// leak into the public frame API.
fn r6_vec_u8_fields(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.text != "pub" {
            continue;
        }
        // Skip a `(crate)` / `(super)` / `(in …)` visibility qualifier.
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|n| n.text == "(") {
            j = matching(tokens, j) + 1;
        }
        // Field name and the `:` separator.
        if !tokens.get(j).is_some_and(is_ident) || tokens.get(j).is_some_and(|n| n.text == "fn") {
            continue;
        }
        let name = j;
        if tokens.get(j + 1).is_none_or(|n| n.text != ":") {
            continue;
        }
        // The type: `Vec<u8>`, possibly path-qualified.
        let mut k = j + 2;
        while tokens.get(k).is_some_and(is_ident)
            && tokens.get(k + 1).is_some_and(|n| n.text == "::")
        {
            k += 2;
        }
        let is_vec_u8 = tokens.get(k).is_some_and(|n| n.text == "Vec")
            && tokens.get(k + 1).is_some_and(|n| n.text == "<")
            && tokens.get(k + 2).is_some_and(|n| n.text == "u8")
            && tokens.get(k + 3).is_some_and(|n| n.text == ">");
        if is_vec_u8 {
            out.push(Violation {
                rule: 6,
                line: t.line,
                msg: format!(
                    "`pub {}: Vec<u8>` field on a frame-facing struct; store \
                     the bytes inline (`ble_phy::Pdu`) so frame delivery \
                     stays allocation-free",
                    tokens[name].text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R7: no hash-ordered collections in simulation-order-sensitive crates
// ---------------------------------------------------------------------

/// Hash-map iteration order depends on the hasher's per-process random keys
/// (and, even with a fixed hasher, on insertion history and the std
/// implementation), so any simulation state iterated in hash order silently
/// breaks seed-for-seed replayability — the property every experiment
/// artefact comparison rests on. The ban covers type mentions, so
/// constructor forms (`HashMap::new`, `::default`, `collect::<HashMap<…>>`)
/// and `use` imports all trip it.
const HASH_COLLECTIONS: &[&str] = &["HashMap", "HashSet"];

fn r7_hash_collections(tokens: &[Token], out: &mut Vec<Violation>) {
    for t in tokens {
        if HASH_COLLECTIONS.contains(&t.text.as_str()) {
            out.push(Violation {
                rule: 7,
                line: t.line,
                msg: format!(
                    "`{}` iterates in hash order, which is not replayable \
                     across runs; use `BTreeMap`/`BTreeSet`/`Vec`, or waive \
                     with a reason proving iteration order is never observed",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// R8: no host wall-clock reads outside the bench::wallclock quarantine
// ---------------------------------------------------------------------

/// Simulation logic may never branch on host time: a run that behaves
/// differently on a loaded machine is not an experiment. Wall-clock reads
/// for throughput/RSS pricing are legitimate but live in exactly one
/// audited module (`bench::wallclock`), which the lint driver exempts by
/// path. Detected forms: the `std::time::Instant` / `std::time::SystemTime`
/// paths (including `use std::time::{…}` groups) and `Instant::now()` /
/// `SystemTime::now()` calls after an import. `simkit::Instant` — simulated
/// time — has no `now()` and never trips this rule.
fn r8_wall_clock(tokens: &[Token], out: &mut Vec<Violation>) {
    let fire = |out: &mut Vec<Violation>, t: &Token| {
        out.push(Violation {
            rule: 8,
            line: t.line,
            msg: format!(
                "host wall-clock type `{}` outside `bench::wallclock`; \
                 simulation logic must use `simkit` time, and throughput \
                 pricing must go through the quarantine module",
                t.text
            ),
        });
    };
    for (i, t) in tokens.iter().enumerate() {
        // `std :: time ::` followed by the banned type or a `{…}` group.
        if t.text == "std"
            && tokens.get(i + 1).is_some_and(|n| n.text == "::")
            && tokens.get(i + 2).is_some_and(|n| n.text == "time")
            && tokens.get(i + 3).is_some_and(|n| n.text == "::")
        {
            match tokens.get(i + 4) {
                Some(n) if n.text == "Instant" || n.text == "SystemTime" => fire(out, n),
                Some(n) if n.text == "{" => {
                    let close = matching(tokens, i + 4);
                    for tok in &tokens[i + 4..close.min(tokens.len())] {
                        if tok.text == "Instant" || tok.text == "SystemTime" {
                            fire(out, tok);
                        }
                    }
                }
                _ => {}
            }
        }
        // `Instant::now()` / `SystemTime::now()` on an imported name. The
        // path-qualified form is caught above (same line, deduplicated by
        // the `time ::` guard here).
        if (t.text == "Instant" || t.text == "SystemTime")
            && tokens.get(i + 1).is_some_and(|n| n.text == "::")
            && tokens.get(i + 2).is_some_and(|n| n.text == "now")
            && !(i >= 2 && tokens[i - 1].text == "::" && tokens[i - 2].text == "time")
        {
            fire(out, t);
        }
    }
}

// ---------------------------------------------------------------------
// R9: no RNG construction the seed does not control
// ---------------------------------------------------------------------

/// Idents that construct or read entropy-seeded randomness. Any draw from
/// these is invisible to the experiment seed, so two runs with identical
/// seeds diverge — exactly the corruption the release-run gate exists to
/// catch, banned at the source instead.
const UNSEEDED_RNG: &[&str] = &["from_entropy", "thread_rng", "OsRng"];

fn r9_unseeded_rng(tokens: &[Token], out: &mut Vec<Violation>) {
    for (i, t) in tokens.iter().enumerate() {
        if UNSEEDED_RNG.contains(&t.text.as_str()) {
            out.push(Violation {
                rule: 9,
                line: t.line,
                msg: format!(
                    "`{}` draws entropy the experiment seed does not \
                     control; derive randomness from an explicit seed \
                     (`SimRng::seed_from` / `fork`, `seed_from_u64`)",
                    t.text
                ),
            });
        }
        if t.text == "rand"
            && tokens.get(i + 1).is_some_and(|n| n.text == "::")
            && tokens.get(i + 2).is_some_and(|n| n.text == "random")
        {
            out.push(Violation {
                rule: 9,
                line: t.line,
                msg: "`rand::random` draws from the thread-local entropy RNG; \
                      derive randomness from an explicit seed \
                      (`SimRng::seed_from` / `fork`, `seed_from_u64`)"
                    .to_owned(),
            });
        }
    }
}

// Per-rule positive/negative coverage lives in the fixture corpus under
// `tests/fixtures/` (driven by `tests/corpus.rs`): one annotated snippet per
// rule, including waiver handling and the `#[cfg(test)]` exemption. The
// tests here cover only the engine-level pieces the corpus cannot express —
// output ordering and the waiver-audit parsing API.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violations_sorted_by_line() {
        let src = "fn a(x: u64) -> u8 { x as u8 }\nfn b() { panic!(); }";
        let v = lint_source(src, RuleSet::protocol());
        assert_eq!(
            v.iter().map(|x| (x.line, x.rule)).collect::<Vec<_>>(),
            vec![(1, 2), (2, 1)]
        );
    }

    #[test]
    fn ruleset_composition_flags_stack() {
        let rules = RuleSet::general().with_r5().with_r6().with_r7();
        assert!(rules.r4 && rules.r5 && rules.r6 && rules.r7);
        assert!(rules.r8 && rules.r9, "determinism rules ride with general");
        assert!(!rules.r1, "hot-path rules stay protocol-only");
        let none = RuleSet::none();
        assert!(
            !(none.r1 || none.r4 || none.r7 || none.r8 || none.r9),
            "none() is the empty base"
        );
    }

    #[test]
    fn waiver_entries_parse_rules_and_reasons() {
        let src = "\
fn a() {} // xtask-allow: R2 — masked upstream
// xtask-allow: R7
// xtask-allow: R1, R3 -- ascii dashes work too
";
        let entries = collect_waiver_entries(src);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].line, 1);
        assert_eq!(entries[0].rules, vec![2]);
        assert_eq!(entries[0].reason.as_deref(), Some("masked upstream"));
        assert_eq!(entries[1].line, 2);
        assert_eq!(entries[1].rules, vec![7]);
        assert_eq!(entries[1].reason, None, "bare waiver has no reason");
        assert_eq!(entries[2].rules, vec![1, 3]);
        assert_eq!(entries[2].reason.as_deref(), Some("ascii dashes work too"));
    }

    #[test]
    fn waiver_reason_must_be_nonempty() {
        let src = "// xtask-allow: R2 — \nfn f() {}";
        let entries = collect_waiver_entries(src);
        assert_eq!(entries.len(), 1);
        assert_eq!(
            entries[0].reason, None,
            "a dash with nothing after it is not a reason"
        );
    }
}
