//! The one normaliser: what "byte-identical" means for an experiment
//! binary's outputs, shared by every leg comparison of `cargo xtask gate`.
//!
//! Five artefact fields are *defined* as host measurements and are zeroed
//! before comparison ([`WALL_FIELDS`]: throughput, peak RSS and the span
//! profile's wall times); `[artefact]` stdout lines carry filesystem paths
//! and are dropped. Everything else — every statistic the paper's figures
//! rest on — must be byte-identical.

use crate::perfgate::WALL_FIELDS;

/// Drops `[artefact] <path>` lines: they name the run-specific output path,
/// which legitimately differs between legs.
pub(crate) fn normalize_stdout(raw: &str) -> String {
    let mut out = String::new();
    for line in raw.lines() {
        if line.starts_with("[artefact]") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Neutralises the wall-clock-defined artefact fields ([`WALL_FIELDS`]) so
/// the comparison covers exactly the simulation-deterministic content.
///
/// Field matching is exact: the needle includes the opening quote, so
/// `wall_ns` does not also swallow `self_wall_ns` (each is listed).
pub(crate) fn normalize_json(raw: &str) -> String {
    let mut s = raw.to_string();
    for (field, _) in WALL_FIELDS {
        s = neutralize_field(&s, field);
    }
    s
}

/// Replaces every `"<field>":<number-or-null>` value with `0`.
fn neutralize_field(s: &str, field: &str) -> String {
    let needle = format!("\"{field}\":");
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find(&needle) {
        let after = pos + needle.len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail
            .find(|c: char| {
                !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'n' || c == 'u' || c == 'l')
            })
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The diff excerpt: the first line where `old` (`-`) and `new` (`+`)
/// disagree, with its 1-based line number and both versions.
pub(crate) fn first_divergence(old: &str, new: &str) -> String {
    let mut lo = old.lines();
    let mut ln = new.lines();
    let mut n = 0u32;
    loop {
        n += 1;
        match (lo.next(), ln.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (Some(x), Some(y)) => return format!("  line {n}:\n  - {x}\n  + {y}"),
            (Some(x), None) => return format!("  line {n} only in -:\n  - {x}"),
            (None, Some(y)) => return format!("  line {n} only in +:\n  + {y}"),
            (None, None) => return "  (no textual divergence — lengths differ?)".into(),
        }
    }
}

/// FNV-1a 64-bit, for the one-line per-binary fingerprint in the report.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_lines_are_dropped_from_stdout() {
        let raw = "header\n[artefact] /tmp/x_a.json\nrow 1\n";
        assert_eq!(normalize_stdout(raw), "header\nrow 1\n");
    }

    #[test]
    fn wall_clock_fields_are_neutralised() {
        let raw = r#"{"mean":2.000,"events_per_sec":2293891.9,"trials_per_sec":4165.5,"peak_rss_kb":3256}"#;
        let n = normalize_json(raw);
        assert_eq!(
            n,
            r#"{"mean":2.000,"events_per_sec":0,"trials_per_sec":0,"peak_rss_kb":0}"#
        );
        // `null` RSS (non-Linux) normalises to the same bytes as a number.
        let raw_null = r#"{"peak_rss_kb":null,"x":1}"#;
        assert_eq!(normalize_json(raw_null), r#"{"peak_rss_kb":0,"x":1}"#);
    }

    #[test]
    fn span_wall_fields_are_neutralised_but_sim_fields_kept() {
        let raw = r#"{"phase":"trial-sync","count":1,"sim_ns":100000000,"self_sim_ns":99648000,"wall_ns":104802,"self_wall_ns":98975}"#;
        let n = normalize_json(raw);
        assert_eq!(
            n,
            r#"{"phase":"trial-sync","count":1,"sim_ns":100000000,"self_sim_ns":99648000,"wall_ns":0,"self_wall_ns":0}"#
        );
    }

    #[test]
    fn neutralisation_preserves_simulation_fields() {
        let raw = r#"{"median":2,"variance":0.667,"raw":[2, 3, 1],"events_per_sec":1.5}"#;
        let n = normalize_json(raw);
        assert!(n.contains(r#""median":2"#));
        assert!(n.contains(r#""raw":[2, 3, 1]"#));
        assert!(n.contains(r#""events_per_sec":0"#));
    }

    #[test]
    fn first_divergence_names_the_line() {
        let a = "same\nalpha\ntail\n";
        let b = "same\nbeta\ntail\n";
        let d = first_divergence(a, b);
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("- alpha"));
        assert!(d.contains("+ beta"));
        // One-sided tails are reported too.
        let d = first_divergence("x\ny\n", "x\n");
        assert!(d.contains("line 2 only in -"), "{d}");
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
