//! JSONL (one JSON object per line) sink and codec.
//!
//! The writer is hand-rolled and deliberately flat: every record encodes
//! to a single-level JSON object with scalar fields. Times are integer
//! nanoseconds (exact round-trip); floating-point fields use Rust's
//! shortest-round-trip `Display`, so [`parse_line`], which reads lines
//! through the workspace's shared `json_reader`, is an exact inverse of
//! [`to_line`] for every event the stack emits.

use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use json_reader::Value;
use simkit::{Duration, Instant};

use crate::event::{AlertKind, FaultKind, LinkRole, LossReason, TelemetryEvent, Verdict};
use crate::sink::{TelemetryRecord, TelemetrySink};
use crate::span::SpanKind;

// ---------------------------------------------------------------------
// encoding
// ---------------------------------------------------------------------

/// Appends `,"key":"value"` with `value` escaped.
fn push_str_field(out: &mut String, key: &str, value: &str) {
    let _ = write!(out, ",\"{key}\":\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Encodes one record as a single JSON line (no trailing newline).
pub fn to_line(record: &TelemetryRecord) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(s, "{{\"t_ns\":{}", record.at.as_nanos());
    if let Some(node) = record.node {
        let _ = write!(s, ",\"node\":{node}");
    }
    let _ = write!(s, ",\"kind\":\"{}\"", record.event.tag());
    match &record.event {
        TelemetryEvent::NodeAdded { label } => push_str_field(&mut s, "label", label),
        TelemetryEvent::TxStart {
            channel,
            access_address,
            pdu_len,
            end,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"aa\":{access_address},\"len\":{pdu_len},\"end_ns\":{}",
                end.as_nanos()
            );
        }
        TelemetryEvent::TxEnd => {}
        TelemetryEvent::RxLock { channel } | TelemetryEvent::Relock { channel } => {
            let _ = write!(s, ",\"ch\":{channel}");
        }
        TelemetryEvent::RxEnd {
            channel,
            access_address,
            crc_ok,
            interferers,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"aa\":{access_address},\"crc_ok\":{crc_ok},\"interferers\":{interferers}"
            );
        }
        TelemetryEvent::Collision {
            channel,
            interferers,
        } => {
            let _ = write!(s, ",\"ch\":{channel},\"interferers\":{interferers}");
        }
        TelemetryEvent::InterferenceSpill { channel } => {
            let _ = write!(s, ",\"ch\":{channel}");
        }
        TelemetryEvent::Anchor { role, channel, at } => {
            let _ = write!(
                s,
                ",\"role\":\"{}\",\"ch\":{channel},\"at_ns\":{}",
                role.as_str(),
                at.as_nanos()
            );
        }
        TelemetryEvent::WindowOpen {
            channel,
            widening,
            deadline,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"widening_ns\":{},\"deadline_ns\":{}",
                widening.as_nanos(),
                deadline.as_nanos()
            );
        }
        TelemetryEvent::Hop {
            channel,
            event_counter,
        } => {
            let _ = write!(s, ",\"ch\":{channel},\"ev\":{event_counter}");
        }
        TelemetryEvent::SnNesn { role, sn, nesn } => {
            let _ = write!(
                s,
                ",\"role\":\"{}\",\"sn\":{sn},\"nesn\":{nesn}",
                role.as_str()
            );
        }
        TelemetryEvent::CrcFail { channel } => {
            let _ = write!(s, ",\"ch\":{channel}");
        }
        TelemetryEvent::LlControl { opcode } => {
            let _ = write!(s, ",\"opcode\":{opcode}");
        }
        TelemetryEvent::ConnectionEstablished {
            access_address,
            interval,
        } => {
            let _ = write!(
                s,
                ",\"aa\":{access_address},\"interval_ns\":{}",
                interval.as_nanos()
            );
        }
        TelemetryEvent::ConnectionClosed { reason } => {
            let _ = write!(s, ",\"reason\":{reason}");
        }
        TelemetryEvent::SnifferSync { access_address } => {
            let _ = write!(s, ",\"aa\":{access_address}");
        }
        TelemetryEvent::SnifferLost { reason } => {
            let _ = write!(s, ",\"reason\":\"{}\"", reason.as_str());
        }
        TelemetryEvent::InjectionAttempt { channel, lead } => {
            let _ = write!(s, ",\"ch\":{channel},\"lead_ns\":{}", lead.as_nanos());
        }
        TelemetryEvent::HeuristicVerdict {
            verdict,
            attempts_total,
        } => {
            let _ = write!(
                s,
                ",\"verdict\":\"{}\",\"total\":{attempts_total}",
                verdict.as_str()
            );
        }
        TelemetryEvent::AnchorPrediction { error_us } => {
            let _ = write!(s, ",\"error_us\":{error_us}");
        }
        TelemetryEvent::IfsDelta { delta_us } => {
            let _ = write!(s, ",\"delta_us\":{delta_us}");
        }
        TelemetryEvent::Takeover { role } => {
            let _ = write!(s, ",\"role\":\"{}\"", role.as_str());
        }
        TelemetryEvent::ResyncFailed { campaigns, backoff } => {
            let _ = write!(s, ",\"campaigns\":{campaigns}");
            if let Some(backoff) = backoff {
                let _ = write!(s, ",\"backoff_ns\":{}", backoff.as_nanos());
            }
        }
        TelemetryEvent::DetectorAlert { kind, magnitude_us } => {
            let _ = write!(
                s,
                ",\"alert\":\"{}\",\"magnitude_us\":{magnitude_us}",
                kind.as_str()
            );
        }
        TelemetryEvent::PoolExhausted { client } => {
            let _ = write!(s, ",\"client\":{client}");
        }
        TelemetryEvent::SlotDenied => {}
        TelemetryEvent::ConnEstablished { handle } | TelemetryEvent::ConnReleased { handle } => {
            let _ = write!(s, ",\"handle\":{handle}");
        }
        TelemetryEvent::PoolHighWater { in_use } => {
            let _ = write!(s, ",\"in_use\":{in_use}");
        }
        TelemetryEvent::FaultBurst {
            channel,
            power_dbm,
            active,
        } => {
            let _ = write!(
                s,
                ",\"ch\":{channel},\"power_dbm\":{power_dbm},\"active\":{active}"
            );
        }
        TelemetryEvent::FaultEpisode {
            kind,
            magnitude,
            active,
        } => {
            let _ = write!(
                s,
                ",\"fault\":\"{}\",\"magnitude\":{magnitude},\"active\":{active}",
                kind.as_str()
            );
        }
        TelemetryEvent::FaultFrame { kind, channel } => {
            let _ = write!(s, ",\"fault\":\"{}\",\"ch\":{channel}", kind.as_str());
        }
        TelemetryEvent::SpanEnter { id, kind, detail } => {
            let _ = write!(
                s,
                ",\"span\":\"{}\",\"id\":{id},\"detail\":{detail}",
                kind.as_str()
            );
        }
        TelemetryEvent::SpanExit {
            id,
            kind,
            detail,
            sim_ns,
            wall_ns,
            self_sim_ns,
            self_wall_ns,
        } => {
            let _ = write!(
                s,
                ",\"span\":\"{}\",\"id\":{id},\"detail\":{detail},\"sim_ns\":{sim_ns},\"wall_ns\":{wall_ns},\"self_sim_ns\":{self_sim_ns},\"self_wall_ns\":{self_wall_ns}",
                kind.as_str()
            );
        }
    }
    s.push('}');
    s
}

// ---------------------------------------------------------------------
// decoding
// ---------------------------------------------------------------------

/// Decodes one JSONL line back into a record. Exact inverse of [`to_line`];
/// returns `None` on malformed input (a torn line included), bytes after
/// the object, or an unknown `kind`.
pub fn parse_line(line: &str) -> Option<TelemetryRecord> {
    let fields = json_reader::parse(line).ok()?;
    let at = Instant::from_nanos(fields.get("t_ns")?.num()?);
    let node: Option<u32> = fields.get("node").and_then(Value::num);
    let kind = fields.get("kind")?.as_str()?;
    let event = match kind {
        "node" => TelemetryEvent::NodeAdded {
            label: fields.get("label")?.as_str()?.to_owned(),
        },
        "tx-start" => TelemetryEvent::TxStart {
            channel: fields.get("ch")?.num()?,
            access_address: fields.get("aa")?.num()?,
            pdu_len: fields.get("len")?.num()?,
            end: Instant::from_nanos(fields.get("end_ns")?.num()?),
        },
        "tx-end" => TelemetryEvent::TxEnd,
        "rx-lock" => TelemetryEvent::RxLock {
            channel: fields.get("ch")?.num()?,
        },
        "relock" => TelemetryEvent::Relock {
            channel: fields.get("ch")?.num()?,
        },
        "rx-end" => TelemetryEvent::RxEnd {
            channel: fields.get("ch")?.num()?,
            access_address: fields.get("aa")?.num()?,
            crc_ok: fields.get("crc_ok")?.as_bool()?,
            interferers: fields.get("interferers")?.num()?,
        },
        "collision" => TelemetryEvent::Collision {
            channel: fields.get("ch")?.num()?,
            interferers: fields.get("interferers")?.num()?,
        },
        "interference-spill" => TelemetryEvent::InterferenceSpill {
            channel: fields.get("ch")?.num()?,
        },
        "anchor" => TelemetryEvent::Anchor {
            role: LinkRole::parse(fields.get("role")?.as_str()?)?,
            channel: fields.get("ch")?.num()?,
            at: Instant::from_nanos(fields.get("at_ns")?.num()?),
        },
        "window-open" => TelemetryEvent::WindowOpen {
            channel: fields.get("ch")?.num()?,
            widening: Duration::from_nanos(fields.get("widening_ns")?.num()?),
            deadline: Duration::from_nanos(fields.get("deadline_ns")?.num()?),
        },
        "hop" => TelemetryEvent::Hop {
            channel: fields.get("ch")?.num()?,
            event_counter: fields.get("ev")?.num()?,
        },
        "sn-nesn" => TelemetryEvent::SnNesn {
            role: LinkRole::parse(fields.get("role")?.as_str()?)?,
            sn: fields.get("sn")?.as_bool()?,
            nesn: fields.get("nesn")?.as_bool()?,
        },
        "crc-fail" => TelemetryEvent::CrcFail {
            channel: fields.get("ch")?.num()?,
        },
        "ll-control" => TelemetryEvent::LlControl {
            opcode: fields.get("opcode")?.num()?,
        },
        "connected" => TelemetryEvent::ConnectionEstablished {
            access_address: fields.get("aa")?.num()?,
            interval: Duration::from_nanos(fields.get("interval_ns")?.num()?),
        },
        "disconnect" => TelemetryEvent::ConnectionClosed {
            reason: fields.get("reason")?.num()?,
        },
        "sniff-sync" => TelemetryEvent::SnifferSync {
            access_address: fields.get("aa")?.num()?,
        },
        "sniff-lost" => TelemetryEvent::SnifferLost {
            reason: LossReason::parse(fields.get("reason")?.as_str()?)?,
        },
        "inject" => TelemetryEvent::InjectionAttempt {
            channel: fields.get("ch")?.num()?,
            lead: Duration::from_nanos(fields.get("lead_ns")?.num()?),
        },
        "inject-outcome" => TelemetryEvent::HeuristicVerdict {
            verdict: Verdict::parse(fields.get("verdict")?.as_str()?)?,
            attempts_total: fields.get("total")?.num()?,
        },
        "anchor-error" => TelemetryEvent::AnchorPrediction {
            error_us: fields.get("error_us")?.num()?,
        },
        "ifs-delta" => TelemetryEvent::IfsDelta {
            delta_us: fields.get("delta_us")?.num()?,
        },
        "takeover" => TelemetryEvent::Takeover {
            role: LinkRole::parse(fields.get("role")?.as_str()?)?,
        },
        "resync-failed" => TelemetryEvent::ResyncFailed {
            campaigns: fields.get("campaigns")?.num()?,
            backoff: match fields.get("backoff_ns") {
                Some(ns) => Some(Duration::from_nanos(ns.num()?)),
                None => None,
            },
        },
        "alert" => TelemetryEvent::DetectorAlert {
            kind: AlertKind::parse(fields.get("alert")?.as_str()?)?,
            magnitude_us: fields.get("magnitude_us")?.num()?,
        },
        "pool-exhausted" => TelemetryEvent::PoolExhausted {
            client: fields.get("client")?.num()?,
        },
        "slot-denied" => TelemetryEvent::SlotDenied,
        "conn-established" => TelemetryEvent::ConnEstablished {
            handle: fields.get("handle")?.num()?,
        },
        "conn-released" => TelemetryEvent::ConnReleased {
            handle: fields.get("handle")?.num()?,
        },
        "pool-high-water" => TelemetryEvent::PoolHighWater {
            in_use: fields.get("in_use")?.num()?,
        },
        "fault-burst" => TelemetryEvent::FaultBurst {
            channel: fields.get("ch")?.num()?,
            power_dbm: fields.get("power_dbm")?.num()?,
            active: fields.get("active")?.as_bool()?,
        },
        "fault-episode" => TelemetryEvent::FaultEpisode {
            kind: FaultKind::parse(fields.get("fault")?.as_str()?)?,
            magnitude: fields.get("magnitude")?.num()?,
            active: fields.get("active")?.as_bool()?,
        },
        "fault-frame" => TelemetryEvent::FaultFrame {
            kind: FaultKind::parse(fields.get("fault")?.as_str()?)?,
            channel: fields.get("ch")?.num()?,
        },
        "span-enter" => TelemetryEvent::SpanEnter {
            id: fields.get("id")?.num()?,
            kind: SpanKind::parse(fields.get("span")?.as_str()?)?,
            detail: fields.get("detail")?.num()?,
        },
        "span-exit" => TelemetryEvent::SpanExit {
            id: fields.get("id")?.num()?,
            kind: SpanKind::parse(fields.get("span")?.as_str()?)?,
            detail: fields.get("detail")?.num()?,
            sim_ns: fields.get("sim_ns")?.num()?,
            wall_ns: fields.get("wall_ns")?.num()?,
            self_sim_ns: fields.get("self_sim_ns")?.num()?,
            self_wall_ns: fields.get("self_wall_ns")?.num()?,
        },
        _ => return None,
    };
    Some(TelemetryRecord { at, node, event })
}

// ---------------------------------------------------------------------
// the sink
// ---------------------------------------------------------------------

/// Streams records as JSON lines to any [`io::Write`].
///
/// Write errors are sticky: after the first failure the sink goes quiet
/// rather than panicking on the simulation hot path (check
/// [`JsonlSink::is_failed`] after the run).
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
    lines: u64,
    failed: bool,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("failed", &self.failed)
            .finish()
    }
}

impl JsonlSink {
    /// Creates (truncates) the file at `path`, creating parent directories
    /// as needed, and buffers writes to it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = fs::File::create(path)?;
        Ok(JsonlSink::from_writer(Box::new(io::BufWriter::new(file))))
    }

    /// Wraps an arbitrary writer (e.g. a `Vec<u8>` in tests).
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out,
            lines: 0,
            failed: false,
        }
    }

    /// Lines successfully written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Whether a write error has silenced the sink.
    pub fn is_failed(&self) -> bool {
        self.failed
    }
}

impl TelemetrySink for JsonlSink {
    fn emit(&mut self, record: &TelemetryRecord) {
        if self.failed {
            return;
        }
        let line = to_line(record);
        if writeln!(self.out, "{line}").is_err() {
            self.failed = true;
        } else {
            self.lines = self.lines.saturating_add(1);
        }
    }

    fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.failed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(record: &TelemetryRecord) {
        let line = to_line(record);
        let back = parse_line(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
        assert_eq!(&back, record, "line was: {line}");
    }

    #[test]
    fn every_variant_round_trips() {
        let events = vec![
            TelemetryEvent::NodeAdded {
                label: "attacker".into(),
            },
            TelemetryEvent::TxStart {
                channel: 17,
                access_address: 0x8E89_BED6,
                pdu_len: 27,
                end: Instant::from_nanos(1_234_567),
            },
            TelemetryEvent::TxEnd,
            TelemetryEvent::RxLock { channel: 5 },
            TelemetryEvent::Relock { channel: 6 },
            TelemetryEvent::RxEnd {
                channel: 7,
                access_address: 0x1234_5678,
                crc_ok: false,
                interferers: 2,
            },
            TelemetryEvent::Collision {
                channel: 8,
                interferers: 3,
            },
            TelemetryEvent::InterferenceSpill { channel: 11 },
            TelemetryEvent::Anchor {
                role: LinkRole::Master,
                channel: 9,
                at: Instant::from_nanos(999),
            },
            TelemetryEvent::WindowOpen {
                channel: 10,
                widening: Duration::from_nanos(32_500),
                deadline: Duration::from_micros(1_250),
            },
            TelemetryEvent::Hop {
                channel: 11,
                event_counter: 65_535,
            },
            TelemetryEvent::SnNesn {
                role: LinkRole::Slave,
                sn: true,
                nesn: false,
            },
            TelemetryEvent::CrcFail { channel: 12 },
            TelemetryEvent::LlControl { opcode: 0x02 },
            TelemetryEvent::ConnectionEstablished {
                access_address: 0xDEAD_BEEF,
                interval: Duration::from_micros(45_000),
            },
            TelemetryEvent::ConnectionClosed { reason: 0x08 },
            TelemetryEvent::SnifferSync {
                access_address: 0xAB_CDEF,
            },
            TelemetryEvent::SnifferLost {
                reason: LossReason::MissedEvents,
            },
            TelemetryEvent::InjectionAttempt {
                channel: 13,
                lead: Duration::from_nanos(41_250),
            },
            TelemetryEvent::HeuristicVerdict {
                verdict: Verdict::Rejected,
                attempts_total: 42,
            },
            TelemetryEvent::AnchorPrediction { error_us: -3.125 },
            TelemetryEvent::IfsDelta {
                delta_us: 0.017_578_125,
            },
            TelemetryEvent::Takeover {
                role: LinkRole::Master,
            },
            TelemetryEvent::ResyncFailed {
                campaigns: 2,
                backoff: Some(Duration::from_millis(40)),
            },
            TelemetryEvent::ResyncFailed {
                campaigns: 5,
                backoff: None,
            },
            TelemetryEvent::DetectorAlert {
                kind: AlertKind::EarlyAnchor,
                magnitude_us: 87.5,
            },
            TelemetryEvent::PoolExhausted { client: 3 },
            TelemetryEvent::SlotDenied,
            TelemetryEvent::ConnEstablished { handle: 0x0102 },
            TelemetryEvent::ConnReleased { handle: 0x0202 },
            TelemetryEvent::PoolHighWater { in_use: 17 },
            TelemetryEvent::FaultBurst {
                channel: 17,
                power_dbm: -32.5,
                active: true,
            },
            TelemetryEvent::FaultEpisode {
                kind: FaultKind::Drift,
                magnitude: 400.0,
                active: false,
            },
            TelemetryEvent::FaultFrame {
                kind: FaultKind::Loss,
                channel: 21,
            },
            TelemetryEvent::SpanEnter {
                id: 17,
                kind: SpanKind::AttackerInject,
                detail: 23,
            },
            TelemetryEvent::SpanExit {
                id: 17,
                kind: SpanKind::AttackerInject,
                detail: 23,
                sim_ns: 1_250_000,
                wall_ns: 431,
                self_sim_ns: 1_100_000,
                self_wall_ns: 399,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            roundtrip(&TelemetryRecord {
                at: Instant::from_nanos(u64::try_from(i).unwrap() * 1_000_003),
                node: Some(u32::try_from(i % 3).unwrap()),
                event,
            });
        }
    }

    #[test]
    fn node_field_is_optional() {
        roundtrip(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        let line = to_line(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        assert!(!line.contains("\"node\""), "{line}");
    }

    #[test]
    fn string_escaping_round_trips() {
        roundtrip(&TelemetryRecord {
            at: Instant::from_nanos(7),
            node: Some(0),
            event: TelemetryEvent::NodeAdded {
                label: "quote \" backslash \\ newline \n tab \t bell \u{7}".into(),
            },
        });
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("not json"), None);
        assert_eq!(parse_line("{\"t_ns\":1}"), None); // no kind
        assert_eq!(parse_line("{\"t_ns\":1,\"kind\":\"martian\"}"), None);
        assert_eq!(
            parse_line("{\"t_ns\":1,\"kind\":\"rx-lock\"}"), // missing ch
            None
        );
        // Truncated line, as left by a killed process.
        assert_eq!(parse_line("{\"t_ns\":1,\"kind\":\"rx-lo"), None);
        // Bytes after the closing brace: a line is one object, nothing more.
        let line = "{\"t_ns\":1,\"kind\":\"rx-lock\",\"ch\":3}";
        assert!(parse_line(line).is_some());
        assert_eq!(parse_line(&format!("{line}garbage")), None);
        assert_eq!(parse_line(&format!("{line}{line}")), None);
    }

    #[test]
    fn sink_writes_parseable_lines() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let shared = Shared(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::from_writer(Box::new(shared.clone()));
        for i in 0..4u64 {
            sink.emit(&TelemetryRecord {
                at: Instant::from_nanos(i),
                node: Some(1),
                event: TelemetryEvent::RxLock { channel: 3 },
            });
        }
        sink.flush();
        assert_eq!(sink.lines_written(), 4);
        assert!(!sink.is_failed());
        let text = String::from_utf8(shared.0.lock().unwrap().clone()).unwrap();
        let parsed: Vec<_> = text.lines().map(|l| parse_line(l).unwrap()).collect();
        assert_eq!(parsed.len(), 4);
        assert!(parsed
            .iter()
            .all(|r| matches!(r.event, TelemetryEvent::RxLock { channel: 3 })));
    }

    #[test]
    fn write_errors_are_sticky_not_panicky() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("still on fire"))
            }
        }
        let mut sink = JsonlSink::from_writer(Box::new(Broken));
        sink.emit(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        assert!(sink.is_failed());
        assert_eq!(sink.lines_written(), 0);
        sink.emit(&TelemetryRecord {
            at: Instant::ZERO,
            node: None,
            event: TelemetryEvent::TxEnd,
        });
        assert_eq!(sink.lines_written(), 0);
    }
}
