//! Loading a JSONL trace back into memory.
//!
//! Each line is one `heaven_obs::TraceRecord` rendered by `to_json()`.
//! The profiler keeps its own owned record type ([`ProfRecord`]) because
//! the bus's record borrows `&'static str` names, which a parser cannot
//! produce.

use crate::json::{self, Json};
use std::collections::BTreeMap;

/// Record kind, mirroring `heaven_obs::RecordKind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfKind {
    SpanStart,
    SpanEnd,
    Event,
    /// A causal edge between two spans (`span` → `parent`), emitted when
    /// work is shared — e.g. a session's fetch coalescing onto another
    /// session's in-flight batch.
    Link,
}

/// One parsed trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfRecord {
    pub seq: u64,
    pub kind: ProfKind,
    pub name: String,
    pub sim_s: f64,
    pub span: u64,
    pub parent: Option<u64>,
    /// Session id the emitting thread was stamped with (absent before the
    /// first `set_session`, and on single-owner traces).
    pub session: Option<u64>,
    pub fields: BTreeMap<String, Json>,
}

impl ProfRecord {
    /// A numeric field, if present.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Json::as_f64)
    }

    /// An integer field, if present.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        self.fields.get(key).and_then(Json::as_u64)
    }
}

/// Parse one JSONL line. Returns a descriptive error naming the missing
/// or malformed key.
pub fn parse_record(line: &str) -> Result<ProfRecord, String> {
    let v = json::parse(line).map_err(|e| e.to_string())?;
    let kind = match v.get("kind").and_then(Json::as_str) {
        Some("span_start") => ProfKind::SpanStart,
        Some("span_end") => ProfKind::SpanEnd,
        Some("event") => ProfKind::Event,
        Some("link") => ProfKind::Link,
        other => return Err(format!("bad kind {other:?}")),
    };
    let fields = match v.get("fields") {
        Some(Json::Obj(m)) => m.clone(),
        None => BTreeMap::new(),
        Some(other) => return Err(format!("fields is not an object: {other:?}")),
    };
    Ok(ProfRecord {
        seq: v
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or("missing seq".to_string())?,
        kind,
        name: v
            .get("name")
            .and_then(Json::as_str)
            .ok_or("missing name".to_string())?
            .to_string(),
        sim_s: v
            .get("sim_s")
            .and_then(Json::as_f64)
            .ok_or("missing sim_s".to_string())?,
        span: v.get("span").and_then(Json::as_u64).unwrap_or(0),
        parent: v.get("parent").and_then(Json::as_u64),
        session: v.get("session").and_then(Json::as_u64),
        fields,
    })
}

/// Parse a whole JSONL trace, skipping blank lines. Fails on the first
/// malformed line with its line number.
pub fn load_trace(text: &str) -> Result<Vec<ProfRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_record(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    // The bus writes records in `seq` order; sorting restores it for a
    // trace assembled out of order.
    out.sort_by_key(|r| r.seq);
    Ok(out)
}

/// The head-sampling rate announced in-band by the bus's `trace.config`
/// event (1 when the trace is unsampled). Span totals over a sampled
/// trace represent roughly `1/rate` of the queries that actually ran.
pub fn sample_rate(records: &[ProfRecord]) -> u64 {
    records
        .iter()
        .find(|r| r.kind == ProfKind::Event && r.name == "trace.config")
        .and_then(|r| r.field_u64("sample_1_in_n"))
        .unwrap_or(1)
}

/// The trace's end timestamp: the largest `sim_s` of any record (0 for an
/// empty trace). Traces start at simulated time 0.
pub fn total_sim_s(records: &[ProfRecord]) -> f64 {
    records.iter().map(|r| r.sim_s).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use heaven_obs::{Field, TraceBus};

    /// Records written by the real bus must round-trip through the parser.
    #[test]
    fn round_trips_real_bus_output() {
        let bus = TraceBus::ring(64);
        let q = bus.span_start("query", 0.0, &[("label", Field::Str("q1".into()))]);
        bus.event(
            "tape.transfer",
            1.5,
            &[
                ("bytes", Field::U64(4096)),
                ("cost_s", Field::F64(1.5)),
                ("dir", Field::Str("read".into())),
            ],
        );
        bus.span_end(q, 2.0);
        let text: String = bus.records().iter().map(|r| r.to_json() + "\n").collect();
        let parsed = load_trace(&text).unwrap();
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].kind, ProfKind::SpanStart);
        assert_eq!(parsed[0].name, "query");
        assert_eq!(parsed[1].field_u64("bytes"), Some(4096));
        assert_eq!(parsed[1].field_f64("cost_s"), Some(1.5));
        assert_eq!(parsed[2].kind, ProfKind::SpanEnd);
        assert_eq!(parsed[2].field_f64("dur_s"), Some(2.0));
        assert_eq!(total_sim_s(&parsed), 2.0);
    }

    #[test]
    fn bad_line_reports_line_number() {
        let err =
            load_trace("{\"seq\":0,\"kind\":\"event\",\"name\":\"e\",\"sim_s\":0}\nnot json\n")
                .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }
}
