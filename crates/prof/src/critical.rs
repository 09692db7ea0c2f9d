//! Per-query critical-path attribution across sessions.
//!
//! Concurrent sessions share tertiary work: when several queries need
//! super-tiles from the same medium, one session's drain pass serves all
//! of them under a single `sched.batch` span, and every waiter records a
//! `sched.link` edge from its own `heaven.st_fetch` span to that shared
//! batch span. This module follows those edges to answer, per query:
//! *where did the time go, and whose fetch was I actually waiting on?*
//!
//! Decomposition per query span:
//!
//! - `fetch_s` — time inside `heaven.st_fetch` child spans (tertiary
//!   staging, including any wait on another session's in-flight fetch),
//! - `local_s` — the remainder (`total − fetch`, clamped at 0): cache
//!   hits, tile assembly, decode,
//! - `queue_s` / `service_s` — the batched-scheduler decomposition from
//!   the `sched.served` events nested in each fetch: time from enqueue to
//!   the serving drain pass vs. time being physically staged.
//!
//! By construction `local_s + fetch_s == total_s` (child spans are
//! nested and non-overlapping on the session's lane clock), so the
//! report attributes every query's latency exactly; the *dominant*
//! column names the largest of queue/service/local.

use crate::trace::{total_sim_s, ProfKind, ProfRecord};
use heaven_obs::json;
use std::collections::BTreeMap;

/// One causal edge: a query's fetch span → the shared batch span that
/// actually staged the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalLink {
    /// The waiter's `heaven.st_fetch` span.
    pub from: u64,
    /// The `sched.batch` span that served it.
    pub to: u64,
    /// Session of the drain pass that owned the batch (0 if the batch
    /// span is absent from the trace: ring overwrite, or the drainer's
    /// own query was head-sampled out and took the batch span with it).
    pub served_by: u64,
    /// 1 when the waiter coalesced onto a fetch another waiter had
    /// already registered (shared physical fetch).
    pub coalesced: bool,
}

/// Critical-path attribution for one query span.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryCritical {
    pub span: u64,
    /// Session that ran the query (0 when unstamped).
    pub session: u64,
    pub start_s: f64,
    pub end_s: f64,
    pub total_s: f64,
    /// `total_s − fetch_s`, clamped at 0: cache/assembly/decode time.
    pub local_s: f64,
    /// Sum of `heaven.st_fetch` child span durations.
    pub fetch_s: f64,
    /// Sum of scheduler queue time over this query's fetches.
    pub queue_s: f64,
    /// Sum of scheduler service time over this query's fetches.
    pub service_s: f64,
    /// Tertiary fetches issued (cache hits don't open fetch spans).
    pub fetches: u64,
    /// How many of those rode another waiter's in-flight fetch.
    pub coalesced: u64,
    pub links: Vec<CriticalLink>,
    /// Largest of `queue` / `service` / `local`.
    pub dominant: &'static str,
}

fn dominant_of(queue_s: f64, service_s: f64, local_s: f64) -> &'static str {
    if queue_s >= service_s && queue_s >= local_s {
        "queue"
    } else if service_s >= local_s {
        "service"
    } else {
        "local"
    }
}

/// Build the per-query critical-path report from a parsed trace.
/// Queries are returned in span-id (creation) order.
pub fn critical_path(records: &[ProfRecord]) -> Vec<QueryCritical> {
    let end_of_trace = total_sim_s(records);
    // span id → (name, start, end, parent, session)
    struct Node {
        name: String,
        start_s: f64,
        end_s: Option<f64>,
        parent: Option<u64>,
        session: u64,
    }
    let mut spans: BTreeMap<u64, Node> = BTreeMap::new();
    // fetch span → (queue_s, service_s) from its nested sched.served
    let mut served: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    // fetch span → (batch span, coalesced)
    let mut links: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
    for rec in records {
        match rec.kind {
            ProfKind::SpanStart => {
                spans.insert(
                    rec.span,
                    Node {
                        name: rec.name.clone(),
                        start_s: rec.sim_s,
                        end_s: None,
                        parent: rec.parent,
                        session: rec.session.unwrap_or(0),
                    },
                );
            }
            ProfKind::SpanEnd => {
                if let Some(n) = spans.get_mut(&rec.span) {
                    n.end_s = Some(rec.sim_s);
                }
            }
            ProfKind::Event if rec.name == "sched.served" => {
                if let Some(parent) = rec.parent {
                    let q = rec.field_f64("queue_s").unwrap_or(0.0);
                    let s = rec.field_f64("service_s").unwrap_or(0.0);
                    let e = served.entry(parent).or_insert((0.0, 0.0));
                    e.0 += q;
                    e.1 += s;
                }
            }
            ProfKind::Link if rec.name == "sched.link" => {
                if let Some(to) = rec.parent {
                    let coalesced = rec.field_u64("coalesced").unwrap_or(0) != 0;
                    links.insert(rec.span, (to, coalesced));
                }
            }
            _ => {}
        }
    }
    let dur = |n: &Node| (n.end_s.unwrap_or(end_of_trace) - n.start_s).max(0.0);
    let mut out = Vec::new();
    for (&qid, q) in spans.iter().filter(|(_, n)| n.name == "query") {
        let total_s = dur(q);
        let mut fetch_s = 0.0;
        let mut queue_s = 0.0;
        let mut service_s = 0.0;
        let mut fetches = 0u64;
        let mut coalesced = 0u64;
        let mut qlinks = Vec::new();
        for (&fid, f) in spans
            .iter()
            .filter(|(_, n)| n.parent == Some(qid) && n.name == "heaven.st_fetch")
        {
            fetches += 1;
            fetch_s += dur(f);
            if let Some(&(qs, ss)) = served.get(&fid) {
                queue_s += qs;
                service_s += ss;
            }
            if let Some(&(to, was_coalesced)) = links.get(&fid) {
                if was_coalesced {
                    coalesced += 1;
                }
                qlinks.push(CriticalLink {
                    from: fid,
                    to,
                    served_by: spans.get(&to).map_or(0, |b| b.session),
                    coalesced: was_coalesced,
                });
            }
        }
        let local_s = (total_s - fetch_s).max(0.0);
        out.push(QueryCritical {
            span: qid,
            session: q.session,
            start_s: q.start_s,
            end_s: q.end_s.unwrap_or(end_of_trace),
            total_s,
            local_s,
            fetch_s,
            queue_s,
            service_s,
            fetches,
            coalesced,
            links: qlinks,
            dominant: dominant_of(queue_s, service_s, local_s),
        });
    }
    out
}

/// Render the report as one JSON document (own-parser compatible).
pub fn to_json(queries: &[QueryCritical]) -> String {
    let mut out = String::from("{\"queries\":[");
    for (i, q) in queries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"span\":");
        out.push_str(&q.span.to_string());
        out.push_str(",\"session\":");
        out.push_str(&q.session.to_string());
        out.push_str(",\"start_s\":");
        json::write_f64(&mut out, q.start_s);
        out.push_str(",\"end_s\":");
        json::write_f64(&mut out, q.end_s);
        out.push_str(",\"total_s\":");
        json::write_f64(&mut out, q.total_s);
        out.push_str(",\"local_s\":");
        json::write_f64(&mut out, q.local_s);
        out.push_str(",\"fetch_s\":");
        json::write_f64(&mut out, q.fetch_s);
        out.push_str(",\"queue_s\":");
        json::write_f64(&mut out, q.queue_s);
        out.push_str(",\"service_s\":");
        json::write_f64(&mut out, q.service_s);
        out.push_str(",\"fetches\":");
        out.push_str(&q.fetches.to_string());
        out.push_str(",\"coalesced\":");
        out.push_str(&q.coalesced.to_string());
        out.push_str(",\"dominant\":");
        json::write_str(&mut out, q.dominant);
        out.push_str(",\"links\":[");
        for (j, l) in q.links.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str("{\"from\":");
            out.push_str(&l.from.to_string());
            out.push_str(",\"to\":");
            out.push_str(&l.to.to_string());
            out.push_str(",\"served_by\":");
            out.push_str(&l.served_by.to_string());
            out.push_str(",\"coalesced\":");
            out.push_str(if l.coalesced { "true" } else { "false" });
            out.push('}');
        }
        out.push_str("]}");
    }
    let links: usize = queries.iter().map(|q| q.links.len()).sum();
    let coalesced: u64 = queries.iter().map(|q| q.coalesced).sum();
    out.push_str("],\"totals\":{\"queries\":");
    out.push_str(&queries.len().to_string());
    out.push_str(",\"total_s\":");
    json::write_f64(&mut out, queries.iter().map(|q| q.total_s).sum());
    out.push_str(",\"queue_s\":");
    json::write_f64(&mut out, queries.iter().map(|q| q.queue_s).sum());
    out.push_str(",\"service_s\":");
    json::write_f64(&mut out, queries.iter().map(|q| q.service_s).sum());
    out.push_str(",\"local_s\":");
    json::write_f64(&mut out, queries.iter().map(|q| q.local_s).sum());
    out.push_str(",\"links\":");
    out.push_str(&links.to_string());
    out.push_str(",\"coalesced\":");
    out.push_str(&coalesced.to_string());
    out.push_str("}}");
    out
}

/// Render a human-readable table, one row per query.
pub fn render(queries: &[QueryCritical]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10} {:>7} {:>10} {:>10} {:>10} {:>10} {:>7} {:>9}  {}\n",
        "span",
        "session",
        "total_s",
        "queue_s",
        "service_s",
        "local_s",
        "fetches",
        "coalesced",
        "dominant"
    ));
    for q in queries {
        out.push_str(&format!(
            "{:>10} {:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>7} {:>9}  {}\n",
            q.span,
            q.session,
            q.total_s,
            q.queue_s,
            q.service_s,
            q.local_s,
            q.fetches,
            q.coalesced,
            q.dominant
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::load_trace;
    use heaven_obs::{Field, TraceBus};

    fn trace_text(bus: &TraceBus) -> String {
        bus.records().iter().map(|r| r.to_json() + "\n").collect()
    }

    /// Two sessions, one shared batch: session 2's fetch coalesces onto
    /// the batch driven from session 1. Attribution must be exact.
    #[test]
    fn attributes_latency_across_a_shared_batch() {
        let bus = TraceBus::ring(256);
        bus.set_session(1);
        let q1 = bus.span_start("query", 0.0, &[]);
        let f1 = bus.span_start("heaven.st_fetch", 1.0, &[("st", Field::U64(9))]);
        let b = bus.span_start("sched.batch", 1.5, &[("fetches", Field::U64(2))]);
        bus.span_end(b, 7.0);
        bus.link(
            "sched.link",
            7.0,
            f1,
            b,
            &[("st", Field::U64(9)), ("coalesced", Field::U64(0))],
        );
        bus.event(
            "sched.served",
            7.0,
            &[("queue_s", Field::F64(0.5)), ("service_s", Field::F64(5.5))],
        );
        bus.span_end(f1, 7.0);
        bus.span_end(q1, 8.0);
        // Second session: its whole fetch is a wait on session 1's batch.
        bus.set_session(2);
        let q2 = bus.span_start("query", 2.0, &[]);
        let f2 = bus.span_start("heaven.st_fetch", 2.5, &[("st", Field::U64(9))]);
        bus.link(
            "sched.link",
            7.0,
            f2,
            b,
            &[("st", Field::U64(9)), ("coalesced", Field::U64(1))],
        );
        bus.event(
            "sched.served",
            7.0,
            &[("queue_s", Field::F64(0.5)), ("service_s", Field::F64(5.5))],
        );
        bus.span_end(f2, 7.0);
        bus.span_end(q2, 7.25);
        let recs = load_trace(&trace_text(&bus)).unwrap();
        let report = critical_path(&recs);
        assert_eq!(report.len(), 2);
        let r1 = &report[0];
        assert_eq!((r1.session, r1.fetches, r1.coalesced), (1, 1, 0));
        assert!((r1.total_s - 8.0).abs() < 1e-9);
        assert!((r1.fetch_s - 6.0).abs() < 1e-9);
        assert!((r1.local_s - 2.0).abs() < 1e-9);
        assert!((r1.local_s + r1.fetch_s - r1.total_s).abs() < 1e-9);
        assert_eq!(r1.dominant, "service");
        let r2 = &report[1];
        assert_eq!((r2.session, r2.coalesced), (2, 1));
        assert_eq!(r2.links.len(), 1);
        // The link resolves to the batch span and the drainer's session.
        assert_eq!(r2.links[0].to, b);
        assert_eq!(r2.links[0].served_by, 1);
        assert!(r2.links[0].coalesced);
        assert!((r2.local_s + r2.fetch_s - r2.total_s).abs() < 1e-9);
        let js = to_json(&report);
        crate::json::parse(&js).unwrap();
        assert!(js.contains("\"served_by\":1"), "{js}");
        assert!(render(&report).contains("service"));
    }

    /// Cache-hit-only queries have no fetch spans: all time is local.
    #[test]
    fn pure_local_query_is_local_dominant() {
        let bus = TraceBus::ring(64);
        bus.set_session(4);
        let q = bus.span_start("query", 0.0, &[]);
        bus.span_end(q, 0.25);
        let recs = load_trace(&trace_text(&bus)).unwrap();
        let report = critical_path(&recs);
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].dominant, "local");
        assert_eq!(report[0].fetches, 0);
        assert!((report[0].local_s - 0.25).abs() < 1e-9);
    }
}
