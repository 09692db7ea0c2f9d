//! # heaven-obs — simulated-time tracing and unified metrics
//!
//! HEAVEN's evaluation (paper Ch. 4) is an exercise in attributing query
//! latency to hierarchy levels: media exchange vs. locate vs. transfer
//! vs. disk cache vs. memory cache. This crate provides the shared
//! observability spine for that attribution:
//!
//! * [`TraceBus`] — a span/event bus whose primary timestamps are
//!   **simulated seconds** from the `SimClock` (wall-clock is carried as
//!   a secondary field), so traces are deterministic and replayable.
//!   The record→sink fast path is allocation-free and lock-free: names
//!   intern to [`Sym`] ids, records are fixed-size POD values in a
//!   seqlock ring, and the JSONL sink serializes drained batches off the
//!   hot path. One span API (`span_start`/`span_end`, `event`, `link`)
//!   serves every entry point; [`TraceConfig`] adds head sampling of
//!   root `query` spans, decided per thread, and always-keep-slow tail
//!   capture.
//! * [`MetricsRegistry`] — named monotonic counters, float counters
//!   (simulated seconds), gauges, and histograms. Component stat structs
//!   (`TapeStats`, `CacheStats`, …) remain public views reconstructed
//!   from these metrics.
//! * [`QueryBreakdown`] — a per-query report of time and bytes per
//!   hierarchy level plus media exchanges, surfaced by
//!   `Heaven::last_query_breakdown()` and the `rasql_shell` `\timing`
//!   toggle.
//!
//! The crate is deliberately **zero-dependency** (it sits below
//! `heaven-tape` in the crate graph); callers pass `sim_now` timestamps
//! explicitly.

pub mod breakdown;
pub mod json;
pub mod metrics;
pub mod sym;
pub mod trace;

pub use breakdown::QueryBreakdown;
pub use metrics::{
    bucket_index, bucket_upper_bound, escape_label_value, Counter, Exemplar, FloatCounter, Gauge,
    HistSnapshot, HistSummary, Histogram, MetricValue, MetricsRegistry, NUM_BUCKETS,
};
pub use sym::Sym;
pub use trace::{
    check_well_nested, Field, RecordKind, SpanId, TraceBus, TraceConfig, TraceRecord, TraceSink,
};
