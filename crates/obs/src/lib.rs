//! # pitract-obs — self-measurement for a Π-bounded engine
//!
//! The paper's thesis is that query cost should scale with the *accessed or
//! changed* fraction of big data, not with `|D|`. That claim is only worth
//! anything in production if the system can account for itself live: steps
//! metered per batch, `|ΔD|` work per write, fsync latency on the WAL commit
//! path, undo-ring retention under pinned readers. This crate is the common
//! export path for all of that evidence — zero dependencies, no panics on
//! the export path, and a no-op default so the uninstrumented hot path pays
//! a single branch.
//!
//! Layers, bottom to top:
//!
//! * [`metrics`] — atomic [`Counter`]s, [`Gauge`]s, and fixed-log-bucket
//!   [`Histogram`]s behind a thread-safe [`MetricsRegistry`];
//!   [`MetricsSnapshot`] is the point-in-time view every exporter consumes.
//! * [`trace`] — [`TraceBuffer`], a bounded drop-oldest ring of typed
//!   [`TraceEvent`]s (name + `u64` fields), drainable without stopping
//!   writers.
//! * [`recorder`] — [`Recorder`], the cheap cloneable handle the serving
//!   configs carry. `Recorder::default()` is disabled: every
//!   operation short-circuits on one `Option` branch. [`Span`] / [`span!`]
//!   time a scope into a histogram and the trace ring.
//! * [`json`] — a small total JSON value model ([`Json`]): encoder with
//!   stable key order plus a typed, panic-free parser, following the store
//!   codec's discipline. Bench artifacts and metric snapshots share this
//!   encoder.
//! * [`export`] — [`to_prometheus`], the text exposition format, and the
//!   snapshot ⇄ JSON mapping.
//!
//! ## Example
//!
//! ```
//! use pitract_obs::{to_prometheus, MetricsSnapshot, Recorder};
//!
//! let rec = Recorder::new(); // enabled; `Recorder::default()` is a no-op
//! rec.counter("wal_appends_total").add(3);
//! rec.histogram("wal_fsync_micros").record(180);
//! {
//!     let _span = pitract_obs::span!(rec, "pool_batch_micros");
//!     // ... timed work ...
//! }
//! let snap = rec.snapshot();
//! let text = to_prometheus(&snap);
//! assert!(text.contains("wal_appends_total 3"));
//! // The JSON export round-trips without loss.
//! let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(back, snap);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Serving-stack panic hygiene (PR 9): no panicking escape hatches in
// non-test code. Individual invariant sites opt out locally with an
// `#[allow]` paired with a `// lint:allow(...)` justification that the
// `pitract-lint` pass checks.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(clippy::dbg_macro)]

pub mod export;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use export::to_prometheus;
pub use json::{Json, JsonError, JsonErrorKind};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use recorder::{Recorder, Span};
pub use trace::{TraceBuffer, TraceEvent};
