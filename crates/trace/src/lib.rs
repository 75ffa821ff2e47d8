//! # specrt-trace
//!
//! Structured observability for the simulated machine: a zero-dependency
//! tracing layer ([`TraceSink`], [`Tracer`]), a structured event schema
//! ([`TraceEvent`]), a unified [`MetricsRegistry`] absorbing every layer's
//! counters/histograms/time breakdowns, and exporters (JSONL and Chrome
//! `trace_events` JSON, loadable in Perfetto or `chrome://tracing`).
//!
//! The paper's whole evaluation (Figs. 11–14) rests on observing the
//! simulated machine — Busy/Sync/Mem decompositions, failure timing,
//! per-protocol transaction costs. This crate records those observations as
//! first-class events rather than ad-hoc prints:
//!
//! - **protocol transactions** entering `MemSystem::read`/`write` (hit
//!   level, home node, directory-bank queueing delay, and the first of the
//!   paper's lettered race sites the access took: Figs. 6–7, Fig. 9 or
//!   §4.1),
//! - **speculative state transitions** per element (`NoShr`/`ROnly`/`First`
//!   for the non-privatization protocol of Fig. 6–7, `MaxR1st`/`MinW` stamp
//!   movement for the privatization protocol of Fig. 8–9),
//! - **scheduler events** (chunk dispatch per processor),
//! - **abort forensics**: the full `FailReason` with processor, element,
//!   iteration and cycle context.
//!
//! Tracing is runtime-toggleable and free when off: the [`Tracer`] handle
//! holds an `Option<Box<dyn TraceSink>>`; every emission site is guarded by
//! an inlined [`Tracer::enabled`] check so no event is even constructed on
//! the disabled path.
//!
//! # Examples
//!
//! ```
//! use specrt_engine::Cycles;
//! use specrt_trace::{HitKind, TraceEvent, Tracer};
//!
//! let mut tracer = Tracer::ring(1024);
//! if tracer.enabled() {
//!     tracer.emit(TraceEvent::Transaction {
//!         at: Cycles(100),
//!         proc: 0,
//!         arr: 0,
//!         idx: 7,
//!         write: false,
//!         hit: HitKind::Miss,
//!         home: 3,
//!         queue: Cycles(12),
//!         complete: Cycles(309),
//!         case: Some("c"),
//!     });
//! }
//! let events = tracer.drain();
//! assert_eq!(events.len(), 1);
//! let json = specrt_trace::export::chrome_trace(&events);
//! assert!(json.contains("traceEvents"));
//! ```

mod event;
pub mod export;
mod metrics;
mod sink;

pub use event::{HitKind, TraceEvent};
pub use metrics::MetricsRegistry;
pub use sink::{NullSink, RingBufferSink, TraceSink, Tracer};
