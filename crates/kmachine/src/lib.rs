#![warn(missing_docs)]
//! The k-machine model simulator (paper §1.1).
//!
//! `k ≥ 2` machines are pairwise interconnected by bidirectional
//! point-to-point links. Computation advances in synchronous rounds; each
//! *directed* link carries at most `W = O(polylog n)` bits per round; local
//! computation is free. The round complexity of an algorithm is the number
//! of rounds until termination — this crate counts exactly that, plus every
//! communication metric the experiments need (total bits, per-link maxima,
//! per-machine send/receive loads).
//!
//! There is one execution layer, [`bsp::Bsp`], a superstep runner: all
//! messages of a batch are routed and the step is charged
//! `max_link ⌈bits/W⌉` rounds, which is exactly the number of rounds a
//! round-by-round store-and-forward drain of the same batch over per-link
//! FIFO queues takes (checked against such a reference in
//! `tests/model_properties.rs` and `tests/conformance.rs`; DESIGN.md
//! §3.1). The paper's algorithms are sequences of such batches (Lemma 1
//! message schedules), so the BSP layer charges exactly what the paper's
//! analysis counts.
//!
//! It accepts a deterministic [`fault::FaultPlan`] — seeded per-message
//! drop/duplicate/reorder/delay decisions plus scheduled machine crashes
//! — and masks it with a per-superstep ack/retransmit protocol whose cost
//! lands in the `faults_injected` / `retransmit_bits` / `recovery_rounds`
//! counters of [`metrics::CommStats`] (DESIGN.md §3.10).
//!
//! How a window's bytes travel is pluggable ([`transport::Transport`],
//! DESIGN.md §3.12): the in-process simulator (the accounting oracle,
//! bit-for-bit the historical path) or a real multi-process backend — one
//! OS worker process per machine exchanging length-prefixed, seq-numbered
//! frames over Unix-domain sockets, with the PR 6 varint batch encoding as
//! the actual wire format and worker crash/respawn mapped onto the
//! [`fault::CrashEvent`] recovery semantics.
//!
//! Every layer can additionally narrate itself through the structured
//! [`trace`] event stream (DESIGN.md §3.14): a zero-cost-when-off
//! [`trace::Tracer`] receives sequence-numbered, deterministic logical
//! events (supersteps, fault waves, engine phases) plus a separate
//! physical channel for transport wall-clock observations.

pub mod bandwidth;
pub mod bsp;
pub mod det;
pub mod fault;
pub mod message;
pub mod metrics;
pub mod network;
pub mod par;
pub mod trace;
pub mod transport;

pub use bandwidth::{Bandwidth, CostModel};
pub use bsp::Bsp;
pub use fault::{CrashEvent, FaultPlan};
pub use message::{Envelope, WireCodec, WireSize};
pub use metrics::CommStats;
pub use trace::{PhysEvent, PhysRecord, TraceEvent, TraceRecord, TraceSink, Tracer};
pub use transport::{ProcTransport, Transport, TransportSel};
