//! The comparison algorithms every experiment reports against.
//!
//! * [`flooding`] — the `Θ(n/k + D)`-round label-propagation connectivity
//!   baseline (§1.2 warm-up; implemented in Giraph variants \[43\]).
//! * [`referee`] — collect the whole graph at one machine: `Ω(m/k)` rounds
//!   (§2 warm-up).
//! * [`edge_boruvka`] — GHS-style Borůvka that explicitly checks edge
//!   states: every relabel is pushed to all neighboring machines, moving
//!   `Θ(m)` bits per phase — the congestion the paper's sketches avoid.
//! * [`rep_mst`] — the §1.3 / footnote-5 random-edge-partition MST: local
//!   cycle-property filtering, REP→RVP routing in `O~(n/k)` rounds, then
//!   the fast RVP algorithm.
//!
//! Every baseline is also a [`crate::session::Problem`]
//! ([`crate::session::Flooding`], [`crate::session::Referee`],
//! [`crate::session::EdgeBoruvka`], [`crate::session::RepMst`]), so a
//! [`crate::session::Cluster`] ingested once can run headliners and
//! baselines side by side on the same shards.

pub mod edge_boruvka;
pub mod flooding;
pub mod referee;
pub mod rep_mst;
