#![warn(missing_docs)]
//! Randomness substrate for the k-machine algorithms.
//!
//! The paper's algorithms consume three kinds of randomness:
//!
//! 1. **True d-wise independent hash functions** over a prime field, used by
//!    the linear-sketch construction (`ksketch`). Implemented as random
//!    polynomials of degree `d-1` over the Mersenne prime `p = 2^61 - 1`
//!    ([`poly::PolyHash`]).
//! 2. **Keyed pseudorandom functions** used for proxy selection and DRR
//!    ranks, derived from a shared master seed ([`prf`]).
//! 3. **Shared randomness**: Section 2.2 of the paper distributes
//!    `Θ~(n/k)` random bits from machine `M1` to every other machine in
//!    `O~(n/k^2)` rounds. [`shared::SharedRandomness`] models both the
//!    derivation tree (so all machines agree on every hash function without
//!    further communication) and the *cost* of that initial distribution,
//!    which the simulator can charge to the round counter.

pub mod m61;
pub mod poly;
pub mod prf;
pub mod shared;

pub use m61::M61;
pub use poly::{PolyBatch, PolyHash};
pub use prf::{split_mix64, Prf};
pub use shared::SharedRandomness;
