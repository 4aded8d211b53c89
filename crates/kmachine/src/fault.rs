//! Deterministic fault injection: seeded per-superstep link faults and
//! scheduled machine crashes.
//!
//! The k-machine model assumes a reliable synchronous network; real
//! clusters drop, duplicate, delay and reorder messages, and lose machines
//! mid-phase. A [`FaultPlan`] describes such an adversarial environment
//! *deterministically*: every fault decision is a pure function of the
//! plan seed and the message coordinates `(superstep, attempt, sequence)`,
//! so a faulty run reproduces exactly from its plan — which is what lets
//! the chaos conformance suite pin bit-identical outputs against
//! fault-free runs.
//!
//! The plan is consumed by [`crate::bsp::Bsp`]. With a plan installed the
//! superstep layer runs a per-superstep ack/retransmit protocol
//! (DESIGN.md §3.10): lost messages are retransmitted in *recovery
//! rounds* until everything arrives, duplicates are discarded by
//! sequence number, and the inbox is reassembled in canonical sequence
//! order — so the application observes exactly the fault-free inbox
//! while [`crate::metrics::CommStats`] records what the masking cost
//! (`faults_injected`, `retransmit_bits`, `recovery_rounds`).

/// One scheduled machine crash: at the start of the given superstep the
/// machine loses its volatile state and every message to or from it in
/// that superstep's first delivery attempt. The machine restarts before
/// the first recovery round (crash-stop with immediate restart); rebuilding
/// its *algorithm* state is the engine's job (the phase checkpoints of
/// `core::engine`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The 0-based superstep index at which the crash fires.
    pub superstep: u64,
    /// The machine that crashes.
    pub machine: usize,
}

/// A deterministic fault-injection plan: per-message drop / duplicate /
/// reorder / delay probabilities plus scheduled machine crashes, all keyed
/// by one seed.
///
/// An all-zero plan (the [`Default`]) injects nothing: installed, it bills
/// no recovery and leaves every inbox and charge as without a plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of every fault decision.
    pub seed: u64,
    /// Per-message, per-attempt drop probability in `[0, 1)` (strictly
    /// below 1: an always-dropping link would starve the retransmit
    /// protocol forever).
    pub drop: f64,
    /// Per-message duplicate probability in `[0, 1]`. A duplicate costs
    /// its wire bits again (a spurious retransmission) and is discarded by
    /// the receiver's sequence-number dedup.
    pub dup: f64,
    /// Per-message reorder probability in `[0, 1]`: the message arrives
    /// out of order within its superstep; canonical sequence reassembly
    /// masks it.
    pub reorder: f64,
    /// Per-message delay probability in `[0, 1]`: the message is in flight
    /// during the first delivery attempt and lands in the first recovery
    /// round (no retransmission bits, one recovery round).
    pub delay: f64,
    /// Scheduled crash events (see [`CrashEvent`]).
    pub crashes: Vec<CrashEvent>,
}

/// Domain-separation constants for the per-fault-kind decision streams.
const KIND_DROP: u64 = 0x5eed_d209;
const KIND_DUP: u64 = 0x5eed_d30b;
const KIND_REORDER: u64 = 0x5eed_02de;
const KIND_DELAY: u64 = 0x5eed_de1a;

/// The workspace's one SplitMix64 mixer, shared with the PRF tree so the
/// two can never drift.
use krand::prf::split_mix64 as mix;

impl FaultPlan {
    /// A plan with the given seed and no faults (compose with the
    /// `with_*` builders).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Sets the drop probability.
    pub fn with_drop(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Sets the duplicate probability.
    pub fn with_dup(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Sets the reorder probability.
    pub fn with_reorder(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    /// Sets the delay probability.
    pub fn with_delay(mut self, p: f64) -> Self {
        self.delay = p;
        self
    }

    /// Schedules machine `machine` to crash at superstep `superstep`.
    pub fn with_crash(mut self, machine: usize, superstep: u64) -> Self {
        self.crashes.push(CrashEvent { superstep, machine });
        self
    }

    /// Validates the probability ranges. `drop` must stay strictly below 1
    /// (an always-dropping link can never be recovered from); the other
    /// probabilities live in `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let range = |name: &str, p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("fault probability {name}={p} must lie in [0, 1]"))
            }
        };
        range("drop", self.drop)?;
        range("dup", self.dup)?;
        range("reorder", self.reorder)?;
        range("delay", self.delay)?;
        if self.drop >= 1.0 {
            return Err("drop=1 starves the retransmit protocol; use drop < 1".into());
        }
        Ok(())
    }

    /// Parses a CLI fault spec: comma-separated `key=value` pairs with
    /// keys `drop`, `dup`, `reorder`, `delay` (probabilities), `seed`
    /// (u64), and repeatable `crash=MACHINE@SUPERSTEP` events.
    ///
    /// ```
    /// use kmachine::fault::FaultPlan;
    /// let p = FaultPlan::parse("drop=0.05,dup=0.1,crash=2@7,seed=9").unwrap();
    /// assert_eq!(p.seed, 9);
    /// assert_eq!(p.crashes.len(), 1);
    /// assert!(FaultPlan::parse("drop=2").is_err());
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (entry, part) in spec
            .split(',')
            .enumerate()
            .filter(|(_, p)| !p.trim().is_empty())
        {
            // Errors are entry-precise: they name the 1-based entry index
            // and the offending field, so a long CLI spec pinpoints itself.
            let at = entry + 1;
            let (key, value) = part.split_once('=').ok_or_else(|| {
                format!(
                    "fault spec entry {at} (`{part}`): not key=value",
                    part = part.trim()
                )
            })?;
            let (key, value) = (key.trim(), value.trim());
            let prob = || -> Result<f64, String> {
                value.parse::<f64>().map_err(|_| {
                    format!(
                        "fault spec entry {at} (`{key}={value}`): field `{key}` is not a number"
                    )
                })
            };
            match key {
                "drop" => plan.drop = prob()?,
                "dup" => plan.dup = prob()?,
                "reorder" => plan.reorder = prob()?,
                "delay" => plan.delay = prob()?,
                "seed" => {
                    plan.seed = value.parse().map_err(|_| {
                        format!("fault spec entry {at} (`seed={value}`): field `seed` is not a u64")
                    })?;
                }
                "crash" => {
                    let (m, s) = value.split_once('@').ok_or_else(|| {
                        format!(
                            "fault spec entry {at} (`crash={value}`): \
                             expected MACHINE@SUPERSTEP"
                        )
                    })?;
                    let machine = m.parse().map_err(|_| {
                        format!(
                            "fault spec entry {at} (`crash={value}`): \
                             field `machine` is not a machine id"
                        )
                    })?;
                    let superstep = s.parse().map_err(|_| {
                        format!(
                            "fault spec entry {at} (`crash={value}`): \
                             field `superstep` is not a superstep index"
                        )
                    })?;
                    plan.crashes.push(CrashEvent { superstep, machine });
                }
                other => {
                    return Err(format!(
                        "fault spec entry {at}: unknown key `{other}` \
                         (supported: drop, dup, reorder, delay, crash, seed)"
                    ))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    /// Formats the plan back into the spec syntax [`FaultPlan::parse`]
    /// accepts. The round trip is exact: `parse(p.to_spec()) == p` for
    /// every valid plan (property-tested), because probabilities are
    /// printed with full `f64` precision via Rust's shortest round-trip
    /// float formatting. Zero fields are omitted; an inactive
    /// seed-0 plan formats as the empty spec.
    pub fn to_spec(&self) -> String {
        let mut parts = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        if self.drop != 0.0 {
            parts.push(format!("drop={}", self.drop));
        }
        if self.dup != 0.0 {
            parts.push(format!("dup={}", self.dup));
        }
        if self.reorder != 0.0 {
            parts.push(format!("reorder={}", self.reorder));
        }
        if self.delay != 0.0 {
            parts.push(format!("delay={}", self.delay));
        }
        for c in &self.crashes {
            parts.push(format!("crash={}@{}", c.machine, c.superstep));
        }
        parts.join(",")
    }

    /// One deterministic Bernoulli roll for fault kind `kind` on message
    /// `(superstep, attempt, seq)`.
    fn roll(&self, kind: u64, p: f64, superstep: u64, attempt: u64, seq: u64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        let mut h = mix(self.seed ^ kind);
        h = mix(h ^ superstep);
        h = mix(h ^ attempt.wrapping_mul(0x0bad_cafe));
        h = mix(h ^ seq);
        (h as f64) < p * (u64::MAX as f64)
    }

    /// Whether transmission attempt `attempt` of message `seq` in
    /// superstep `superstep` is dropped.
    pub fn drops(&self, superstep: u64, attempt: u64, seq: u64) -> bool {
        self.roll(KIND_DROP, self.drop, superstep, attempt, seq)
    }

    /// Whether the first transmission of message `seq` is duplicated.
    pub fn duplicates(&self, superstep: u64, seq: u64) -> bool {
        self.roll(KIND_DUP, self.dup, superstep, 0, seq)
    }

    /// Whether message `seq` arrives out of order within its superstep.
    pub fn reorders(&self, superstep: u64, seq: u64) -> bool {
        self.roll(KIND_REORDER, self.reorder, superstep, 0, seq)
    }

    /// Whether message `seq` is delayed into the first recovery round.
    pub fn delays(&self, superstep: u64, seq: u64) -> bool {
        self.roll(KIND_DELAY, self.delay, superstep, 0, seq)
    }

    /// The machines crashing at superstep `superstep`, deduplicated and
    /// ascending.
    pub fn crashes_at(&self, superstep: u64) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .crashes
            .iter()
            .filter(|c| c.superstep == superstep)
            .map(|c| c.machine)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl std::fmt::Display for FaultPlan {
    /// The parseable spec form (see [`FaultPlan::to_spec`]).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_spec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(7).with_drop(0.5);
        let b = FaultPlan::new(7).with_drop(0.5);
        let c = FaultPlan::new(8).with_drop(0.5);
        let pattern = |p: &FaultPlan| (0..64).map(|i| p.drops(3, 0, i)).collect::<Vec<_>>();
        assert_eq!(pattern(&a), pattern(&b), "same seed, same decisions");
        assert_ne!(pattern(&a), pattern(&c), "different seed, different stream");
        assert!(
            pattern(&a).iter().any(|&d| d) && pattern(&a).iter().any(|&d| !d),
            "p=0.5 must mix outcomes"
        );
    }

    #[test]
    fn attempts_reroll_independently() {
        // A message dropped at attempt 0 must not be doomed forever: the
        // roll varies with the attempt index.
        let p = FaultPlan::new(3).with_drop(0.5);
        let doomed = (0..200u64)
            .filter(|&seq| p.drops(0, 0, seq))
            .any(|seq| (1..64).all(|attempt| p.drops(0, attempt, seq)));
        assert!(!doomed, "every dropped message eventually gets through");
    }

    #[test]
    fn probability_endpoints() {
        let never = FaultPlan::new(1);
        assert!((0..100).all(|i| !never.drops(0, 0, i)));
        let always = FaultPlan::new(1).with_dup(1.0);
        assert!((0..100).all(|i| always.duplicates(0, i)));
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let p = FaultPlan::new(11).with_drop(0.2);
        let hits = (0..10_000u64).filter(|&s| p.drops(1, 0, s)).count();
        assert!(
            (1500..2500).contains(&hits),
            "drop=0.2 over 10k rolls hit {hits} times"
        );
    }

    #[test]
    fn parse_round_trips_the_readme_spec() {
        let p = FaultPlan::parse("drop=0.05, dup=0.1, reorder=0.5, delay=0.02, seed=7").unwrap();
        assert_eq!(p.drop, 0.05);
        assert_eq!(p.dup, 0.1);
        assert_eq!(p.reorder, 0.5);
        assert_eq!(p.delay, 0.02);
        assert_eq!(p.seed, 7);
        let c = FaultPlan::parse("crash=1@4,crash=0@9").unwrap();
        assert_eq!(
            c.crashes,
            vec![
                CrashEvent {
                    superstep: 4,
                    machine: 1
                },
                CrashEvent {
                    superstep: 9,
                    machine: 0
                }
            ]
        );
        assert_eq!(c.crashes_at(4), vec![1]);
        assert_eq!(c.crashes_at(5), Vec::<usize>::new());
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "drop",
            "drop=x",
            "drop=1.0",
            "drop=-0.1",
            "dup=1.5",
            "unknown=1",
            "crash=3",
            "crash=a@b",
            "seed=abc",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn validate_bounds_probabilities() {
        assert!(FaultPlan::new(0).with_drop(0.999).validate().is_ok());
        assert!(FaultPlan::new(0).with_drop(1.0).validate().is_err());
        assert!(FaultPlan::new(0).with_delay(1.0).validate().is_ok());
        assert!(FaultPlan::new(0).with_reorder(-0.5).validate().is_err());
    }

    #[test]
    fn to_spec_round_trips_handwritten_plans() {
        let p = FaultPlan::new(7)
            .with_drop(0.05)
            .with_dup(0.1)
            .with_reorder(0.5)
            .with_delay(0.02)
            .with_crash(2, 9)
            .with_crash(0, 3);
        assert_eq!(FaultPlan::parse(&p.to_spec()).unwrap(), p);
        assert_eq!(p.to_string(), p.to_spec());
        assert_eq!(FaultPlan::default().to_spec(), "");
        assert_eq!(
            FaultPlan::parse(&FaultPlan::default().to_spec()).unwrap(),
            FaultPlan::default()
        );
    }

    #[test]
    fn parse_errors_are_entry_and_field_precise() {
        // The error names the failing entry's 1-based index and field.
        let e = FaultPlan::parse("drop=0.1,dup=oops,seed=3").unwrap_err();
        assert!(e.contains("entry 2"), "{e}");
        assert!(e.contains("`dup`"), "{e}");
        let e = FaultPlan::parse("seed=3,crash=1@x").unwrap_err();
        assert!(e.contains("entry 2"), "{e}");
        assert!(e.contains("`superstep`"), "{e}");
        let e = FaultPlan::parse("drop=0.1,crash=z@4").unwrap_err();
        assert!(e.contains("entry 2") && e.contains("`machine`"), "{e}");
        let e = FaultPlan::parse("drop=0.1,bogus=1").unwrap_err();
        assert!(e.contains("entry 2") && e.contains("`bogus`"), "{e}");
        let e = FaultPlan::parse("drop=0.1,,seed").unwrap_err();
        assert!(e.contains("entry 3"), "empty entries keep indexing: {e}");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// A generator over valid plans: probabilities inside their documented
    /// ranges (`drop < 1`), arbitrary seeds, up to four crash events. Each
    /// probability is gated by a selector so exact-zero (omitted-field)
    /// plans are exercised alongside full-precision floats.
    fn arb_plan() -> impl Strategy<Value = FaultPlan> {
        fn prob() -> impl Strategy<Value = f64> {
            (0u8..4, 0.0..0.999f64).map_gen(|(z, v)| if z == 0 { 0.0 } else { v })
        }
        (
            (0u64..u64::MAX, prob(), prob()),
            (prob(), prob()),
            prop::collection::vec((0usize..64, 0u64..1000), 0..4),
        )
            .map_gen(|((seed, drop, dup), (reorder, delay), crashes)| {
                let mut plan = FaultPlan::new(seed)
                    .with_drop(drop)
                    .with_dup(dup)
                    .with_reorder(reorder)
                    .with_delay(delay);
                for (m, s) in crashes {
                    plan = plan.with_crash(m, s);
                }
                plan
            })
    }

    proptest! {
        /// Satellite pin (ISSUE 7): random plans round-trip through
        /// parse→format→parse identically — including full-precision
        /// probabilities and crash schedules in order.
        #[test]
        fn spec_round_trip_is_exact(plan in arb_plan()) {
            let spec = plan.to_spec();
            let parsed = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("`{spec}` must parse: {e}"));
            prop_assert_eq!(&parsed, &plan);
            // Idempotence: format(parse(format(p))) == format(p).
            prop_assert_eq!(parsed.to_spec(), spec);
        }

        /// Corrupting one entry of a valid spec yields an error naming that
        /// entry's index.
        #[test]
        fn corrupted_entries_are_reported_precisely(
            plan in arb_plan(),
            key in (0usize..5)
                .map_gen(|i| ["drop", "dup", "reorder", "delay", "seed"][i]),
        ) {
            let spec = plan.to_spec();
            let n_entries = spec.split(',').filter(|p| !p.is_empty()).count();
            let bad = if spec.is_empty() {
                format!("{key}=bogus")
            } else {
                format!("{spec},{key}=bogus")
            };
            let e = FaultPlan::parse(&bad).expect_err("corrupted entry must fail");
            prop_assert!(
                e.contains(&format!("entry {}", n_entries + 1)),
                "error `{}` must name entry {}", e, n_entries + 1
            );
            prop_assert!(e.contains(key), "error `{}` must name field `{}`", e, key);
        }
    }
}
