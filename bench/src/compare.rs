//! `kmm-bench compare A.json B.json`: one row per workload × end-to-end
//! metric — both medians, the ratio with its base, the bound, a verdict —
//! plus a check that every exact count repeated.
//!
//! Verdicts follow the rule a later PR's before/after must use: a median
//! within the bound is `same`; beyond it, `better` or `worse`; but where
//! the run-to-run spread is wider than the bound the row is `unresolved`
//! unless every sample of one side beats every sample of the other.
//! Spread (the distance between the quartiles) and separation are judged
//! per cluster variant (samples measured on the same input), so the ±20 % a
//! different seed's phase count causes is not mistaken for noise.

use crate::json::Json;
use crate::metrics::{bound_for, Better, EndToEnd, END_TO_END, SETUP_BOUND_FLOOR_S};
use crate::stats::{median, range};
use std::collections::BTreeMap;

/// One side's statistics for one metric.
#[derive(Clone, Debug)]
struct Stat {
    median: f64,
    /// Samples grouped by the cluster variant they were measured on.
    groups: BTreeMap<u64, Vec<f64>>,
}

fn stat(section: &Json, metric: &str) -> Option<Stat> {
    let s = section.get("end_to_end")?.get(metric)?;
    let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let samples = s.get("samples").map_or(&[][..], Json::items);
    let variants = s.get("variants").map_or(&[][..], Json::items);
    for (x, v) in samples.iter().zip(variants) {
        groups
            .entry(v.as_f64()? as u64)
            .or_default()
            .push(x.as_f64()?);
    }
    Some(Stat {
        median: s.get("median")?.as_f64()?,
        groups,
    })
}

impl Stat {
    /// Run-to-run noise with the input held fixed, in the metric's own
    /// unit: the distance between the quartiles of every sample's offset
    /// from the median of its own variant. Variants measured once say
    /// nothing about noise and are left out.
    fn noise(&self) -> f64 {
        let mut offsets: Vec<f64> = self
            .groups
            .values()
            .filter(|g| g.len() >= 2)
            .flat_map(|g| {
                let centre = median(g);
                g.iter().map(move |x| x - centre)
            })
            .collect();
        if offsets.is_empty() {
            return 0.0;
        }
        offsets.sort_by(f64::total_cmp);
        let quartile = |p: f64| {
            let at = p * (offsets.len() - 1) as f64;
            let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
            offsets[lo] + (offsets[hi] - offsets[lo]) * (at - lo as f64)
        };
        quartile(0.75) - quartile(0.25)
    }
}

/// `Some(true)` if, on every variant both sides measured, every sample of
/// `b` is better than every sample of `a`; `Some(false)` if every one is
/// worse; `None` if the samples interleave anywhere.
fn separated(better: Better, a: &Stat, b: &Stat) -> Option<bool> {
    let mut verdict = None;
    for (variant, xa) in &a.groups {
        let Some(xb) = b.groups.get(variant) else {
            continue;
        };
        let ((a_lo, a_hi), (b_lo, b_hi)) = (range(xa), range(xb));
        let b_better = match better {
            Better::Lower if b_hi < a_lo => true,
            Better::Lower if b_lo > a_hi => false,
            Better::Higher if b_lo > a_hi => true,
            Better::Higher if b_hi < a_lo => false,
            _ => return None,
        };
        if verdict.is_some_and(|v| v != b_better) {
            return None;
        }
        verdict = Some(b_better);
    }
    verdict
}

/// The verdict for one metric, `a` the base and `b` the candidate.
fn verdict(m: &EndToEnd, bound: f64, a: &Stat, b: &Stat) -> &'static str {
    // Orient the difference so that larger = worse.
    let sign = if m.better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median);
    if m.bound == 0.0 {
        return if worse_by == 0.0 {
            "same"
        } else if worse_by > 0.0 {
            "worse"
        } else {
            "better"
        };
    }
    let mut tolerance = bound * a.median.abs();
    if m.name == "setup_s" {
        tolerance = tolerance.max(SETUP_BOUND_FLOOR_S);
    }
    if a.noise().max(b.noise()) > tolerance {
        // Too noisy for the medians to decide: only a difference beyond the
        // bound *and* a clean separation of all samples counts.
        return match separated(m.better, a, b) {
            Some(true) if worse_by < -tolerance => "better",
            Some(false) if worse_by > tolerance => "worse",
            _ => "unresolved",
        };
    }
    if worse_by > tolerance {
        "worse"
    } else if worse_by < -tolerance {
        "better"
    } else {
        "same"
    }
}

/// Compares two reports. Returns the rendered table and whether any row is
/// `worse` or any exact count differs.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |r: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(r.get("workloads")
            .ok_or("report has no `workloads`")?
            .fields()
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut bad = false;
    for key in ["git_rev", "seed", "nproc", "scale", "seconds"] {
        let show = |r: &Json| r.get(key).map_or("?".to_string(), Json::to_line);
        out.push_str(&format!("{key:<8} A={} B={}\n", show(a), show(b)));
    }
    out.push_str(&format!(
        "{:<16} {:<14} {:>16} {:>16} {:>8} {:>6}  {}\n",
        "workload", "metric", "A.median", "B.median", "B/A", "bound", "verdict"
    ));
    for (name, sa) in &wa {
        let Some((_, sb)) = wb.iter().find(|(n, _)| n == name) else {
            out.push_str(&format!("{name:<16} missing from B\n"));
            bad = true;
            continue;
        };
        for m in &END_TO_END {
            let (Some(x), Some(y)) = (stat(sa, m.name), stat(sb, m.name)) else {
                continue; // not defined on this workload
            };
            let bound = bound_for(m, name);
            let v = verdict(m, bound, &x, &y);
            bad |= v == "worse";
            let ratio = if x.median == 0.0 {
                "-".to_string() // no base to take a ratio with
            } else {
                format!("{:.4}", y.median / x.median)
            };
            out.push_str(&format!(
                "{:<16} {:<14} {:>16.6} {:>16.6} {:>8} {:>6}  {}\n",
                name,
                m.name,
                x.median,
                y.median,
                ratio,
                if m.bound == 0.0 {
                    "exact".to_string()
                } else {
                    format!("{:.0}%", bound * 100.0)
                },
                v
            ));
        }
        // Exact layer counts must repeat bit-for-bit.
        let (mut equal, mut differ) = (0usize, Vec::new());
        for (metric, la) in sa.get("layers").map_or(&[][..], Json::fields) {
            if la.get("kind").and_then(Json::as_str) != Some("count") {
                continue;
            }
            let vb = sb.get("layers").and_then(|l| l.get(metric));
            if vb.and_then(|v| v.get("value")) == la.get("value") {
                equal += 1;
            } else {
                differ.push(metric.clone());
            }
        }
        if equal + differ.len() > 0 {
            out.push_str(&format!(
                "{name:<16} exact layer counts: {equal} equal, {} differ {}\n",
                differ.len(),
                differ.join(" ")
            ));
            bad |= !differ.is_empty();
        }
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stat with `samples[i]` measured on variant `i % 2`.
    fn s(median: f64, samples: &[f64]) -> Stat {
        let mut groups: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (i, &x) in samples.iter().enumerate() {
            groups.entry(i as u64 % 2).or_default().push(x);
        }
        Stat { median, groups }
    }

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("known metric")
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let solve = metric("solve_s");
        // Variants differ by 25 % (different phase counts); each repeats to 1 %.
        let base = s(2.2, &[2.0, 2.5, 2.02, 2.48]);
        let v = |b: &Stat| verdict(solve, 0.10, &base, b);
        assert_eq!(v(&s(2.3, &[2.1, 2.6, 2.12, 2.58])), "same");
        assert_eq!(v(&s(2.7, &[2.45, 3.0, 2.47, 2.98])), "worse");
        assert_eq!(v(&s(1.6, &[1.45, 1.8, 1.47, 1.78])), "better");
        // Noisy repeats on one input that interleave cannot decide…
        let noisy = s(2.2, &[1.7, 2.5, 2.4, 2.9]);
        assert_eq!(
            verdict(solve, 0.10, &noisy, &s(2.5, &[1.9, 2.9, 2.6, 3.3])),
            "unresolved"
        );
        // …unless every candidate sample beats every base sample, per variant.
        assert_eq!(
            verdict(solve, 0.10, &noisy, &s(1.3, &[1.0, 1.5, 1.6, 1.4])),
            "better"
        );
        // Cleanly separated but inside the bound is not a regression either.
        let wobbly = s(0.0175, &[0.016, 0.017, 0.060, 0.030]);
        let setup = metric("setup_s");
        assert_eq!(
            verdict(
                setup,
                0.10,
                &wobbly,
                &s(0.026, &[0.061, 0.031, 0.062, 0.032])
            ),
            "unresolved"
        );

        let rate = metric("edges_per_s");
        assert_eq!(
            verdict(
                rate,
                0.10,
                &s(100.0, &[99.0, 101.0]),
                &s(80.0, &[79.0, 81.0])
            ),
            "worse"
        );
        let rounds = metric("rounds");
        assert_eq!(
            verdict(rounds, 0.0, &s(10.0, &[10.0]), &s(10.0, &[10.0])),
            "same"
        );
        assert_eq!(
            verdict(rounds, 0.0, &s(10.0, &[10.0]), &s(11.0, &[11.0])),
            "worse"
        );
        // 30 ms → 37 ms is +23 % but inside the 10 ms floor.
        let setup = metric("setup_s");
        assert_eq!(
            verdict(
                setup,
                0.10,
                &s(0.030, &[0.030, 0.031]),
                &s(0.037, &[0.037, 0.038])
            ),
            "same"
        );
    }
}
