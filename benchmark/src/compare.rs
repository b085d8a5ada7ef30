//! `compare A.json B.json`: one row per (workload, end-to-end metric) with a
//! verdict, refusing files that measured different inputs.

use crate::metrics::{Better, EndToEnd, Kind, END_TO_END};
use crate::report::SetResult;
use crate::stats::Quartiles;
use std::fmt::Write as _;

/// How B stands against A on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No difference the measurement can show.
    Same,
    /// B's median is better by more than the runs' own spread.
    Better,
    /// B's median is worse by more than the metric's bound (or, for a
    /// sim-time metric, at all).
    Worse,
    /// The run-to-run spread is wider than the bound: nothing can be said.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric. `worse_by` is B's relative change in the bad direction.
pub fn verdict(m: &EndToEnd, a: Quartiles, b: Quartiles) -> Verdict {
    let worse_by = match m.better {
        Better::Higher => (a.median - b.median) / a.median.abs(),
        Better::Lower => (b.median - a.median) / a.median.abs(),
    };
    if m.kind == Kind::Sim {
        // A pure function of (workload, seed): any movement is a change in
        // the modelled system's results, however small.
        return match worse_by {
            w if w > 0.0 => Verdict::Worse,
            w if w < 0.0 => Verdict::Better,
            _ => Verdict::Same,
        };
    }
    if (a.median - b.median).abs() <= m.floor && (a.q3 - a.q1).max(b.q3 - b.q1) <= m.floor {
        return Verdict::Same;
    }
    let spread = a.spread().max(b.spread());
    if spread > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Worse
    } else if -worse_by > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison table and whether any row is `worse`. `Err` when the two
/// files may not be compared at all.
pub fn compare(a: &SetResult, b: &SetResult) -> Result<(String, bool), String> {
    let mut out = String::new();
    let mut any_worse = false;
    for (name, wa) in &a.workloads {
        let wb = b
            .workloads
            .get(name)
            .ok_or_else(|| format!("workload `{name}` is missing from the second file"))?;
        if wa.input_fingerprint != wb.input_fingerprint {
            return Err(format!(
                "refusing to compare `{name}`: input_fingerprint {} vs {} — the two files measured different inputs",
                wa.input_fingerprint, wb.input_fingerprint
            ));
        }
        let moved = if wa.sim_digest == wb.sim_digest {
            "unchanged"
        } else {
            "MOVED"
        };
        let _ = writeln!(
            out,
            "== {name}: sim_digest {} -> {} ({moved}); failed {}/{} -> {}/{}",
            wa.sim_digest, wb.sim_digest, wa.failed, wa.attempted, wb.failed, wb.attempted
        );
        for m in &END_TO_END {
            let (Some(va), Some(vb)) = (wa.end_to_end.get(m.name), wb.end_to_end.get(m.name))
            else {
                return Err(format!("`{name}` lacks samples of `{}`", m.name));
            };
            let (qa, qb) = (Quartiles::of(va), Quartiles::of(vb));
            let v = verdict(m, qa, qb);
            any_worse |= v == Verdict::Worse;
            let _ = writeln!(
                out,
                "   {:<22} {:>14.6} [{:.6}, {:.6}] n{} -> {:>14.6} [{:.6}, {:.6}] n{}  {:+7.2}%  bound {:>5.1}%  spread {:>5.1}%  {}",
                m.name,
                qa.median,
                qa.q1,
                qa.q3,
                qa.n,
                qb.median,
                qb.q1,
                qb.q3,
                qb.n,
                100.0 * (qb.median - qa.median) / qa.median.abs(),
                100.0 * m.bound,
                100.0 * qa.spread().max(qb.spread()),
                v.as_str()
            );
        }
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::WorkloadResult;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    fn q(values: &[f64]) -> Quartiles {
        Quartiles::of(values)
    }

    #[test]
    fn host_metric_verdicts() {
        let m = metric("jobs_per_s");
        let steady = q(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(verdict(m, steady, steady), Verdict::Same);
        let half = q(&[50.0, 50.5, 49.5, 50.2, 49.8]);
        assert_eq!(verdict(m, steady, half), Verdict::Worse);
        assert_eq!(verdict(m, half, steady), Verdict::Better);
        // Within the bound but inside the noise: same, not better.
        let nudge = q(&[100.4, 101.4, 99.4, 100.9, 99.9]);
        assert_eq!(verdict(m, steady, nudge), Verdict::Same);
        // Spread wider than the bound is unresolved, never same.
        let wild = q(&[60.0, 140.0, 100.0, 75.0, 130.0]);
        assert_eq!(verdict(m, steady, wild), Verdict::Unresolved);
        assert_eq!(verdict(m, wild, wild), Verdict::Unresolved);
    }

    #[test]
    fn sim_metric_moves_at_the_last_bit() {
        let m = metric("gossip_bytes_per_job");
        let a = q(&[195.9]);
        assert_eq!(verdict(m, a, a), Verdict::Same);
        assert_eq!(verdict(m, a, q(&[195.9 + 1e-9])), Verdict::Worse);
        assert_eq!(verdict(m, a, q(&[195.8])), Verdict::Better);
    }

    #[test]
    fn millisecond_setup_differences_are_the_same() {
        let m = metric("setup_s");
        assert_eq!(
            verdict(m, q(&[0.005, 0.006, 0.004]), q(&[0.009, 0.008, 0.010])),
            Verdict::Same
        );
        assert_eq!(
            verdict(m, q(&[0.70, 0.71, 0.69]), q(&[1.40, 1.41, 1.39])),
            Verdict::Worse
        );
    }

    fn set(fingerprint: &str, digest: &str) -> SetResult {
        let mut w = WorkloadResult {
            input_fingerprint: fingerprint.into(),
            sim_digest: digest.into(),
            attempted: 10,
            ..WorkloadResult::default()
        };
        for m in &END_TO_END {
            w.end_to_end.insert(m.name.into(), vec![1.0, 1.0, 1.0]);
        }
        let mut s = SetResult::default();
        s.workloads.insert("wide_mesh".into(), w);
        s
    }

    #[test]
    fn refuses_different_inputs_and_reports_digest_movement() {
        let a = set("aa", "01");
        let err = compare(&a, &set("ab", "01")).unwrap_err();
        assert!(err.contains("input_fingerprint"), "{err}");
        let (table, worse) = compare(&a, &set("aa", "02")).unwrap();
        assert!(table.contains("MOVED") && !worse, "{table}");
        let (table, _) = compare(&a, &a).unwrap();
        assert!(
            table.contains("unchanged") && table.contains("same"),
            "{table}"
        );
    }
}
