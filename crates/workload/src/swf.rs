//! Standard Workload Format (SWF) import/export.
//!
//! The paper builds its models from "a trace containing jobs run in 2012
//! across all national clusters". Real cluster traces are distributed in the
//! Parallel Workloads Archive's SWF: one line per job with 18
//! whitespace-separated fields, `;`-prefixed header comments. This module
//! reads SWF into [`Trace`] (so archive traces can drive the simulator
//! directly) and writes traces back out for interchange.
//!
//! Field usage (0-based): 1 = submit time, 3 = run time, 4 = allocated
//! processors, 11 = user id. Jobs with non-positive run time or processor
//! count are skipped on import (they would be removed by the cleaning step
//! anyway, §IV-1). A number that parses is still checked — finite, and
//! within its integer for a processor count or user id — so an accepted
//! trace holds only finite submit times ≥ 0, finite run times > 0 and at
//! least one core per job.

use crate::trace::{Trace, TraceJob};

/// Errors raised by SWF parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfError {
    /// A data line had fewer than the 18 standard fields.
    ShortLine {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        fields: usize,
    },
    /// A field failed to parse as a number.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 0-based field index.
        field: usize,
    },
    /// A field parsed as a number no job can hold: `nan`, an infinity, or
    /// a processor count or user id past its integer type.
    OutOfRange {
        /// 1-based line number.
        line: usize,
        /// 0-based field index.
        field: usize,
    },
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwfError::ShortLine { line, fields } => {
                write!(f, "line {line}: only {fields} fields (need 18)")
            }
            SwfError::BadField { line, field } => {
                write!(f, "line {line}: field {field} is not a number")
            }
            SwfError::OutOfRange { line, field } => {
                write!(f, "line {line}: field {field} is out of range")
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// Parse SWF text into a trace. Header comments (`;`) and blank lines are
/// skipped; jobs with non-positive run time or processor count are dropped
/// (cancelled/failed jobs, exactly what the §IV-1 cleaning removes), and a
/// negative submit time reads as 0. A non-finite field, or a processor count
/// or user id its integer cannot hold, is an [`SwfError::OutOfRange`].
pub fn parse_swf(text: &str) -> Result<Trace, SwfError> {
    let mut jobs = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 18 {
            return Err(SwfError::ShortLine {
                line: idx + 1,
                fields: fields.len(),
            });
        }
        let line = idx + 1;
        // Field `field` as a number `fits` admits (no range holds a NaN).
        let num = |field: usize, fits: &dyn Fn(f64) -> bool| -> Result<f64, SwfError> {
            let value = fields[field].parse::<f64>();
            let value = value.map_err(|_| SwfError::BadField { line, field })?;
            fits(value)
                .then_some(value)
                .ok_or(SwfError::OutOfRange { line, field })
        };
        let submit = num(1, &f64::is_finite)?;
        let run_time = num(3, &f64::is_finite)?;
        let procs = num(4, &|v| (-f64::MAX..=f64::from(u32::MAX)).contains(&v))?;
        let user = num(11, &|v| (i64::MIN as f64..i64::MAX as f64).contains(&v))? as i64;
        if run_time <= 0.0 || procs <= 0.0 {
            continue; // cancelled/failed — the cleaning step's removals
        }
        jobs.push(TraceJob {
            user: format!("user{user}"),
            submit_s: submit.max(0.0),
            duration_s: run_time,
            cores: procs.max(1.0) as u32,
        });
    }
    Ok(Trace::new(jobs))
}

/// Serialize a trace to SWF text (fields we do not model are written as the
/// SWF "unknown" value −1). User names are hashed to stable numeric ids.
pub fn to_swf(trace: &Trace) -> String {
    let mut user_ids: std::collections::BTreeMap<&str, usize> = Default::default();
    let mut out = String::new();
    out.push_str("; SWF written by aequus-workload\n");
    out.push_str("; UnixStartTime: 0\n");
    for (i, j) in trace.jobs().iter().enumerate() {
        let next_id = user_ids.len() + 1;
        let uid = *user_ids.entry(j.user.as_str()).or_insert(next_id);
        // job submit wait run procs cpu mem reqprocs reqtime reqmem status
        // user group exe queue partition preceding think
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 1 {} -1 -1 -1 -1 -1 -1\n",
            i + 1,
            j.submit_s as i64,
            j.duration_s as i64,
            j.cores,
            j.cores,
            j.duration_s as i64,
            uid,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Computer: Test Cluster
; MaxJobs: 3
1 100 5 3600 1 -1 -1 1 3600 -1 1 7 -1 -1 -1 -1 -1 -1
2 200 0 1800 4 -1 -1 4 1800 -1 1 8 -1 -1 -1 -1 -1 -1
3 300 9 0 1 -1 -1 1 100 -1 0 7 -1 -1 -1 -1 -1 -1
";

    #[test]
    fn parses_sample() {
        let t = parse_swf(SAMPLE).unwrap();
        // Job 3 has zero run time → dropped.
        assert_eq!(t.len(), 2);
        assert_eq!(t.jobs()[0].user, "user7");
        assert_eq!(t.jobs()[0].submit_s, 100.0);
        assert_eq!(t.jobs()[0].duration_s, 3600.0);
        assert_eq!(t.jobs()[1].cores, 4);
    }

    #[test]
    fn short_line_rejected() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err, SwfError::ShortLine { line: 1, fields: 3 });
    }

    #[test]
    fn bad_field_rejected() {
        let bad = "1 abc 5 3600 1 -1 -1 1 3600 -1 1 7 -1 -1 -1 -1 -1 -1\n";
        let err = parse_swf(bad).unwrap_err();
        assert_eq!(err, SwfError::BadField { line: 1, field: 1 });
    }

    /// `SAMPLE`'s first job with field `field` written as `value`.
    fn job_with(field: usize, value: &str) -> Result<Trace, SwfError> {
        let mut fields: Vec<&str> = SAMPLE.lines().nth(2).unwrap().split(' ').collect();
        fields[field] = value;
        parse_swf(&fields.join(" "))
    }

    fn out_of_range(field: usize) -> Result<Trace, SwfError> {
        Err(SwfError::OutOfRange { line: 1, field })
    }

    #[test]
    fn a_nan_run_time_is_refused_not_a_nan_duration() {
        assert_eq!(job_with(3, "nan"), out_of_range(3));
    }

    #[test]
    fn an_infinite_run_time_is_refused() {
        assert_eq!(job_with(3, "inf"), out_of_range(3));
        assert_eq!(job_with(3, "1e400"), out_of_range(3));
    }

    #[test]
    fn a_nan_submit_time_is_refused_not_zero() {
        assert_eq!(job_with(1, "nan"), out_of_range(1));
        assert_eq!(job_with(1, "inf"), out_of_range(1));
    }

    #[test]
    fn a_processor_count_past_u32_is_refused_not_u32_max() {
        for procs in ["inf", "1e40", "4294967296", "nan"] {
            assert_eq!(job_with(4, procs), out_of_range(4), "{procs}");
        }
        let widest = job_with(4, "4294967295").unwrap();
        assert_eq!(widest.jobs()[0].cores, u32::MAX);
    }

    #[test]
    fn a_nan_user_id_is_refused_not_user0() {
        assert_eq!(job_with(11, "nan"), out_of_range(11));
        assert_eq!(job_with(11, "1e19"), out_of_range(11));
    }

    #[test]
    fn negative_submits_still_clamp_and_non_positive_jobs_still_skip() {
        assert_eq!(job_with(1, "-5").unwrap().jobs()[0].submit_s, 0.0);
        for (field, value) in [(3, "0"), (3, "-1"), (4, "0"), (4, "-1")] {
            assert!(
                job_with(field, value).unwrap().is_empty(),
                "{field}={value}"
            );
        }
    }

    #[test]
    fn roundtrip_preserves_jobs() {
        let t = parse_swf(SAMPLE).unwrap();
        let swf = to_swf(&t);
        let back = parse_swf(&swf).unwrap();
        assert_eq!(back.len(), t.len());
        for (a, b) in t.jobs().iter().zip(back.jobs()) {
            assert_eq!(a.submit_s, b.submit_s);
            assert_eq!(a.duration_s, b.duration_s);
            assert_eq!(a.cores, b.cores);
        }
        // Same submitter structure (names re-keyed to stable ids).
        assert_eq!(t.job_share_by_user().len(), back.job_share_by_user().len());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let t = parse_swf("; a comment\n\n;another\n").unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn generated_trace_roundtrips() {
        let t = crate::generate::test_trace(&crate::generate::TestTraceConfig {
            total_jobs: 200,
            ..Default::default()
        });
        let back = parse_swf(&to_swf(&t)).unwrap();
        assert_eq!(back.len(), t.len());
        // SWF stores whole seconds; totals agree to rounding.
        assert!((back.total_work() / t.total_work() - 1.0).abs() < 0.01);
    }
}
