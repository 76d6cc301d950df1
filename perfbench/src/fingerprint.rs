//! Simulated-output fingerprints and their exact comparison.
//!
//! A fingerprint is the ordered list of a job's simulated results that
//! a host-speed change must leave untouched: simulated time in ps,
//! events, fabric bytes per direction, kernel count and every
//! `logic_stats` key. Values are kept as text (`f64` in its shortest
//! round-trip form), so equal text means bit-equal numbers.

use cais_engine::ExecReport;
use noc_sim::Direction;
use std::collections::BTreeMap;

/// One job's simulated results, field by field, in a fixed order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Fingerprint {
    fields: Vec<(String, String)>,
}

impl Fingerprint {
    /// Extracts the fingerprint of a finished run.
    pub fn of(report: &ExecReport) -> Fingerprint {
        let mut fields = vec![
            ("sim_ps".to_string(), report.total.as_ps().to_string()),
            ("events".to_string(), report.events_processed.to_string()),
            (
                "bytes_up".to_string(),
                report.fabric.bytes_dir(Direction::Up).to_string(),
            ),
            (
                "bytes_down".to_string(),
                report.fabric.bytes_dir(Direction::Down).to_string(),
            ),
            ("kernels".to_string(), report.kernel_spans.len().to_string()),
        ];
        fields.extend(
            report
                .logic_stats
                .iter()
                .map(|(k, v)| (format!("stat:{k}"), format!("{v:?}"))),
        );
        Fingerprint { fields }
    }

    /// The first field where `self` (observed) differs from `expected`,
    /// as a message naming the field and both values.
    pub fn diff(&self, expected: &Fingerprint) -> Option<String> {
        let width = self.fields.len().max(expected.fields.len());
        (0..width).find_map(|i| match (self.fields.get(i), expected.fields.get(i)) {
            (Some(got), Some(want)) if got == want => None,
            (Some((gk, gv)), Some((wk, wv))) if gk == wk => {
                Some(format!("field {gk}: expected {wv}, got {gv}"))
            }
            (Some((gk, _)), Some((wk, _))) => Some(format!("field #{i}: expected {wk}, got {gk}")),
            (Some((gk, _)), None) => Some(format!("unexpected extra field {gk}")),
            (None, Some((wk, _))) => Some(format!("missing field {wk}")),
            (None, None) => None,
        })
    }

    /// Tab-separated lines `workload job field value`, the format of
    /// `fingerprints.tsv`.
    pub fn to_tsv(&self, workload: &str, job: &str) -> String {
        self.fields
            .iter()
            .map(|(k, v)| format!("{workload}\t{job}\t{k}\t{v}\n"))
            .collect()
    }
}

/// Recorded fingerprints of one workload, by job label.
pub type Recorded = BTreeMap<String, Fingerprint>;

/// Parses the `fingerprints.tsv` lines that belong to `workload`.
///
/// # Errors
///
/// Returns the offending line when one does not have four fields.
pub fn parse(tsv: &str, workload: &str) -> Result<Recorded, String> {
    let mut out = Recorded::new();
    for line in tsv.lines().filter(|l| !l.is_empty()) {
        let cols: Vec<&str> = line.split('\t').collect();
        let [w, job, field, value] = cols[..] else {
            return Err(format!("malformed fingerprint line: {line:?}"));
        };
        if w == workload {
            out.entry(job.to_string())
                .or_default()
                .fields
                .push((field.to_string(), value.to_string()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            fields: vec![
                ("sim_ps".into(), "1491102000".into()),
                ("events".into(), "1602341".into()),
                ("stat:cais.mean_spread_us".into(), format!("{:?}", 2.5f64)),
            ],
        }
    }

    #[test]
    fn identical_fingerprints_have_no_diff() {
        assert_eq!(sample().diff(&sample()), None);
    }

    #[test]
    fn flags_one_altered_field_by_name() {
        let mut altered = sample();
        altered.fields[1].1 = "1602342".into();
        assert_eq!(
            altered.diff(&sample()).as_deref(),
            Some("field events: expected 1602341, got 1602342")
        );
        let mut stat = sample();
        stat.fields[2].1 = format!("{:?}", 2.5f64 + f64::EPSILON * 4.0);
        let msg = stat
            .diff(&sample())
            .expect("an f64 off by a few ulps differs");
        assert!(msg.starts_with("field stat:cais.mean_spread_us:"), "{msg}");
    }

    #[test]
    fn flags_missing_and_extra_fields() {
        let mut short = sample();
        short.fields.pop();
        assert_eq!(
            short.diff(&sample()).as_deref(),
            Some("missing field stat:cais.mean_spread_us")
        );
        assert_eq!(
            sample().diff(&short).as_deref(),
            Some("unexpected extra field stat:cais.mean_spread_us")
        );
    }

    #[test]
    fn tsv_round_trips_and_filters_by_workload() {
        let mut tsv = sample().to_tsv("w1", "job/a");
        tsv.push_str(&sample().to_tsv("w2", "job/b"));
        let parsed = parse(&tsv, "w1").expect("well-formed");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed["job/a"], sample());
        assert!(parse("w1\tjob\tfield\n", "w1").is_err());
    }
}
