use std::sync::Arc;

use serde::{Deserialize, Serialize, Serializer, Value};

use crate::error::TraceError;
use crate::Result;

/// A CPU-utilization trace for one server/workload: a named sequence of
/// per-tick utilization samples in `[0, 1]`, expressed as a fraction of a
/// reference server's maximum capacity.
///
/// Traces are *cyclic*: [`UtilTrace::demand_at`] wraps around, so a
/// simulation horizon may exceed the trace length (the synthetic corpus
/// generates a whole number of diurnal periods, so wrapping is seamless).
///
/// The samples are immutable once built and shared behind an [`Arc`]:
/// cloning a trace (or a whole experiment configuration) copies a
/// pointer, not the horizon-long sample array.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilTrace {
    name: String,
    samples: Arc<[f64]>,
}

impl UtilTrace {
    /// Builds a trace, validating every sample is finite and within
    /// `[0, 1]`. Takes a `Vec<f64>` or an already shared buffer.
    pub fn new(name: impl Into<String>, samples: impl Into<Arc<[f64]>>) -> Result<Self> {
        let samples = samples.into();
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        for (index, &value) in samples.iter().enumerate() {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(TraceError::OutOfRange { index, value });
            }
        }
        Ok(Self {
            name: name.into(),
            samples,
        })
    }

    /// A constant-demand trace, useful for controller step-response tests.
    pub fn constant(name: impl Into<String>, level: f64, len: usize) -> Result<Self> {
        Self::new(name, vec![level; len.max(1)])
    }

    /// Trace name (e.g. `"site3/web-07"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the trace has no samples (never true for a constructed
    /// trace; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Demand at tick `t`, wrapping cyclically past the end of the trace.
    ///
    /// Scenario traces are generated at least one horizon long, so the
    /// in-range branch serves every tick of a run without a 64-bit
    /// division; only a wrap pays for the `%`.
    #[inline]
    pub fn demand_at(&self, tick: u64) -> f64 {
        let len = self.samples.len() as u64;
        let i = if tick < len { tick } else { tick % len };
        self.samples[i as usize]
    }

    /// Sums this trace with `others` sample-by-sample, clamping at 1.0 —
    /// the paper's trace *stacking* used to build the high-activity
    /// 60HH/60HHH mixes. All traces must have equal length.
    pub fn stack(name: impl Into<String>, parts: &[&UtilTrace]) -> Result<Self> {
        let first = parts.first().ok_or(TraceError::Empty)?;
        let len = first.len();
        for p in parts {
            if p.len() != len {
                return Err(TraceError::LengthMismatch {
                    expected: len,
                    actual: p.len(),
                });
            }
        }
        let samples: Arc<[f64]> = (0..len)
            .map(|i| parts.iter().map(|p| p.samples[i]).sum::<f64>().min(1.0))
            .collect();
        Self::new(name, samples)
    }

    /// Returns a trace scaled by `factor`, clamping into `[0, 1]`.
    pub fn scaled(&self, factor: f64) -> Result<Self> {
        let samples: Arc<[f64]> = self
            .samples
            .iter()
            .map(|s| (s * factor).clamp(0.0, 1.0))
            .collect();
        Self::new(format!("{}×{factor}", self.name), samples)
    }

    /// Mean utilization across the trace.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Summary statistics.
    pub fn stats(&self) -> TraceStats {
        let mut sorted = self.samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("validated finite"));
        let n = sorted.len();
        let mean = self.mean();
        let var = self.samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        let pct = |q: f64| sorted[((q * (n - 1) as f64).round() as usize).min(n - 1)];
        TraceStats {
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[n - 1],
            p50: pct(0.50),
            p95: pct(0.95),
        }
    }
}

impl Serialize for UtilTrace {
    fn serialize(&self, s: &mut Serializer) {
        s.begin_object();
        s.key("name");
        self.name.serialize(s);
        s.key("samples");
        self.samples().serialize(s);
        s.end_object();
    }
}

/// Routed through [`UtilTrace::new`], so a trace read from JSON (a
/// corpus file or an experiment configuration) is validated exactly
/// like one built in code: no NaN, nothing outside `[0, 1]`.
impl Deserialize for UtilTrace {
    fn deserialize(v: &Value) -> std::result::Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected a trace object"))?;
        let field = |name: &str| {
            obj.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| serde::Error::msg(&format!("trace: missing field `{name}`")))
        };
        let name = String::deserialize(field("name")?)?;
        let samples = Vec::<f64>::deserialize(field("samples")?)?;
        Self::new(name, samples).map_err(|e| serde::Error::msg(&format!("trace: {e}")))
    }
}

/// Summary statistics of a utilization trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Arithmetic mean utilization.
    pub mean: f64,
    /// Standard deviation.
    pub std_dev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_and_out_of_range() {
        assert!(matches!(
            UtilTrace::new("t", vec![]),
            Err(TraceError::Empty)
        ));
        assert!(matches!(
            UtilTrace::new("t", vec![0.5, 1.2]),
            Err(TraceError::OutOfRange { index: 1, .. })
        ));
        assert!(matches!(
            UtilTrace::new("t", vec![f64::NAN]),
            Err(TraceError::OutOfRange { index: 0, .. })
        ));
        assert!(matches!(
            UtilTrace::new("t", vec![-0.1]),
            Err(TraceError::OutOfRange { index: 0, .. })
        ));
    }

    #[test]
    fn demand_wraps_cyclically() {
        let t = UtilTrace::new("t", vec![0.1, 0.2, 0.3]).unwrap();
        assert_eq!(t.demand_at(0), 0.1);
        assert_eq!(t.demand_at(4), 0.2);
        assert_eq!(t.demand_at(300), 0.1);
    }

    #[test]
    fn demand_indexes_directly_below_len_and_wraps_at_and_past_it() {
        let samples: Vec<f64> = (0..7).map(|i| i as f64 / 10.0).collect();
        let len = samples.len() as u64;
        let t = UtilTrace::new("t", samples.clone()).unwrap();
        assert_eq!(t.demand_at(len - 1), samples[6]);
        assert_eq!(t.demand_at(len), samples[0]);
        assert_eq!(t.demand_at(2 * len + 3), samples[3]);
        for tick in 0..5 * len {
            assert_eq!(t.demand_at(tick), samples[(tick % len) as usize]);
        }
    }

    #[test]
    fn stack_sums_and_clamps() {
        let a = UtilTrace::new("a", vec![0.5, 0.8]).unwrap();
        let b = UtilTrace::new("b", vec![0.3, 0.7]).unwrap();
        let s = UtilTrace::stack("a+b", &[&a, &b]).unwrap();
        assert!((s.demand_at(0) - 0.8).abs() < 1e-12);
        assert_eq!(s.demand_at(1), 1.0); // clamped from 1.5
    }

    #[test]
    fn stack_rejects_length_mismatch() {
        let a = UtilTrace::new("a", vec![0.5, 0.8]).unwrap();
        let b = UtilTrace::new("b", vec![0.3]).unwrap();
        assert!(matches!(
            UtilTrace::stack("a+b", &[&a, &b]),
            Err(TraceError::LengthMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn scaled_clamps_to_unit_interval() {
        let t = UtilTrace::new("t", vec![0.6]).unwrap();
        assert_eq!(t.scaled(2.0).unwrap().demand_at(0), 1.0);
        assert!((t.scaled(0.5).unwrap().demand_at(0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn stats_are_consistent() {
        let t = UtilTrace::new("t", vec![0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
        let s = t.stats();
        assert!((s.mean - 0.3).abs() < 1e-12);
        assert_eq!(s.min, 0.1);
        assert_eq!(s.max, 0.5);
        assert_eq!(s.p50, 0.3);
        assert!(s.std_dev > 0.0);
    }

    #[test]
    fn constant_trace_has_zero_variance() {
        let t = UtilTrace::constant("c", 0.4, 100).unwrap();
        let s = t.stats();
        assert!(s.std_dev < 1e-9);
        assert_eq!(s.min, s.max);
    }

    #[test]
    fn serde_roundtrip() {
        let t = UtilTrace::new("t", vec![0.1, 0.9]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(json, r#"{"name":"t","samples":[0.1,0.9]}"#);
        let back: UtilTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn deserialize_validates_samples() {
        for bad in [
            r#"{"name":"t","samples":[0.5,null]}"#,
            r#"{"name":"t","samples":[0.5,1.5]}"#,
            r#"{"name":"t","samples":[-0.25]}"#,
            r#"{"name":"t","samples":[]}"#,
            r#"{"name":"t"}"#,
        ] {
            assert!(serde_json::from_str::<UtilTrace>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn clones_share_samples() {
        let t = UtilTrace::constant("c", 0.4, 1_000).unwrap();
        let u = t.clone();
        assert!(std::ptr::eq(t.samples().as_ptr(), u.samples().as_ptr()));
    }
}
