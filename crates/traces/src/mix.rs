//! The paper's workload mixes (§4.3): `180`, `60L`, `60M`, `60H`, and the
//! stacked synthetic high-activity mixes `60HH` and `60HHH`.

use serde::{Deserialize, Serialize};

use crate::corpus::Corpus;
use crate::error::TraceError;
use crate::trace::UtilTrace;
use crate::Result;

/// A workload-mix selector over a [`Corpus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Mix {
    /// All 180 traces (`180` in the paper).
    All180,
    /// The 60 traces with the *lowest* mean utilization (`60L`).
    L60,
    /// The middle 60 traces by mean utilization (`60M`).
    M60,
    /// The 60 traces with the *highest* mean utilization (`60H`).
    H60,
    /// 60 synthetic traces, each stacking **two** of the hottest 120 real
    /// traces (`60HH`): the i-th hottest with the (i+60)-th hottest.
    Hh60,
    /// 60 synthetic traces, each stacking **three** of the 180 traces
    /// (`60HHH`): i-th, (i+60)-th and (i+120)-th hottest.
    Hhh60,
}

impl Mix {
    /// All mixes, in the order the paper's Figure 8 plots them plus
    /// `All180`.
    pub const ALL: [Mix; 6] = [
        Mix::L60,
        Mix::M60,
        Mix::H60,
        Mix::Hh60,
        Mix::Hhh60,
        Mix::All180,
    ];

    /// The paper's label for this mix.
    pub fn label(self) -> &'static str {
        match self {
            Mix::All180 => "180",
            Mix::L60 => "60L",
            Mix::M60 => "60M",
            Mix::H60 => "60H",
            Mix::Hh60 => "60HH",
            Mix::Hhh60 => "60HHH",
        }
    }

    /// Number of workloads this mix yields.
    pub fn workload_count(self) -> usize {
        match self {
            Mix::All180 => 180,
            _ => 60,
        }
    }

    /// Minimum corpus size this mix requires.
    pub fn required_corpus(self) -> usize {
        match self {
            Mix::All180 | Mix::Hhh60 => 180,
            Mix::L60 | Mix::M60 | Mix::H60 => 60,
            Mix::Hh60 => 120,
        }
    }

    /// Selects this mix from `corpus`.
    ///
    /// For a corpus of a non-standard size `n`, the selections scale:
    /// thirds for L/M/H, pair/triple stacking over the hottest 2/3 and the
    /// whole corpus for HH/HHH, always yielding `n/3` traces (or `n` for
    /// [`Mix::All180`]).
    pub fn select(self, corpus: &Corpus) -> Result<Vec<UtilTrace>> {
        let n = corpus.len();
        if n < self.required_corpus().min(n.max(3)) || n < 3 {
            return Err(TraceError::CorpusTooSmall {
                required: self.required_corpus(),
                available: n,
            });
        }
        let third = n / 3;
        let pick = |indices: &[usize]| -> Vec<UtilTrace> {
            indices
                .iter()
                .map(|&i| corpus.traces()[i].clone())
                .collect()
        };
        match self {
            Mix::All180 => Ok(corpus.traces().to_vec()),
            Mix::L60 => Ok(pick(&corpus.indices_by_mean()[..third])),
            Mix::M60 => Ok(pick(&corpus.indices_by_mean()[third..2 * third])),
            Mix::H60 => Ok(pick(&corpus.indices_by_mean()[n - third..])),
            Mix::Hh60 => {
                // Hottest 2·third traces, stacked in pairs: i-th hottest
                // with (i+third)-th hottest.
                let by_mean = corpus.indices_by_mean();
                let hot: Vec<usize> = by_mean[n - 2 * third..].iter().rev().copied().collect();
                (0..third)
                    .map(|i| {
                        let a = &corpus.traces()[hot[i]];
                        let b = &corpus.traces()[hot[i + third]];
                        UtilTrace::stack(format!("HH-{i:02}[{}+{}]", a.name(), b.name()), &[a, b])
                    })
                    .collect()
            }
            Mix::Hhh60 => {
                let by_mean = corpus.indices_by_mean();
                let hot: Vec<usize> = by_mean[n - 3 * third..].iter().rev().copied().collect();
                (0..third)
                    .map(|i| {
                        let a = &corpus.traces()[hot[i]];
                        let b = &corpus.traces()[hot[i + third]];
                        let c = &corpus.traces()[hot[i + 2 * third]];
                        UtilTrace::stack(format!("HHH-{i:02}"), &[a, b, c])
                    })
                    .collect()
            }
        }
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        Corpus::enterprise(1_000, 5)
    }

    #[test]
    fn mix_sizes_match_paper() {
        let c = corpus();
        assert_eq!(c.mix(Mix::All180).unwrap().len(), 180);
        for m in [Mix::L60, Mix::M60, Mix::H60, Mix::Hh60, Mix::Hhh60] {
            assert_eq!(c.mix(m).unwrap().len(), 60, "{m}");
        }
    }

    #[test]
    fn activity_ordering_holds() {
        // Paper's intent: L < M < H < HH < HHH in mean utilization.
        let c = corpus();
        let mean = |m: Mix| {
            let ts = c.mix(m).unwrap();
            ts.iter().map(|t| t.mean()).sum::<f64>() / ts.len() as f64
        };
        let (l, m, h, hh, hhh) = (
            mean(Mix::L60),
            mean(Mix::M60),
            mean(Mix::H60),
            mean(Mix::Hh60),
            mean(Mix::Hhh60),
        );
        assert!(l < m, "L {l} < M {m}");
        assert!(m < h, "M {m} < H {h}");
        assert!(h < hh, "H {h} < HH {hh}");
        assert!(hh < hhh, "HH {hh} < HHH {hhh}");
    }

    #[test]
    fn l_and_h_partition_extremes() {
        let c = corpus();
        let l = c.mix(Mix::L60).unwrap();
        let h = c.mix(Mix::H60).unwrap();
        let max_l = l.iter().map(|t| t.mean()).fold(0.0, f64::max);
        let min_h = h.iter().map(|t| t.mean()).fold(1.0, f64::min);
        assert!(max_l <= min_h);
    }

    #[test]
    fn stacked_mixes_stay_in_unit_interval() {
        let c = corpus();
        for t in c.mix(Mix::Hhh60).unwrap() {
            assert!(t.samples().iter().all(|&s| (0.0..=1.0).contains(&s)));
        }
    }

    #[test]
    fn small_corpus_rejected() {
        let c = Corpus::new(vec![UtilTrace::constant("a", 0.5, 10).unwrap()]);
        assert!(matches!(
            c.mix(Mix::L60),
            Err(TraceError::CorpusTooSmall { .. })
        ));
    }

    #[test]
    fn nonstandard_corpus_scales_to_thirds() {
        let traces: Vec<UtilTrace> = (0..30)
            .map(|i| UtilTrace::constant(format!("t{i}"), 0.02 + 0.03 * i as f64, 10).unwrap())
            .collect();
        let c = Corpus::new(traces);
        assert_eq!(c.mix(Mix::L60).unwrap().len(), 10);
        assert_eq!(c.mix(Mix::Hh60).unwrap().len(), 10);
        assert_eq!(c.mix(Mix::All180).unwrap().len(), 30);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Mix::All180.to_string(), "180");
        assert_eq!(Mix::Hh60.to_string(), "60HH");
        assert_eq!(Mix::Hhh60.label(), "60HHH");
    }
}
