//! Differential properties: the shared-calendar generator and the
//! cached-mean ranking reproduce the straightforward formulations bit for
//! bit. The reference implementations below are deliberately naive
//! copies of the per-sample loop and the recompute-in-comparator sort.

use nps_traces::{generate, Corpus, TraceSpec, UtilTrace, WorkloadClass};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The generator with every angle computed inline, per trace and sample.
fn reference_samples(spec: &TraceSpec, len: usize, rng: &mut StdRng) -> Vec<f64> {
    use std::f64::consts::TAU;
    let gaussian = |rng: &mut StdRng| {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    };
    let mut ar = 0.0_f64;
    let mut burst_left = 0usize;
    let innov = spec.noise_sigma * (1.0 - spec.noise_rho * spec.noise_rho).sqrt();
    (0..len.max(1))
        .map(|t| {
            let day = TAU * t as f64 / spec.diurnal_period as f64 + spec.phase;
            let week = TAU * t as f64 / (7.0 * spec.diurnal_period as f64);
            let mut u = spec.mean_util
                * (1.0 + spec.diurnal_amplitude * day.sin())
                * (1.0 + spec.weekly_amplitude * week.sin());
            ar = spec.noise_rho * ar + innov * gaussian(rng);
            u += ar;
            if burst_left > 0 {
                burst_left -= 1;
                u += spec.burst_magnitude;
            } else if rng.gen::<f64>() < spec.burst_prob {
                burst_left = spec.burst_len;
                u += spec.burst_magnitude;
            }
            u.clamp(0.0, 1.0)
        })
        .collect()
}

/// Ranking by mean with both means recomputed inside the comparator.
fn reference_order(corpus: &Corpus) -> Vec<usize> {
    let traces = corpus.traces();
    let mut idx: Vec<usize> = (0..traces.len()).collect();
    idx.sort_by(|&a, &b| traces[a].mean().partial_cmp(&traces[b].mean()).unwrap());
    idx
}

fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|s| s.to_bits()).collect()
}

/// A trace that is either one of four shared constants (so ties are
/// common) or free-form noise.
fn arb_trace() -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        (0usize..4, 1usize..40).prop_map(|(level, len)| vec![0.1 + 0.2 * level as f64; len]),
        proptest::collection::vec(0.0f64..1.0, 1..40),
    ]
}

proptest! {
    #[test]
    fn generate_matches_the_inline_formula(
        class in 0usize..9,
        period in 2usize..5_000,
        len in 1usize..3_000,
        phase in -4.0f64..4.0,
        seed in 0u64..u64::MAX,
    ) {
        let spec = WorkloadClass::ALL[class].spec().with_period(period).with_phase(phase);
        let fast = generate("t", &spec, len, &mut StdRng::seed_from_u64(seed));
        let slow = reference_samples(&spec, len, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(bits(fast.samples()), bits(&slow));
    }

    #[test]
    fn indices_by_mean_matches_recomputed_order(
        traces in proptest::collection::vec(arb_trace(), 0..60),
    ) {
        let corpus = Corpus::new(
            traces
                .into_iter()
                .enumerate()
                .map(|(i, s)| UtilTrace::new(format!("t{i}"), s).unwrap())
                .collect(),
        );
        prop_assert_eq!(corpus.indices_by_mean(), reference_order(&corpus));
    }
}

#[test]
fn equal_means_keep_corpus_order() {
    let corpus = Corpus::new(
        [0.3, 0.1, 0.3, 0.1, 0.3]
            .iter()
            .enumerate()
            .map(|(i, &u)| UtilTrace::constant(format!("t{i}"), u, 8).unwrap())
            .collect(),
    );
    assert_eq!(corpus.indices_by_mean(), vec![1, 3, 0, 2, 4]);
}
