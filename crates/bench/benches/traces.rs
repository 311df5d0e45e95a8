//! Scenario set-up: synthesizing the 180-trace enterprise corpus at a
//! 10k-tick horizon, and selecting a mix from a prebuilt corpus (`All180`
//! copies the corpus; `60HH` ranks it by mean and stacks the hottest
//! pairs). Together these are `Scenario::build`'s trace cost.

use criterion::{criterion_group, criterion_main, Criterion};
use nps_traces::{Corpus, Mix};
use std::hint::black_box;

const LEN: usize = 10_000;
const SEED: u64 = 3;

fn bench_corpus(c: &mut Criterion) {
    c.bench_function("corpus_enterprise_180x10k", |b| {
        b.iter(|| black_box(Corpus::enterprise(black_box(LEN), SEED)));
    });
}

fn bench_mix_select(c: &mut Criterion) {
    let corpus = Corpus::enterprise(LEN, SEED);
    let mut group = c.benchmark_group("mix_select_180x10k");
    for mix in [Mix::All180, Mix::Hh60] {
        group.bench_function(mix.label(), |b| {
            b.iter(|| black_box(mix.select(black_box(&corpus)).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_corpus, bench_mix_select);
criterion_main!(benches);
