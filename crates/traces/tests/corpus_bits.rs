//! Pins the exact bits of the synthesized corpus and every mix drawn from
//! it. A fast guard below the runner goldens: any change to the generator
//! or the mix selection that moves a single sample bit (or renames a
//! trace) changes the hash.

use nps_traces::{Corpus, Mix};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: &mut u64, word: u64) {
    *h ^= word;
    *h = h.wrapping_mul(FNV_PRIME);
}

#[test]
fn corpus_and_mix_bits_are_pinned() {
    let mut h = FNV_OFFSET;
    for (len, seed) in [(4_000, 42), (777, 9)] {
        let corpus = Corpus::enterprise(len, seed);
        for mix in Mix::ALL {
            for trace in corpus.mix(mix).unwrap() {
                for s in trace.samples() {
                    fold(&mut h, s.to_bits());
                }
                for &b in trace.name().as_bytes() {
                    fold(&mut h, u64::from(b));
                }
            }
        }
    }
    assert_eq!(h, 0x5c9a_5865_0158_190a, "corpus hash moved: {h:#018x}");
}
