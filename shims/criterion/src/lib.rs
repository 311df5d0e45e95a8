//! In-tree, offline shim for the `criterion` API subset this workspace
//! uses. Benchmarks compile and run with `cargo bench`, printing the
//! fastest, median and slowest sample's time per iteration for each
//! benchmark (`time: [min median max]`). There are no statistical reports or
//! HTML output — this is a timing harness, not a statistics package —
//! but relative comparisons (e.g. recorder on vs off) are meaningful.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup (accepted, not acted on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Identifies a benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id carrying only a parameter (named by the enclosing group).
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Times closures over adaptively chosen iteration counts.
#[derive(Debug, Default)]
pub struct Bencher {
    samples: Vec<f64>,
}

/// Target wall-clock spent measuring one benchmark.
const TARGET: Duration = Duration::from_millis(120);
const SAMPLES: usize = 12;

impl Bencher {
    /// Benchmarks `routine`, timing batches sized so measurement stays
    /// fast even for multi-millisecond routines.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warm-up & calibration.
        let start = Instant::now();
        black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let per_sample = TARGET / SAMPLES as u32;
        let batch = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        self.samples.clear();
        for _ in 0..SAMPLES {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples.push(elapsed.as_nanos() as f64 / batch as f64);
        }
    }

    /// Benchmarks `routine` on fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        let once = start.elapsed().max(Duration::from_nanos(1));
        let per_sample = TARGET / SAMPLES as u32;
        let batch = (per_sample.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;
        self.samples.clear();
        for _ in 0..SAMPLES {
            let inputs: Vec<I> = (0..batch).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let elapsed = start.elapsed();
            self.samples.push(elapsed.as_nanos() as f64 / batch as f64);
        }
    }

    /// The fastest, median and slowest per-iteration sample, in ns.
    fn spread_ns(&mut self) -> [f64; 3] {
        if self.samples.is_empty() {
            return [0.0; 3];
        }
        self.samples
            .sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
        let n = self.samples.len();
        [self.samples[0], self.samples[n / 2], self.samples[n - 1]]
    }
}

/// Prints `[min median max]` per iteration, all in the median's unit, so
/// the spread between samples shows beside the median.
fn report(name: &str, [min, median, max]: [f64; 3]) {
    let (scale, unit) = if median >= 1e9 {
        (1e9, "s")
    } else if median >= 1e6 {
        (1e6, "ms")
    } else if median >= 1e3 {
        (1e3, "µs")
    } else {
        (1.0, "ns")
    };
    println!(
        "{name:<50} time: [{:.3} {unit} {:.3} {unit} {:.3} {unit}]",
        min / scale,
        median / scale,
        max / scale
    );
}

/// The benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::default();
        f(&mut b);
        report(&id, b.spread_ns());
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes samples itself.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkIdOrString>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into().0;
        let mut b = Bencher::default();
        f(&mut b);
        report(&format!("{}/{}", self.name, id), b.spread_ns());
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::default();
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id.id), b.spread_ns());
        self
    }

    /// Finishes the group.
    pub fn finish(self) {}
}

/// Conversion target accepting `&str`, `String`, or [`BenchmarkId`].
pub struct BenchmarkIdOrString(String);

impl From<&str> for BenchmarkIdOrString {
    fn from(s: &str) -> Self {
        BenchmarkIdOrString(s.to_string())
    }
}

impl From<String> for BenchmarkIdOrString {
    fn from(s: String) -> Self {
        BenchmarkIdOrString(s)
    }
}

impl From<BenchmarkId> for BenchmarkIdOrString {
    fn from(id: BenchmarkId) -> Self {
        BenchmarkIdOrString(id.id)
    }
}

/// Declares a group-runner function over benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
