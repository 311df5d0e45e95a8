//! The 180-trace enterprise corpus (9 sites × 20 servers).

use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::mix::Mix;
use crate::synth::{fill_on, zeroed, Calendar, TraceSpec, WorkloadClass};
use crate::trace::UtilTrace;
use crate::Result;

/// Description of one enterprise site: which workload classes it runs and
/// how hot it runs them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnterpriseProfile {
    /// Site name (e.g. `"site4-finance"`).
    pub name: String,
    /// The classes deployed at this site; servers cycle through this list.
    pub classes: Vec<WorkloadClass>,
    /// Multiplier on every class's mean utilization (site "temperature").
    pub util_scale: f64,
}

impl EnterpriseProfile {
    /// The nine default sites. Each leads with a different dominant class
    /// and has a distinct utilization temperature, spreading corpus means
    /// across the paper's 15–50% band.
    pub fn default_sites() -> Vec<EnterpriseProfile> {
        use WorkloadClass::*;
        let mk = |name: &str, classes: Vec<WorkloadClass>, util_scale: f64| EnterpriseProfile {
            name: name.to_string(),
            classes,
            util_scale,
        };
        vec![
            mk(
                "site1-webco",
                vec![WebServer, WebServer, Database, MailServer],
                1.0,
            ),
            mk(
                "site2-retail",
                vec![ECommerce, WebServer, Database, FileServer],
                1.1,
            ),
            mk(
                "site3-bank",
                vec![Database, Database, Analytics, MailServer],
                0.95,
            ),
            mk(
                "site4-callcenter",
                vec![RemoteDesktop, Vdi, MailServer, FileServer],
                0.85,
            ),
            mk("site5-hpc", vec![Batch, Batch, Analytics, FileServer], 1.15),
            mk(
                "site6-saas",
                vec![WebServer, Database, ECommerce, Analytics],
                1.05,
            ),
            mk(
                "site7-gov",
                vec![FileServer, MailServer, RemoteDesktop, Database],
                0.75,
            ),
            mk(
                "site8-media",
                vec![WebServer, Analytics, Batch, FileServer],
                1.2,
            ),
            mk(
                "site9-consulting",
                vec![Vdi, RemoteDesktop, MailServer, WebServer],
                0.9,
            ),
        ]
    }
}

/// A set of utilization traces with the paper's mix operations.
///
/// [`Corpus::enterprise`] builds the full 180-trace corpus; [`Corpus::new`]
/// wraps any trace list (e.g. loaded from disk via [`crate::io`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Corpus {
    traces: Vec<UtilTrace>,
}

impl Corpus {
    /// Wraps an existing list of traces.
    pub fn new(traces: Vec<UtilTrace>) -> Self {
        Self { traces }
    }

    /// Generates the default enterprise corpus: 9 sites × 20 servers = 180
    /// traces of `len` ticks each, deterministically from `seed`.
    pub fn enterprise(len: usize, seed: u64) -> Self {
        Self::from_profiles(&EnterpriseProfile::default_sites(), 20, len, seed)
    }

    /// Generates a corpus from custom site profiles with
    /// `servers_per_site` servers each.
    ///
    /// Each site draws from its own RNG, seeded from `seed` and the site's
    /// index, so the sites are built in parallel on as many threads as
    /// the process may use (at most one per site); the output is the same
    /// bits at any thread count. Every trace of one diurnal period shares
    /// one calendar (the per-tick day angle and weekly sine), dropped once
    /// the corpus is built.
    pub fn from_profiles(
        profiles: &[EnterpriseProfile],
        servers_per_site: usize,
        len: usize,
        seed: u64,
    ) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::synthesize(profiles, servers_per_site, len, seed, workers)
    }

    /// [`Corpus::from_profiles`] on the calling thread plus up to
    /// `workers - 1` scoped threads, which claim whole sites from a shared
    /// cursor; a site's traces are built in order from its one RNG stream.
    ///
    /// Every allocation that outlives the build (the calendars, each
    /// trace's name and zero-filled buffer, the per-site vectors) is made
    /// here, before any worker starts: a worker only fills buffers in
    /// place. Buffers allocated on a worker would land in that thread's
    /// malloc arena and raise the process's peak RSS.
    pub(crate) fn synthesize(
        profiles: &[EnterpriseProfile],
        servers_per_site: usize,
        len: usize,
        seed: u64,
        workers: usize,
    ) -> Self {
        let mut calendars: Vec<Calendar> = Vec::new();
        let mut sites: Vec<Site> = Vec::with_capacity(profiles.len());
        for (si, site) in profiles.iter().enumerate() {
            let mut slots = Vec::with_capacity(servers_per_site);
            for server in 0..servers_per_site {
                let class = site.classes[server % site.classes.len()];
                let mut spec = class.spec();
                spec.mean_util = (spec.mean_util * site.util_scale).clamp(0.02, 0.95);
                if !calendars.iter().any(|c| c.period() == spec.diurnal_period) {
                    calendars.push(Calendar::new(spec.diurnal_period, len));
                }
                slots.push(Slot {
                    name: format!("{}/{:?}-{:02}", site.name, class, server),
                    spec,
                    samples: zeroed(len.max(1)),
                });
            }
            sites.push(Site {
                seed: seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(si as u64 + 1)),
                slots,
                traces: Vec::with_capacity(servers_per_site),
            });
        }
        let queue = Mutex::new(sites.iter_mut());
        let next = || {
            queue
                .lock()
                .expect("no worker panics holding the queue")
                .next()
        };
        let calendars = &calendars;
        let work = || {
            while let Some(site) = next() {
                site.synthesize(calendars);
            }
        };
        std::thread::scope(|scope| {
            for _ in 1..workers.min(profiles.len()) {
                scope.spawn(work);
            }
            work();
        });
        let mut traces = Vec::with_capacity(profiles.len() * servers_per_site);
        for site in sites {
            traces.extend(site.traces);
        }
        Self { traces }
    }

    /// Number of traces in the corpus.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True if the corpus holds no traces.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// All traces, in corpus order.
    pub fn traces(&self) -> &[UtilTrace] {
        &self.traces
    }

    /// Consumes the corpus, returning its traces.
    pub fn into_traces(self) -> Vec<UtilTrace> {
        self.traces
    }

    /// Indices of all traces sorted by ascending mean utilization (a
    /// stable sort: equal means keep corpus order). Each mean is computed
    /// once, not once per comparison.
    pub fn indices_by_mean(&self) -> Vec<usize> {
        let means: Vec<f64> = self.traces.iter().map(UtilTrace::mean).collect();
        let mut idx: Vec<usize> = (0..means.len()).collect();
        idx.sort_by(|&a, &b| {
            means[a]
                .partial_cmp(&means[b])
                .expect("trace means are finite")
        });
        idx
    }

    /// Selects one of the paper's workload mixes (§4.3). See [`Mix`].
    pub fn mix(&self, mix: Mix) -> Result<Vec<UtilTrace>> {
        mix.select(self)
    }

    /// Mean utilization across the whole corpus.
    pub fn mean_utilization(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces.iter().map(|t| t.mean()).sum::<f64>() / self.traces.len() as f64
    }
}

/// One trace awaiting synthesis: its name, its spec before the
/// per-server jitter, and its zero-filled sample buffer.
struct Slot {
    name: String,
    spec: TraceSpec,
    samples: Arc<[f64]>,
}

/// One site's share of a corpus build.
struct Site {
    /// Seed of the site's RNG stream.
    seed: u64,
    /// The site's traces in server order, drained as they are built.
    slots: Vec<Slot>,
    /// The finished traces, with room for every slot.
    traces: Vec<UtilTrace>,
}

impl Site {
    /// Builds the site's traces in order from its one RNG stream, into
    /// the buffers and vector made by the caller; allocates nothing.
    fn synthesize(&mut self, calendars: &[Calendar]) {
        let mut rng = StdRng::seed_from_u64(self.seed);
        for Slot {
            name,
            mut spec,
            mut samples,
        } in self.slots.drain(..)
        {
            // Per-server phase jitter and mild mean jitter so servers at
            // one site are correlated but not identical.
            spec.phase += rng.gen_range(-0.5..0.5);
            spec.mean_util = (spec.mean_util * rng.gen_range(0.85..1.15)).clamp(0.02, 0.95);
            let calendar = calendars
                .iter()
                .find(|c| c.period() == spec.diurnal_period)
                .expect("a calendar per period");
            fill_on(&mut samples, &spec, calendar, &mut rng);
            self.traces
                .push(UtilTrace::new(name, samples).expect("generator clamps samples into [0, 1]"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enterprise_corpus_has_180_traces() {
        let c = Corpus::enterprise(200, 11);
        assert_eq!(c.len(), 180);
        // All names unique.
        let mut names: Vec<&str> = c.traces().iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 180);
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let a = Corpus::enterprise(100, 3);
        let b = Corpus::enterprise(100, 3);
        assert_eq!(a, b);
        let c = Corpus::enterprise(100, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_means_sit_in_enterprise_band() {
        // Paper: "relatively low utilization (15–50% in most cases)".
        let c = Corpus::enterprise(4_000, 7);
        let mean = c.mean_utilization();
        assert!(
            (0.15..=0.50).contains(&mean),
            "corpus mean {mean} outside the paper's band"
        );
        let in_band = c
            .traces()
            .iter()
            .filter(|t| (0.10..=0.60).contains(&t.mean()))
            .count();
        assert!(in_band * 100 / c.len() >= 80, "only {in_band}/180 in band");
    }

    #[test]
    fn sites_have_distinct_temperatures() {
        let c = Corpus::enterprise(2_000, 7);
        // site7-gov (scale 0.75) should run cooler than site8-media (1.2).
        let site_mean = |prefix: &str| {
            let ts: Vec<_> = c
                .traces()
                .iter()
                .filter(|t| t.name().starts_with(prefix))
                .collect();
            ts.iter().map(|t| t.mean()).sum::<f64>() / ts.len() as f64
        };
        assert!(site_mean("site7-gov") < site_mean("site8-media"));
    }

    #[test]
    fn indices_by_mean_is_sorted() {
        let c = Corpus::enterprise(500, 1);
        let idx = c.indices_by_mean();
        assert_eq!(idx.len(), 180);
        for w in idx.windows(2) {
            assert!(c.traces()[w[0]].mean() <= c.traces()[w[1]].mean());
        }
    }

    #[test]
    fn worker_count_does_not_change_a_bit() {
        let sites = EnterpriseProfile::default_sites();
        // 20 per site (the enterprise corpus) and an uneven 86 per site.
        for (per_site, len, seed) in [(20, 300, 5), (86, 777, 11)] {
            let reference = Corpus::synthesize(&sites, per_site, len, seed, 1);
            assert_eq!(reference.len(), sites.len() * per_site);
            for workers in [2, 3, 9, 16] {
                let c = Corpus::synthesize(&sites, per_site, len, seed, workers);
                assert_eq!(c.len(), reference.len());
                for (a, b) in reference.traces().iter().zip(c.traces()) {
                    assert_eq!(a.name(), b.name(), "{workers} workers");
                    let bits =
                        |t: &UtilTrace| t.samples().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(a), bits(b), "{} with {workers} workers", a.name());
                }
            }
        }
    }

    #[test]
    fn no_sites_build_an_empty_corpus() {
        assert!(Corpus::synthesize(&[], 20, 100, 1, 4).is_empty());
    }

    #[test]
    fn custom_profiles_control_corpus_size() {
        let profiles = vec![EnterpriseProfile {
            name: "solo".into(),
            classes: vec![WorkloadClass::Database],
            util_scale: 1.0,
        }];
        let c = Corpus::from_profiles(&profiles, 5, 100, 0);
        assert_eq!(c.len(), 5);
    }
}
