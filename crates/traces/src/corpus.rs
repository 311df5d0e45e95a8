//! The 180-trace enterprise corpus (9 sites × 20 servers).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::mix::Mix;
use crate::synth::{generate_on, Calendar, WorkloadClass};
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
    /// Every trace of one diurnal period shares one calendar (the
    /// per-tick day angle and weekly sine), rebuilt only when a spec's
    /// period differs from the last one and dropped once the corpus is
    /// built.
    pub fn from_profiles(
        profiles: &[EnterpriseProfile],
        servers_per_site: usize,
        len: usize,
        seed: u64,
    ) -> Self {
        let mut traces = Vec::with_capacity(profiles.len() * servers_per_site);
        let mut calendar: Option<Calendar> = None;
        for (si, site) in profiles.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(
                seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(si as u64 + 1)),
            );
            for server in 0..servers_per_site {
                let class = site.classes[server % site.classes.len()];
                let mut spec = class.spec();
                spec.mean_util = (spec.mean_util * site.util_scale).clamp(0.02, 0.95);
                // Per-server phase jitter and mild mean jitter so servers at
                // one site are correlated but not identical.
                spec.phase += rng.gen_range(-0.5..0.5);
                spec.mean_util = (spec.mean_util * rng.gen_range(0.85..1.15)).clamp(0.02, 0.95);
                let name = format!("{}/{:?}-{:02}", site.name, class, server);
                let period = spec.diurnal_period;
                if calendar.as_ref().map(Calendar::period) != Some(period) {
                    calendar = Some(Calendar::new(period, len));
                }
                let calendar = calendar.as_ref().expect("calendar built above");
                traces.push(generate_on(name, &spec, calendar, &mut rng));
            }
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
