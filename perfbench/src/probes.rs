//! Direct layer probes: each one feeds a public function of one layer
//! the workload's own generated inputs and times it from outside.
//! Every probe returns the per-call value of each of its samples.

use std::hint::black_box;
use std::time::Instant;

use nps_control::{CapperLevel, ControllerBank, GroupCapper};
use nps_core::{ControllerMask, ExperimentConfig, Runner};
use nps_models::{ModelTable, ServerModel};
use nps_opt::{ClusterContext, Vmc};
use nps_sim::{reduce, ControlBus, EnclosureId, LinkId, ServerId, VmId, WorkerPool};
use nps_traces::{Corpus, EnterpriseProfile, Mix};

use crate::workloads::Workload;

/// Timed batches per probe; each batch yields one sample.
const BATCHES: usize = 11;

/// Times `BATCHES` batches of `calls` calls each and returns the mean
/// time per call of every batch, in ns. `setup` builds fresh state for
/// a batch outside the timed part.
fn batches<S>(
    calls: usize,
    mut setup: impl FnMut() -> S,
    mut call: impl FnMut(&mut S, usize),
) -> Vec<f64> {
    (0..BATCHES)
        .map(|_| {
            let mut state = setup();
            let t0 = Instant::now();
            for k in 0..calls {
                call(&mut state, k);
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect()
}

/// The static caps `(CAP_LOC per server, CAP_ENC per enclosure,
/// CAP_GRP)` the runner derives from the configuration's budgets.
pub struct Caps {
    pub models: Vec<ServerModel>,
    pub loc: Vec<f64>,
    pub enc: Vec<f64>,
    pub grp: f64,
}

impl Caps {
    pub fn of(cfg: &ExperimentConfig) -> Self {
        let models = cfg.server_models();
        let topo = &cfg.topology;
        let loc = models
            .iter()
            .map(|m| (1.0 - cfg.budgets.local_off) * m.max_power())
            .collect();
        let enc = (0..topo.num_enclosures())
            .map(|e| {
                let servers = topo.enclosure_servers(EnclosureId(e));
                let sum =
                    reduce::tree_sum_by(servers.len(), |k| models[servers[k].index()].max_power());
                (1.0 - cfg.budgets.enclosure_off) * sum
            })
            .collect();
        let grp = (1.0 - cfg.budgets.group_off)
            * reduce::tree_sum_by(models.len(), |i| models[i].max_power());
        Self {
            models,
            loc,
            enc,
            grp,
        }
    }
}

/// Demand of server `i`'s workload at tick `t`.
fn util(cfg: &ExperimentConfig, i: usize, t: u64) -> f64 {
    cfg.traces[i % cfg.traces.len()].demand_at(t)
}

/// `traces.ns_per_sample`: the corpus synthesis `Scenario::build` runs
/// for this workload, per generated sample.
pub fn trace_synthesis(w: Workload, seed: u64) -> Vec<f64> {
    let len = (w.horizon() as usize).max(1_000);
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let samples: usize = match w {
                Workload::Fleet768Vmc => {
                    let profiles = EnterpriseProfile::default_sites();
                    let per_site = 768usize.div_ceil(profiles.len());
                    let corpus = Corpus::from_profiles(&profiles, per_site, len, seed);
                    black_box(corpus.traces().iter().map(|t| t.len()).sum())
                }
                Workload::Paper180 | Workload::Chaos60Ckpt => {
                    let corpus = Corpus::enterprise(len, seed);
                    let mix = if w == Workload::Paper180 {
                        Mix::All180
                    } else {
                        Mix::Hh60
                    };
                    black_box(corpus.mix(mix).map_or(0, |v| v.len()));
                    corpus.traces().iter().map(|t| t.len()).sum()
                }
            };
            t0.elapsed().as_nanos() as f64 / samples.max(1) as f64
        })
        .collect()
}

/// `engine.baseline_tick_us`: the same configuration with every
/// controller masked off, per tick.
pub fn engine_baseline(cfg: &ExperimentConfig) -> Result<Vec<f64>, String> {
    let mut bare = cfg.clone();
    bare.mask = ControllerMask::NONE;
    let mut runner = Runner::try_new(&bare).map_err(|e| format!("Runner::try_new: {e}"))?;
    let ticks = cfg.horizon.min(4_000);
    Ok((0..ticks)
        .map(|_| {
            let t0 = Instant::now();
            runner.tick();
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect())
}

/// `control.ec_step_ns` and `control.sm_step_ns`: a `ControllerBank`
/// over the workload's models and local caps, stepped on every server
/// with its own trace's utilization and modelled power.
pub fn controller_steps(cfg: &ExperimentConfig, caps: &Caps) -> (Vec<f64>, Vec<f64>) {
    let n = caps.models.len();
    let rounds = 200usize;
    let utils: Vec<f64> = (0..rounds * n)
        .map(|k| util(cfg, k % n, (k / n) as u64))
        .collect();
    let powers: Vec<f64> = (0..rounds * n)
        .map(|k| caps.models[k % n].power(0, utils[k]))
        .collect();
    let bank = || {
        ControllerBank::new(
            ModelTable::from_models(&caps.models),
            cfg.lambda,
            cfg.beta,
            0.75,
            &caps.loc,
        )
    };
    let ec = batches(rounds * n, bank, |b, k| {
        black_box(b.ec_step(k % n, utils[k]));
    });
    let sm = batches(rounds * n, bank, |b, k| {
        black_box(b.sm_step_coordinated(k % n, powers[k]));
    });
    (ec, sm)
}

/// `control.reallocate_us`: the GM's `GroupCapper::reallocate` over
/// the workload's children (enclosures, then standalone servers), with
/// each child's modelled power at its traces' utilization.
pub fn reallocate(cfg: &ExperimentConfig, caps: &Caps) -> Vec<f64> {
    let topo = &cfg.topology;
    let standalone = topo.standalone_servers();
    let mut child_caps = caps.enc.clone();
    child_caps.extend(standalone.iter().map(|s| caps.loc[s.index()]));
    let children = child_caps.len();
    let rounds = 200usize;
    let power = |s: ServerId, t: u64| caps.models[s.index()].power(0, util(cfg, s.index(), t));
    let consumption: Vec<Vec<f64>> = (0..rounds as u64)
        .map(|t| {
            let mut v: Vec<f64> = (0..topo.num_enclosures())
                .map(|e| {
                    let servers = topo.enclosure_servers(EnclosureId(e));
                    reduce::tree_sum_by(servers.len(), |k| power(servers[k], t))
                })
                .collect();
            v.extend(standalone.iter().map(|&s| power(s, t)));
            v
        })
        .collect();
    batches(
        rounds,
        || GroupCapper::new(CapperLevel::Group, caps.grp, cfg.policy.make(children)),
        |gm, k| {
            black_box(gm.reallocate(&consumption[k], &child_caps));
        },
    )
    .into_iter()
    .map(|ns| ns / 1e3)
    .collect()
}

/// `par.execute_us`: a trivial closure over the workload's shard count
/// at `threads` threads.
pub fn pool_execute(cfg: &ExperimentConfig, threads: usize) -> Vec<f64> {
    let shards = cfg.topology.shard_ranges(threads.max(1) * 2).len();
    let pool = WorkerPool::new(threads);
    let f = |k: usize| {
        black_box(k);
    };
    batches(500, || (), |_, _| pool.execute(shards, &f))
        .into_iter()
        .map(|ns| ns / 1e3)
        .collect()
}

/// `reduce.tree_ns_per_elem` and `reduce.pool_ns_per_elem`: a sum of
/// the fleet's modelled server powers through the fixed-shape tree,
/// sequentially and on a pool of `threads` threads.
pub fn reductions(cfg: &ExperimentConfig, caps: &Caps, threads: usize) -> (Vec<f64>, Vec<f64>) {
    let n = caps.models.len();
    let xs: Vec<f64> = (0..n)
        .map(|i| caps.models[i].power(0, util(cfg, i, 0)))
        .collect();
    let calls = 2_000;
    let tree = batches(
        calls,
        || (),
        |_, _| {
            black_box(reduce::tree_reduce(n, 0.0, |i| xs[i], |a, b| a + b));
        },
    );
    let pool = WorkerPool::new(threads);
    let pooled = batches(
        calls,
        || (),
        |_, _| {
            black_box(reduce::tree_reduce_pool(
                &pool,
                n,
                0.0,
                |i| xs[i],
                |a, b| a + b,
            ));
        },
    );
    let per_elem = |v: Vec<f64>| v.into_iter().map(|ns| ns / n as f64).collect();
    (per_elem(tree), per_elem(pooled))
}

/// `bus.send_poll_ns_per_msg`: one grant per link per tick through the
/// workload's `BusConfig` over its link count, polled every tick and
/// drained at the end, per message sent.
pub fn bus_send_poll(cfg: &ExperimentConfig) -> Vec<f64> {
    let topo = &cfg.topology;
    let redundancy = cfg.redundancy.sanitized();
    let links = topo.num_servers()
        + topo.num_enclosures()
        + if redundancy.em_standby {
            topo.num_enclosures()
        } else {
            0
        }
        + usize::from(redundancy.gm_standby);
    let bus_cfg = cfg.bus.clone().sanitized();
    let ticks = 50u64;
    let calls = ticks as usize * links;
    batches(
        1,
        || {
            let mut bus = ControlBus::new(&bus_cfg);
            for _ in 0..links {
                bus.register_link();
            }
            bus
        },
        |bus, _| {
            for t in 0..ticks {
                for l in 0..links {
                    black_box(bus.send(LinkId(l), 100.0 + l as f64, t, false));
                }
                black_box(bus.poll(t));
            }
            let mut t = ticks;
            while !bus.is_idle() && t < ticks + 1_000 {
                black_box(bus.poll(t));
                t += 1;
            }
        },
    )
    .into_iter()
    .map(|ns| ns / calls as f64)
    .collect()
}

/// `opt.plan_ms` and `opt.migrations_per_epoch`: at every VMC epoch of
/// a run, `Vmc::plan` on per-VM demand estimates (window mean blended
/// with the window peak, as the runner sizes them) and a
/// `ClusterContext` read from `Runner::sim()`.
pub struct VmcProbe {
    caps: Caps,
    vmc: Vmc,
    window: u64,
    cum: Vec<f64>,
    snap: Vec<f64>,
    peak: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub migrations: Vec<f64>,
}

impl VmcProbe {
    pub fn new(cfg: &ExperimentConfig) -> Self {
        let vms = cfg.traces.len();
        Self {
            caps: Caps::of(cfg),
            vmc: Vmc::new(cfg.vmc),
            window: cfg.intervals.sanitized().vmc,
            cum: vec![0.0; vms],
            snap: vec![0.0; vms],
            peak: vec![0.0; vms],
            plan_ms: Vec::new(),
            migrations: Vec::new(),
        }
    }

    /// Call after every tick.
    pub fn observe(&mut self, runner: &Runner) {
        let sim = runner.sim();
        for j in 0..self.cum.len() {
            let u = sim.real_vm_utilization(VmId(j));
            self.cum[j] += u;
            self.peak[j] = self.peak[j].max(u);
        }
        if !runner.ticks_done().is_multiple_of(self.window) {
            return;
        }
        let demands: Vec<f64> = (0..self.cum.len())
            .map(|j| {
                let mean = (self.cum[j] - self.snap[j]) / self.window as f64;
                self.snap[j] = self.cum[j];
                let est = mean + 0.3 * (self.peak[j] - mean).max(0.0);
                self.peak[j] = 0.0;
                est.clamp(0.0, 1.0)
            })
            .collect();
        let ctx = ClusterContext {
            topo: sim.topology(),
            models: &self.caps.models,
            current: sim.placement(),
            cap_loc: &self.caps.loc,
            cap_enc: &self.caps.enc,
            cap_grp: self.caps.grp,
        };
        let t0 = Instant::now();
        let plan = black_box(self.vmc.plan(&demands, &ctx));
        self.plan_ms.push(t0.elapsed().as_nanos() as f64 / 1e6);
        self.migrations.push(plan.num_migrations() as f64);
    }
}
