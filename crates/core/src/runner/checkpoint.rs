//! Checkpoints: [`RunnerSnapshot`] embeds each layer's checkpointed
//! state whole, and the runner saves, loads and restores it.

use nps_metrics::{FaultStats, LevelViolations, TelemetryEvent};
use nps_sim::{FloatWord, InjectorSnapshot, SimSnapshot};
use serde::{Deserialize, Serialize};

use super::ecsm::EcSmState;
use super::managers::ManagerState;
use super::plane::PlaneState;
use super::safety::SafetyState;
use super::vmc::VmcState;
use super::Runner;
use crate::config::ExperimentConfig;
use crate::CoreError;

/// A [`Runner`]'s complete dynamic state, produced by
/// [`Runner::snapshot`] and consumed by [`Runner::restore`] /
/// [`Runner::resume`]: the simulator, the fault injector, the run's
/// totals, and one state struct per controller layer. Serializable
/// (floats travel as IEEE-754 bit words), so checkpoints written by
/// `npsctl --checkpoint-every` resume bit-exactly across process
/// boundaries.
///
/// Compatibility: a checkpoint binds to one experiment (the `label` must
/// match) and one format `version`; static structure is *not* stored and
/// must come from the same [`ExperimentConfig`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerSnapshot {
    /// Checkpoint format version ([`RunnerSnapshot::VERSION`]).
    pub version: u32,
    /// Label of the experiment this checkpoint belongs to.
    pub label: String,
    /// Ticks simulated when the checkpoint was taken.
    pub ticks_done: u64,
    /// Simulator state (placement, P-states, accumulators, thermal).
    pub sim: SimSnapshot,
    /// Fault-injector RNG and latched fault state.
    pub injector: InjectorSnapshot,
    /// Fault and degradation counters.
    pub fstats: FaultStats,
    /// Per-level violation accounting.
    pub violations: LevelViolations,
    /// Latency-proxy accumulator.
    pub cum_latency_proxy: FloatWord,
    /// Latency-proxy sample count.
    pub latency_samples: u64,
    /// EC/SM layer: the controller bank and its windows.
    pub ecsm: EcSmState,
    /// EM/GM layer: the cappers, their windows and outage latches.
    pub managers: ManagerState,
    /// VMC layer: feedback buffers, utilization and violation windows.
    pub vmc: VmcState,
    /// Bus plane: the bus and the warm standbys.
    pub plane: PlaneState,
    /// Safety layer: the invariant monitor's counters.
    pub safety: SafetyState,
}

impl RunnerSnapshot {
    /// Current checkpoint format version. Bump on any layout change —
    /// restore refuses checkpoints from other versions. DESIGN.md §9
    /// describes what each version changed; version 8 writes the
    /// simulator's, bank's, injector's and bus's state structs whole.
    pub const VERSION: u32 = 8;

    /// Writes the checkpoint to `path` as JSON, atomically: the bytes go
    /// to a sibling temp file first and are renamed into place, so a
    /// crash mid-write leaves the previous checkpoint intact.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let stem = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint.json".to_string());
        let tmp = dir.join(format!(".{stem}.tmp.{}", std::process::id()));
        let write = (|| -> std::io::Result<()> {
            let file = std::fs::File::create(&tmp)?;
            let mut writer = std::io::BufWriter::new(file);
            serde_json::to_writer(&mut writer, self).map_err(std::io::Error::other)?;
            use std::io::Write as _;
            writer.flush()?;
            writer.into_inner().map_err(|e| e.into_error())?.sync_all()
        })();
        // A failed write or a failed rename (e.g. `path` is a non-empty
        // directory) must not leave the temp file behind.
        let saved = write.and_then(|()| std::fs::rename(&tmp, path));
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }

    /// Reads a checkpoint previously written by [`RunnerSnapshot::save`].
    ///
    /// The format version is checked before the layout is mapped, so a
    /// checkpoint from another version fails with the same
    /// [`CoreError::Checkpoint`] that [`Runner::restore`] reports instead
    /// of a field-mapping error. Content errors come back as
    /// [`std::io::ErrorKind::InvalidData`] wrapping a [`CoreError`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let invalid = |e: CoreError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let unreadable = |why: String| invalid(CoreError::Checkpoint(why));
        let text = std::fs::read_to_string(path)?;
        let value = serde::parse(&text).map_err(|e| unreadable(e.to_string()))?;
        let version = value
            .as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == "version"))
            .and_then(|(_, v)| v.as_u64());
        match version {
            Some(v) if v == u64::from(Self::VERSION) => {}
            Some(v) => return Err(invalid(Self::version_mismatch(v))),
            None => return Err(unreadable("no format version".to_string())),
        }
        <Self as Deserialize>::deserialize(&value).map_err(|e| unreadable(e.to_string()))
    }

    fn version_mismatch(found: u64) -> CoreError {
        CoreError::Checkpoint(format!(
            "format version {found} (this build reads {})",
            Self::VERSION
        ))
    }
}

impl Runner {
    /// Captures the runner's complete dynamic state — simulator,
    /// controllers, bus in-flight queues, injector RNG, measurement
    /// windows, accumulators — for bit-exact resumption. The telemetry
    /// recorder and power trace are diagnostics and are *not* part of the
    /// checkpoint. Emits a `Checkpoint` telemetry event.
    pub fn snapshot(&mut self) -> RunnerSnapshot {
        let env = &mut self.env;
        let t = env.t;
        env.emit(|| TelemetryEvent::Checkpoint {
            tick: t,
            restored: false,
        });
        RunnerSnapshot {
            version: RunnerSnapshot::VERSION,
            label: self.label.clone(),
            ticks_done: t,
            sim: env.sim.snapshot(),
            injector: env.injector.snapshot(),
            fstats: env.fstats,
            violations: self.violations,
            cum_latency_proxy: self.cum_latency_proxy,
            latency_samples: self.latency_samples,
            ecsm: self.ecsm.snapshot(),
            managers: self.mgr.snapshot(),
            vmc: self.vmc.snapshot(),
            plane: self.plane.snapshot(),
            safety: self.safety.snapshot(),
        }
    }

    /// Restores state captured by [`Runner::snapshot`]. The runner must
    /// have been built from the *same* [`ExperimentConfig`] — the
    /// checkpoint carries only dynamic state; static structure (topology,
    /// models, traces, caps) comes from the configuration. A resumed run
    /// reproduces the uninterrupted run bit for bit.
    pub fn restore(&mut self, snap: &RunnerSnapshot) -> Result<(), CoreError> {
        if snap.version != RunnerSnapshot::VERSION {
            return Err(RunnerSnapshot::version_mismatch(snap.version.into()));
        }
        if snap.label != self.label {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint is for experiment {:?}, runner is {:?}",
                snap.label, self.label
            )));
        }
        // Every layer checks its whole state against this runner's shape
        // before anything is assigned: a short array would leave a stale
        // tail (a different state) or panic many ticks later.
        if !self.ecsm.fits(&snap.ecsm)
            || !self.mgr.fits(&snap.managers)
            || !self.vmc.fits(&snap.vmc)
            || !self.env.injector.fits(&snap.injector)
        {
            return Err(CoreError::Checkpoint(
                "checkpoint sizes do not match this configuration".to_string(),
            ));
        }
        self.plane
            .fits(&snap.plane)
            .map_err(|e| CoreError::Checkpoint(format!("checkpoint {e}")))?;
        // First mutation, and fallible: the simulator checks its shape
        // and decodes its event words before assigning anything, so a
        // misshapen simulator snapshot leaves the whole runner untouched.
        let env = &mut self.env;
        env.sim
            .restore(&snap.sim)
            .map_err(|e| CoreError::Checkpoint(e.to_string()))?;
        env.t = snap.ticks_done;
        env.injector.restore(&snap.injector);
        env.fstats = snap.fstats;
        self.violations = snap.violations;
        self.cum_latency_proxy = snap.cum_latency_proxy;
        self.latency_samples = snap.latency_samples;
        self.ecsm.restore(&snap.ecsm);
        self.mgr.restore(&snap.managers);
        self.vmc.restore(&snap.vmc);
        self.plane.restore(&snap.plane);
        self.safety.restore(&snap.safety);
        let t = env.t;
        env.emit(|| TelemetryEvent::Checkpoint {
            tick: t,
            restored: true,
        });
        Ok(())
    }

    /// Builds a runner for `cfg` and restores `snap` into it — the
    /// one-call resume path.
    pub fn resume(cfg: &ExperimentConfig, snap: &RunnerSnapshot) -> Result<Self, CoreError> {
        let mut runner = Self::try_new(cfg)?;
        runner.restore(snap)?;
        Ok(runner)
    }
}
