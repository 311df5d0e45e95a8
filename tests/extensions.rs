//! Integration tests for the paper's §6/§7 extensions: heterogeneous
//! fleets, boot delays, enclosure base power, energy-delay objectives,
//! and the telemetry audit trail.

use no_power_struggles::prelude::*;

#[test]
fn heterogeneous_fleet_drains_high_idle_servers_first() {
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .heterogeneous()
    .horizon(1_500)
    .seed(31)
    .build();
    // models_override: blades = Blade A, standalone = Server B.
    let models = cfg.server_models();
    assert_eq!(models[0].name(), "Blade A");
    assert_eq!(models[179].name(), "Server B");
    let mut runner = Runner::new(&cfg);
    runner.run_to_horizon();
    let topo = runner.sim().topology().clone();
    let standalone_on = topo
        .standalone_servers()
        .iter()
        .filter(|&&s| runner.sim().is_on(s))
        .count();
    let blades_on = topo
        .servers()
        .filter(|&s| topo.enclosure_of(s).is_some() && runner.sim().is_on(s))
        .count();
    // The power-aware VMC parks load on efficient blades; most of the
    // idle-hungry standalone boxes go dark.
    assert!(
        standalone_on < 60 / 2,
        "expected most Server B boxes off, {standalone_on}/60 still on ({blades_on}/120 blades on)"
    );
}

#[test]
fn boot_delay_costs_energy_but_not_correctness() {
    let base = Scenario::paper(SystemKind::ServerB, Mix::M60, CoordinationMode::Coordinated)
        .horizon(1_500)
        .seed(37);
    let instant = run_experiment(&base.clone().build());
    let slow_boot = run_experiment(
        &base
            .sim(SimConfig {
                boot_delay_ticks: 50,
                ..SimConfig::default()
            })
            .build(),
    );
    // Boot burn shows up as slightly lower savings and/or delivered work,
    // never as budget chaos.
    assert!(slow_boot.comparison.power_savings_pct <= instant.comparison.power_savings_pct + 1.0);
    assert!(slow_boot.comparison.violations_sm_pct < 20.0);
}

#[test]
fn enclosure_base_power_reduces_relative_savings() {
    let base = Scenario::paper(SystemKind::BladeA, Mix::M60, CoordinationMode::Coordinated)
        .horizon(1_200)
        .seed(41);
    let without = run_experiment(&base.clone().build());
    let with_base = run_experiment(
        &base
            .sim(SimConfig::default().with_enclosure_base(200.0))
            .build(),
    );
    // The enclosure overhead is unmanageable (fans run regardless), so
    // the *relative* savings shrink.
    assert!(
        with_base.comparison.power_savings_pct < without.comparison.power_savings_pct,
        "base power {:.1}% vs none {:.1}%",
        with_base.comparison.power_savings_pct,
        without.comparison.power_savings_pct
    );
    // And absolute energy grows.
    assert!(with_base.baseline.energy > without.baseline.energy);
}

#[test]
fn energy_delay_objective_trades_savings_for_latency() {
    let base = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .horizon(1_500)
    .seed(43);
    let power = run_experiment(&base.clone().build());
    let vmc = VmcConfig {
        objective: Objective::EnergyDelay,
        ..Default::default()
    };
    let ed = run_experiment(&base.vmc(vmc).build());
    // The delay-aware objective must not *increase* the latency stretch.
    assert!(
        ed.comparison.latency_stretch <= power.comparison.latency_stretch + 0.05,
        "energy-delay {:.2} vs power {:.2}",
        ed.comparison.latency_stretch,
        power.comparison.latency_stretch
    );
}

#[test]
fn event_log_records_the_run_story() {
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::M60, CoordinationMode::Coordinated)
        .horizon(1_200)
        .seed(47)
        .build();
    let mut runner = Runner::new(&cfg);
    runner.enable_ring_telemetry(1 << 20);
    runner.run_to_horizon();
    let ring = runner.ring_telemetry().expect("ring installed");
    // The VMC emits one Migration per migration the simulator starts.
    let migrations = ring.count(EventKind::Migration);
    assert!(migrations > 0, "consolidation must have migrated VMs");
    assert_eq!(migrations, runner.sim().migrations_started());
    assert!(
        ring.events()
            .any(|e| matches!(e, TelemetryEvent::PowerOff { .. })),
        "consolidation must have powered servers off"
    );
    // Ticks are monotone oldest-first.
    let ticks: Vec<u64> = ring.events().map(TelemetryEvent::tick).collect();
    assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn power_trace_records_bounded_trajectory() {
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
        .horizon(2_000)
        .seed(53)
        .build();
    let mut runner = Runner::new(&cfg);
    runner.enable_power_trace(128);
    let stats = runner.run_to_horizon();
    let trace = runner.power_trace().expect("trace enabled");
    assert!(trace.len() <= 128);
    assert!(!trace.is_empty());
    // The trace's mean approximates the run's mean power.
    let rel_err = (trace.mean() - stats.mean_power()).abs() / stats.mean_power();
    assert!(rel_err < 0.05, "trace mean off by {:.1}%", 100.0 * rel_err);
    // Consolidation after the first VMC epoch shows as a power drop.
    let points = trace.points();
    let early = points.first().unwrap().1;
    let late = points.last().unwrap().1;
    assert!(
        late < early,
        "light mix should consolidate: {early} -> {late}"
    );
}
