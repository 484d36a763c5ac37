//! Seed → [`FuzzCase`] generation.
//!
//! [`generate`] is a pure function of `(seed, scale)`: it forks three
//! labeled [`DetRng`] streams (configuration, load trace, event
//! schedule) so that the sampled dimensions stay decorrelated, and
//! never consults ambient state. The same inputs always yield the same
//! case — that is what makes `MARLIN_FUZZ_SEEDS` swarm runs replayable
//! from nothing but a seed list.

use crate::case::{FuzzCase, FuzzEvent, PolicyKind, RunnerKind, TimedEvent};
use marlin_cluster::params::{CoordKind, CpuModel};
use marlin_sim::DetRng;

/// Fork labels for the independent generation streams. Distinct
/// constants so adding draws to one dimension never perturbs another.
const FORK_CONFIG: u64 = 9001;
const FORK_TRACE: u64 = 9002;
const FORK_EVENTS: u64 = 9003;

/// Generate the deterministic [`FuzzCase`] for `seed`.
///
/// `scale` divides client counts and granule counts (floor applied) the
/// same way `MARLIN_SCALE` shrinks the repo's benchmarks: scale 10 makes
/// each case roughly an order of magnitude cheaper while keeping the
/// schedule shape. It must be ≥ 1 (0 is treated as 1).
#[must_use]
pub fn generate(seed: u64, scale: u64) -> FuzzCase {
    let scale = scale.max(1);
    let root = DetRng::seed(seed);
    let mut cfg = root.fork(FORK_CONFIG);
    let mut trc = root.fork(FORK_TRACE);
    let mut evr = root.fork(FORK_EVENTS);

    // --- configuration ----------------------------------------------------
    let local = cfg.chance(0.25);
    let (runner, backend, cpu_model, regions) = if local {
        // The local runner only supports the Marlin backend, runs real
        // reconfiguration transactions, and has no region model.
        (RunnerKind::Local, CoordKind::Marlin, CpuModel::Analytic, 1)
    } else {
        let backend = *cfg.pick(&[
            CoordKind::Marlin,
            CoordKind::Marlin,
            CoordKind::ZkSmall,
            CoordKind::ZkLarge,
            CoordKind::Fdb,
        ]);
        let cpu = if cfg.chance(0.3) {
            CpuModel::PerRequest
        } else {
            CpuModel::Analytic
        };
        let regions = if cfg.chance(0.3) { 4 } else { 1 };
        (RunnerKind::Sim, backend, cpu, regions)
    };
    let granules = (cfg.range(48, 257) / scale).max(24);
    let initial_nodes = cfg.range(2, 5) as u32;
    let threads_per_node = *cfg.pick(&[2u32, 4, 8]);
    let horizon_ms = cfg.range(20_000, 60_001);
    let control_interval_ms = *cfg.pick(&[1_000u64, 2_000, 2_500, 5_000]);
    let observe_window_ms = control_interval_ms * 2;
    let provision_lead_ms = if cfg.chance(0.3) {
        cfg.range(2_000, 10_001)
    } else {
        0
    };
    let policy = {
        let max = initial_nodes + cfg.range(2, 7) as u32;
        let roll = cfg.unit();
        if roll < 0.2 {
            PolicyKind::None
        } else if roll < 0.8 {
            PolicyKind::Reactive {
                min: initial_nodes.min(2),
                max,
            }
        } else {
            PolicyKind::Predictive {
                min: initial_nodes.min(2),
                max,
            }
        }
    };
    let membership_stress = if runner == RunnerKind::Sim && cfg.chance(0.2) {
        Some((
            initial_nodes + cfg.range(2, 9) as u32,
            *cfg.pick(&[500u64, 1_000, 2_000]),
        ))
    } else {
        None
    };

    // --- load trace -------------------------------------------------------
    let clients = |r: &mut DetRng, lo: u64, hi: u64| -> u32 {
        (r.range(lo, hi) / scale).clamp(4, (200 / scale).max(4)) as u32
    };
    let trace = gen_trace(&mut trc, horizon_ms, &clients);
    let region_traces = if regions > 1 {
        (0..regions)
            .map(|_| gen_trace(&mut trc, horizon_ms, &clients))
            .collect()
    } else {
        Vec::new()
    };

    // --- fault/churn schedule ---------------------------------------------
    let mut events = Vec::new();
    if horizon_ms > 2_000 {
        for _ in 0..evr.range(0, 9) {
            let at_ms = evr.range(1_000, horizon_ms - 1_000);
            let event = match evr.range(0, 6) {
                0 => FuzzEvent::Crash {
                    node: evr.range(0, u64::from(initial_nodes) + 2) as u32,
                },
                1 => FuzzEvent::AddNodes {
                    count: evr.range(1, 4) as u32,
                },
                2 => FuzzEvent::RemoveNodes {
                    nodes: (0..evr.range(1, 3))
                        .map(|_| evr.range(0, u64::from(initial_nodes) + 4) as u32)
                        .collect(),
                },
                3 => FuzzEvent::LeadJitter {
                    extra_ms: evr.range(1_000, 8_001),
                },
                4 if regions > 1 => FuzzEvent::Partition {
                    region: evr.range(0, u64::from(regions)) as u16,
                    dur_ms: evr.range(1_000, 6_001),
                },
                _ => FuzzEvent::LatencySpike {
                    region: evr.range(0, u64::from(regions)) as u16,
                    extra_ms: evr.range(10, 121),
                    dur_ms: evr.range(1_000, 8_001),
                },
            };
            events.push(TimedEvent { at_ms, event });
        }
    }
    events.sort_by_key(|e| e.at_ms);

    FuzzCase {
        seed,
        runner,
        backend,
        cpu_model,
        policy,
        granules,
        initial_nodes,
        threads_per_node,
        regions,
        horizon_ms,
        control_interval_ms,
        observe_window_ms,
        provision_lead_ms,
        trace,
        region_traces,
        membership_stress,
        events,
    }
}

/// Sample a stepped client trace: a base load plus 1–4 shifts (spikes,
/// drops, ramps) at random times inside the horizon.
fn gen_trace(
    rng: &mut DetRng,
    horizon_ms: u64,
    clients: &impl Fn(&mut DetRng, u64, u64) -> u32,
) -> Vec<(u64, u32)> {
    let base = clients(rng, 8, 60);
    let mut steps = vec![(0u64, base)];
    for _ in 0..rng.range(1, 5) {
        let at = rng.range(1, horizon_ms.max(2));
        let level = if rng.chance(0.5) {
            // Spike: multiply the base.
            clients(rng, u64::from(base) * 2, u64::from(base) * 6 + 1)
        } else {
            clients(rng, 4, u64::from(base).max(5))
        };
        steps.push((at, level));
    }
    steps.sort_by_key(|&(t, _)| t);
    steps.dedup_by_key(|&mut (t, _)| t);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            let a = generate(seed, 10);
            let b = generate(seed, 10);
            assert_eq!(a, b, "seed {seed} not deterministic");
        }
    }

    #[test]
    fn seeds_explore_the_space() {
        let cases: Vec<FuzzCase> = (0..200).map(|s| generate(s, 10)).collect();
        assert!(cases.iter().any(|c| c.runner == RunnerKind::Local));
        assert!(cases.iter().any(|c| c.runner == RunnerKind::Sim));
        assert!(cases.iter().any(|c| c.regions > 1));
        assert!(cases.iter().any(|c| c.policy == PolicyKind::None));
        assert!(cases
            .iter()
            .any(|c| matches!(c.policy, PolicyKind::Predictive { .. })));
        assert!(cases.iter().any(|c| !c.events.is_empty()));
        assert!(cases.iter().any(|c| c.membership_stress.is_some()));
        assert!(cases.iter().any(|c| c
            .events
            .iter()
            .any(|e| matches!(e.event, FuzzEvent::Partition { .. }))));
    }

    #[test]
    fn local_cases_stay_on_supported_config() {
        for seed in 0..300 {
            let c = generate(seed, 10);
            if c.runner == RunnerKind::Local {
                assert_eq!(c.backend, CoordKind::Marlin);
                assert_eq!(c.regions, 1);
            }
        }
    }

    #[test]
    fn events_fit_inside_the_horizon() {
        for seed in 0..200 {
            let c = generate(seed, 10);
            for ev in &c.events {
                assert!(ev.at_ms >= 1_000 && ev.at_ms < c.horizon_ms);
            }
        }
    }
}
