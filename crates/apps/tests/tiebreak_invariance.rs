//! Schedule-perturbation invariance of the full application suite.
//!
//! The kernel's [`numagap_sim::TieBreak`] policy permutes the service
//! order of *equal-timestamp* events — exactly the orderings a real
//! machine never promises. A correctly written app must not let its
//! makespan or checksum depend on them: receives are tagged or folded
//! commutatively, and contended same-instant traffic is serialized by
//! the network model's FIFO resources in an order the app's own send
//! pattern fixes. This suite re-runs every app/variant combination under
//! two adversarial policies and demands bit-identical outcomes, which is
//! the same contract `numagap check --perturb` enforces from the CLI.
//!
//! ASP/optimized also runs under both policies on the one-OS-thread-per-rank
//! scheduler ([`SchedMode::Threads`]), the differential oracle for the
//! default fiber scheduler: its outcome must match the fiber baseline too.
//!
//! If a cell moves here, the app (not the kernel) has a hidden order
//! dependence — typically a wildcard receive folded non-commutatively or
//! two same-instant transfers racing for one NIC.

use numagap_apps::{run_app, AppId, Scale, SuiteConfig, Variant};
use numagap_net::das_spec;
use numagap_rt::Machine;
use numagap_sim::{SchedMode, TieBreak};

const CLUSTERS: usize = 4;
const PROCS_PER_CLUSTER: usize = 8;

/// All 11 combos: Table 1 app order, unoptimized first; FFT has no
/// optimized variant.
fn combos() -> Vec<(AppId, Variant)> {
    let mut v = Vec::new();
    for app in AppId::ALL {
        v.push((app, Variant::Unoptimized));
        if app.has_optimized() {
            v.push((app, Variant::Optimized));
        }
    }
    assert_eq!(v.len(), 11);
    v
}

#[test]
fn suite_is_bit_identical_under_adversarial_tie_breaks() {
    let cfg = SuiteConfig::at(Scale::Small);
    let adversaries = [TieBreak::Reversed, TieBreak::Shuffled(0x5EED)];
    let mut moved = Vec::new();
    for (app, variant) in combos() {
        let baseline = {
            let machine = Machine::new(das_spec(CLUSTERS, PROCS_PER_CLUSTER, 0.5, 6.3));
            run_app(app, &cfg, variant, &machine)
                .unwrap_or_else(|e| panic!("{app}/{variant} baseline: {e}"))
        };
        let modes: &[SchedMode] = if (app, variant) == (AppId::Asp, Variant::Optimized) {
            &[SchedMode::Fiber, SchedMode::Threads]
        } else {
            &[SchedMode::Fiber]
        };
        for tb in adversaries {
            for &mode in modes {
                let machine = Machine::new(das_spec(CLUSTERS, PROCS_PER_CLUSTER, 0.5, 6.3))
                    .with_tie_break(tb)
                    .with_sched_mode(mode);
                let run = run_app(app, &cfg, variant, &machine)
                    .unwrap_or_else(|e| panic!("{app}/{variant} under {tb} ({mode:?}): {e}"));
                if run.elapsed != baseline.elapsed || run.checksum != baseline.checksum {
                    moved.push(format!(
                        "{app}/{variant} under {tb} ({mode:?}): elapsed {} -> {}, checksum {} -> {}",
                        baseline.elapsed.as_nanos(),
                        run.elapsed.as_nanos(),
                        baseline.checksum,
                        run.checksum
                    ));
                }
            }
        }
    }
    assert!(
        moved.is_empty(),
        "schedule perturbation moved {} cell(s):\n  {}",
        moved.len(),
        moved.join("\n  ")
    );
}
