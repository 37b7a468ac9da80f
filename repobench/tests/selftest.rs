//! Self-tests of the benchmark: its checks catch planted faults, its
//! generators are pure functions of the seed, and re-issued bookings
//! reproduce the recorded arrivals.

use numagap_apps::{AppId, Variant};
use numagap_net::{das_spec, CrossTrafficPlan, FaultPlan, WanTopology};
use numagap_repobench::cells::{prepare, reissue, run_cell};
use numagap_repobench::gen::{paper_sweep, wan_hostile, SimCell};
use numagap_repobench::report::{check_fingerprint, Tally, END_TO_END, PER_LAYER};

fn small_cell(topology: WanTopology, hostile: bool) -> SimCell {
    let mut spec = das_spec(4, 2, 5.0, 1.0).wan_topology(topology);
    if hostile {
        spec = spec
            .cross_traffic(CrossTrafficPlan::new(3).intensity(0.3))
            .fault_plan(FaultPlan::new(4).drop_prob(0.05).duplicate_prob(0.025));
    }
    SimCell {
        label: "test".to_string(),
        app: AppId::Fft,
        variant: Variant::Unoptimized,
        spec,
        transport: hostile,
    }
}

#[test]
fn planted_wrong_checksum_yields_a_failure() {
    let (cfg, mut cells) = prepare(vec![small_cell(WanTopology::FullMesh, false)]);
    let good = run_cell(&cfg, &cells[0], false);
    assert!(good.problems.is_empty(), "{:?}", good.problems);
    cells[0].expected *= 1.5;
    let bad = run_cell(&cfg, &cells[0], false);
    let mut tally = Tally::default();
    tally.item(good.problems);
    tally.item(bad.problems);
    assert_eq!(tally.failed, 1);
    assert!(tally.error_rate() > 0.0);
}

#[test]
fn planted_wrong_fingerprint_yields_a_failure() {
    let table = "paper-sweep 1 00000000000000ff\nwan-hostile 1 0123456789abcdef\n";
    let mut tally = Tally::default();
    check_fingerprint(&mut tally, table, "paper-sweep", 1, 0xff);
    assert_eq!((tally.attempted, tally.failed), (1, 0));
    check_fingerprint(&mut tally, table, "paper-sweep", 1, 0xfe);
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert!(tally.error_rate() > 0.0);
    // A seed without a committed fingerprint is printed, not checked.
    check_fingerprint(&mut tally, table, "paper-sweep", 2, 0xfe);
    assert_eq!(tally.attempted, 2);
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    let show = |cells: Vec<SimCell>| format!("{cells:?}");
    assert_eq!(show(paper_sweep(7)), show(paper_sweep(7)));
    assert_ne!(show(paper_sweep(7)), show(paper_sweep(8)));
    assert_eq!(show(wan_hostile(7)), show(wan_hostile(7)));
    assert_ne!(show(wan_hostile(7)), show(wan_hostile(8)));
}

#[test]
fn net_reissue_reproduces_every_arrival() {
    for (topology, hostile) in [
        (WanTopology::FullMesh, false),
        (WanTopology::Ring, true),
        (WanTopology::FatTree { pod: 2 }, true),
    ] {
        let (cfg, cells) = prepare(vec![small_cell(topology, hostile)]);
        let mut run = run_cell(&cfg, &cells[0], true);
        assert!(run.problems.is_empty(), "{:?}", run.problems);
        let (spec, booked) = run.capture.take().expect("captured");
        let rb = reissue(&spec, &booked);
        assert!(rb.transfers > 100);
        assert_eq!(rb.transfers, run.kernel.messages);
        assert_eq!(rb.mismatches, 0, "{topology:?}");
        // Booking into a different network must be noticed.
        let mut other = spec.clone();
        other.inter = numagap_net::LinkParams::wide_area(50.0, 0.1);
        assert!(reissue(&other, &booked).mismatches > 0);
    }
}

#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let (e2e, layers) = text.split_once("\"per_layer\"").expect("per_layer section");
    let names = |s: &str| -> Vec<String> {
        s.split("\"name\": \"")
            .skip(1)
            .filter_map(|r| r.split('"').next().map(str::to_string))
            .filter(|n| !["paper-sweep", "wan-hostile"].contains(&n.as_str()))
            .collect()
    };
    let want_e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let want_layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names(e2e), want_e2e);
    assert_eq!(names(layers), want_layers);
}
