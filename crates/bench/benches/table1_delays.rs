//! E2 — Table 1 regeneration benchmark: prints the regenerated table once
//! (the artifact), then times the underlying single-transition
//! measurement for the fault-free and defective NAND.

use obd_bench::quick_bench_config;
use obd_bench::timing::{bench_with, header, BenchOpts};
use obd_cmos::TechParams;
use obd_core::characterize::{
    characterize_table1, measure_cell_transition, BenchDefect, RunOptions,
};
use obd_core::faultmodel::Polarity;
use obd_core::BreakdownStage;
use obd_logic::netlist::GateKind;
use obd_spice::SimOptions;

fn print_artifact() {
    let tech = TechParams::date05();
    let report = characterize_table1(&tech, &quick_bench_config(), &RunOptions::default());
    match report.into_result() {
        Ok(table) => println!("\n{}", table.render()),
        Err(e) => eprintln!("table1 artifact failed: {e}"),
    }
}

fn main() {
    print_artifact();
    let tech = TechParams::date05();
    let cfg = quick_bench_config();
    let sim = SimOptions::new();
    let measure = |defect, v1, v2| {
        measure_cell_transition(&tech, GateKind::Nand, defect, v1, v2, &cfg, &sim).expect("measure")
    };
    let opts = BenchOpts::heavy();
    let mbd2 = |polarity| {
        let params = BreakdownStage::Mbd2.params(polarity).expect("ladder");
        Some(BenchDefect {
            pin: 0,
            polarity,
            params,
        })
    };
    let (nmos, pmos) = (mbd2(Polarity::Nmos), mbd2(Polarity::Pmos));
    header("table1");
    bench_with("fault_free_fall", &opts, || {
        measure(None, [false, true], [true, true])
    });
    bench_with("nmos_mbd2_fall", &opts, || {
        measure(nmos, [false, true], [true, true])
    });
    bench_with("pmos_mbd2_rise", &opts, || {
        measure(pmos, [true, true], [false, true])
    });
}
