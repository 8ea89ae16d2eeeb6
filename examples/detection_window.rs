//! Scheduling concurrent tests (§4.2): from the exponential breakdown
//! progression and the measured stage delays, compute when a defect first
//! becomes detectable, when it turns dangerous, and how often a
//! fault-tolerant system must run its tests to catch it in time.
//!
//! ```text
//! cargo run --release --example detection_window
//! ```

use obd_suite::obd::characterize::DelayTable;
use obd_suite::obd::faultmodel::Polarity;
use obd_suite::obd::progression::ProgressionModel;
use obd_suite::obd::window::detection_window;
use obd_suite::obd::BreakdownStage;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The stage-to-delay mapping: the paper's published Table 1
    // (`repro table1` regenerates that grid with the analog model).
    let table = DelayTable::paper();

    for polarity in [Polarity::Nmos, Polarity::Pmos] {
        println!("=== {polarity} defect, 27 h SBD→HBD reference progression ===");
        let prog = ProgressionModel::reference(polarity);

        // Where in time do the ladder stages land?
        for stage in [
            BreakdownStage::Mbd1,
            BreakdownStage::Mbd2,
            BreakdownStage::Mbd3,
            BreakdownStage::Hbd,
        ] {
            if let Some(t) = prog.time_of_stage(stage) {
                let extra = table
                    .extra_delay_ps(polarity, stage)
                    .map(|d| format!("+{d:.0} ps"))
                    .unwrap_or_else(|| "stuck".to_string());
                println!("  {stage:>5} reached at {t:5.1} h  (extra delay {extra})");
            }
        }

        // Detection windows for a range of capture slacks.
        println!("  windows by detection slack:");
        for slack in [10.0, 50.0, 150.0, 400.0] {
            match detection_window(&table, &prog, polarity, slack) {
                Some(w) => println!(
                    "    slack {slack:>4.0} ps: detectable in [{:.1} h, {:.1} h] — schedule a test every {:.1} h",
                    w.opens_hours,
                    w.closes_hours,
                    w.test_interval_hours(4)
                ),
                None => println!("    slack {slack:>4.0} ps: never detectable as a delay fault"),
            }
        }
        println!();
    }

    println!("The exponential growth is why the paper insists on early,");
    println!("timing-sensitive concurrent testing: each doubling of the");
    println!("acceptable slack costs a disproportionate share of the window.");
    Ok(())
}
