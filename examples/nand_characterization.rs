//! Deep-dive characterization of one NAND gate: regenerate the paper's
//! Table 1 with the analog model, dump the Fig. 6/7 waveforms as CSV, and
//! sweep the inverter VTC of Fig. 4.
//!
//! ```text
//! cargo run --release --example nand_characterization
//! ```
//!
//! Writes `nand_characterization/*.csv` into the working directory.

use std::fs;

use obd_suite::cmos::TechParams;
use obd_suite::obd::characterize::{characterize_table1, inverter_vtc, BenchConfig, RunOptions};
use obd_suite::obd::faultmodel::Polarity;
use obd_suite::obd::BreakdownStage;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechParams::date05();
    fs::create_dir_all("nand_characterization")?;

    // Table 1 with the at-speed capture criterion that renders the
    // paper's sa-0/sa-1 entries.
    println!("regenerating Table 1 (this runs ~40 transient analyses)...");
    let table =
        characterize_table1(&tech, &BenchConfig::table1(), &RunOptions::default()).into_result()?;
    println!("\n{}", table.render());
    fs::write("nand_characterization/table1.txt", table.render())?;

    // Fig. 4: VTC curves per stage.
    let mut csv = String::from("vin,fault_free,sbd,mbd2,hbd\n");
    let curves: Vec<Vec<(f64, f64)>> = [
        BreakdownStage::FaultFree,
        BreakdownStage::Sbd,
        BreakdownStage::Mbd2,
        BreakdownStage::Hbd,
    ]
    .iter()
    .map(|&s| inverter_vtc(&tech, Polarity::Nmos, s, 67))
    .collect::<Result<_, _>>()?;
    for (i, &(vin, v_ff)) in curves[0].iter().enumerate() {
        csv.push_str(&format!(
            "{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            vin, v_ff, curves[1][i].1, curves[2][i].1, curves[3][i].1
        ));
    }
    fs::write("nand_characterization/fig4_vtc.csv", &csv)?;
    println!(
        "VOL shift (vin = VDD): fault-free {:.3} V -> HBD {:.3} V",
        curves[0].last().unwrap().1,
        curves[3].last().unwrap().1
    );

    println!("\nartifacts in nand_characterization/");
    Ok(())
}
