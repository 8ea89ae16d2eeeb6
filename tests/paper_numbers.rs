//! The paper's headline numbers and claims, asserted in one place.

use obd_suite::atpg::fault::DetectionCriterion;
use obd_suite::atpg::generate::exhaustive_obd_analysis;
use obd_suite::cmos::cell::Cell;
use obd_suite::logic::circuits::fig8_sum_circuit;
use obd_suite::logic::netlist::GateKind;
use obd_suite::obd::excitation::{excitation_set, minimal_cell_test_set};
use obd_suite::obd::faultmodel::Polarity;
use obd_suite::obd::progression::{ProgressionModel, REFERENCE_SBD_TO_HBD_HOURS};
use obd_suite::obd::BreakdownStage;

#[test]
fn fig8_circuit_matches_paper_structure() {
    // "implemented using 14 NAND gates and 11 inverters … logic depth 9"
    let nl = fig8_sum_circuit();
    assert_eq!(nl.count_kind(GateKind::Nand), 14);
    assert_eq!(nl.count_kind(GateKind::Inv), 11);
    assert_eq!(nl.max_depth().unwrap(), 9);
}

#[test]
fn fig8_56_sites_32_testable() {
    // "there are 56 distinct locations for OBD defects in the 14 NAND
    //  gates … 32 testable OBD faults"
    let a = exhaustive_obd_analysis(
        &fig8_sum_circuit(),
        BreakdownStage::Mbd2,
        &DetectionCriterion::ideal(),
        true,
    )
    .expect("analysis");
    assert_eq!(a.total_faults, 56);
    assert_eq!(a.testable, 32);
    // "18 out of 72 input transitions are necessary and sufficient":
    // under our all-ordered-pairs convention (56 candidates for 3 PIs) a
    // minimal cover is smaller; the shared qualitative claim is that a
    // small fraction of the transition universe suffices.
    assert!(a.minimal_set.len() <= 18);
    assert!(a.minimal_set.len() * 3 <= a.tests.len());
}

#[test]
fn nand_necessary_and_sufficient_set() {
    // "one of the input sequences {(10,11),(00,11),(01,11)} and the
    //  sequences {(11,10)} and {(11,01)} are necessary and sufficient"
    let cell = Cell::nand(2);
    let min = minimal_cell_test_set(&cell);
    assert_eq!(min.len(), 3);
    let falling: Vec<(Vec<bool>, Vec<bool>)> = vec![
        (vec![true, false], vec![true, true]),
        (vec![false, false], vec![true, true]),
        (vec![false, true], vec![true, true]),
    ];
    assert!(min.iter().filter(|p| falling.contains(p)).count() == 1);
    assert!(min.contains(&(vec![true, true], vec![true, false])));
    assert!(min.contains(&(vec![true, true], vec![false, true])));
}

#[test]
fn nor_necessary_and_sufficient_set() {
    // "for a traditional NOR gate, one of {(10,00),(01,00),(11,00)}, and
    //  {(00,01)}, and {(00,10)} are necessary and sufficient"
    let cell = Cell::nor(2);
    let min = minimal_cell_test_set(&cell);
    assert_eq!(min.len(), 3);
    let rising: Vec<(Vec<bool>, Vec<bool>)> = vec![
        (vec![true, false], vec![false, false]),
        (vec![false, true], vec![false, false]),
        (vec![true, true], vec![false, false]),
    ];
    assert!(min.iter().filter(|p| rising.contains(p)).count() == 1);
    assert!(min.contains(&(vec![false, false], vec![false, true])));
    assert!(min.contains(&(vec![false, false], vec![true, false])));
}

#[test]
fn nand_nmos_insensitive_pmos_specific() {
    // §3.3: "breakdown in the NMOS transistor causes a transition fault
    // at the output … independent of which input switches"; §4.1: PMOS
    // defects are input-specific.
    let cell = Cell::nand(2);
    for leaf in 0..2 {
        let nmos = obd_suite::cmos::switch::CellTransistor {
            side: obd_suite::cmos::switch::NetworkSide::Pulldown,
            leaf,
        };
        assert_eq!(excitation_set(&cell, nmos).len(), 3);
        let pmos = obd_suite::cmos::switch::CellTransistor {
            side: obd_suite::cmos::switch::NetworkSide::Pullup,
            leaf,
        };
        assert_eq!(excitation_set(&cell, pmos).len(), 1);
    }
}

#[test]
fn linder_reference_progression_is_27_hours() {
    // "the time between the first SBD incident and the final HBD is
    //  roughly 27 hours"
    assert_eq!(REFERENCE_SBD_TO_HBD_HOURS, 27.0);
    let prog = ProgressionModel::reference(Polarity::Nmos);
    assert_eq!(prog.stage_at(0.0), BreakdownStage::Sbd);
    assert_eq!(prog.stage_at(27.0), BreakdownStage::Hbd);
}

#[test]
fn table1_ladder_values_match_paper() {
    // The (Isat, R) ladder is reproduced verbatim from Table 1.
    let rows = [
        (BreakdownStage::Mbd1, Polarity::Nmos, 2e-28, 500.0),
        (BreakdownStage::Mbd2, Polarity::Nmos, 1e-27, 100.0),
        (BreakdownStage::Mbd3, Polarity::Nmos, 5e-27, 20.0),
        (BreakdownStage::Hbd, Polarity::Nmos, 2e-24, 0.05),
        (BreakdownStage::Mbd1, Polarity::Pmos, 1e-29, 1000.0),
        (BreakdownStage::Mbd2, Polarity::Pmos, 1.1e-29, 900.0),
        (BreakdownStage::Mbd3, Polarity::Pmos, 1.2e-29, 830.0),
    ];
    for (stage, pol, isat, r) in rows {
        let p = stage.params(pol).expect("ladder");
        assert_eq!(p.isat, isat, "{stage}/{pol} isat");
        assert_eq!(p.r_bd, r, "{stage}/{pol} r");
    }
    assert!(
        BreakdownStage::Hbd.params(Polarity::Pmos).is_err(),
        "paper: N/A"
    );
}
