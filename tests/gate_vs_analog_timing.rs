//! Abstraction-stack consistency: the gate-level timing simulator, when
//! annotated with delays characterized by the analog model, must predict
//! the full-adder's behavior to within cell-model accuracy.
//!
//! This is the workflow the paper proposes: characterize the defect once
//! at the circuit level (Fig. 5 bench), then reason about whole designs
//! at the gate level.

use obd_suite::cmos::expand::expand;
use obd_suite::cmos::TechParams;
use obd_suite::logic::circuits::fig8_sum_circuit;
use obd_suite::logic::netlist::GateKind;
use obd_suite::logic::timing::{timing_simulate, InputEvent};
use obd_suite::logic::value::Lv;
use obd_suite::obd::annotate::delay_model_from_table;
use obd_suite::obd::characterize::{measure_cell_transition, BenchConfig, DelayTable};
use obd_suite::spice::analysis::tran::{transient_with_options, TranParams};
use obd_suite::spice::devices::SourceWave;
use obd_suite::spice::{EdgeKind, SimOptions};

#[test]
fn characterized_gate_level_timing_tracks_analog_full_adder() {
    let tech = TechParams::date05();
    let cfg = BenchConfig {
        edge_ps: 50.0,
        launch_ps: 400.0,
        window_ps: 2000.0,
        step_ps: 4.0,
        at_speed_ps: None,
        sim_full_window: false,
    };
    // Characterize the fault-free NAND fall (01,11) and rise (11,01)
    // with the analog model; the gate-level model reads only these two.
    let sim = SimOptions::new();
    let measure = |v1, v2| {
        measure_cell_transition(&tech, GateKind::Nand, None, v1, v2, &cfg, &sim)
            .expect("characterization")
            .delay_ps()
            .expect("fault-free NAND switches")
    };
    let table = DelayTable {
        base_fall_ps: measure([false, true], [true, true]),
        base_rise_ps: measure([true, true], [false, true]),
        nmos: Vec::new(),
        pmos: Vec::new(),
    };
    let model = delay_model_from_table(&table);

    let nl = fig8_sum_circuit();
    // Stimulus: A rises with B=1, C=0; the sum S = A^B^C falls 1 -> 0.
    let initial = vec![Lv::Zero, Lv::One, Lv::Zero];
    let events = vec![InputEvent {
        net: nl.inputs()[0],
        time_ps: 0.0,
        value: Lv::One,
    }];
    let s = nl.outputs()[0];

    // Gate-level prediction of the sum transition time.
    let gl = timing_simulate(&nl, &model, &initial, &events).expect("timing sim");
    let t_gate_ps = gl.wave(s).last_transition().expect("sum switches");
    assert_eq!(gl.wave(s).final_value(), Lv::Zero);

    // Analog ground truth on the expanded 78-transistor circuit.
    let mut exp = expand(&nl, &tech).expect("expansion");
    let launch = 400e-12;
    let values = [Lv::Zero, Lv::One, Lv::Zero];
    for (i, &pi) in nl.inputs().iter().enumerate() {
        let wave = if i == 0 {
            SourceWave::step(0.0, tech.vdd, launch, 50e-12)
        } else {
            SourceWave::dc(if values[i] == Lv::One { tech.vdd } else { 0.0 })
        };
        exp.drive_input(pi, wave);
    }
    let wave = transient_with_options(&exp.circuit, &TranParams::new(4e-12, launch + 2.5e-9), &sim)
        .expect("transient");
    let t_ref = launch + 25e-12;
    let t_analog = wave
        .first_crossing(exp.node(s), tech.half_vdd(), EdgeKind::Falling, t_ref)
        .expect("analog sum falls");
    let t_analog_ps = (t_analog - t_ref) / 1e-12;

    // Cell-model accuracy: the gate-level prediction ignores slope and
    // loading variations, so allow a generous but meaningful band.
    let ratio = t_gate_ps / t_analog_ps;
    assert!(
        (0.5..2.0).contains(&ratio),
        "gate-level {t_gate_ps:.0} ps vs analog {t_analog_ps:.0} ps (ratio {ratio:.2})"
    );
}
