//! Tests of the benchmark's own code: the tail rule, the QASM reader,
//! seeded input generation and the metric catalogue.

use qsp_circuit::{qasm::to_qasm, Circuit, Gate};
use qsp_core::json::{self, Value};
use qsp_perfbench::qasm_read::read_qasm;
use qsp_perfbench::{inputs, stats, END_TO_END, PER_LAYER, WORKLOADS};
use qsp_sim::StateVectorSimulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    let sample = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
    for (n, expected) in [
        (5, 50.0),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (999, 90.0),
        (1000, 99.0),
        (9_999, 99.0),
        (10_000, 99.9),
    ] {
        let sorted = sample(n);
        let (p, value) = stats::tail(&sorted);
        assert_eq!(p, expected, "{n} samples");
        assert_eq!(value, stats::percentile(&sorted, p));
        if p > 50.0 {
            assert!(stats::samples_beyond(n, p) >= stats::MIN_SAMPLES_BEYOND);
        }
        let higher = stats::TAIL_PERCENTILES
            .iter()
            .take_while(|&&q| q > p)
            .all(|&q| stats::samples_beyond(n, q) < stats::MIN_SAMPLES_BEYOND);
        assert!(higher, "{n} samples: a higher percentile qualified");
    }
    // Nearest rank: p90 of 1..=100 is 90 with exactly 10 samples beyond.
    assert_eq!(stats::percentile(&sample(100), 90.0), 90.0);
    assert_eq!(stats::samples_beyond(100, 90.0), 10);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let values: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::quartiles(&values), (2.75, 8.25));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(stats::quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

fn random_circuit(rng: &mut StdRng) -> Circuit {
    let n = rng.gen_range(2..=5);
    let mut circuit = Circuit::new(n);
    for _ in 0..rng.gen_range(1..=24) {
        let target = rng.gen_range(0..n);
        let other = (target + rng.gen_range(1..n)) % n;
        let theta: f64 = rng.gen_range(-3.0..3.0);
        let gate = match rng.gen_range(0..5) {
            0 => Gate::ry(target, theta),
            1 => Gate::x(target),
            2 => Gate::cnot(other, target),
            3 => Gate::cnot_negated(other, target),
            _ => Gate::cry(other, target, theta),
        };
        circuit.push(gate);
    }
    circuit
}

#[test]
fn qasm_reader_round_trips_the_exporter() {
    let mut rng = StdRng::seed_from_u64(2024);
    let simulator = StateVectorSimulator::new();
    for _ in 0..200 {
        let circuit = random_circuit(&mut rng);
        let program = to_qasm(&circuit).expect("exportable");
        let read = read_qasm(&program).expect("reader accepts exporter output");
        assert_eq!(read.num_qubits(), circuit.num_qubits());
        assert_eq!(read.cnot_cost(), circuit.cnot_cost(), "{program}");
        assert_eq!(read.cnot_cost(), program.matches("cx ").count());
        let a = simulator.run(&circuit).expect("simulates");
        let b = simulator.run(&read).expect("simulates");
        assert!(a.fidelity(&b) > 1.0 - 1e-9, "{program}");
        // Re-exporting the read circuit reproduces the program exactly.
        assert_eq!(to_qasm(&read).expect("exportable"), program);
    }
}

#[test]
fn qasm_reader_rejects_anything_outside_the_subset() {
    for program in [
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];\n",
        "OPENQASM 2.0;\nry(0.1) q[0];\n",
        "OPENQASM 2.0;\nqreg q[2];\nx q[0]\n",
        "OPENQASM 2.0;\n",
    ] {
        assert!(read_qasm(program).is_err(), "accepted {program:?}");
    }
}

fn bytes_of<'a>(states: impl IntoIterator<Item = &'a qsp_state::SparseState>) -> Vec<u8> {
    let mut out = Vec::new();
    for state in states {
        inputs::state_bytes(state, &mut out);
    }
    out
}

#[test]
fn seeded_inputs_reproduce_byte_for_byte() {
    for seed in [0, 7, 123_456_789] {
        let corpus = |s| bytes_of(inputs::exact_corpus(s).iter().map(|t| &t.state));
        assert_eq!(corpus(seed), corpus(seed));
        let stream = |s| bytes_of(inputs::sparse_stream(s).iter().map(|t| &t.state));
        assert_eq!(stream(seed), stream(seed));
        let serve = |s| {
            let inputs = inputs::serve_wire(s);
            let mut bytes = bytes_of(&inputs.pool);
            bytes.extend(bytes_of(inputs.stream.iter().map(|(_, state)| state)));
            bytes
        };
        assert_eq!(serve(seed), serve(seed));
        assert_ne!(stream(seed), stream(seed + 1));
        assert_ne!(serve(seed), serve(seed + 1));
    }
    assert_eq!(inputs::sparse_stream(3).len(), inputs::STREAM_LEN);
    assert_eq!(inputs::serve_wire(3).stream.len(), inputs::ROUND_REQUESTS);
}

#[test]
fn exact_corpus_seeds_only_relabel_and_reorder_the_same_classes() {
    let key = |state: &qsp_state::SparseState| {
        let mut amplitudes: Vec<u64> = state.iter().map(|(_, a)| a.to_bits()).collect();
        amplitudes.sort_unstable();
        (state.num_qubits(), amplitudes)
    };
    let mut a: Vec<_> = inputs::exact_corpus(1)
        .iter()
        .map(|t| key(&t.state))
        .collect();
    let mut b: Vec<_> = inputs::exact_corpus(2)
        .iter()
        .map(|t| key(&t.state))
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &Value) -> Vec<(String, String)> {
    let Value::Array(items) = list else {
        panic!("expected a list");
    };
    items
        .iter()
        .map(|item| {
            let field = |k| item.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_metric_name_is_valid_and_matches_benchmark_json() {
    let catalogue = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let mut seen = std::collections::HashSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(stats::valid_name(name), "bad metric name {name}");
        assert!(stats::valid_unit(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(*name), "duplicate metric {name}");
    }
    for workload in WORKLOADS {
        assert!(stats::valid_name(workload));
    }
    assert!(!stats::valid_name("_leading"));
    assert!(!stats::valid_name("has space"));
    assert!(!stats::valid_unit("seventeen_chars_x"));

    let spec = benchmark_json();
    let get = |k: &str| {
        spec.get(k)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {k}"))
    };
    assert_eq!(names_and_units(get("end_to_end")), catalogue(&END_TO_END));
    assert_eq!(names_and_units(get("per_layer")), catalogue(&PER_LAYER));
    let Value::Array(workloads) = get("workloads") else {
        panic!("workloads is a list");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}
