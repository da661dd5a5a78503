//! A reader for the OpenQASM 2.0 subset the wire server returns: the
//! header, one `qreg`, and `ry`, `x` and `cx` lines. Anything else is an
//! error, so a server that starts emitting other gates fails the check
//! instead of being half-read.

use qsp_circuit::{Circuit, Gate};

/// Parses `program` into a circuit of `ry`, `x` and `cx` gates.
///
/// # Errors
///
/// Returns a message naming the first line that is not part of the subset.
pub fn read_qasm(program: &str) -> Result<Circuit, String> {
    let mut circuit: Option<Circuit> = None;
    for (number, raw) in program.lines().enumerate() {
        let line = raw.trim();
        let bad = || format!("line {}: unsupported `{line}`", number + 1);
        if line.is_empty() || line == "OPENQASM 2.0;" || line == "include \"qelib1.inc\";" {
            continue;
        }
        let body = line.strip_suffix(';').ok_or_else(bad)?;
        if let Some(width) = body
            .strip_prefix("qreg q[")
            .and_then(|r| r.strip_suffix(']'))
        {
            if circuit.is_some() {
                return Err(bad());
            }
            circuit = Some(Circuit::new(width.parse().map_err(|_| bad())?));
            continue;
        }
        let circuit = circuit.as_mut().ok_or_else(bad)?;
        let gate = if let Some(rest) = body.strip_prefix("ry(") {
            let (theta, operand) = rest.split_once(") ").ok_or_else(bad)?;
            Gate::ry(
                qubit(operand).ok_or_else(bad)?,
                theta.parse().map_err(|_| bad())?,
            )
        } else if let Some(operand) = body.strip_prefix("x ") {
            Gate::x(qubit(operand).ok_or_else(bad)?)
        } else if let Some(operands) = body.strip_prefix("cx ") {
            let (control, target) = operands.split_once(", ").ok_or_else(bad)?;
            Gate::cnot(
                qubit(control).ok_or_else(bad)?,
                qubit(target).ok_or_else(bad)?,
            )
        } else {
            return Err(bad());
        };
        circuit
            .try_push(gate)
            .map_err(|e| format!("line {}: {e}", number + 1))?;
    }
    circuit.ok_or_else(|| "no qreg declaration".to_string())
}

fn qubit(operand: &str) -> Option<usize> {
    operand
        .trim()
        .strip_prefix("q[")?
        .strip_suffix(']')?
        .parse()
        .ok()
}
