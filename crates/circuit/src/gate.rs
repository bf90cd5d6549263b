//! Unbounded fan-in boolean circuits (§4).
//!
//! A circuit is a sequence of gates in topological order: every gate's inputs
//! refer to earlier gates, which makes acyclicity true by construction and keeps
//! evaluation a single forward pass. Gates are `INPUT`, constant, `NOT`, and
//! unbounded fan-in `AND`/`OR`, exactly the gate basis of the ACᵏ definition.

/// Index of a gate within a circuit.
pub type GateId = usize;

/// The kind of a gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// The i-th input bit.
    Input(usize),
    /// A constant bit.
    Const(bool),
    /// Negation (fan-in exactly one).
    Not,
    /// Unbounded fan-in conjunction (empty fan-in = true).
    And,
    /// Unbounded fan-in disjunction (empty fan-in = false).
    Or,
}

/// One gate: its kind and the gates feeding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// The gate kind.
    pub kind: GateKind,
    /// The gates whose outputs feed this gate (empty for inputs and constants).
    pub inputs: Vec<GateId>,
}

/// An unbounded fan-in boolean circuit with designated output gates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Circuit {
    /// Number of input bits.
    pub num_inputs: usize,
    /// The gates, in topological order.
    pub gates: Vec<Gate>,
    /// The gates whose values form the circuit's output, in order.
    pub outputs: Vec<GateId>,
}

impl Circuit {
    /// The number of gates (the *size* measure of §4).
    pub fn size(&self) -> usize {
        self.gates.len()
    }

    /// The depth: the longest path from an input/constant to an output, counting
    /// NOT/AND/OR gates (inputs and constants have depth 0).
    pub fn depth(&self) -> usize {
        let mut depths = vec![0usize; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            let input_depth = gate.inputs.iter().map(|&j| depths[j]).max().unwrap_or(0);
            depths[i] = match gate.kind {
                GateKind::Input(_) | GateKind::Const(_) => 0,
                GateKind::Not | GateKind::And | GateKind::Or => input_depth + 1,
            };
        }
        self.outputs.iter().map(|&o| depths[o]).max().unwrap_or(0)
    }

    /// Evaluate on an input bit string (must have length `num_inputs`).
    pub fn eval(&self, input: &[bool]) -> Vec<bool> {
        assert_eq!(
            input.len(),
            self.num_inputs,
            "input length must match the circuit's declared number of inputs"
        );
        let mut values = vec![false; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            values[i] = match gate.kind {
                GateKind::Input(k) => input[k],
                GateKind::Const(b) => b,
                GateKind::Not => !values[gate.inputs[0]],
                GateKind::And => gate.inputs.iter().all(|&j| values[j]),
                GateKind::Or => gate.inputs.iter().any(|&j| values[j]),
            };
        }
        self.outputs.iter().map(|&o| values[o]).collect()
    }

    /// Structural validation: every gate's inputs must point to earlier gates,
    /// input gates must reference declared input positions, NOT gates must have
    /// fan-in one, and outputs must reference existing gates.
    pub fn validate(&self) -> Result<(), String> {
        for (i, gate) in self.gates.iter().enumerate() {
            for &j in &gate.inputs {
                if j >= i {
                    return Err(format!("gate {i} reads from gate {j} which is not earlier"));
                }
            }
            match gate.kind {
                GateKind::Input(k) => {
                    if k >= self.num_inputs {
                        return Err(format!(
                            "gate {i} reads input {k} but only {} inputs exist",
                            self.num_inputs
                        ));
                    }
                    if !gate.inputs.is_empty() {
                        return Err(format!("input gate {i} must have no wire inputs"));
                    }
                }
                GateKind::Const(_) => {
                    if !gate.inputs.is_empty() {
                        return Err(format!("constant gate {i} must have no wire inputs"));
                    }
                }
                GateKind::Not => {
                    if gate.inputs.len() != 1 {
                        return Err(format!("NOT gate {i} must have exactly one input"));
                    }
                }
                GateKind::And | GateKind::Or => {}
            }
        }
        for &o in &self.outputs {
            if o >= self.gates.len() {
                return Err(format!("output references missing gate {o}"));
            }
        }
        Ok(())
    }
}

/// Incremental circuit construction with the usual gadget helpers.
#[derive(Debug, Clone, Default)]
pub struct CircuitBuilder {
    num_inputs: usize,
    gates: Vec<Gate>,
}

impl CircuitBuilder {
    /// Start a builder for a circuit with `num_inputs` input bits. The input
    /// gates are created eagerly so that input `i` is always gate `i`.
    pub fn new(num_inputs: usize) -> CircuitBuilder {
        let gates = (0..num_inputs)
            .map(|i| Gate {
                kind: GateKind::Input(i),
                inputs: Vec::new(),
            })
            .collect();
        CircuitBuilder { num_inputs, gates }
    }

    /// The gate id of input bit `i`.
    pub fn input(&self, i: usize) -> GateId {
        assert!(i < self.num_inputs, "input index out of range");
        i
    }

    /// Number of gates so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Is the builder empty (no inputs, no gates)?
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    fn push(&mut self, kind: GateKind, inputs: Vec<GateId>) -> GateId {
        let id = self.gates.len();
        self.gates.push(Gate { kind, inputs });
        id
    }

    /// A constant gate.
    pub fn constant(&mut self, b: bool) -> GateId {
        self.push(GateKind::Const(b), Vec::new())
    }

    /// Negation.
    pub fn not(&mut self, a: GateId) -> GateId {
        self.push(GateKind::Not, vec![a])
    }

    /// Unbounded fan-in AND (empty fan-in yields constant true).
    pub fn and_many(&mut self, inputs: Vec<GateId>) -> GateId {
        self.push(GateKind::And, inputs)
    }

    /// Unbounded fan-in OR (empty fan-in yields constant false).
    pub fn or_many(&mut self, inputs: Vec<GateId>) -> GateId {
        self.push(GateKind::Or, inputs)
    }

    /// Binary AND.
    pub fn and2(&mut self, a: GateId, b: GateId) -> GateId {
        self.and_many(vec![a, b])
    }

    /// Binary OR.
    pub fn or2(&mut self, a: GateId, b: GateId) -> GateId {
        self.or_many(vec![a, b])
    }

    /// Exclusive or of two wires (depth 2).
    pub fn xor2(&mut self, a: GateId, b: GateId) -> GateId {
        let na = self.not(a);
        let nb = self.not(b);
        let a_and_nb = self.and2(a, nb);
        let na_and_b = self.and2(na, b);
        self.or2(a_and_nb, na_and_b)
    }

    /// Equivalence (XNOR) of two wires.
    pub fn xnor2(&mut self, a: GateId, b: GateId) -> GateId {
        let x = self.xor2(a, b);
        self.not(x)
    }

    /// Bitwise equality of two equal-length wire vectors: AND of XNORs (depth 3).
    pub fn eq_bits(&mut self, a: &[GateId], b: &[GateId]) -> GateId {
        assert_eq!(a.len(), b.len(), "eq_bits requires equal lengths");
        let bits: Vec<GateId> = a.iter().zip(b).map(|(&x, &y)| self.xnor2(x, y)).collect();
        self.and_many(bits)
    }

    /// Multiplexer: `if sel then a else b`.
    pub fn mux(&mut self, sel: GateId, a: GateId, b: GateId) -> GateId {
        let nsel = self.not(sel);
        let ta = self.and2(sel, a);
        let tb = self.and2(nsel, b);
        self.or2(ta, tb)
    }

    /// Finish the circuit with the given outputs.
    pub fn finish(self, outputs: Vec<GateId>) -> Circuit {
        let c = Circuit {
            num_inputs: self.num_inputs,
            gates: self.gates,
            outputs,
        };
        debug_assert_eq!(c.validate(), Ok(()));
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_gates_evaluate() {
        let mut b = CircuitBuilder::new(2);
        let x = b.input(0);
        let y = b.input(1);
        let and = b.and2(x, y);
        let or = b.or2(x, y);
        let nx = b.not(x);
        let c = b.finish(vec![and, or, nx]);
        assert_eq!(c.eval(&[true, false]), vec![false, true, false]);
        assert_eq!(c.eval(&[true, true]), vec![true, true, false]);
        assert_eq!(c.eval(&[false, false]), vec![false, false, true]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn xor_and_eq_bits() {
        let mut b = CircuitBuilder::new(4);
        let x = b.xor2(0, 1);
        let eq = b.eq_bits(&[0, 1], &[2, 3]);
        let c = b.finish(vec![x, eq]);
        assert_eq!(c.eval(&[true, true, true, true]), vec![false, true]);
        assert_eq!(c.eval(&[true, false, true, false]), vec![true, true]);
        assert_eq!(c.eval(&[true, false, false, true]), vec![true, false]);
    }

    #[test]
    fn mux_selects() {
        let mut b = CircuitBuilder::new(3);
        let m = b.mux(0, 1, 2);
        let c = b.finish(vec![m]);
        assert_eq!(c.eval(&[true, true, false]), vec![true]);
        assert_eq!(c.eval(&[false, true, false]), vec![false]);
    }

    #[test]
    fn depth_and_size_are_reported() {
        let mut b = CircuitBuilder::new(2);
        let x = b.xor2(0, 1);
        let c = b.finish(vec![x]);
        assert_eq!(c.depth(), 3);
        assert_eq!(c.size(), 2 + 5);
        // Inputs alone have depth 0.
        let b2 = CircuitBuilder::new(1);
        let i = b2.input(0);
        let c2 = b2.finish(vec![i]);
        assert_eq!(c2.depth(), 0);
    }

    #[test]
    fn empty_fanin_semantics() {
        let mut b = CircuitBuilder::new(0);
        let t = b.and_many(vec![]);
        let f = b.or_many(vec![]);
        let c = b.finish(vec![t, f]);
        assert_eq!(c.eval(&[]), vec![true, false]);
    }

    #[test]
    fn validation_catches_forward_references() {
        let c = Circuit {
            num_inputs: 1,
            gates: vec![
                Gate {
                    kind: GateKind::Input(0),
                    inputs: vec![],
                },
                Gate {
                    kind: GateKind::And,
                    inputs: vec![2],
                },
                Gate {
                    kind: GateKind::Or,
                    inputs: vec![0],
                },
            ],
            outputs: vec![1],
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_not_fanin() {
        let c = Circuit {
            num_inputs: 1,
            gates: vec![
                Gate {
                    kind: GateKind::Input(0),
                    inputs: vec![],
                },
                Gate {
                    kind: GateKind::Not,
                    inputs: vec![0, 0],
                },
            ],
            outputs: vec![1],
        };
        assert!(c.validate().is_err());
    }
}
