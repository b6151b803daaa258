// Measurement-*based* baseline protocols — the constructions the paper
// modifies.  They are what Shor'96 / Boykin-et-al'99 would run on a machine
// where individual qubits CAN be measured, and serve as the comparison
// point for every experiment: the paper's claim is that removing the
// measurements costs nothing in fault-tolerance order.
#pragma once

#include "circuit/circuit.h"
#include "codes/css_code.h"
#include "ftqc/ft_toffoli.h"

namespace eqc::ftqc {

/// Measures all n qubits of `block` and returns a classical-function id
/// that evaluates to the (syndrome-corrected) logical bit.
std::uint32_t append_measured_logical_readout(circuit::Circuit& circ,
                                              const codes::CssCode& code,
                                              const codes::CodeBlock& block);

/// Measurement-based T gadget: transversal CNOT(data -> special holding
/// |psi_0>), measure the special block, classically conditioned logical S
/// (bit-wise Sdg; requires a transversal-S code).
void append_measured_t_gadget(circuit::Circuit& circ,
                              const codes::CssCode& code,
                              const codes::CodeBlock& data,
                              const codes::CodeBlock& special);

/// Verification-only: one round of noiseless error correction appended as
/// a circuit (simple measured syndrome extraction + conditioned Paulis),
/// usable on the state-vector backend where Tableau::measure_pauli is not
/// available.  `ancilla` is one scratch qubit, re-prepared per check.
void append_measured_verification_ec(circuit::Circuit& circ,
                                     const codes::CssCode& code,
                                     const codes::CodeBlock& block,
                                     std::uint32_t ancilla);

/// Measurement-based Toffoli gadget at the logical (bare) level: the
/// original Shor/Preskill protocol with real measurements + feed-forward.
/// Uses regs.{a,b,c,x,y,z}; the m bits are unused (kept for symmetry).
void append_measured_toffoli_gadget_bare(circuit::Circuit& circ,
                                         const BareToffoliRegs& regs);

}  // namespace eqc::ftqc
