// Measurement-free error recovery (the paper's Sec. 5).
//
// Standard quantum error correction measures a syndrome, classically
// decodes it, and applies a correction.  Here — exactly as the paper
// prescribes — the syndrome ancilla's state is copied onto classical-basis
// bits (the N-gate technique), the decoder is a reversible classical
// circuit, and the correction is a layer of classically controlled Paulis.
// No measurement anywhere.
//
// Syndrome extraction is Steane-style: a |+>_L ancilla block is the TARGET
// of a transversal CNOT from the data, then its classical Z-type parities
// are copied onto classical syndrome bits.  This direction is intrinsically
// fault tolerant without verified ancillas: ancilla bit errors (even the
// burst patterns an unverified encoder can produce) only garble one round's
// syndrome, and ancilla phase errors touch at most one data qubit.  For a
// self-dual code (Steane) the X-type checks reuse the same machinery inside
// a transversal-H frame on the data; for a non-self-dual code (RM15, whose
// transversal H is not logical H) they instead use a repaired |0>_L ancilla
// as the CONTROL of the transversal CNOT: data phase errors copy onto the
// ancilla, a raw qubit-wise H turns them into bit errors, and the X-type
// parities read them out (H^(x)n |0>_L is a uniform codeword superposition
// of the dual code, on which those parities are deterministic).
//
// The syndrome is extracted `rounds` (2k+1) times and combined by
// WORD-level agreement ("use a syndrome that two rounds agree on, else do
// nothing"), which—unlike bitwise majority—is immune to the classic race
// where a data error lands mid-round and the mixed syndrome decodes to a
// wrong position.  For rounds >= 5 the rule generalizes to counting: use
// the first round whose word k other rounds agree with (a word reaching
// that count is unique when at most k of 2k+1 rounds are faulty).
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "codes/css_code.h"
#include "ftqc/ngate.h"

namespace eqc::ftqc {

struct RecoveryAncillas {
  /// Syndrome ancilla block (n qubits), re-prepared for every extraction.
  codes::CodeBlock anc_block;
  /// Classical scratch for the ancilla's burst repair: two Z-type syndrome
  /// reads (mz each), the NOR chain + agreement bit, and the gated repair
  /// syndrome.
  std::vector<std::uint32_t> prep_syn1;    ///< mz
  std::vector<std::uint32_t> prep_syn2;    ///< mz
  std::vector<std::uint32_t> prep_work;    ///< max(1, mz-2)
  std::uint32_t prep_eq = 0;
  std::vector<std::uint32_t> prep_repair;  ///< mz
  /// N-gate machinery for the ancilla's logical-parity repair: the burst
  /// repair (one-hot for perfect codes, information-set solve otherwise —
  /// see codes::z_repair_plan) maps any encoder burst into the code, but
  /// possibly into the wrong (|1>_L) coset; the N gate reads the logical
  /// bit onto an n-wide classical register which then controls a bit-wise
  /// X_L repair.
  NGateAncillas prep_n;
  std::vector<std::uint32_t> prep_nout;  ///< n
  /// Classical syndrome bits: [round*width + row], per check type.
  std::vector<std::uint32_t> syn_z;  ///< rounds*mz, Z-type (detect X errors)
  std::vector<std::uint32_t> syn_x;  ///< rounds*mx, X-type (detect Z errors)
  // Classical scratch for the word-agreement vote (reused per type).
  std::vector<std::uint32_t> diff;      ///< max(mz, mx)
  std::vector<std::uint32_t> and_work;  ///< NOR chains + count-threshold
  std::vector<std::uint32_t> eq;        ///< C(max(rounds,3), 2) pair bits
  std::vector<std::uint32_t> use_bits;  ///< max(rounds,3) - 1
  std::vector<std::uint32_t> voted;     ///< max(mz, mx)
  /// One-hot correction controls (reused per type) + decode scratch.
  std::vector<std::uint32_t> onehot;       ///< n
  std::vector<std::uint32_t> decode_work;  ///< max(1, max(mz,mx)-2)
};

struct RecoveryOptions {
  int rounds = 3;
  /// false: measurement-based baseline — the syndrome bits are measured
  /// and the identical agreement-vote + decode runs as classical
  /// feed-forward.
  bool measurement_free = true;
};

/// Probe hooks: op-count boundaries recorded while the recovery circuit is
/// built, so analysis tooling (the campaign engine's invariant tripwires)
/// can check mid-circuit invariants — e.g. data-block codespace membership
/// — between syndrome-extraction rounds and attribute the first violation
/// to a fault-site ordinal.
struct RecoveryRoundMarks {
  /// circ.size() after each completed syndrome-extraction round (Z-type
  /// rounds first, then the X-type rounds), then after each correction
  /// layer.  An op index below marks[i] belongs to stage i.
  std::vector<std::size_t> op_boundaries;
};

/// Appends one complete error-recovery step for `data`.  When `marks` is
/// non-null, stage boundaries are recorded for mid-circuit probing.
void append_recovery(circuit::Circuit& circ, const codes::CssCode& code,
                     const codes::CodeBlock& data, const RecoveryAncillas& anc,
                     const RecoveryOptions& options = {},
                     RecoveryRoundMarks* marks = nullptr);

RecoveryAncillas allocate_recovery_ancillas(class Layout& layout,
                                            const codes::CssCode& code,
                                            int rounds = 3);

}  // namespace eqc::ftqc
