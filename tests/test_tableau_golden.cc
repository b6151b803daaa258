// Tableau-content goldens: FNV-1a fingerprints over every stabilizer and
// destabilizer row (signs included) and every z_measure_pivot(q), pinned
// for the named gadgets after a planted fault plus perfect_correct, and for
// seeded random Clifford + measure + measure_pauli circuits at widths whose
// 2n rows straddle 64-bit word boundaries.
//
// The frame compiler captures branch stabilizers from the reference
// tableau, and the per-trial engine's verdicts read rows, signs and pivots
// directly, so a tableau implementation must reproduce not just the state
// but the exact generator set, row order, pivot choice and (destabilizer)
// phases.  The expected values were captured from the original CHP
// row-major implementation.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/experiments.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/rng.h"
#include "pauli/pauli_string.h"
#include "stab/tableau.h"

namespace eqc::stab {
namespace {

using pauli::Pauli;
using pauli::PauliString;

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void pauli(const PauliString& p) {
    for (std::size_t q = 0; q < p.num_qubits(); ++q)
      byte(static_cast<std::uint8_t>(p.get(q)));
    byte(static_cast<std::uint8_t>(p.phase()));
  }
};

std::uint64_t contents(const Tableau& tab) {
  Fnv f;
  const std::size_t n = tab.num_qubits();
  f.u64(n);
  for (std::size_t i = 0; i < n; ++i) f.pauli(tab.stabilizer(i));
  for (std::size_t i = 0; i < n; ++i) f.pauli(tab.destabilizer(i));
  for (std::size_t q = 0; q < n; ++q) f.u64(tab.z_measure_pivot(q));
  return f.h;
}

TEST(TableauGolden, GadgetAfterPlantedFaultAndCorrection) {
  struct Case {
    const char* gadget;
    const char* code;
    std::uint64_t want;
  };
  const Case cases[] = {
      {"ngate", "steane", 0xecd1713b157dee67ULL},
      {"ngate", "rm15", 0x4abd4af1aefec5e3ULL},
      {"recovery", "steane", 0x53a8ce98ea7c36c9ULL},
      {"recovery", "rm15", 0x9fa5ae21c9ea8b2dULL},
      {"recovery-measured", "steane", 0xff0d62e7f1bbcdd3ULL},
      {"recovery-measured", "rm15", 0x61e53fb91da560d4ULL},
  };
  for (const Case& tc : cases) {
    analysis::GadgetSpec spec;
    spec.gadget = tc.gadget;
    spec.scenario.code = tc.code;
    const auto built = analysis::build_gadget_experiment(spec);
    const auto& ex = built.ex;
    // One Y fault a third of the way into the site order: deep enough to
    // reach entangled ancillas, and the same pick on every run.
    const auto sites = circuit::enumerate_fault_sites(ex.gadget);
    ASSERT_FALSE(sites.empty());
    const circuit::FaultSite& site = sites[sites.size() / 3];

    circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
    circuit::execute(ex.prep, backend);
    circuit::PlantedInjector injector;
    injector.plant(site.ordinal, PauliString::single(ex.num_qubits,
                                                     site.qubits[0], Pauli::Y));
    circuit::execute(ex.gadget, backend, &injector);
    ASSERT_TRUE(injector.all_planted_visited());
    const std::uint64_t after_gadget = contents(backend.tableau());
    Rng rng(5);
    built.code->perfect_correct(backend.tableau(), built.main_block, rng);
    backend.tableau().check_invariants();

    Fnv f;
    f.u64(after_gadget);
    f.u64(contents(backend.tableau()));
    EXPECT_EQ(f.h, tc.want) << tc.gadget << " / " << tc.code << " 0x"
                            << std::hex << f.h;
  }
}

// A random Hermitian non-identity Pauli on n qubits with a random sign.
PauliString random_observable(std::size_t n, Rng& rng) {
  PauliString p(n);
  while (p.is_identity()) p = PauliString::random(n, rng);
  // random() keeps p Hermitian (phase = #Y); pick a sign.
  p.set_phase(static_cast<int>(p.count_y()) + (rng.bernoulli(0.5) ? 2 : 0));
  return p;
}

std::uint64_t random_circuit_contents(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tableau tab(n);
  Fnv f;
  const std::size_t steps = 8 * n + 64;
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t a = rng.below(n);
    std::size_t b = n > 1 ? rng.below(n - 1) : 0;
    if (b >= a) ++b;
    const std::uint64_t kind = rng.below(n > 1 ? 16 : 12);
    switch (kind) {
      case 0: tab.h(a); break;
      case 1: tab.s(a); break;
      case 2: tab.sdg(a); break;
      case 3: tab.x(a); break;
      case 4: tab.y(a); break;
      case 5: tab.z(a); break;
      case 6: f.byte(tab.measure(a, rng) ? 1 : 0); break;
      case 7: tab.reset(a, rng); break;
      case 8: f.byte(tab.measure_pauli(random_observable(n, rng), rng)); break;
      case 9: {
        const PauliString p = random_observable(n, rng);
        f.byte(static_cast<std::uint8_t>(tab.expectation_pauli(p) + 1.0));
        f.byte(tab.state_is_stabilized_by(p) ? 1 : 0);
        break;
      }
      case 10: tab.apply_pauli(PauliString::random(n, rng)); break;
      case 11:
        f.byte(static_cast<std::uint8_t>(tab.expectation_z(a) + 1.0));
        if (tab.is_deterministic_z(a)) f.byte(tab.deterministic_z_value(a));
        break;
      case 12:
      case 13: tab.cnot(a, b); break;
      case 14: tab.cz(a, b); break;
      default: tab.swap(a, b); break;
    }
  }
  tab.check_invariants();
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_TRUE(tab.state_is_stabilized_by(tab.stabilizer(i)));
  f.u64(contents(tab));
  return f.h;
}

TEST(TableauGolden, RandomCliffordMeasureCircuitsAcrossWordBoundaries) {
  struct Case {
    std::size_t n;
    std::uint64_t want;
  };
  const Case cases[] = {
      {1, 0x6901907cf74f34a8ULL},   {31, 0x499c9dac4f3aea9aULL},
      {32, 0x079e3713aa36e02aULL},  {33, 0x2b353c5810d90e21ULL},
      {63, 0x98fb1f19f583707aULL},  {64, 0x802a1ec36b55b739ULL},
      {65, 0x4fd2fede3998179aULL},  {100, 0x9ad674d74c448a45ULL},
  };
  for (const Case& tc : cases) {
    const std::uint64_t got = random_circuit_contents(tc.n, 0x7AB1E + tc.n);
    EXPECT_EQ(got, tc.want) << "n=" << tc.n << " 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace eqc::stab
