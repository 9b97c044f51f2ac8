// PCM-like hardware counters (Table IV of the paper).
//
// The simulator accumulates the six events the paper's prediction model
// uses as features:
//   p0 Instructions Retired
//   p1 Cycles Active
//   p2 Cycles stalled due to Resource Related reason
//   p3 Cycles waiting for outstanding offcore requests
//   p4 Reads issued to the memory controllers
//   p5 Writes issued to the iMC by the HA
#pragma once

#include <array>
#include <cstdint>

namespace nvms {

struct HwCounters {
  double instructions = 0.0;    ///< p0
  double cycles_active = 0.0;   ///< p1
  double stall_cycles = 0.0;    ///< p2
  double offcore_wait = 0.0;    ///< p3
  double imc_reads = 0.0;       ///< p4 (64B transactions)
  double imc_writes = 0.0;      ///< p5 (64B transactions)

  double ipc() const {
    return cycles_active > 0.0 ? instructions / cycles_active : 0.0;
  }

  /// Feature vector in Table IV order.
  std::array<double, 6> events() const {
    return {instructions, cycles_active, stall_cycles,
            offcore_wait, imc_reads,     imc_writes};
  }

  HwCounters& operator+=(const HwCounters& o) {
    instructions += o.instructions;
    cycles_active += o.cycles_active;
    stall_cycles += o.stall_cycles;
    offcore_wait += o.offcore_wait;
    imc_reads += o.imc_reads;
    imc_writes += o.imc_writes;
    return *this;
  }

  /// Delta snapshots: after -= before (RunRecorder).
  HwCounters& operator-=(const HwCounters& o) {
    instructions -= o.instructions;
    cycles_active -= o.cycles_active;
    stall_cycles -= o.stall_cycles;
    offcore_wait -= o.offcore_wait;
    imc_reads -= o.imc_reads;
    imc_writes -= o.imc_writes;
    return *this;
  }

  /// Scale every counter (a proportional share of a delta).
  HwCounters& operator*=(double f) {
    instructions *= f;
    cycles_active *= f;
    stall_cycles *= f;
    offcore_wait *= f;
    imc_reads *= f;
    imc_writes *= f;
    return *this;
  }
};

inline HwCounters operator+(HwCounters a, const HwCounters& b) {
  a += b;
  return a;
}

inline HwCounters operator-(HwCounters a, const HwCounters& b) {
  a -= b;
  return a;
}

inline HwCounters operator*(HwCounters a, double f) {
  a *= f;
  return a;
}

}  // namespace nvms
