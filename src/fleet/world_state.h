// The persistent state of one UserWorld across a crash-restart.
//
// A checkpoint (sim/snapshot.h) models a simulator process image that
// died: pending kernel events and in-flight messages are gone, and the
// next epoch rebuilds a fresh UserWorld around what would genuinely
// survive a machine restart in the paper's deployment — the
// pessimistic alert log, the digest store, open coalescing windows,
// server-side mailboxes, the user's sighting memory, and the counter
// bags. WorldState is exactly that surviving set, plus the kernel
// clock alignment (now / events_processed / sequence counter) that
// keeps a resumed run's statistics and FIFO ordering monotonic with
// its past.
//
// Equivalence contract (tests/resume_test.cc): a run that carries
// WorldState in memory across its epoch boundaries and a run that
// encodes it to a snapshot image at epoch k, dies, and decodes it in a
// fresh process must produce byte-identical traces and reports.
#pragma once

#include <cstdint>

#include "core/mab_host.h"
#include "core/user_endpoint.h"
#include "email/email_server.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/trace.h"

namespace simba::fleet {

struct UserWorld;

struct WorldState {
  // --- Kernel clock ----------------------------------------------------------
  TimePoint now{};
  std::uint64_t events_processed = 0;
  std::uint64_t sequence_counter = 1;

  // --- Component state -------------------------------------------------------
  core::MabHost::State host;
  core::UserEndpoint::State user;
  email::EmailServer::State email;
  Counters bus_stats;

  // --- Accumulated trace -----------------------------------------------------
  /// The trace recorded before the boundary: its stage table, and
  /// every span in emission order (multi-epoch worlds keep spans; an
  /// image carries them). Empty when the world ran untraced. Held here
  /// between two worlds: the next epoch's world takes it over.
  util::Trace trace;
};

/// Captures the persistent state of a world at its current virtual
/// instant and takes over its trace. Call at an epoch boundary, after
/// the workload's drain; the world is then only fit for teardown.
WorldState save_world_state(UserWorld& world);

}  // namespace simba::fleet
