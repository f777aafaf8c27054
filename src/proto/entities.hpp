// Protocol entities of §3.1.1: nodes (files/directories), volumes
// (root / user-defined / shared) and sessions. These are the value types
// exchanged between clients, servers and the metadata store.
#pragma once

#include <cstdint>
#include <string_view>

#include "proto/ids.hpp"
#include "util/sim_time.hpp"

namespace u1 {

enum class NodeKind : std::uint8_t { kFile, kDirectory };

std::string_view to_string(NodeKind k) noexcept;

/// A file or directory entry. `generation` is the volume generation at
/// which the node last changed — clients use generations to compute deltas
/// on reconnect (§3.4.2 "generation point"). Holds no strings, so copies
/// (get_delta, get_node) are plain memcpys.
struct Node {
  NodeId id;
  VolumeId volume;
  NodeId parent;       // nil for a volume root directory
  UserId owner;
  /// Anonymized name: the trace carries hashed file names; we keep a
  /// 64-bit hash of the client's name (Shard::name_hash_of) and the
  /// extension (needed for Fig. 4).
  std::uint64_t name_hash = 0;
  /// Lowercase, without dot; empty for dirs. Views the owning shard's
  /// extension interner, so it stays valid while that shard lives.
  std::string_view extension;
  ContentId content;      // nil-ish (all-zero) until first upload
  NodeKind kind = NodeKind::kFile;
  std::uint64_t size_bytes = 0;
  std::uint64_t generation = 0;
  SimTime created_at = 0;
  bool is_dir() const noexcept { return kind == NodeKind::kDirectory; }
};

enum class VolumeKind : std::uint8_t {
  kRoot,    // the predefined ~/Ubuntu One volume, id 0 on the client
  kUdf,     // user-defined folder
  kShared,  // a sub-volume of another user this user was granted
};

std::string_view to_string(VolumeKind k) noexcept;

struct Volume {
  VolumeId id;
  UserId owner;
  VolumeKind kind = VolumeKind::kRoot;
  NodeId root_dir;
  /// Monotonic change counter; every node mutation bumps it.
  std::uint64_t generation = 0;
  SimTime created_at = 0;
  /// For kShared: the user the volume was shared *to* (owner is shared_by).
  UserId shared_to;
};

/// One desktop-client connection (§3.1.1): born on a successful
/// Authenticate, pinned to an API server machine, ended by disconnect.
struct Session {
  SessionId id;
  UserId user;
  MachineId api_machine;   // where the load balancer placed it
  ProcessId api_process;
  SimTime started_at = 0;
  SimTime ended_at = 0;    // 0 while open
  std::uint64_t storage_ops = 0;  // data-management ops issued in-session

  bool open() const noexcept { return ended_at == 0; }
  SimTime length() const noexcept {
    return open() ? 0 : ended_at - started_at;
  }
  /// The paper distinguishes *active* sessions (issued at least one
  /// storage operation) from *cold* ones (§7.3).
  bool active() const noexcept { return storage_ops > 0; }
};

/// Account-level record for a user.
struct User {
  UserId id;
  SimTime registered_at = 0;
};

}  // namespace u1
