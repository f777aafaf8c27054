// A simulated U1 desktop client (§3.3). The agent mirrors the local state
// a real client keeps in ~/.cache/ubuntuone (volumes, directories, files)
// and drives the back-end through the same operation sequences the paper
// observed: session handshake (caps, ListVolumes, ListShares), bursty runs
// of storage operations chosen by the Fig. 8 transition chain, cold vs
// active sessions, and working-hour connection habits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/backend.hpp"
#include "util/rng.hpp"
#include "workload/burst.hpp"
#include "workload/content_pool.hpp"
#include "workload/diurnal.hpp"
#include "workload/file_model.hpp"
#include "workload/transitions.hpp"
#include "workload/user_model.hpp"

namespace u1 {

/// Shared, read-only workload machinery handed to every agent.
struct WorkloadContext {
  const FileModel* files = nullptr;
  ContentPool* contents = nullptr;  // shared mutable pool (dedup corpus)
  const UserModel* users = nullptr;
  const TransitionModel* transitions = nullptr;
  const DiurnalModel* diurnal = nullptr;
  const BurstProcess* bursts = nullptr;
};

class ClientAgent {
 public:
  ClientAgent(UserId user, UserProfile profile, UserAccount account,
              WorkloadContext ctx, Rng rng);

  UserId user() const noexcept { return user_; }
  const UserProfile& profile() const noexcept { return profile_; }
  bool connected() const noexcept { return connected_; }
  std::size_t file_count() const noexcept { return files_.size(); }

  /// Advances the agent one step at time `now` against the back-end and
  /// returns when it wants to be woken next.
  SimTime on_wake(U1Backend& backend, SimTime now);

  /// Seeds the user's namespace with `n` pre-existing files through real
  /// uploads (used for the pre-trace bootstrap phase).
  void bootstrap(U1Backend& backend, SimTime now, std::size_t n);

  /// Worker hook: frees the client-side namespace mirror (volumes, dirs,
  /// file records) of an agent that will never wake in this process.
  /// The distributed engine calls this right after replaying a remote
  /// user's bootstrap — the mirror is per-file state and would otherwise
  /// hold the cluster-wide bootstrap working set in every worker. The
  /// profile and RNG stay intact (schedule_population_start still reads
  /// them); calling this on an agent that later wakes is a logic error.
  void shed_namespace_mirror() {
    volumes_.clear();
    volumes_.shrink_to_fit();
    dirs_.clear();
    dirs_.shrink_to_fit();
    files_.clear();
    files_.shrink_to_fit();
    recent_downloads_.clear();
    recent_downloads_.shrink_to_fit();
  }

 private:
  struct FileRec {
    NodeId node;
    VolumeId volume;
    NodeId parent;
    std::string_view extension;  // the file model's static catalog
    FileCategory category = FileCategory::kOther;
    ContentId content;  // last uploaded hash (same-content re-uploads)
    std::uint64_t size = 0;
    double update_affinity = 0;
    bool has_content = false;
  };
  struct DirRec {
    NodeId node;
    VolumeId volume;
  };
  struct VolRec {
    VolumeId id;
    NodeId root;
    bool is_udf = false;
  };

  SimTime connect_and_handshake(U1Backend& backend, SimTime now);
  SimTime perform_action(U1Backend& backend, SimTime now);
  SimTime schedule_reconnect(SimTime now);

  /// An upload a fault cut mid-transfer; retried (resume or restart)
  /// before any new work on the next wakes, up to kMaxUploadAttempts.
  struct PendingUpload {
    bool active = false;
    NodeId node;
    ContentId content;
    std::uint64_t size = 0;
    bool is_update = false;
    UploadJobId job;  // nil = no committed parts, restart from scratch
    int attempts = 0;
  };
  SimTime retry_pending_upload(U1Backend& backend, SimTime now);
  void note_interrupted_upload(const Response& up, NodeId node,
                               const ContentId& content, std::uint64_t size,
                               bool is_update);
  void apply_upload_success(NodeId node, const ContentId& content,
                            std::uint64_t size);

  // Action realizations; each returns the completion time.
  SimTime act_upload_new(U1Backend& backend, SimTime now);
  SimTime act_upload_update(U1Backend& backend, SimTime now);
  SimTime act_download(U1Backend& backend, SimTime now);
  SimTime act_unlink(U1Backend& backend, SimTime now);
  SimTime act_move(U1Backend& backend, SimTime now);
  SimTime act_make_dir(U1Backend& backend, SimTime now);
  SimTime act_create_udf(U1Backend& backend, SimTime now);
  SimTime act_delete_volume(U1Backend& backend, SimTime now);
  SimTime act_get_delta(U1Backend& backend, SimTime now);

  const VolRec& pick_volume(Rng& rng) const;
  /// Picks a parent directory within a volume (its root or a subdir).
  NodeId pick_parent(const VolRec& vol, Rng& rng) const;
  /// Index into files_ biased toward recently-created entries (RAW / short
  /// lifetimes); returns npos when empty.
  std::size_t pick_file(bool prefer_recent, Rng& rng) const;
  void forget_dir(NodeId dir);
  void forget_volume(VolumeId volume);

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  UserId user_;
  UserProfile profile_;
  UserAccount account_;
  WorkloadContext ctx_;
  Rng rng_;

  std::vector<VolRec> volumes_;
  std::vector<DirRec> dirs_;
  std::vector<FileRec> files_;

  bool connected_ = false;
  SessionId session_;
  SimTime session_ends_ = 0;
  std::uint64_t ops_left_ = 0;
  ClientAction prev_action_ = ClientAction::kGetDelta;
  int consecutive_auth_failures_ = 0;
  /// Dropped-session / load-shed streak, reset on a successful connect.
  int reconnect_failures_ = 0;
  PendingUpload pending_;
  static constexpr int kMaxUploadAttempts = 8;
  /// Extra ops spent by the last action beyond one (batch uploads).
  std::uint64_t last_batch_extra_ = 0;
  /// Recently downloaded files: deletes and edits often follow a read on
  /// the same node (the DAR/WAR dependencies of Fig. 3b). Bounded queue,
  /// most recent at the back.
  std::vector<NodeId> recent_downloads_;
  NodeId last_download_;
  void remember_download(NodeId node);
  /// Pops a recently-downloaded node still present in files_; npos-like
  /// nil when none.
  NodeId take_recent_download();
};

}  // namespace u1
