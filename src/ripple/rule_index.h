// RuleIndex: compiled O(matching-rules) dispatch for Ripple triggers.
//
// The naive rule engine evaluates every event against every registered
// rule — a linear glob sweep that is fine for the paper's demo policies
// and dead at a million tenants. This index compiles the rule set once
// into a dispatch structure so a probe touches only the rules that could
// possibly match the event's path:
//
//   1. Each trigger's glob is split at its first metacharacter into a
//      literal path prefix (Glob::LiteralPrefix) and a residual tail.
//      "/tenants/u42/data/**/*.h5" anchors at the "/tenants/u42/data"
//      directory with residual "**/*.h5".
//   2. Prefixes are inserted into a path-segment trie: one node per
//      directory component, each node holding the rules anchored exactly
//      at that directory (`here`) plus rules whose prefix ends
//      mid-component (`partial`, matched by starts_with against the next
//      component — "/lab/img" must still catch "/lab/imgs/x").
//   3. Rules whose pattern opens with a metacharacter (no usable prefix)
//      go to a small per-event-kind catch-all list; since KindOfEvent
//      yields a single bit per event, one bucket is probed per event.
//
// A probe descends the trie along the event path's directory components
// (O(depth), independent of rule count), gathers the candidate rules on
// the way, and runs the residual predicate — event-kind mask, glob tail
// via Glob::MatchesSuffix, name suffix — on candidates only. The batched
// entry point walks a wire::EventBatchView in place (string_view paths,
// no FsEvent materialization) and caches the directory descent across
// consecutive events from the same directory, the common case for real
// changelog streams.
//
// A RuleIndex is immutable once built. Owners publish it through a
// RuleSnapshotSlot (below): the control plane rebuilds and swaps on rule
// changes and frees the replaced snapshot after a grace period; the hot
// path pins the snapshot with a wait-free read guard and never takes a
// mutex.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "monitor/event.h"
#include "monitor/wire_v4.h"
#include "ripple/rule.h"

namespace sdci::ripple {

class RuleIndex {
 public:
  // Reusable probe state. Holds the cached trie descent of the last
  // event's directory plus the candidate scratch vector, so batch
  // evaluation allocates nothing in steady state. A Scratch may be reused
  // across indexes — the cache self-invalidates when the index (or its
  // build epoch) changes.
  struct Scratch {
    std::string dir;                       // cached directory (with trailing '/')
    std::vector<uint32_t> dir_candidates;  // candidates independent of the leaf
    const void* leaf_node = nullptr;       // deepest trie node (null: descent cut short)
    const RuleIndex* owner = nullptr;
    uint64_t epoch = 0;
    std::vector<uint32_t> candidates;      // per-event scratch
  };

  class Builder {
   public:
    // Disabled rules are kept (rules() reflects the installed set) but
    // never indexed, so they never match — same verdict as a linear scan.
    Builder& Add(Rule rule);
    // Compiles the added rules (sorted by id — match output order equals
    // a linear scan over an id-ordered rule map) and resets the builder.
    [[nodiscard]] std::shared_ptr<const RuleIndex> Build();

   private:
    std::vector<Rule> rules_;
  };

  // The shared empty index (what an Agent starts with).
  [[nodiscard]] static std::shared_ptr<const RuleIndex> Empty();

  // Indexes alive in this process, the shared empty one included. Lets
  // tests check that replaced snapshots are actually freed.
  [[nodiscard]] static size_t Live() noexcept;

  ~RuleIndex();
  RuleIndex(const RuleIndex&) = delete;
  RuleIndex& operator=(const RuleIndex&) = delete;

  // --- Single-event probes ---

  // `kind` must be KindOfEvent(event type): a single EventKind bit, or 0
  // (which never matches). `path`/`name` may alias wire payload bytes.
  [[nodiscard]] bool MatchesAny(uint32_t kind, std::string_view path,
                                std::string_view name, Scratch& scratch) const;
  // Appends every matching enabled rule in rule-id order — bit-identical
  // to a linear `trigger.Matches` scan over the same rules.
  void Match(uint32_t kind, std::string_view path, std::string_view name,
             Scratch& scratch, std::vector<const Rule*>& out) const;

  // Convenience overloads for owning events (control plane, tests).
  [[nodiscard]] bool MatchesAny(const monitor::FsEvent& event) const;
  void Match(const monitor::FsEvent& event, std::vector<const Rule*>& out) const;

  // --- Batched zero-copy evaluation ---

  // Walks the bound view in place and appends the indexes of events that
  // match at least one rule. Non-matching events never materialize an
  // FsEvent: paths are probed as string_views into the payload, events
  // whose type has no rule-facing kind skip string resolution entirely,
  // and the trie descent is shared across consecutive same-directory
  // events. Returns the number of indexes appended.
  size_t EvaluateBatch(const monitor::wire::EventBatchView& view,
                       Scratch& scratch, std::vector<uint32_t>& matched) const;

  // All installed rules (including disabled), sorted by id. The property
  // tests run their linear-scan oracle over exactly this set.
  [[nodiscard]] const std::vector<Rule>& rules() const noexcept { return rules_; }
  [[nodiscard]] size_t size() const noexcept { return rules_.size(); }

  // Structure introspection for benches and docs.
  struct Layout {
    size_t trie_nodes = 0;       // including the root
    size_t anchored_rules = 0;   // rules dispatched through the trie
    size_t catch_all_rules = 0;  // rules with no usable literal prefix
    size_t max_depth = 0;        // deepest anchor, in path components
  };
  [[nodiscard]] Layout layout() const noexcept;

 private:
  friend class Builder;

  // Per-rule residual predicate, precompiled from the trigger.
  struct Compiled {
    uint32_t event_mask = 0;
    uint32_t prefix_len = 0;
    // What remains of the glob after the literal prefix: nothing (the
    // path must equal the prefix exactly), a bare "**" (any descendant —
    // the prefix probe alone decides), or a general tail that needs
    // Glob::MatchesSuffix on the path remainder.
    enum class Tail : uint8_t { kExact, kAnything, kGlob } tail = Tail::kGlob;
    bool has_suffix = false;
  };

  struct SvHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const noexcept {
      return a == b;
    }
  };

  struct Node {
    std::unordered_map<std::string, uint32_t, SvHash, SvEq> children;
    // Rules anchored exactly at this directory (prefix ends on a '/').
    std::vector<uint32_t> here;
    // Rules whose prefix ends mid-component: checked with starts_with
    // against the next path component. Grouped by partial string.
    std::vector<std::pair<std::string, std::vector<uint32_t>>> partial;
  };

  RuleIndex();

  // Inserts compiled rule `pos` under its literal prefix.
  void Insert(std::string_view prefix, uint32_t pos);
  [[nodiscard]] uint32_t ChildOrCreate(uint32_t node, std::string_view comp);

  // Refreshes scratch's cached descent for `dir` ("" or '/'-terminated).
  void DescendDir(std::string_view dir, Scratch& scratch) const;
  // Gathers leaf-dependent candidates and runs residuals. Requires the
  // scratch descent to be current for path's directory.
  [[nodiscard]] bool ProbeAny(uint32_t kind, std::string_view path,
                              std::string_view leaf, std::string_view name,
                              Scratch& scratch) const;
  void ProbeAll(uint32_t kind, std::string_view path, std::string_view leaf,
                std::string_view name, Scratch& scratch,
                std::vector<const Rule*>& out) const;
  void EnsureDescent(std::string_view path, std::string_view& leaf,
                     Scratch& scratch) const;
  [[nodiscard]] bool Residual(uint32_t pos, uint32_t kind, std::string_view path,
                              std::string_view name) const;

  std::vector<Rule> rules_;        // sorted by id; positions index this
  std::vector<Compiled> compiled_; // parallel to rules_
  std::vector<Node> nodes_;        // nodes_[0] is the root
  std::array<std::vector<uint32_t>, 7> catch_all_{};  // per EventKind bit
  size_t anchored_rules_ = 0;
  size_t max_depth_ = 0;
  uint64_t epoch_ = 0;  // monotone build stamp (Scratch invalidation)
};

// Publishes immutable RuleIndex snapshots to wait-free readers and frees
// each replaced snapshot after a grace period.
//
// Readers take a ReadGuard: four atomic operations (load the phase, bump
// that phase's reader count, load the live pointer; drop the count when
// the guard dies), with no lock, no CAS retry loop and no refcount on the
// snapshot. (std::atomic<std::shared_ptr> would also work semantically,
// but libstdc++'s implementation guards the control block with an
// embedded spin lock whose reader unlock is relaxed, which both
// serializes every probe and trips TSan.) The guard's pointer — and every
// Rule* a probe returns from it — is valid until the guard is destroyed.
// Read sections must stay short and must not block: copy out what the
// caller needs (rule ids, tenants, action specs) and drop the guard
// before any retry sleep, bounded-queue push or other wait. A guard must
// never be held by a thread that calls Publish() on the same slot.
//
// Publish() swaps the live pointer and then waits out a grace period, as
// in userspace RCU: it flips the phase and waits for the old phase's
// reader count to drain, twice. One flip is not enough — a reader that
// loaded the old phase but had not yet bumped its count when the flip
// happened is not waited for, and may then hold the next snapshot under
// the phase the following Publish() skips. After the second drain no
// reader can still hold the replaced snapshot, and Publish() destroys it
// on the calling thread. Reclamation therefore costs the control plane
// (one grace period per update, bounded by the longest read section),
// never a reader, and at most two snapshots per slot are alive at once:
// the live one and the one being replaced.
//
// Publish() must be externally serialized — callers already hold their
// control-plane rules mutex. Read() is safe from any thread at any time
// and never yields null.
class RuleSnapshotSlot {
 public:
  class ReadGuard {
   public:
    // Sequentially consistent on purpose: the grace-period argument needs
    // one total order over these loads, the count bump and Publish's
    // store, flips and drains.
    explicit ReadGuard(const RuleSnapshotSlot& slot) noexcept
        : readers_(&slot.readers_[slot.phase_.load() & 1U]) {
      readers_->fetch_add(1);
      index_ = slot.live_.load();
    }
    ~ReadGuard() { readers_->fetch_sub(1, std::memory_order_release); }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

    [[nodiscard]] const RuleIndex* get() const noexcept { return index_; }
    const RuleIndex* operator->() const noexcept { return index_; }
    const RuleIndex& operator*() const noexcept { return *index_; }

   private:
    std::atomic<uint32_t>* readers_;
    const RuleIndex* index_;
  };

  RuleSnapshotSlot() : current_(RuleIndex::Empty()) { live_.store(current_.get()); }

  // Hot path: pins the current snapshot until the guard is destroyed.
  [[nodiscard]] ReadGuard Read() const noexcept { return ReadGuard(*this); }

  // Control plane: swaps in a freshly built snapshot, waits until no
  // reader can hold the replaced one, and destroys it on this thread.
  void Publish(std::shared_ptr<const RuleIndex> next);

 private:
  // Two-phase flip-and-drain (see the class comment).
  void AwaitReaders();

  std::shared_ptr<const RuleIndex> current_;
  std::atomic<const RuleIndex*> live_{nullptr};
  std::atomic<uint32_t> phase_{0};
  // Written by every reader: kept off the line holding live_ and phase_.
  alignas(64) mutable std::array<std::atomic<uint32_t>, 2> readers_{};
};

}  // namespace sdci::ripple
