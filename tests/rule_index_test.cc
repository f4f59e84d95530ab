// RuleIndex correctness: the compiled dispatch must be observably
// indistinguishable from the linear scan it replaces — same verdicts, same
// matched rules, same order — across handcrafted edge cases, a randomized
// 1k-rule property sweep, batched wire-view evaluation, concurrent
// snapshot swaps and grace-period reclamation.
#include "ripple/rule_index.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "monitor/event.h"
#include "ripple/rule.h"

namespace sdci::ripple {
namespace {

using lustre::ChangeLogType;
using monitor::FsEvent;

Rule MakeRule(std::string id, std::string pattern, uint32_t mask = kAnyEvent) {
  Rule rule;
  rule.id = std::move(id);
  rule.trigger.event_mask = mask;
  rule.trigger.path_glob = Glob(std::move(pattern));
  rule.action.agent = "exec";
  rule.watch_agent = "watch";
  return rule;
}

FsEvent MakeEvent(std::string path, ChangeLogType type = ChangeLogType::kCreate) {
  FsEvent event;
  event.type = type;
  event.path = std::move(path);
  const size_t cut = event.path.find_last_of('/');
  event.name = cut == std::string::npos ? event.path : event.path.substr(cut + 1);
  return event;
}

// The linear scan the index must be bit-identical to: id-ordered rules,
// Trigger::Matches each.
std::vector<std::string> OracleMatch(const RuleIndex& index, const FsEvent& event) {
  std::vector<std::string> ids;
  for (const Rule& rule : index.rules()) {
    if (rule.enabled && rule.trigger.Matches(event)) ids.push_back(rule.id);
  }
  return ids;
}

std::vector<std::string> IndexMatch(const RuleIndex& index, const FsEvent& event) {
  std::vector<const Rule*> out;
  index.Match(event, out);
  std::vector<std::string> ids;
  ids.reserve(out.size());
  for (const Rule* rule : out) ids.push_back(rule->id);
  return ids;
}

TEST(RuleIndex, EmptyIndexMatchesNothing) {
  const auto index = RuleIndex::Empty();
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b.txt")));
  EXPECT_EQ(index->size(), 0u);
  EXPECT_EQ(index->layout().trie_nodes, 1u) << "just the root";
}

TEST(RuleIndex, AnchoredDispatchMatchesInRuleIdOrder) {
  RuleIndex::Builder builder;
  builder.Add(MakeRule("b-glob", "/proj/alpha/**/*.h5"));
  builder.Add(MakeRule("a-exact", "/proj/alpha/raw/scan.h5"));
  builder.Add(MakeRule("c-star", "/proj/alpha/raw/*.h5"));
  builder.Add(MakeRule("d-other", "/proj/beta/**"));
  const auto index = builder.Build();

  const FsEvent hit = MakeEvent("/proj/alpha/raw/scan.h5");
  EXPECT_TRUE(index->MatchesAny(hit));
  EXPECT_EQ(IndexMatch(*index, hit),
            (std::vector<std::string>{"a-exact", "b-glob", "c-star"}));
  EXPECT_EQ(IndexMatch(*index, hit), OracleMatch(*index, hit));

  EXPECT_FALSE(index->MatchesAny(MakeEvent("/proj/gamma/x.h5")));
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/proj/beta/anything/at/all")));
}

TEST(RuleIndex, MidComponentPrefixStillCatchesLongerComponents) {
  // "/lab/img" must catch "/lab/imgs/x" — the prefix ends mid-component.
  RuleIndex::Builder builder;
  builder.Add(MakeRule("imgs", "/lab/img*/**"));
  const auto index = builder.Build();
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/lab/imgs/x")));
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/lab/img-old/deep/y")));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/lab/data/x")));
  // The partial also applies when the component is the path's leaf.
  builder.Add(MakeRule("leaf", "/lab/img*"));
  const auto index2 = builder.Build();
  EXPECT_TRUE(index2->MatchesAny(MakeEvent("/lab/imgs")));
}

TEST(RuleIndex, DisabledRulesAreKeptButNeverMatch) {
  Rule off = MakeRule("off", "/a/**");
  off.enabled = false;
  const auto index = RuleIndex::Builder().Add(off).Build();
  EXPECT_EQ(index->size(), 1u) << "rules() reflects the installed set";
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b")));
}

TEST(RuleIndex, CatchAllRulesProbeOnlyTheirKindBucket) {
  RuleIndex::Builder builder;
  builder.Add(MakeRule("h5", "**/*.h5", kCreated));
  builder.Add(MakeRule("del", "**", kDeleted));
  const auto index = builder.Build();
  EXPECT_EQ(index->layout().catch_all_rules, 2u);
  EXPECT_EQ(index->layout().anchored_rules, 0u);
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/d/s.h5", ChangeLogType::kCreate)));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/d/s.h5", ChangeLogType::kMtime)))
      << "kModified probes a bucket holding neither rule";
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/d/s.txt", ChangeLogType::kUnlink)));
}

TEST(RuleIndex, KindlessEventsAndEmptyPathsNeverMatch) {
  const auto index = RuleIndex::Builder().Add(MakeRule("all", "**")).Build();
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b", ChangeLogType::kMark)));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/a/b", ChangeLogType::kOpen)));
  FsEvent unresolved = MakeEvent("", ChangeLogType::kCreate);
  EXPECT_FALSE(index->MatchesAny(unresolved))
      << "Trigger::Matches rejects unresolved paths; the index must agree";
}

TEST(RuleIndex, NameSuffixResidualApplies) {
  Rule rule = MakeRule("tif", "/lab/**");
  rule.trigger.name_suffix = ".tif";
  const auto index = RuleIndex::Builder().Add(rule).Build();
  EXPECT_TRUE(index->MatchesAny(MakeEvent("/lab/a/b.tif")));
  EXPECT_FALSE(index->MatchesAny(MakeEvent("/lab/a/b.h5")));
}

// --- Randomized oracle sweep -------------------------------------------

constexpr const char* kDirs[] = {"alpha", "beta", "gamma", "img", "raw",
                                 "cooked", "t1", "t2"};
constexpr const char* kExts[] = {"h5", "tif", "dat", "log"};

std::string RandomPattern(Rng& rng) {
  const char* a = kDirs[rng.NextBelow(std::size(kDirs))];
  const char* b = kDirs[rng.NextBelow(std::size(kDirs))];
  const char* ext = kExts[rng.NextBelow(std::size(kExts))];
  switch (rng.NextBelow(8)) {
    case 0: return std::string("/") + a + "/" + b + "/**/*." + ext;
    case 1: return std::string("/") + a + "/" + b + "/*." + ext;
    case 2: return std::string("/") + a + "/" + b + "/file" +
                   std::to_string(rng.NextBelow(4)) + "." + ext;  // exact
    case 3: return std::string("/") + a + "/run[0-3]/out." + ext; // class
    case 4: return std::string("*.") + ext;                       // catch-all
    case 5: return std::string("**/") + b + "/*." + ext;          // catch-all
    case 6: return std::string("/") + a + "/" + b + "*/**";       // partial
    default: return std::string("/") + a + "/**";
  }
}

Rule RandomRule(Rng& rng, size_t i) {
  Rule rule = MakeRule("r" + std::to_string(1000 + i), RandomPattern(rng));
  switch (rng.NextBelow(4)) {
    case 0: rule.trigger.event_mask = kAnyEvent; break;
    case 1: rule.trigger.event_mask = kCreated; break;
    case 2: rule.trigger.event_mask = kCreated | kModified | kRenamed; break;
    default:
      rule.trigger.event_mask = static_cast<uint32_t>(rng.NextBelow(127) + 1);
      break;
  }
  if (rng.NextBool(0.3)) {
    rule.trigger.name_suffix = std::string(".") + kExts[rng.NextBelow(std::size(kExts))];
  }
  rule.enabled = !rng.NextBool(0.1);
  return rule;
}

FsEvent RandomEvent(Rng& rng) {
  static constexpr ChangeLogType kTypes[] = {
      ChangeLogType::kCreate, ChangeLogType::kMkdir,   ChangeLogType::kUnlink,
      ChangeLogType::kRename, ChangeLogType::kMtime,   ChangeLogType::kSetattr,
      ChangeLogType::kClose,  ChangeLogType::kRmdir,   ChangeLogType::kMark,
      ChangeLogType::kOpen};
  std::string path;
  if (!rng.NextBool(0.05)) {  // 5% unresolved (empty) paths
    const size_t depth = rng.NextBelow(4);
    for (size_t d = 0; d < depth; ++d) {
      path += "/";
      path += kDirs[rng.NextBelow(std::size(kDirs))];
    }
    path += rng.NextBool(0.2) ? "" : "/";
    if (rng.NextBool(0.15)) {
      path += "run" + std::to_string(rng.NextBelow(5)) + "/";
    }
    path += "file" + std::to_string(rng.NextBelow(4)) + "." +
            kExts[rng.NextBelow(std::size(kExts))];
    if (rng.NextBool(0.1)) path = path.substr(1);  // relative / bare forms
  }
  return MakeEvent(std::move(path), kTypes[rng.NextBelow(std::size(kTypes))]);
}

class RuleIndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RuleIndexPropertyTest, VerdictsBitIdenticalToLinearScanOracle) {
  Rng rng(GetParam());
  RuleIndex::Builder builder;
  for (size_t i = 0; i < 1000; ++i) builder.Add(RandomRule(rng, i));
  const auto index = builder.Build();
  ASSERT_EQ(index->size(), 1000u);
  RuleIndex::Scratch scratch;
  for (int trial = 0; trial < 2000; ++trial) {
    const FsEvent event = RandomEvent(rng);
    const std::vector<std::string> expect = OracleMatch(*index, event);
    ASSERT_EQ(IndexMatch(*index, event), expect)
        << "path=" << event.path << " type=" << static_cast<int>(event.type);
    // MatchesAny via the scratch-reusing probe agrees with the full match.
    ASSERT_EQ(index->MatchesAny(KindOfEvent(event.type), event.path, event.name,
                                scratch),
              !expect.empty())
        << "path=" << event.path;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleIndexPropertyTest,
                         ::testing::Values(21, 22, 23, 24));

TEST(RuleIndex, EvaluateBatchAgreesWithPerEventOracle) {
  Rng rng(99);
  RuleIndex::Builder builder;
  for (size_t i = 0; i < 500; ++i) builder.Add(RandomRule(rng, i));
  const auto index = builder.Build();
  RuleIndex::Scratch scratch;
  for (int round = 0; round < 20; ++round) {
    std::vector<FsEvent> events;
    for (int i = 0; i < 64; ++i) events.push_back(RandomEvent(rng));
    // Consecutive same-directory events exercise the descent cache.
    for (int i = 1; i < 16; ++i) {
      FsEvent sibling = events[0];
      sibling.name = "sib" + std::to_string(i) + ".h5";
      const size_t cut = sibling.path.find_last_of('/');
      sibling.path =
          (cut == std::string::npos ? "" : sibling.path.substr(0, cut + 1)) +
          sibling.name;
      events.push_back(std::move(sibling));
    }
    const std::string payload = monitor::EncodeEventBatch(events);
    auto view = monitor::wire::EventBatchView::Bind(payload);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    std::vector<uint32_t> matched;
    const size_t appended = index->EvaluateBatch(*view, scratch, matched);
    EXPECT_EQ(appended, matched.size());
    std::vector<uint32_t> expect;
    for (uint32_t i = 0; i < events.size(); ++i) {
      if (!OracleMatch(*index, events[i]).empty()) expect.push_back(i);
    }
    ASSERT_EQ(matched, expect) << "round " << round;
  }
}

// Wraps a built index so its destruction is observable: `alive` counts
// hooked snapshots not yet destroyed, and the deleter records the thread
// that destroyed it.
struct DestroyHook {
  std::atomic<int> alive{0};
  std::atomic<bool> destroyed{false};
  std::thread::id destroyed_on;
};

std::shared_ptr<const RuleIndex> Hooked(std::shared_ptr<const RuleIndex> built,
                                        DestroyHook& hook) {
  hook.alive.fetch_add(1);
  const RuleIndex* raw = built.get();
  return {raw, [built = std::move(built), &hook](const RuleIndex*) mutable {
            built.reset();
            hook.destroyed_on = std::this_thread::get_id();
            hook.destroyed.store(true);
            hook.alive.fetch_sub(1);
          }};
}

// Readers race a writer that rebuilds and publishes snapshots through a
// RuleSnapshotSlot — the exact publication protocol Agent and
// CloudService use. Inside its read guard a reader dereferences every
// Rule* the probe returned, and its verdicts must be oracle-exact for the
// pinned snapshot: concurrent Add/Remove can never produce a verdict no
// rule set ever held. Replaced snapshots are freed as soon as their grace
// period ends, so at most two are ever alive (the live one and the one
// being built or replaced) and exactly one once Publish returns. Run
// under ASan (a guard that failed to pin would be a use-after-free) and
// TSan (check.sh greps for this test in both suites).
TEST(RuleIndexConcurrency, ConcurrentSnapshotSwapsKeepVerdictsOracleExact) {
  RuleSnapshotSlot slot;
  DestroyHook hook;
  std::atomic<bool> stop{false};
  std::atomic<bool> over_budget{false};
  constexpr int kSwaps = 200;
  std::thread writer([&] {
    Rng rng(7);
    for (int swap = 0; swap < kSwaps; ++swap) {
      RuleIndex::Builder builder;
      const size_t n = 1 + rng.NextBelow(50);
      for (size_t i = 0; i < n; ++i) builder.Add(RandomRule(rng, i));
      auto next = Hooked(builder.Build(), hook);
      if (hook.alive.load() > 2) over_budget.store(true);
      slot.Publish(std::move(next));
      if (hook.alive.load() != 1) over_budget.store(true);
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> probes{0};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + t);
      RuleIndex::Scratch scratch;  // reused across snapshots: epoch guard
      while (!stop.load(std::memory_order_acquire)) {
        const FsEvent event = RandomEvent(rng);
        const RuleSnapshotSlot::ReadGuard index = slot.Read();
        std::vector<const Rule*> out;
        index->Match(KindOfEvent(event.type), event.path, event.name, scratch,
                     out);
        std::vector<std::string> ids;
        for (const Rule* rule : out) ids.push_back(rule->id);
        if (ids != OracleMatch(*index, event)) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        probes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(failed.load()) << "a reader saw a verdict its snapshot never held";
  EXPECT_FALSE(over_budget.load()) << "a replaced snapshot outlived its grace period";
  EXPECT_GT(probes.load(), 0u);
  EXPECT_EQ(hook.alive.load(), 1);  // only the live snapshot remains
}

// A guard held across a Publish pins its snapshot: Publish swaps the live
// pointer at once but does not return, or free anything, until the guard
// drops — and then frees the old snapshot on the publishing thread, never
// on the reader's.
TEST(RuleIndexConcurrency, GuardHeldAcrossPublishPinsItsSnapshot) {
  RuleSnapshotSlot slot;
  DestroyHook old_hook;
  DestroyHook new_hook;
  RuleIndex::Builder builder;
  builder.Add(MakeRule("old", "/lab/old/*.h5"));
  slot.Publish(Hooked(builder.Build(), old_hook));
  builder.Add(MakeRule("new", "/lab/new/*.h5"));
  auto next = Hooked(builder.Build(), new_hook);
  const RuleIndex* next_raw = next.get();

  std::thread::id publisher_id;
  std::atomic<bool> published{false};
  std::thread publisher;
  {
    const RuleSnapshotSlot::ReadGuard pinned = slot.Read();
    ASSERT_EQ(pinned->size(), 1u);
    publisher = std::thread([&] {
      publisher_id = std::this_thread::get_id();
      slot.Publish(std::move(next));
      published.store(true);
    });
    // New readers see the new snapshot as soon as the swap lands...
    while (slot.Read().get() != next_raw) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // ...but the pinned one stays alive and intact while the guard lives.
    EXPECT_FALSE(published.load()) << "Publish returned while a reader held the old snapshot";
    EXPECT_FALSE(old_hook.destroyed.load());
    EXPECT_TRUE(pinned->MatchesAny(MakeEvent("/lab/old/x.h5")));
    EXPECT_EQ(pinned->rules().front().id, "old");
  }
  publisher.join();
  EXPECT_TRUE(published.load());
  EXPECT_TRUE(old_hook.destroyed.load());
  EXPECT_EQ(old_hook.destroyed_on, publisher_id);
  EXPECT_EQ(new_hook.alive.load(), 1);
}

// The Scratch descent cache is keyed by (owner, epoch). Once an index is
// freed, a new index can land at the same address; the epoch alone must
// then force a fresh descent, or the stale candidates of the freed index
// would be run against the new one's rules. (Under ASan the freed address
// is quarantined and never reused; the verdicts are still checked.)
TEST(RuleIndexScratch, DescentCacheMissesOnNewIndexAtFreedAddress) {
  RuleIndex::Scratch scratch;
  const uint32_t kind = KindOfEvent(ChangeLogType::kCreate);
  const void* freed = nullptr;
  {
    RuleIndex::Builder builder;
    builder.Add(MakeRule("a", "/lab/a/*.h5"));
    const auto first = builder.Build();
    ASSERT_TRUE(first->MatchesAny(kind, "/lab/a/x.h5", "x.h5", scratch));
    freed = first.get();
  }
  std::shared_ptr<const RuleIndex> second;
  for (int attempt = 0; attempt < 64; ++attempt) {
    RuleIndex::Builder builder;
    // Same shape at a sibling directory: a stale cache hit on "/lab/a/"
    // would replay candidate 0 — this rule — whose glob tail accepts
    // "x.h5".
    builder.Add(MakeRule("b", "/lab/b/*.h5"));
    second = builder.Build();
    if (second.get() == freed) break;
  }
  EXPECT_FALSE(second->MatchesAny(kind, "/lab/a/x.h5", "x.h5", scratch));
  std::vector<const Rule*> out;
  second->Match(kind, "/lab/a/x.h5", "x.h5", scratch, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(second->MatchesAny(kind, "/lab/b/x.h5", "x.h5", scratch));
}

}  // namespace
}  // namespace sdci::ripple
