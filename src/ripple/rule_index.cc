#include "ripple/rule_index.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <thread>
#include <utility>

#include "common/strings.h"

namespace sdci::ripple {

namespace {
std::atomic<size_t> live_indexes{0};
}  // namespace

RuleIndex::RuleIndex() { live_indexes.fetch_add(1, std::memory_order_relaxed); }

RuleIndex::~RuleIndex() { live_indexes.fetch_sub(1, std::memory_order_relaxed); }

size_t RuleIndex::Live() noexcept { return live_indexes.load(std::memory_order_relaxed); }

RuleIndex::Builder& RuleIndex::Builder::Add(Rule rule) {
  rules_.push_back(std::move(rule));
  return *this;
}

std::shared_ptr<const RuleIndex> RuleIndex::Builder::Build() {
  // Monotone build stamp: a Scratch caching a descent from a destroyed
  // index cannot mistake a new index at the same address for its owner.
  static std::atomic<uint64_t> build_epoch{1};
  auto index = std::shared_ptr<RuleIndex>(new RuleIndex());
  index->epoch_ = build_epoch.fetch_add(1, std::memory_order_relaxed);
  std::sort(rules_.begin(), rules_.end(),
            [](const Rule& a, const Rule& b) { return a.id < b.id; });
  index->rules_ = std::move(rules_);
  rules_.clear();
  index->compiled_.resize(index->rules_.size());
  index->nodes_.emplace_back();  // root
  for (uint32_t pos = 0; pos < index->rules_.size(); ++pos) {
    const Rule& rule = index->rules_[pos];
    const Glob& glob = rule.trigger.path_glob;
    const std::string_view prefix = glob.LiteralPrefix();
    Compiled& c = index->compiled_[pos];
    c.event_mask = rule.trigger.event_mask;
    c.prefix_len = static_cast<uint32_t>(prefix.size());
    c.has_suffix = rule.trigger.name_suffix.has_value();
    const std::string_view tail =
        std::string_view(glob.pattern()).substr(prefix.size());
    if (tail.empty()) {
      c.tail = Compiled::Tail::kExact;
    } else if (tail.size() >= 2 &&
               tail.find_first_not_of('*') == std::string_view::npos) {
      // A run of >= 2 stars is one globstar token: matches any remainder.
      c.tail = Compiled::Tail::kAnything;
    } else {
      c.tail = Compiled::Tail::kGlob;
    }
    if (!rule.enabled || c.event_mask == 0) continue;  // can never match
    if (prefix.empty()) {
      for (unsigned bit = 0; bit < index->catch_all_.size(); ++bit) {
        if ((c.event_mask & (1u << bit)) != 0) index->catch_all_[bit].push_back(pos);
      }
    } else {
      index->Insert(prefix, pos);
      ++index->anchored_rules_;
    }
  }
  return index;
}

std::shared_ptr<const RuleIndex> RuleIndex::Empty() {
  static const std::shared_ptr<const RuleIndex> kEmpty = Builder().Build();
  return kEmpty;
}

uint32_t RuleIndex::ChildOrCreate(uint32_t node, std::string_view comp) {
  const auto it = nodes_[node].children.find(comp);
  if (it != nodes_[node].children.end()) return it->second;
  const auto child = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node].children.emplace(std::string(comp), child);
  return child;
}

void RuleIndex::Insert(std::string_view prefix, uint32_t pos) {
  const size_t cut = prefix.find_last_of('/');
  uint32_t node = 0;
  size_t depth = 0;
  std::string_view partial = prefix;
  if (cut != std::string_view::npos) {
    partial = prefix.substr(cut + 1);
    // Directory components of the prefix (everything through the last
    // '/'), including the leading empty component of absolute paths.
    const std::string_view rest = prefix.substr(0, cut);
    size_t at = 0;
    while (true) {
      const size_t slash = rest.find('/', at);
      const std::string_view comp =
          rest.substr(at, (slash == std::string_view::npos ? rest.size() : slash) - at);
      node = ChildOrCreate(node, comp);
      ++depth;
      if (slash == std::string_view::npos) break;
      at = slash + 1;
    }
  }
  if (!partial.empty()) ++depth;
  max_depth_ = std::max(max_depth_, depth);
  Node& anchor = nodes_[node];
  if (partial.empty()) {
    anchor.here.push_back(pos);
    return;
  }
  for (auto& [p, bucket] : anchor.partial) {
    if (p == partial) {
      bucket.push_back(pos);
      return;
    }
  }
  anchor.partial.emplace_back(std::string(partial), std::vector<uint32_t>{pos});
}

void RuleIndex::DescendDir(std::string_view dir, Scratch& scratch) const {
  scratch.dir_candidates.clear();
  scratch.leaf_node = nullptr;
  const Node* node = &nodes_[0];
  if (dir.empty()) {
    // A bare filename: only root partials (checked against the leaf by the
    // caller) and catch-alls can apply.
    scratch.leaf_node = node;
    return;
  }
  // dir is '/'-terminated; walk its components, gathering every candidate
  // that does not depend on the leaf: partial prefixes matched against the
  // next directory component, and rules anchored exactly at a visited
  // directory. The deepest node's partials compare against the leaf and
  // are left to the per-event probe.
  const std::string_view rest = dir.substr(0, dir.size() - 1);
  size_t at = 0;
  while (true) {
    const size_t slash = rest.find('/', at);
    const std::string_view comp =
        rest.substr(at, (slash == std::string_view::npos ? rest.size() : slash) - at);
    for (const auto& [p, bucket] : node->partial) {
      if (comp.starts_with(p)) {
        scratch.dir_candidates.insert(scratch.dir_candidates.end(), bucket.begin(),
                                      bucket.end());
      }
    }
    const auto it = node->children.find(comp);
    if (it == node->children.end()) return;  // nothing anchored deeper
    node = &nodes_[it->second];
    scratch.dir_candidates.insert(scratch.dir_candidates.end(), node->here.begin(),
                                  node->here.end());
    if (slash == std::string_view::npos) break;
    at = slash + 1;
  }
  scratch.leaf_node = node;
}

void RuleIndex::EnsureDescent(std::string_view path, std::string_view& leaf,
                              Scratch& scratch) const {
  const size_t cut = path.find_last_of('/');
  std::string_view dir;
  if (cut == std::string_view::npos) {
    leaf = path;
  } else {
    dir = path.substr(0, cut + 1);
    leaf = path.substr(cut + 1);
  }
  if (scratch.owner == this && scratch.epoch == epoch_ && scratch.dir == dir) {
    return;  // same directory as the previous event: descent reused
  }
  DescendDir(dir, scratch);
  scratch.dir.assign(dir);
  scratch.owner = this;
  scratch.epoch = epoch_;
}

bool RuleIndex::Residual(uint32_t pos, uint32_t kind, std::string_view path,
                         std::string_view name) const {
  const Compiled& c = compiled_[pos];
  if ((kind & c.event_mask) == 0) return false;
  switch (c.tail) {
    case Compiled::Tail::kExact:
      if (path.size() != c.prefix_len) return false;
      break;
    case Compiled::Tail::kAnything:
      break;
    case Compiled::Tail::kGlob:
      if (!rules_[pos].trigger.path_glob.MatchesSuffix(path.substr(c.prefix_len))) {
        return false;
      }
      break;
  }
  return !c.has_suffix ||
         strings::EndsWith(name, *rules_[pos].trigger.name_suffix);
}

bool RuleIndex::ProbeAny(uint32_t kind, std::string_view path,
                         std::string_view leaf, std::string_view name,
                         Scratch& scratch) const {
  for (const uint32_t pos : scratch.dir_candidates) {
    if (Residual(pos, kind, path, name)) return true;
  }
  if (scratch.leaf_node != nullptr) {
    const auto* node = static_cast<const Node*>(scratch.leaf_node);
    for (const auto& [p, bucket] : node->partial) {
      if (!leaf.starts_with(p)) continue;
      for (const uint32_t pos : bucket) {
        if (Residual(pos, kind, path, name)) return true;
      }
    }
  }
  const unsigned bit = static_cast<unsigned>(std::countr_zero(kind));
  if (bit < catch_all_.size()) {
    for (const uint32_t pos : catch_all_[bit]) {
      if (Residual(pos, kind, path, name)) return true;
    }
  }
  return false;
}

void RuleIndex::ProbeAll(uint32_t kind, std::string_view path,
                         std::string_view leaf, std::string_view name,
                         Scratch& scratch, std::vector<const Rule*>& out) const {
  auto& candidates = scratch.candidates;
  candidates.clear();
  candidates.insert(candidates.end(), scratch.dir_candidates.begin(),
                    scratch.dir_candidates.end());
  if (scratch.leaf_node != nullptr) {
    const auto* node = static_cast<const Node*>(scratch.leaf_node);
    for (const auto& [p, bucket] : node->partial) {
      if (p.size() <= leaf.size() && leaf.starts_with(p)) {
        candidates.insert(candidates.end(), bucket.begin(), bucket.end());
      }
    }
  }
  const unsigned bit = static_cast<unsigned>(std::countr_zero(kind));
  if (bit < catch_all_.size()) {
    candidates.insert(candidates.end(), catch_all_[bit].begin(),
                      catch_all_[bit].end());
  }
  // Every rule lives in exactly one bucket, so positions are unique; the
  // sort restores rule-id order (rules_ is id-sorted), making the output
  // bit-identical to a linear scan over an id-ordered rule map.
  std::sort(candidates.begin(), candidates.end());
  for (const uint32_t pos : candidates) {
    if (Residual(pos, kind, path, name)) out.push_back(&rules_[pos]);
  }
}

bool RuleIndex::MatchesAny(uint32_t kind, std::string_view path,
                           std::string_view name, Scratch& scratch) const {
  if (kind == 0 || path.empty()) return false;
  std::string_view leaf;
  EnsureDescent(path, leaf, scratch);
  return ProbeAny(kind, path, leaf, name, scratch);
}

void RuleIndex::Match(uint32_t kind, std::string_view path,
                      std::string_view name, Scratch& scratch,
                      std::vector<const Rule*>& out) const {
  if (kind == 0 || path.empty()) return;
  std::string_view leaf;
  EnsureDescent(path, leaf, scratch);
  ProbeAll(kind, path, leaf, name, scratch, out);
}

bool RuleIndex::MatchesAny(const monitor::FsEvent& event) const {
  Scratch scratch;
  return MatchesAny(KindOfEvent(event.type), event.path, event.name, scratch);
}

void RuleIndex::Match(const monitor::FsEvent& event,
                      std::vector<const Rule*>& out) const {
  Scratch scratch;
  Match(KindOfEvent(event.type), event.path, event.name, scratch, out);
}

size_t RuleIndex::EvaluateBatch(const monitor::wire::EventBatchView& view,
                                Scratch& scratch,
                                std::vector<uint32_t>& matched) const {
  size_t appended = 0;
  const size_t n = view.size();
  for (size_t i = 0; i < n; ++i) {
    // Kind first: MARK/OPEN/HSM events skip string resolution entirely.
    const uint32_t kind = KindOfEvent(view.type(i));
    if (kind == 0) continue;
    const monitor::wire::EventView event = view[i];
    const std::string_view path = event.path();
    if (path.empty()) continue;
    std::string_view leaf;
    EnsureDescent(path, leaf, scratch);
    if (ProbeAny(kind, path, leaf, event.name(), scratch)) {
      matched.push_back(static_cast<uint32_t>(i));
      ++appended;
    }
  }
  return appended;
}

void RuleSnapshotSlot::Publish(std::shared_ptr<const RuleIndex> next) {
  std::shared_ptr<const RuleIndex> replaced = std::exchange(current_, std::move(next));
  live_.store(current_.get());
  AwaitReaders();
  replaced.reset();  // freed here unless someone else still owns it
}

void RuleSnapshotSlot::AwaitReaders() {
  for (int flip = 0; flip < 2; ++flip) {
    const uint32_t old_phase = phase_.load(std::memory_order_relaxed);
    phase_.store(old_phase ^ 1U);
    const std::atomic<uint32_t>& readers = readers_[old_phase & 1U];
    // Read sections are one probe or one batch evaluation: yield through
    // the common case, then back off so a preempted reader costs this
    // thread sleeps, not a spinning core.
    for (int spin = 0; readers.load() != 0; ++spin) {
      if (spin < 64) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
}

RuleIndex::Layout RuleIndex::layout() const noexcept {
  Layout layout;
  layout.trie_nodes = nodes_.size();
  layout.anchored_rules = anchored_rules_;
  layout.max_depth = max_depth_;
  // A catch-all rule sits in one bucket per mask bit; count distinct rules.
  std::vector<uint32_t> distinct;
  for (const auto& rules : catch_all_) {
    distinct.insert(distinct.end(), rules.begin(), rules.end());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  layout.catch_all_rules = distinct.size();
  return layout;
}

}  // namespace sdci::ripple
