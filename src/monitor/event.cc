#include "monitor/event.h"

#include "common/strings.h"
#include "monitor/wire_v4.h"

namespace sdci::monitor {

std::string FsEvent::ToString() const {
  // Appends into one string: GCC 12's -Wrestrict misfires on chained
  // operator+ over temporaries in optimized builds.
  std::string out(lustre::ChangeLogTypeName(type));
  out += ' ';
  if (path.empty()) {
    out += '<';
    out += target_fid.ToString();
    out += '>';
  } else {
    out += path;
  }
  if (type == lustre::ChangeLogType::kRename && !source_path.empty()) {
    out += " from ";
    out += source_path;
  }
  return out;
}

json::Value FsEvent::ToJson() const {
  json::Object obj;
  obj["mdt"] = json::Value(static_cast<int64_t>(mdt_index));
  obj["index"] = json::Value(static_cast<int64_t>(record_index));
  obj["seq"] = json::Value(static_cast<int64_t>(global_seq));
  obj["type"] = json::Value(std::string(lustre::ChangeLogTypeName(type)));
  obj["time_ns"] = json::Value(static_cast<int64_t>(time.count()));
  obj["flags"] = json::Value(static_cast<int64_t>(flags));
  obj["path"] = json::Value(path);
  obj["name"] = json::Value(name);
  if (!source_path.empty()) obj["source_path"] = json::Value(source_path);
  obj["target_fid"] = json::Value(target_fid.ToString());
  obj["parent_fid"] = json::Value(parent_fid.ToString());
  if (trace_id != 0) {
    obj["trace_id"] = json::Value(trace_id);
    obj["parent_span"] = json::Value(parent_span);
  }
  // The history API serves JSON; federated backfill needs the HLC stamp to
  // merge restored events against other shards' streams.
  if (!hlc.IsZero()) {
    obj["hlc_wall_ns"] = json::Value(hlc.wall_ns);
    obj["hlc_logical"] = json::Value(static_cast<int64_t>(hlc.logical));
    obj["hlc_origin"] = json::Value(static_cast<int64_t>(hlc.origin));
  }
  return json::Value(std::move(obj));
}

Result<FsEvent> FsEvent::FromJson(const json::Value& value) {
  if (!value.is_object()) return InvalidArgumentError("event must be a JSON object");
  FsEvent event;
  event.mdt_index = static_cast<int>(value.GetInt("mdt"));
  event.record_index = static_cast<uint64_t>(value.GetInt("index"));
  event.global_seq = static_cast<uint64_t>(value.GetInt("seq"));
  auto type = lustre::ParseChangeLogType(value.GetString("type", "MARK"));
  if (!type.ok()) return type.status();
  event.type = *type;
  event.time = VirtualTime(value.GetInt("time_ns"));
  event.flags = static_cast<uint32_t>(value.GetInt("flags"));
  event.path = value.GetString("path");
  event.name = value.GetString("name");
  event.source_path = value.GetString("source_path");
  auto target = lustre::Fid::Parse(value.GetString("target_fid", "[0x0:0x0:0x0]"));
  if (!target.ok()) return target.status();
  event.target_fid = *target;
  auto parent = lustre::Fid::Parse(value.GetString("parent_fid", "[0x0:0x0:0x0]"));
  if (!parent.ok()) return parent.status();
  event.parent_fid = *parent;
  event.trace_id = static_cast<uint64_t>(value.GetInt("trace_id"));
  event.parent_span = static_cast<uint64_t>(value.GetInt("parent_span"));
  event.hlc.wall_ns = value.GetInt("hlc_wall_ns");
  event.hlc.logical = static_cast<uint32_t>(value.GetInt("hlc_logical"));
  event.hlc.origin = static_cast<uint32_t>(value.GetInt("hlc_origin"));
  return event;
}

std::string EncodeEventBatch(const std::vector<FsEvent>& events) {
  return wire::EncodeEventBatchV4(events.data(), events.size());
}

Result<std::vector<FsEvent>> DecodeEventBatch(std::string_view payload) {
  auto view = wire::EventBatchView::Bind(payload);
  if (!view.ok()) return view.status();
  return view->Materialize();
}

std::string EventTopic(const FsEvent& event) {
  return "fsevent." + std::string(lustre::ChangeLogTypeName(event.type));
}

// ---------- EventBatch ----------

EventBatch::EventBatch(std::vector<FsEvent> events) {
  auto rep = std::make_shared<Rep>();
  rep->events = std::move(events);
  rep->count = rep->events.size();
  if (rep->count > 0) rep->first_type = rep->events.front().type;
  rep->has_events.store(true, std::memory_order_release);
  rep_ = std::move(rep);
}

Result<EventBatch> EventBatch::FromPayload(std::shared_ptr<const std::string> payload) {
  if (payload == nullptr) return InvalidArgumentError("null event batch payload");
  // Validate in place, materialize nothing. The events are decoded lazily
  // on the first events() call — never, for a batch that only transits
  // queues and the publish socket.
  auto view = wire::EventBatchView::Bind(*payload);
  if (!view.ok()) return view.status();
  if (view->empty()) return InvalidArgumentError("zero-event batch on the wire");
  auto rep = std::make_shared<Rep>();
  rep->count = view->size();
  rep->first_type = view->type(0);
  rep->payload = std::move(payload);
  return EventBatch(std::move(rep));
}

Result<EventBatch> EventBatch::FromPayload(std::string payload) {
  return FromPayload(std::make_shared<const std::string>(std::move(payload)));
}

const std::vector<FsEvent>& EventBatch::events() const noexcept {
  static const std::vector<FsEvent> kEmpty;
  if (rep_ == nullptr) return kEmpty;
  if (!rep_->has_events.load(std::memory_order_acquire)) {
    // Materialize the validated payload, at most once, even when
    // pipeline threads race here. Bind cannot fail: FromPayload validated
    // these exact bytes and they are immutable from then on.
    std::call_once(rep_->decode_once, [this] {
      auto view = wire::EventBatchView::Bind(*rep_->payload);
      if (view.ok()) rep_->events = view->Materialize();
      rep_->has_events.store(true, std::memory_order_release);
    });
  }
  return rep_->events;
}

size_t EventBatch::size() const noexcept {
  return rep_ == nullptr ? 0 : rep_->count;
}

std::shared_ptr<const std::string> EventBatch::payload() const {
  if (rep_ == nullptr) {
    return std::make_shared<const std::string>(EncodeEventBatch({}));
  }
  // call_once (not a bare null check) so concurrent pipeline threads cannot
  // race the lazy encode; after construction the payload never changes.
  std::call_once(rep_->encode_once, [this] {
    if (rep_->payload == nullptr) {
      rep_->payload = std::make_shared<const std::string>(EncodeEventBatch(rep_->events));
    }
  });
  return rep_->payload;
}

std::shared_ptr<const std::string> EventBatch::FlatPayloadV4() const noexcept {
  // Decode-side batches set rep_->payload at construction; encode-side
  // batches leave it null until payload() runs (same published-or-null
  // read SplitByType relies on), so this never races the lazy encode.
  if (rep_ == nullptr) return nullptr;
  return rep_->payload;
}

std::string EventBatch::Topic() const {
  if (empty()) return std::string();
  return "fsevent." + std::string(lustre::ChangeLogTypeName(rep_->first_type));
}

std::vector<EventBatch> EventBatch::SplitByType() const {
  if (empty()) return {};
  if (rep_->payload != nullptr &&
      !rep_->has_events.load(std::memory_order_acquire)) {
    // Lazy batch: answer homogeneity from the flat type column without
    // materializing anything — the common (single-type) case stays fully
    // zero-copy through the publish path.
    auto view = wire::EventBatchView::Bind(*rep_->payload);
    if (view.ok() && view->Homogeneous()) return {*this};
  }
  const std::vector<FsEvent>& all = events();
  bool homogeneous = true;
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].type != all.front().type) {
      homogeneous = false;
      break;
    }
  }
  if (homogeneous) return {*this};
  // Split into maximal runs of equal type. Grouping ALL same-type events
  // together would reorder interleaved types, breaking the pipeline's
  // per-MDS ordering guarantee for full-stream subscribers; runs keep the
  // total order while every message stays type-homogeneous for topic
  // filtering. Worst case (alternating types) degrades to per-event
  // messages — never worse than unbatched publishing.
  std::vector<EventBatch> out;
  std::vector<FsEvent> run;
  for (const FsEvent& event : all) {
    if (!run.empty() && run.back().type != event.type) {
      out.emplace_back(std::move(run));
      run.clear();
    }
    run.push_back(event);
  }
  out.emplace_back(std::move(run));
  return out;
}

size_t EventBatch::ApproxBytes() const noexcept {
  if (rep_ == nullptr) return sizeof(EventBatch);
  size_t bytes = sizeof(EventBatch) + sizeof(Rep);
  if (rep_->has_events.load(std::memory_order_acquire)) {
    for (const FsEvent& event : rep_->events) bytes += event.ApproxBytes();
  }
  if (rep_->payload != nullptr) bytes += rep_->payload->capacity();
  return bytes;
}

}  // namespace sdci::monitor
