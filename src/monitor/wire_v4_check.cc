// Wire-format layout pinning, after Lustre's wirecheck.c: every field
// offset and struct size of the cast-in-place v4 layout is asserted at
// compile time. Reordering a member, changing a type width, or letting
// padding sneak in breaks this translation unit — the build fails instead
// of the fleet silently disagreeing about where global_seq lives.
//
// If an assert here fires because you changed the layout ON PURPOSE, you
// are defining wire format v5: bump the version, keep the v4 structs (and
// these asserts) intact for decode compatibility, and add a new check TU.
#include <cstddef>

#include "monitor/wire_v4.h"

namespace sdci::monitor::wire {

// --- BatchHeaderV4: 32 bytes, no padding ---------------------------------
static_assert(sizeof(BatchHeaderV4) == 32);
static_assert(offsetof(BatchHeaderV4, version) == 0);
static_assert(offsetof(BatchHeaderV4, header_size) == 2);
static_assert(offsetof(BatchHeaderV4, count) == 4);
static_assert(offsetof(BatchHeaderV4, events_off) == 8);
static_assert(offsetof(BatchHeaderV4, offsets_off) == 12);
static_assert(offsetof(BatchHeaderV4, strings_off) == 16);
static_assert(offsetof(BatchHeaderV4, total_size) == 20);
static_assert(offsetof(BatchHeaderV4, flags) == 24);
static_assert(offsetof(BatchHeaderV4, magic) == 28);

// --- EventRecordV4: 104 bytes, no padding --------------------------------
static_assert(sizeof(EventRecordV4) == 104);
static_assert(offsetof(EventRecordV4, record_index) == 0);
static_assert(offsetof(EventRecordV4, global_seq) == 8);
static_assert(offsetof(EventRecordV4, time_ns) == 16);
static_assert(offsetof(EventRecordV4, target_seq) == 24);
static_assert(offsetof(EventRecordV4, parent_seq) == 32);
static_assert(offsetof(EventRecordV4, trace_id) == 40);
static_assert(offsetof(EventRecordV4, parent_span) == 48);
static_assert(offsetof(EventRecordV4, hlc_wall_ns) == 56);
static_assert(offsetof(EventRecordV4, mdt_index) == 64);
static_assert(offsetof(EventRecordV4, flags) == 68);
static_assert(offsetof(EventRecordV4, target_oid) == 72);
static_assert(offsetof(EventRecordV4, target_ver) == 76);
static_assert(offsetof(EventRecordV4, parent_oid) == 80);
static_assert(offsetof(EventRecordV4, parent_ver) == 84);
static_assert(offsetof(EventRecordV4, hlc_logical) == 88);
static_assert(offsetof(EventRecordV4, hlc_origin) == 92);
static_assert(offsetof(EventRecordV4, type) == 96);
static_assert(offsetof(EventRecordV4, reserved) == 100);

// --- Derived section geometry --------------------------------------------
static_assert(kHeaderSize == 32);
static_assert(kEventStride == 104);
// An empty batch is exactly header + the single terminating offset.
static_assert(kHeaderSize + 4 == 36);

// The patch targets the ingest thread writes through MutableBatchV4 must
// be naturally sized (one store each).
static_assert(sizeof(BatchHeaderV4{}.count) == 4);
static_assert(sizeof(EventRecordV4{}.global_seq) == 8);
static_assert(sizeof(EventRecordV4{}.parent_span) == 8);
static_assert(sizeof(EventRecordV4{}.hlc_wall_ns) == 8);
static_assert(sizeof(EventRecordV4{}.hlc_logical) == 4);
static_assert(sizeof(EventRecordV4{}.hlc_origin) == 4);

}  // namespace sdci::monitor::wire
