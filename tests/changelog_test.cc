#include "lustre/changelog.h"

#include <gtest/gtest.h>

#include "common/strings.h"

namespace sdci::lustre {
namespace {

ChangeLogRecord MakeRecord(ChangeLogType type, std::string name) {
  ChangeLogRecord record;
  record.type = type;
  record.target = Fid{kFidSeqBase, 2, 0};
  record.parent = Fid::Root();
  record.name = std::move(name);
  return record;
}

TEST(ChangeLogType, NamesAndCodes) {
  EXPECT_EQ(ChangeLogTypeName(ChangeLogType::kCreate), "CREAT");
  EXPECT_EQ(ChangeLogTypeName(ChangeLogType::kUnlink), "UNLNK");
  EXPECT_EQ(ChangeLogTypeCode(ChangeLogType::kCreate), "01CREAT");
  EXPECT_EQ(ChangeLogTypeCode(ChangeLogType::kMkdir), "02MKDIR");
  EXPECT_EQ(ChangeLogTypeCode(ChangeLogType::kAtime), "19ATIME");
}

TEST(ChangeLogType, ParseBothForms) {
  EXPECT_EQ(*ParseChangeLogType("CREAT"), ChangeLogType::kCreate);
  EXPECT_EQ(*ParseChangeLogType("01CREAT"), ChangeLogType::kCreate);
  EXPECT_EQ(*ParseChangeLogType("06UNLNK"), ChangeLogType::kUnlink);
  EXPECT_FALSE(ParseChangeLogType("NOPE").ok());
  EXPECT_FALSE(ParseChangeLogType("").ok());
}

TEST(ChangeLogRecord, RenderMatchesTable1Layout) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kCreate, "data1.txt");
  record.index = 13106;
  record.time = std::chrono::hours(20) + std::chrono::minutes(15) +
                std::chrono::seconds(37) + std::chrono::microseconds(113800);
  record.target = Fid{0x200000402ull, 0xa046, 0};
  EXPECT_EQ(record.Render(),
            "13106 01CREAT 20:15:37.1138 2017.09.06 0x0 "
            "t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt");
}

TEST(ChangeLogRecord, RenderIncludesRenameSource) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kRename, "new.txt");
  record.index = 1;
  record.source_parent = Fid::Root();
  record.source_name = "old.txt";
  EXPECT_NE(record.Render().find("s=[0x200000007:0x1:0x0] sname=old.txt"),
            std::string::npos);
}

TEST(ChangeLogRecord, ParseDumpLineRoundTrip) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kCreate, "data1.txt");
  record.index = 13106;
  record.time = std::chrono::hours(20) + std::chrono::minutes(15) +
                std::chrono::seconds(37) + std::chrono::microseconds(113800);
  record.flags = 0x1;
  auto parsed = ChangeLogRecord::ParseDumpLine(record.Render());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->index, record.index);
  EXPECT_EQ(parsed->type, record.type);
  EXPECT_EQ(parsed->time, record.time);
  EXPECT_EQ(parsed->flags, record.flags);
  EXPECT_EQ(parsed->target, record.target);
  EXPECT_EQ(parsed->parent, record.parent);
  EXPECT_EQ(parsed->name, record.name);
}

TEST(ChangeLogRecord, ParseDumpLineRenameExtension) {
  ChangeLogRecord record = MakeRecord(ChangeLogType::kRename, "new.txt");
  record.index = 7;
  record.source_parent = Fid{kFidSeqBase, 5, 0};
  record.source_name = "old.txt";
  auto parsed = ChangeLogRecord::ParseDumpLine(record.Render());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->source_parent, record.source_parent);
  EXPECT_EQ(parsed->source_name, "old.txt");
  EXPECT_EQ(parsed->name, "new.txt");
}

TEST(ChangeLogRecord, ParseDumpLineFromPaper) {
  auto parsed = ChangeLogRecord::ParseDumpLine(
      "13106 01CREAT 20:15:37.1138 2017.09.06 0x0 "
      "t=[0x200000402:0xa046:0x0] p=[0x200000007:0x1:0x0] data1.txt");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->index, 13106u);
  EXPECT_EQ(parsed->type, ChangeLogType::kCreate);
  EXPECT_EQ(parsed->name, "data1.txt");
}

TEST(ChangeLogRecord, ParseDumpLineRejectsMalformed) {
  const char* cases[] = {
      "",
      "13106 01CREAT",
      "x 01CREAT 20:15:37.1138 2017.09.06 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 99BOGUS 20:15:37.1138 2017.09.06 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 01CREAT 20:77:37.1138 2017.09.06 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 01CREAT 20:15:37.1138 baddate 0x0 t=[0x1:0x1:0x0] p=[0x1:0x1:0x0] n",
      "1 01CREAT 20:15:37.1138 2017.09.06 0x0 t=[bad] p=[0x1:0x1:0x0] n",
  };
  for (const char* line : cases) {
    EXPECT_FALSE(ChangeLogRecord::ParseDumpLine(line).ok()) << line;
  }
}

TEST(ChangeLog, AppendAssignsMonotonicIndices) {
  ChangeLog log(0);
  EXPECT_EQ(log.Append(MakeRecord(ChangeLogType::kCreate, "a")), 1u);
  EXPECT_EQ(log.Append(MakeRecord(ChangeLogType::kCreate, "b")), 2u);
  EXPECT_EQ(log.FirstIndex(), 1u);
  EXPECT_EQ(log.LastIndex(), 2u);
  EXPECT_EQ(log.RetainedCount(), 2u);
  EXPECT_EQ(log.TotalAppended(), 2u);
}

TEST(ChangeLog, ReadFromArbitraryIndex) {
  ChangeLog log(0);
  for (int i = 0; i < 10; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  std::vector<ChangeLogRecord> out;
  EXPECT_EQ(log.ReadFrom(4, 3, out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].index, 4u);
  EXPECT_EQ(out[2].index, 6u);
  out.clear();
  EXPECT_EQ(log.ReadFrom(100, 10, out), 0u);
  // Start below FirstIndex reads from the oldest retained record.
  out.clear();
  EXPECT_EQ(log.ReadFrom(0, 2, out), 2u);
  EXPECT_EQ(out[0].index, 1u);
}

TEST(ChangeLog, ClearReclaimsOnlyWhenAllConsumersAgree) {
  ChangeLog log(0);
  const ConsumerId c1 = log.RegisterConsumer();
  const ConsumerId c2 = log.RegisterConsumer();
  for (int i = 0; i < 10; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));

  ASSERT_TRUE(log.Clear(c1, 7).ok());
  EXPECT_EQ(log.FirstIndex(), 1u) << "c2 has not consumed yet";
  ASSERT_TRUE(log.Clear(c2, 4).ok());
  EXPECT_EQ(log.FirstIndex(), 5u) << "min(7, 4) = 4 reclaimed";
  EXPECT_EQ(log.RetainedCount(), 6u);
  ASSERT_TRUE(log.Clear(c2, 10).ok());
  EXPECT_EQ(log.FirstIndex(), 8u);
}

TEST(ChangeLog, ClearIsMonotonic) {
  ChangeLog log(0);
  const ConsumerId c = log.RegisterConsumer();
  for (int i = 0; i < 5; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  ASSERT_TRUE(log.Clear(c, 4).ok());
  ASSERT_TRUE(log.Clear(c, 2).ok());  // lower clear is a no-op, not a rewind
  EXPECT_EQ(log.FirstIndex(), 5u);
}

TEST(ChangeLog, ClearValidation) {
  ChangeLog log(0);
  const ConsumerId c = log.RegisterConsumer();
  log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  EXPECT_EQ(log.Clear(999, 1).code(), StatusCode::kNotFound);
  EXPECT_EQ(log.Clear(c, 5).code(), StatusCode::kOutOfRange);
}

TEST(ChangeLog, DeregisterReleasesRetention) {
  ChangeLog log(0);
  const ConsumerId c1 = log.RegisterConsumer();
  const ConsumerId c2 = log.RegisterConsumer();
  for (int i = 0; i < 4; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  ASSERT_TRUE(log.Clear(c1, 4).ok());
  EXPECT_EQ(log.RetainedCount(), 4u);
  ASSERT_TRUE(log.DeregisterConsumer(c2).ok());
  EXPECT_EQ(log.RetainedCount(), 0u);
  EXPECT_EQ(log.DeregisterConsumer(c2).code(), StatusCode::kNotFound);
}

TEST(ChangeLog, LateConsumerOnlyOwedNewRecords) {
  ChangeLog log(0);
  const ConsumerId c1 = log.RegisterConsumer();
  log.Append(MakeRecord(ChangeLogType::kCreate, "a"));
  log.Append(MakeRecord(ChangeLogType::kCreate, "b"));
  ASSERT_TRUE(log.Clear(c1, 2).ok());
  EXPECT_EQ(log.RetainedCount(), 0u);
  const ConsumerId c2 = log.RegisterConsumer();
  log.Append(MakeRecord(ChangeLogType::kCreate, "c"));
  ASSERT_TRUE(log.Clear(c1, 3).ok());
  EXPECT_EQ(log.RetainedCount(), 1u) << "c2 still owed record 3";
  ASSERT_TRUE(log.Clear(c2, 3).ok());
  EXPECT_EQ(log.RetainedCount(), 0u);
}

TEST(ChangeLog, NoConsumersMeansRetention) {
  ChangeLog log(0);
  for (int i = 0; i < 3; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "f"));
  EXPECT_EQ(log.RetainedCount(), 3u);
}

TEST(ChangeLog, DumpRestoreRoundTrip) {
  ChangeLog original(0);
  for (int i = 0; i < 5; ++i) {
    original.Append(MakeRecord(ChangeLogType::kCreate, strings::Format("f{}", i)));
  }
  // Reclaim a prefix so the dump starts above index 1.
  const ConsumerId c = original.RegisterConsumer();
  ASSERT_TRUE(original.Clear(c, 2).ok());

  ChangeLog restored(0);
  ASSERT_TRUE(restored.RestoreFromDump(original.SerializeDump()).ok());
  EXPECT_EQ(restored.FirstIndex(), 3u);
  EXPECT_EQ(restored.LastIndex(), 5u);
  EXPECT_EQ(restored.RetainedCount(), 3u);
  std::vector<ChangeLogRecord> records;
  restored.ReadFrom(3, 10, records);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].name, "f2");
  // New appends continue the sequence.
  EXPECT_EQ(restored.Append(MakeRecord(ChangeLogType::kCreate, "new")), 6u);
}

TEST(ChangeLog, RestoreValidation) {
  ChangeLog nonempty(0);
  nonempty.Append(MakeRecord(ChangeLogType::kCreate, "x"));
  EXPECT_EQ(nonempty.RestoreFromDump("").code(), StatusCode::kFailedPrecondition);

  ChangeLog empty(0);
  EXPECT_TRUE(empty.RestoreFromDump("\n\n").ok()) << "blank dump is fine";
  ChangeLog gaps(0);
  ChangeLogRecord a = MakeRecord(ChangeLogType::kCreate, "a");
  a.index = 1;
  ChangeLogRecord b = MakeRecord(ChangeLogType::kCreate, "b");
  b.index = 5;  // gap
  EXPECT_EQ(gaps.RestoreFromDump(a.Render() + "\n" + b.Render() + "\n").code(),
            StatusCode::kInvalidArgument);
  ChangeLog garbage(0);
  EXPECT_FALSE(garbage.RestoreFromDump("not a record\n").ok());
}

TEST(ChangeLog, MemoryAccountingFollowsRetention) {
  ChangeLog log(0);
  const ConsumerId c = log.RegisterConsumer();
  for (int i = 0; i < 100; ++i) log.Append(MakeRecord(ChangeLogType::kCreate, "file"));
  const uint64_t full = log.memory().CurrentBytes();
  EXPECT_GT(full, 0u);
  ASSERT_TRUE(log.Clear(c, 100).ok());
  EXPECT_EQ(log.memory().CurrentBytes(), 0u);
  EXPECT_EQ(log.memory().PeakBytes(), full);
}

}  // namespace
}  // namespace sdci::lustre
