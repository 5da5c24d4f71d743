// Unit tests for common/: Status, Value semantics, dates, string helpers,
// CRC-32.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/crc32.h"
#include "common/date.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"

namespace sumtab {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table 'x'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: table 'x'");
}

TEST(StatusTest, StatusOrValuePath) {
  StatusOr<int> ok(7);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 7);
  StatusOr<int> err(Status::Internal("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), Status::Code::kInternal);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

StatusOr<int> Quarter(int x) {
  SUMTAB_ASSIGN_OR_RETURN(int h, Half(x));
  SUMTAB_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(StatusTest, AssignOrReturnMacro) {
  StatusOr<int> q = Quarter(12);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(*q, 3);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

TEST(DateTest, PackAndExtract) {
  int32_t d = MakeDate(1998, 3, 17);
  EXPECT_EQ(d, 19980317);
  EXPECT_EQ(DateYear(d), 1998);
  EXPECT_EQ(DateMonth(d), 3);
  EXPECT_EQ(DateDay(d), 17);
}

TEST(DateTest, ParseRoundTrip) {
  auto d = ParseDate("1998-03-17");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 19980317);
  EXPECT_EQ(FormatDate(*d), "1998-03-17");
}

TEST(DateTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDate("1998/03/17").ok());
  EXPECT_FALSE(ParseDate("98-03-17").ok());
  EXPECT_FALSE(ParseDate("1998-13-17").ok());
  EXPECT_FALSE(ParseDate("1998-00-17").ok());
  EXPECT_FALSE(ParseDate("1998-03-32").ok());
  EXPECT_FALSE(ParseDate("").ok());
}

TEST(DateTest, DateOrderingIsChronological) {
  EXPECT_LT(MakeDate(1997, 12, 31), MakeDate(1998, 1, 1));
  EXPECT_LT(MakeDate(1998, 1, 31), MakeDate(1998, 2, 1));
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value::Date(19990101).AsDate(), 19990101);
  EXPECT_TRUE(Value::Bool(true).AsBool());
}

TEST(ValueTest, NumericCrossKindEquality) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
  EXPECT_NE(Value::Int(3), Value::String("3"));
  // Group-key semantics: NULL == NULL here.
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int(0));
}

TEST(ValueTest, OrderingNullsFirst) {
  EXPECT_LT(Value::Null(), Value::Int(-100));
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Double(1.5), Value::Int(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_FALSE(Value::Null() < Value::Null());
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::String("abc").ToString(), "abc");
  EXPECT_EQ(Value::Date(19980317).ToString(), "1998-03-17");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

TEST(StrUtilTest, ToLowerAndEquals) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(EqualsIgnoreCase("Trans", "TRANS"));
  EXPECT_FALSE(EqualsIgnoreCase("Trans", "Trans2"));
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, " | "), "a | b | c");
}

/// The plain bytewise CRC-32 (reflected 0xEDB88320), bit by bit: the
/// reference the table-driven Crc32 must reproduce.
uint32_t BitwiseCrc32(const unsigned char* data, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0u);
    }
  }
  return ~crc;
}

TEST(Crc32Test, CheckValue) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937 gen(27);
  std::vector<unsigned char> buf(64 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(gen());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(Crc32(p, len), BitwiseCrc32(p, len, 0))
          << "offset " << offset << " len " << len;
      // Seeded continuation: two ranges checksum as one stream.
      const size_t cut = len / 3;
      ASSERT_EQ(Crc32(p + cut, len - cut, Crc32(p, cut)),
                BitwiseCrc32(p, len, 0))
          << "offset " << offset << " len " << len << " cut " << cut;
    }
  }
}

}  // namespace
}  // namespace sumtab
