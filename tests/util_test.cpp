// Unit tests for src/util: SimTime, CSV writer, validation helper,
// checked integer conversion.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>

#include "util/csv.h"
#include "util/checked_integer.h"
#include "util/sim_time.h"
#include "util/validation.h"

namespace mvsim {
namespace {

TEST(SimTime, UnitConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(SimTime::minutes(90.0).to_hours(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::hours(2.0).to_minutes(), 120.0);
  EXPECT_DOUBLE_EQ(SimTime::days(1.0).to_hours(), 24.0);
  EXPECT_DOUBLE_EQ(SimTime::seconds(90.0).to_minutes(), 1.5);
  EXPECT_DOUBLE_EQ(SimTime::hours(36.0).to_days(), 1.5);
}

TEST(SimTime, DefaultIsZero) {
  SimTime t;
  EXPECT_EQ(t, SimTime::zero());
  EXPECT_DOUBLE_EQ(t.to_minutes(), 0.0);
}

TEST(SimTime, ArithmeticBehavesLikeDurations) {
  SimTime t = SimTime::hours(1.0) + SimTime::minutes(30.0);
  EXPECT_DOUBLE_EQ(t.to_minutes(), 90.0);
  t -= SimTime::minutes(60.0);
  EXPECT_DOUBLE_EQ(t.to_minutes(), 30.0);
  EXPECT_DOUBLE_EQ((t * 4.0).to_hours(), 2.0);
  EXPECT_DOUBLE_EQ((2.0 * t).to_minutes(), 60.0);
  EXPECT_DOUBLE_EQ((SimTime::hours(1.0) / 2.0).to_minutes(), 30.0);
  EXPECT_DOUBLE_EQ(SimTime::hours(2.0) / SimTime::minutes(30.0), 4.0);
}

TEST(SimTime, ComparisonIsTotalOrder) {
  EXPECT_LT(SimTime::minutes(59.0), SimTime::hours(1.0));
  EXPECT_GT(SimTime::days(1.0), SimTime::hours(23.0));
  EXPECT_EQ(SimTime::hours(24.0), SimTime::days(1.0));
  EXPECT_LE(SimTime::zero(), SimTime::zero());
}

TEST(SimTime, InfinityPredicates) {
  EXPECT_FALSE(SimTime::infinity().is_finite());
  EXPECT_TRUE(SimTime::infinity().is_nonnegative());
  EXPECT_TRUE(SimTime::hours(1.0).is_finite());
  EXPECT_FALSE((SimTime::zero() - SimTime::hours(1.0)).is_nonnegative());
  EXPECT_LT(SimTime::days(10000.0), SimTime::infinity());
}

TEST(SimTime, MinMaxHelpers) {
  EXPECT_EQ(min(SimTime::hours(1.0), SimTime::minutes(30.0)), SimTime::minutes(30.0));
  EXPECT_EQ(max(SimTime::hours(1.0), SimTime::minutes(30.0)), SimTime::hours(1.0));
}

TEST(SimTime, ToStringPicksNaturalUnit) {
  EXPECT_EQ(SimTime::minutes(30.0).to_string(), "30.00 min");
  EXPECT_EQ(SimTime::hours(2.0).to_string(), "2.00 h");
  EXPECT_EQ(SimTime::days(3.0).to_string(), "3.00 d");
  EXPECT_EQ(SimTime::infinity().to_string(), "+inf");
}

TEST(SimTime, TestFailuresPrintTheNaturalUnit) {
  EXPECT_EQ(::testing::PrintToString(SimTime::hours(28.0)), "1.17 d");
}

TEST(CsvWriter, WritesHeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"hours", "count"});
  csv.row(1.5, 12);
  csv.row(2.0, 13);
  EXPECT_EQ(out.str(), "hours,count\n1.5,12\n2,13\n");
  EXPECT_EQ(csv.rows_written(), 2);
}

TEST(CsvWriter, QuotesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::quote("plain"), "plain");
  EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::quote("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvWriter, MixedFieldTypes) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("label", 3.25, 7, std::size_t{9});
  EXPECT_EQ(out.str(), "label,3.25,7,9\n");
}

TEST(ValidationErrors, CollectsAllProblems) {
  ValidationErrors errors("Widget");
  EXPECT_TRUE(errors.ok());
  EXPECT_FALSE(errors.require(false, "first"));
  EXPECT_TRUE(errors.require(true, "not recorded"));
  errors.add("second");
  EXPECT_FALSE(errors.ok());
  ASSERT_EQ(errors.problems().size(), 2u);
  EXPECT_EQ(errors.problems()[0], "Widget: first");
  EXPECT_EQ(errors.to_string(), "Widget: first; Widget: second");
}

TEST(ValidationErrors, ThrowIfInvalid) {
  ValidationErrors ok_errors("A");
  EXPECT_NO_THROW(ok_errors.throw_if_invalid());
  ValidationErrors bad("B");
  bad.add("boom");
  EXPECT_THROW(bad.throw_if_invalid(), std::invalid_argument);
}

TEST(ValidationErrors, MergeCombinesContexts) {
  ValidationErrors outer("Outer");
  ValidationErrors inner("Inner");
  inner.add("bad field");
  outer.merge(inner);
  ASSERT_EQ(outer.problems().size(), 1u);
  EXPECT_EQ(outer.problems()[0], "Inner: bad field");
}

TEST(CheckedInteger, AcceptsExactlyTheIntegersInRange) {
  EXPECT_EQ(util::checked_integer<int>(-7.0), -7);
  EXPECT_EQ(util::checked_integer<int>(2147483647.0), 2147483647);
  EXPECT_FALSE(util::checked_integer<int>(2147483648.0));
  EXPECT_EQ(util::checked_integer<int>(-2147483648.0), std::numeric_limits<int>::min());
  EXPECT_FALSE(util::checked_integer<int>(-2147483649.0));
  EXPECT_EQ(util::checked_integer<std::uint32_t>(4294967295.0), 4294967295u);
  EXPECT_FALSE(util::checked_integer<std::uint32_t>(4294967296.0));
  EXPECT_FALSE(util::checked_integer<std::uint32_t>(-1.0));
  // Above 2^53 every double is an integer; all below 2^64 are kept.
  const std::uint64_t big = (std::uint64_t{1} << 63) + 4096;
  EXPECT_EQ(util::checked_integer<std::uint64_t>(static_cast<double>(big)), big);
  EXPECT_FALSE(util::checked_integer<std::uint64_t>(18446744073709551616.0));
  EXPECT_FALSE(util::checked_integer<std::uint64_t>(-5.0));
  EXPECT_FALSE(util::checked_integer<std::uint64_t>(1e300));
  EXPECT_FALSE(util::checked_integer<int>(2.5));
  EXPECT_FALSE(util::checked_integer<int>(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(util::checked_integer<int>(std::numeric_limits<double>::infinity()));
}

}  // namespace
}  // namespace mvsim
