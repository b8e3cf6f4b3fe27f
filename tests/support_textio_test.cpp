// The txt::Reader token grammar (support/textio.hpp): what the in-memory
// cursor accepts, what it rejects, the error messages it raises, and
// bit-exact round trips of boundary values through the text writers.
//
// Inputs are copied into exact-size heap buffers (`Text`), so a read past
// the end of a document is a heap overflow that AddressSanitizer reports.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/textio.hpp"

namespace hcp::support::txt {
namespace {

/// An exact-size heap copy of `s` (no terminator, no spare capacity).
class Text {
 public:
  explicit Text(std::string_view s) : bytes_(s.begin(), s.end()) {}
  std::string_view view() const { return {bytes_.data(), bytes_.size()}; }

 private:
  std::vector<char> bytes_;
};

template <typename T>
T readOne(std::string_view s) {
  const Text text(s);
  Reader in(text.view());
  const T v = in.template read<T>("value");
  in.expectEnd("value");
  return v;
}

template <typename T>
void expectRejected(std::string_view s) {
  SCOPED_TRACE(std::string(s));
  EXPECT_THROW(readOne<T>(s), hcp::Error);
}

/// The message part of the hcp::Error `parse` throws on `s` (the text after
/// HCP_CHECK_MSG's "expression at file:line — " prefix).
std::string errorOf(std::string_view s, void (*parse)(Reader&)) {
  const Text text(s);
  Reader in(text.view());
  try {
    parse(in);
  } catch (const hcp::Error& e) {
    const std::string what = e.what();
    const std::string sep = " \u2014 ";
    const std::size_t at = what.find(sep);
    return at == std::string::npos ? what : what.substr(at + sep.size());
  }
  return "(no error)";
}

TEST(TextReader, AcceptsPlainDecimalTokens) {
  EXPECT_EQ(readOne<int>("-17"), -17);
  EXPECT_EQ(readOne<unsigned>("007"), 7u);
  EXPECT_EQ(readOne<std::uint16_t>("65535"), 65535u);
  EXPECT_EQ(readOne<std::int32_t>("-2147483648"),
            std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(readOne<double>("1.5"), 1.5);
  EXPECT_EQ(readOne<double>("-2.5e-3"), -2.5e-3);
  EXPECT_EQ(readOne<double>("3"), 3.0);
  EXPECT_EQ(readOne<std::string>("word"), "word");
}

TEST(TextReader, RejectsSignsTheTypeCannotHold) {
  expectRejected<int>("+1");
  expectRejected<unsigned>("+1");
  expectRejected<double>("+1.5");
  expectRejected<unsigned>("-1");
  expectRejected<std::size_t>("-1");
  expectRejected<std::uint16_t>("-1");
  expectRejected<std::uint64_t>("-0");
}

TEST(TextReader, RejectsOutOfRangeValues) {
  expectRejected<std::uint16_t>("70000");
  expectRejected<std::uint32_t>("4294967296");
  expectRejected<std::uint64_t>("18446744073709551616");
  expectRejected<std::int32_t>("2147483648");
  expectRejected<double>("1e400");
  expectRejected<double>("-1e400");
  expectRejected<double>("1e-400");  // underflows to zero
}

TEST(TextReader, RejectsTokensThatAreNotWhollyANumber) {
  for (const char* bad : {"1x", "0x10", "1.5", "1e5", "", " ", "x", "-"})
    expectRejected<unsigned>(bad);
  for (const char* bad :
       {"1x", "0x10", "0x1p3", "inf", "-inf", "infinity", "nan", "-nan",
        "nan(1)", "1e", "1e+", ".", "", "\n", "e5"})
    expectRejected<double>(bad);
}

TEST(TextReader, ReadsBoolsAsExactlyZeroOrOne) {
  const auto readBool = [](std::string_view s) {
    const Text text(s);
    Reader in(text.view());
    return in.readBool("flag");
  };
  EXPECT_FALSE(readBool("0"));
  EXPECT_TRUE(readBool("1"));
  EXPECT_THROW(readBool("2"), hcp::Error);
  EXPECT_THROW(readBool("-1"), hcp::Error);
  EXPECT_THROW(readBool("true"), hcp::Error);
  EXPECT_THROW(readBool(""), hcp::Error);
}

TEST(TextReader, SkipsEveryAsciiWhitespaceBetweenTokens) {
  const Text text(" \t\n\v\f\r12\n\t-3 \r\n4.25 word \n");
  Reader in(text.view());
  EXPECT_EQ(in.read<unsigned>("a"), 12u);
  EXPECT_EQ(in.read<int>("b"), -3);
  EXPECT_EQ(in.read<double>("c"), 4.25);
  in.expect("word");
  EXPECT_NO_THROW(in.expectEnd("doc"));
}

TEST(TextReader, ExpectMatchesWholeTokensOnly) {
  const Text text("foobar foo");
  Reader in(text.view());
  EXPECT_THROW(in.expect("foo"), hcp::Error);
  Reader again(text.view());
  again.expect("foobar");
  again.expect("foo");
  EXPECT_THROW(again.expect("foo"), hcp::Error);  // end of input
}

TEST(TextReader, ReadStrConsumesExactlyOneSeparator) {
  const auto readStr = [](std::string_view s) {
    const Text text(s);
    Reader in(text.view());
    std::string out = in.readStr("name");
    in.expectEnd("name");
    return out;
  };
  EXPECT_EQ(readStr("5 hello"), "hello");
  EXPECT_EQ(readStr("3  ab"), " ab");       // the second space is payload
  EXPECT_EQ(readStr("5 a b\nc"), "a b\nc");  // raw bytes, any content
  EXPECT_EQ(readStr("0 "), "");
  EXPECT_EQ(readStr("\n 2 xy"), "xy");  // whitespace before the size is fine
  EXPECT_THROW(readStr("3\nabc"), hcp::Error);  // separator must be ' '
  EXPECT_THROW(readStr("3abc"), hcp::Error);
  EXPECT_THROW(readStr("3"), hcp::Error);
  EXPECT_THROW(readStr("0"), hcp::Error);
  EXPECT_THROW(readStr("4 abc"), hcp::Error);  // ends early
  EXPECT_THROW(readStr("-1 abc"), hcp::Error);
  EXPECT_THROW(readStr("+3 abc"), hcp::Error);
  EXPECT_THROW(readStr(""), hcp::Error);
}

TEST(TextReader, ReadVecAndCountsRejectInputThatEndsEarly) {
  const Text full("3 1 2 3");
  Reader in(full.view());
  EXPECT_EQ(in.readVec<int>("v"), (std::vector<int>{1, 2, 3}));
  in.expectEnd("v");

  for (const char* bad : {"3 1 2", "3 1 2 ", "2 1 x", "1", "1 "}) {
    SCOPED_TRACE(bad);
    const Text text(bad);
    Reader r(text.view());
    EXPECT_THROW(r.readVec<int>("v"), hcp::Error);
  }
  // A count larger than the rest of the text could hold is rejected
  // before anything is reserved for it.
  const Text huge("18446744073709551615 1");
  Reader r(huge.view());
  EXPECT_THROW(r.readVec<double>("v"), hcp::Error);
  const Text exact("2 1 2");
  Reader c(exact.view());
  EXPECT_EQ(c.readCount("n"), 2u);
  const Text over("3 1 2");
  Reader d(over.view());
  EXPECT_THROW(d.readCount("n"), hcp::Error);
}

TEST(TextReader, ExpectEndRejectsTrailingBytes) {
  const Text text("1 \n\t ");
  Reader in(text.view());
  in.read<int>("x");
  EXPECT_NO_THROW(in.expectEnd("doc"));

  using namespace std::string_view_literals;
  for (const std::string_view bad :
       {"1 x"sv, "1 2"sv, "1\n\0"sv, "1 end"sv}) {
    SCOPED_TRACE(std::string(bad));
    const Text t(bad);
    Reader r(t.view());
    r.read<int>("x");
    EXPECT_THROW(r.expectEnd("doc"), hcp::Error);
  }
}

TEST(TextReader, ErrorMessagesNameTheFieldAndToken) {
  EXPECT_EQ(errorOf("bar", [](Reader& in) { in.expect("foo"); }),
            "serialized document: expected 'foo', got 'bar'");
  EXPECT_EQ(errorOf("", [](Reader& in) { in.expect("foo"); }),
            "serialized document: expected 'foo', got ''");
  EXPECT_EQ(errorOf("1x", [](Reader& in) { in.read<int>("op count"); }),
            "serialized document: truncated while reading op count");
  EXPECT_EQ(errorOf("2", [](Reader& in) { in.readBool("alive"); }),
            "alive: bool must be 0 or 1, got 2");
  EXPECT_EQ(errorOf("3abc", [](Reader& in) { in.readStr("name"); }),
            "name: malformed string (missing separator)");
  EXPECT_EQ(errorOf("9 abc", [](Reader& in) { in.readStr("name"); }),
            "name: truncated string (wanted 9 bytes)");
  EXPECT_EQ(errorOf("end junk", [](Reader& in) {
              in.expect("end");
              in.expectEnd("flow result");
            }),
            "flow result: trailing garbage 'junk' after document");
}

TEST(TextReader, NeverReadsPastTheView) {
  // The view ends mid-number; the digits after it belong to the caller.
  const std::string backing = "12345 6";
  Reader in(std::string_view(backing).substr(0, 2));
  EXPECT_EQ(in.read<int>("x"), 12);
  EXPECT_NO_THROW(in.expectEnd("doc"));

  const Text digits("987");
  Reader whole(digits.view());
  EXPECT_EQ(whole.read<unsigned>("x"), 987u);
  EXPECT_EQ(whole.remaining(), 0u);
  EXPECT_THROW(whole.read<unsigned>("y"), hcp::Error);
}

/// Writes `v` the way every serializer does and reads it back.
template <typename T>
T roundTrip(T v) {
  std::ostringstream os;
  preparePrecision(os);
  os << v << '\n';
  return readOne<T>(os.str());
}

std::uint64_t bitsOf(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(TextReader, BoundaryValuesRoundTripBitExactly) {
  for (const double v :
       {-0.0, 0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(), DBL_MAX, -DBL_MAX,
        DBL_MIN, DBL_EPSILON, 0.1, 1.0 / 3.0, 123456789.123456789}) {
    SCOPED_TRACE(v);
    EXPECT_EQ(bitsOf(roundTrip(v)), bitsOf(v));
  }
  EXPECT_TRUE(std::signbit(roundTrip(-0.0)));
  EXPECT_EQ(roundTrip(std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(roundTrip<std::uint32_t>(4294967295u), 4294967295u);
  EXPECT_EQ(roundTrip(std::numeric_limits<std::int64_t>::min()),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(roundTrip<std::uint16_t>(65535), 65535u);
}

TEST(TextReader, WriterHelpersRoundTrip) {
  std::ostringstream os;
  preparePrecision(os);
  writeStr(os, "a b\n c");
  os << ' ';
  writeBool(os, true);
  os << ' ';
  writeVec(os, std::vector<double>{-0.0, 2.5, DBL_MAX});
  os << ' ';
  writeVec(os, std::vector<std::uint32_t>{});
  const std::string doc = os.str();
  const Text text(doc);
  Reader in(text.view());
  EXPECT_EQ(in.readStr("s"), "a b\n c");
  EXPECT_TRUE(in.readBool("b"));
  const std::vector<double> v = in.readVec<double>("v");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(bitsOf(v[0]), bitsOf(-0.0));
  EXPECT_EQ(v[2], DBL_MAX);
  EXPECT_TRUE(in.readVec<std::uint32_t>("empty").empty());
  EXPECT_NO_THROW(in.expectEnd("doc"));
}

}  // namespace
}  // namespace hcp::support::txt
