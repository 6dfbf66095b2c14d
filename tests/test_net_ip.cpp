#include "behaviot/net/ip.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <set>

namespace behaviot {
namespace {

TEST(Ipv4Addr, ConstructFromOctets) {
  const Ipv4Addr a(192, 168, 1, 10);
  EXPECT_EQ(a.value(), 0xc0a8010au);
  EXPECT_EQ(a.to_string(), "192.168.1.10");
}

TEST(Ipv4Addr, ParseValid) {
  const auto a = Ipv4Addr::parse("10.0.0.1");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "10.0.0.1");
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xffffffffu);
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
}

// Each parameter struct gets a PrintTo so that gtest (and the CTest names
// gtest_discover_tests derives from it) shows the case itself rather than the
// struct's raw bytes, which hold a string pointer and padding and so change
// from one run to the next.
struct BadAddr {
  const char* text;
};
void PrintTo(const BadAddr& c, std::ostream* os) {
  *os << '"' << c.text << '"';
}
class ParseRejects : public ::testing::TestWithParam<BadAddr> {};

TEST_P(ParseRejects, MalformedInput) {
  EXPECT_FALSE(Ipv4Addr::parse(GetParam().text).has_value());
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParseRejects,
    ::testing::Values(BadAddr{""}, BadAddr{"1.2.3"}, BadAddr{"1.2.3.4.5"},
                      BadAddr{"256.1.1.1"}, BadAddr{"a.b.c.d"},
                      BadAddr{"1..2.3"}, BadAddr{"1.2.3.4x"},
                      BadAddr{" 1.2.3.4"}));

struct PrivateCase {
  const char* text;
  bool is_private;
};
void PrintTo(const PrivateCase& c, std::ostream* os) {
  *os << c.text << (c.is_private ? " is private" : " is public");
}
class PrivateRanges : public ::testing::TestWithParam<PrivateCase> {};

TEST_P(PrivateRanges, Classification) {
  const auto a = Ipv4Addr::parse(GetParam().text);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->is_private(), GetParam().is_private) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Rfc1918AndFriends, PrivateRanges,
    ::testing::Values(PrivateCase{"10.1.2.3", true},
                      PrivateCase{"172.16.0.1", true},
                      PrivateCase{"172.31.255.255", true},
                      PrivateCase{"172.32.0.1", false},
                      PrivateCase{"172.15.0.1", false},
                      PrivateCase{"192.168.0.1", true},
                      PrivateCase{"192.169.0.1", false},
                      PrivateCase{"127.0.0.1", true},
                      PrivateCase{"169.254.10.10", true},
                      PrivateCase{"8.8.8.8", false},
                      PrivateCase{"54.12.34.56", false}));

TEST(FiveTuple, OrderingAndEquality) {
  const FiveTuple a{{Ipv4Addr(192, 168, 1, 2), 1000},
                    {Ipv4Addr(54, 1, 2, 3), 443},
                    Transport::kTcp};
  FiveTuple b = a;
  EXPECT_EQ(a, b);
  b.src.port = 1001;
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
}

TEST(FiveTupleHash, DisperesesDistinctTuples) {
  FiveTupleHash h;
  std::set<std::size_t> hashes;
  for (std::uint16_t port = 1000; port < 1200; ++port) {
    FiveTuple t{{Ipv4Addr(192, 168, 1, 2), port},
                {Ipv4Addr(54, 1, 2, 3), 443},
                Transport::kTcp};
    hashes.insert(h(t));
  }
  // No collisions expected over 200 sequential ports with FNV-1a.
  EXPECT_EQ(hashes.size(), 200u);
}

struct ProtoCase {
  Transport t;
  std::uint16_t port;
  AppProtocol expected;
};
void PrintTo(const ProtoCase& c, std::ostream* os) {
  *os << to_string(c.t) << ':' << c.port << " -> " << to_string(c.expected);
}
class AppProtocolCases : public ::testing::TestWithParam<ProtoCase> {};

TEST_P(AppProtocolCases, Classification) {
  EXPECT_EQ(classify_app_protocol(GetParam().t, GetParam().port),
            GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    WellKnownPorts, AppProtocolCases,
    ::testing::Values(
        ProtoCase{Transport::kUdp, 53, AppProtocol::kDns},
        ProtoCase{Transport::kTcp, 53, AppProtocol::kDns},
        ProtoCase{Transport::kUdp, 123, AppProtocol::kNtp},
        ProtoCase{Transport::kTcp, 443, AppProtocol::kTls},
        ProtoCase{Transport::kTcp, 80, AppProtocol::kHttp},
        ProtoCase{Transport::kTcp, 8080, AppProtocol::kHttp},
        ProtoCase{Transport::kTcp, 8883, AppProtocol::kOtherTcp},
        ProtoCase{Transport::kUdp, 10101, AppProtocol::kOtherUdp}));

TEST(ToStringHelpers, Names) {
  EXPECT_STREQ(to_string(Transport::kTcp), "TCP");
  EXPECT_STREQ(to_string(Transport::kUdp), "UDP");
  EXPECT_STREQ(to_string(AppProtocol::kDns), "DNS");
  EXPECT_STREQ(to_string(AppProtocol::kNtp), "NTP");
  EXPECT_STREQ(to_string(AppProtocol::kTls), "TLS");
}

TEST(Endpoint, ToString) {
  const Endpoint e{Ipv4Addr(1, 2, 3, 4), 80};
  EXPECT_EQ(e.to_string(), "1.2.3.4:80");
}

}  // namespace
}  // namespace behaviot
