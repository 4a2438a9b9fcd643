// Bencode codec tests: round trips, canonical-form enforcement, and the
// malformed inputs a crawler must survive.
#include "bencode/bencode.hpp"
#include "bencode_tree.hpp"

#include <gtest/gtest.h>

namespace btpub::bencode {
namespace {

TEST(Encode, Integers) {
  EXPECT_EQ(encode(Value(std::int64_t{0})), "i0e");
  EXPECT_EQ(encode(Value(std::int64_t{42})), "i42e");
  EXPECT_EQ(encode(Value(std::int64_t{-7})), "i-7e");
}

TEST(Encode, Strings) {
  EXPECT_EQ(encode(Value("spam")), "4:spam");
  EXPECT_EQ(encode(Value("")), "0:");
  std::string binary = "a";
  binary.push_back('\0');
  binary += "b";
  EXPECT_EQ(encode(Value(binary)), std::string("3:a\0b", 5));
}

TEST(Encode, ListsAndDicts) {
  List list;
  list.emplace_back(std::int64_t{1});
  list.emplace_back("two");
  EXPECT_EQ(encode(Value(std::move(list))), "li1e3:twoe");

  Dict dict;
  dict.emplace("b", std::int64_t{2});
  dict.emplace("a", std::int64_t{1});
  // Keys serialise in sorted order regardless of insertion order.
  EXPECT_EQ(encode(Value(std::move(dict))), "d1:ai1e1:bi2ee");
}

TEST(Decode, RoundTripNested) {
  Dict info;
  info.emplace("name", "file.avi");
  info.emplace("piece length", std::int64_t{262144});
  List files;
  Dict f1;
  f1.emplace("length", std::int64_t{1234});
  files.emplace_back(std::move(f1));
  info.emplace("files", std::move(files));
  const Value original{std::move(info)};
  const Value decoded = decode(encode(original));
  EXPECT_EQ(decoded, original);
  EXPECT_EQ(decoded.at("name").as_string(), "file.avi");
  EXPECT_EQ(decoded.at("piece length").as_integer(), 262144);
}

class RoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTrip, DecodeEncodeIsIdentity) {
  const std::string text = GetParam();
  EXPECT_EQ(encode(decode(text)), text);
}

INSTANTIATE_TEST_SUITE_P(CanonicalForms, RoundTrip,
                         ::testing::Values("i0e", "i-42e", "0:", "4:spam", "le",
                                           "de", "li1ei2ee", "d1:a0:e",
                                           "d4:infod4:name3:abcee",
                                           "ld1:xi1eeli9eee"));

TEST(Decode, RejectsTrailingGarbage) {
  EXPECT_THROW(decode("i1e i2e"), Error);
  EXPECT_THROW(decode("4:spamX"), Error);
}

TEST(Decode, RejectsTruncation) {
  EXPECT_THROW(decode("i42"), Error);
  EXPECT_THROW(decode("7:spam"), Error);
  EXPECT_THROW(decode("li1e"), Error);
  EXPECT_THROW(decode("d1:a"), Error);
  EXPECT_THROW(decode(""), Error);
}

TEST(Decode, RejectsNonCanonicalIntegers) {
  EXPECT_THROW(decode("i-0e"), Error);
  EXPECT_THROW(decode("i007e"), Error);
  EXPECT_THROW(decode("i-01e"), Error);
  EXPECT_THROW(decode("ie"), Error);
  EXPECT_THROW(decode("i-e"), Error);
  EXPECT_THROW(decode("i1.5e"), Error);
}

TEST(Decode, RejectsUnsortedOrDuplicateDictKeys) {
  EXPECT_THROW(decode("d1:bi1e1:ai2ee"), Error);   // descending
  EXPECT_THROW(decode("d1:ai1e1:ai2ee"), Error);   // duplicate
}

TEST(Decode, RejectsDepthBomb) {
  std::string bomb;
  for (int i = 0; i < 200; ++i) bomb += "l";
  for (int i = 0; i < 200; ++i) bomb += "e";
  EXPECT_THROW(decode(bomb), Error);
}

// The Reader reads a lone digit before its terminator ("4:", "i1e") on a
// fast path; these inputs sit on either side of it. The tree decoder and
// a bare Reader walk must give the same verdict, and it is pinned.
TEST(Decode, OneDigitNumbersKeepTheirVerdicts) {
  struct Case {
    const char* input;
    bool accepted;
  };
  const Case cases[] = {
      {"0:", true},      {"i0e", true},      {"i-0e", false}, {"i03e", false},
      {"03:abc", false}, {"1:", false},      {"5:ab", false}, {"i9e", true},
      {"i10e", true},    {"-1:", false},     {"9:", false},   {"1:a", true},
      {"i-1e", true},    {"d1:ai7ee", true}, {"d1:a", false}, {"i7", false},
  };
  for (const Case& c : cases) {
    bool tree_accepts = true;
    try {
      decode(c.input);
    } catch (const Error&) {
      tree_accepts = false;
    }
    Reader r(c.input);
    const bool reader_accepts = r.skip() && r.finish();
    EXPECT_EQ(tree_accepts, c.accepted) << c.input;
    EXPECT_EQ(reader_accepts, c.accepted) << c.input;
  }
  EXPECT_EQ(decode("i0e").as_integer(), 0);
  EXPECT_EQ(decode("i9e").as_integer(), 9);
  EXPECT_EQ(decode("i10e").as_integer(), 10);
  EXPECT_EQ(decode("0:").as_string(), "");
  EXPECT_EQ(decode("1:a").as_string(), "a");
  // "9:" at the very end: the length is read, the payload is missing.
  Reader r("9:");
  std::string_view out;
  EXPECT_FALSE(r.string(out));
  EXPECT_EQ(r.error(), "bencode: string exceeds input at offset 2");
}

TEST(Encode, WriterMatchesTreeAroundOneDigit) {
  for (const std::int64_t v : {std::int64_t{-10}, std::int64_t{-1}, std::int64_t{0},
                               std::int64_t{1}, std::int64_t{9}, std::int64_t{10},
                               std::int64_t{99}, std::int64_t{100}}) {
    std::string out;
    Writer(out).integer(v);
    EXPECT_EQ(out, encode(Value(v))) << v;
  }
  for (const std::size_t n : {0, 1, 9, 10, 11}) {
    const std::string bytes(n, 'x');
    std::string out;
    Writer(out).string(bytes);
    EXPECT_EQ(out, encode(Value(bytes))) << n;
  }
}

TEST(Decode, IntegerOverflowRejected) {
  EXPECT_THROW(decode("i99999999999999999999999999e"), Error);
}

TEST(Accessors, TypeMismatchThrows) {
  const Value v{std::int64_t{1}};
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.as_list(), Error);
  EXPECT_THROW(v.as_dict(), Error);
  EXPECT_EQ(v.as_integer(), 1);
  const Value s{"x"};
  EXPECT_THROW(s.as_integer(), Error);
}

TEST(Accessors, FindOnDict) {
  Dict d;
  d.emplace("num", std::int64_t{9});
  d.emplace("str", "v");
  const Value v{std::move(d)};
  EXPECT_NE(v.find("num"), nullptr);
  EXPECT_EQ(v.find("absent"), nullptr);
  EXPECT_EQ(v.find_integer("num"), 9);
  EXPECT_EQ(v.find_integer("str"), std::nullopt);  // wrong type
  EXPECT_EQ(v.find_string("str"), "v");
  EXPECT_EQ(v.find_string("num"), std::nullopt);
  EXPECT_THROW(v.at("absent"), Error);
}

TEST(Accessors, FindOnNonDictIsNull) {
  const Value v{std::int64_t{3}};
  EXPECT_EQ(v.find("x"), nullptr);
}

TEST(Equality, DeepComparison) {
  EXPECT_EQ(decode("li1ei2ee"), decode("li1ei2ee"));
  EXPECT_FALSE(decode("li1ei2ee") == decode("li1ei3ee"));
  EXPECT_FALSE(decode("i1e") == decode("1:1"));
}

}  // namespace
}  // namespace btpub::bencode
